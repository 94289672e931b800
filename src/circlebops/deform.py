"""Isomonodromic deformation of regular semi-classical weights.

Moving the singularities along trajectories z_j(t) transports the residue
matrices A_{nj} by the Schlesinger system

    dA_j/dt = [B_inf, A_j] + sum_{k != j} (zdot_j - zdot_k)/(z_j - z_k) [A_k, A_j],
    dA_inf/dt = [B_inf, A_inf],

with B_inf built from the logarithmic rates of kappa_n and kappa_n
phibar_n(0).  Those rates are sums of bilinear residues over the moving
singularities, and since every bilinear product appearing in them is an
entry of a residue matrix, the right-hand side closes over the state
(A_1..A_m, kappa_n, r_n, rbar_n).  A flow can therefore be integrated
without ever rebuilding moments; independently rebuilding the state from
moments at any time provides the cross-validation oracle.  The flow kernel
uses scalar complex arithmetic: numpy's per-call overhead on 2x2 blocks
outweighs their arithmetic (stacked einsum/matmul measured 2.4x slower).

The local monodromy about each singularity is fixed by its residue matrix,
whose trace and determinant have a closed form: tr A_nj = -rho_j at every
nonzero z_j, tr A_n0 = n - rho_0 at the origin, and det A_nj = 0.  So
exp(2 pi i A_nj) has the eigenvalues 1 and e^{-2 pi i rho_j} whatever
z_j(t), and `flow_invariants` reads the gap from that closed form off the
flowed states, in the same pass as the trace and rank-one checks.

A flow is checked against itself by Richardson step halving on a ladder of
power-of-two step counts, each compared with twice its steps.  The ladder is
climbed from one step until the endpoint change sinks into round-off, so the
ratio reads as the order (16 for RK4) and the rungs that only show round-off
are never integrated.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assoc import AssocSystem
from .bops import BopsSystem
from .coeffs import CoeffQuad
from .config import QUAD_POINTS
from .errors import SingularResidueError, WeightValidationError
from .lax import assemble_residues
from .pipeline import Bundle, build_bundle
from .weight import PolyPair, SemiClassicalWeight


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearTrajectory:
    """Moves one singularity linearly from its base location to ``target``
    over [t0, t1]; every other singularity (the origin included) stays put."""

    weight0: SemiClassicalWeight
    moving: int  # index into weight0.singularities; 0 (the origin) is not allowed
    target: complex
    t0: float = 0.0
    t1: float = 1.0

    def __post_init__(self):
        if self.moving == 0:
            raise WeightValidationError("the origin singularity is pinned and cannot move")
        if not (0 < self.moving < self.weight0.m):
            raise WeightValidationError(f"no singularity with index {self.moving}")
        if self.t1 == self.t0:
            raise ValueError("degenerate time interval")

    def locations(self, t) -> np.ndarray:
        """z_j(t) for a time or an array of times, shape t.shape + (m,)."""
        frac = (np.asarray(t, dtype=float) - self.t0) / (self.t1 - self.t0)
        locs = np.broadcast_to(self.weight0.locations, frac.shape + (self.weight0.m,)).copy()
        start = self.weight0.singularities[self.moving].location
        locs[..., self.moving] = start + frac * (complex(self.target) - start)
        return locs

    def velocities(self, t) -> np.ndarray:
        out = np.zeros(np.shape(t) + (self.weight0.m,), dtype=complex)
        start = self.weight0.singularities[self.moving].location
        out[..., self.moving] = (complex(self.target) - start) / (self.t1 - self.t0)
        return out

    def weight_at(self, t: float) -> SemiClassicalWeight:
        locs = self.locations(t)
        for i in range(len(locs)):
            for k in range(i + 1, len(locs)):
                if locs[i] == locs[k]:
                    raise WeightValidationError(
                        f"trajectory collides singularities {i + 1} and {k + 1} at t={t}"
                    )
        return self.weight0.with_locations(locs)


# ---------------------------------------------------------------------------
# Deformation state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeformState:
    t: float
    n: int
    a: np.ndarray  # (m, 2, 2) residue matrices
    a_inf: np.ndarray
    kappa: complex
    r: complex
    rbar: complex

    @property
    def phibar0(self) -> complex:
        return self.kappa * self.rbar

    def pack(self) -> np.ndarray:
        return np.concatenate(
            [self.a.ravel(), self.a_inf.ravel(), [self.kappa, self.r, self.rbar]]
        )

    @classmethod
    def unpack(cls, t: float, n: int, m: int, y: np.ndarray) -> "DeformState":
        a = y[: 4 * m].reshape(m, 2, 2)
        a_inf = y[4 * m : 4 * m + 4].reshape(2, 2)
        kappa, r, rbar = y[4 * m + 4 :]
        return cls(t, n, a.copy(), a_inf.copy(), complex(kappa), complex(r), complex(rbar))


def state_gap(a: DeformState, b: DeformState) -> float:
    """Largest entrywise / scalar discrepancy between two states."""
    return float(
        max(
            np.max(np.abs(a.a - b.a)),
            np.max(np.abs(a.a_inf - b.a_inf)),
            abs(a.kappa - b.kappa),
            abs(a.r - b.r),
            abs(a.rbar - b.rbar),
        )
    )


def moment_rebuild(
    traj,
    t: float,
    n: int,
    quad_points: int = QUAD_POINTS,
    tol_scale: float = 1.0,
) -> tuple[DeformState, Bundle]:
    """Full from-scratch construction of the deformation state at time t
    (the independent oracle for flowed states)."""
    weight = traj.weight_at(t)
    bundle = build_bundle(
        weight, n + 2, quad_ns=(n - 1, n) if n >= 1 else (n,),
        quad_points=quad_points, tol_scale=tol_scale,
    )
    res = assemble_residues(bundle.quads[n], bundle.vw, bundle.sys, n, weight)
    lev = bundle.sys.level(n)
    state = DeformState(
        t=t,
        n=n,
        a=res.a,
        a_inf=res.a_inf,
        kappa=lev.kappa,
        r=lev.r,
        rbar=lev.rbar,
    )
    return state, bundle


# ---------------------------------------------------------------------------
# Deformation rates from the coefficient functions (Omega/Theta route)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatesRecord:
    n: int
    t: float
    kdot_over_k_a: complex  # via the eps phi* residue sum
    kdot_over_k_b: complex  # via the eps* phi residue sum
    rdot: complex
    rbardot: complex
    dlog_phi0: complex
    dlog_phibar0: complex
    d_kappa_phibar0: complex
    b_inf: np.ndarray

    @property
    def kdot_over_k(self) -> complex:
        return 0.5 * (self.kdot_over_k_a + self.kdot_over_k_b)

    @property
    def route_gap(self) -> float:
        return abs(self.kdot_over_k_a - self.kdot_over_k_b)


def deformation_rates(
    sys: BopsSystem,
    asys: AssocSystem,
    quads: dict[int, CoeffQuad],
    vw: PolyPair,
    traj,
    n: int,
    t: float,
) -> RatesRecord:
    """Logarithmic t-rates of kappa_n, r_n, rbar_n, phi_n(0), phibar_n(0)
    from the bilinear-residue sums over the moving singularities, each
    evaluated once at all of them.  Both displayed routes to kappa-dot are
    computed; their gap is an internal consistency diagnostic.  r-dot /
    rbar-dot use the level n-1 coefficient functions, so quads must hold
    levels n-1 and n."""
    lev = sys.level(n)
    vel = np.asarray(traj.velocities(t), dtype=complex)
    moving = vel != 0
    zj, zdot = np.asarray(traj.locations(t), dtype=complex)[moving], vel[moving]
    rho = np.asarray(traj.weight0.exponents, dtype=complex)[moving]
    if np.any(zj == 0):
        raise SingularResidueError("a moving singularity sits at the origin")
    vj = vw.v_eval(zj)
    if np.any(abs(vj) < 1e-12):
        raise SingularResidueError(f"V({zj[abs(vj) < 1e-12][0]}) = 0 in a deformation-rate sum")
    ratio = zdot / zj
    phi, star, eps, eps_s = asys.evaluate(n, zj)
    th, ths, _, _ = quads[n].evaluate(zj)
    sum_rho_zdot = np.sum(rho * ratio)
    route_a = np.sum(0.5 * rho * ratio * zj ** (-n) * eps * star)
    route_b = np.sum(-0.5 * rho * ratio * zj ** (-n) * eps_s * phi)
    dphi_sum = np.sum(rho / (2.0 * vj) * ratio * th)
    dphibar_sum = np.sum(rho / (2.0 * vj) * zdot * ths)

    kdot_a = 0.5 * (-sum_rho_zdot + route_a)
    kdot_b = 0.5 * route_b
    kdot = 0.5 * (kdot_a + kdot_b)
    lp = sys.level(n + 1)
    dlog_phi0 = lp.phi0 / lev.phi0 * dphi_sum - kdot - sum_rho_zdot
    dlog_phibar0 = lp.phibar0 / lev.phibar0 * dphibar_sum - kdot
    d_kappa_phibar0 = lev.kappa * lev.phibar0 * (kdot + dlog_phibar0)
    b_inf = np.array(
        [[kdot, 0.0], [d_kappa_phibar0 / lev.kappa**2, -kdot]], dtype=complex
    )
    if n >= 1:
        _, _, om_m, oms_m = quads[n - 1].evaluate(zj)
        rdot = lev.r * np.sum(0.5 * rho * ratio * (om_m - vj) / vj)
        rbardot = lev.rbar * np.sum(0.5 * rho * ratio * (oms_m + vj) / vj)
    else:
        rdot = lev.r * (dlog_phi0 - kdot)
        rbardot = lev.rbar * (dlog_phibar0 - kdot)
    return RatesRecord(
        n=n,
        t=t,
        kdot_over_k_a=complex(kdot_a),
        kdot_over_k_b=complex(kdot_b),
        rdot=complex(rdot),
        rbardot=complex(rbardot),
        dlog_phi0=complex(dlog_phi0),
        dlog_phibar0=complex(dlog_phibar0),
        d_kappa_phibar0=complex(d_kappa_phibar0),
        b_inf=b_inf,
    )


# ---------------------------------------------------------------------------
# Schlesinger right-hand side, closed over the state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchlesingerRhs:
    da: np.ndarray
    da_inf: np.ndarray
    kappadot: complex
    rdot: complex
    rbardot: complex
    b_inf: np.ndarray


def _flow_table(traj, times, m: int) -> list:
    """The factors of the right-hand side that depend on t only, at each of
    ``times`` from one trajectory call: the moving (4j, zdot_j/z_j), sum_j
    rho_j zdot_j/z_j and, per block A_1..A_m, A_inf, the nonzero (4k, (zdot_j
    - zdot_k)/(z_j - z_k)).  Python complex division: numpy's rounds apart."""
    locs = np.asarray(traj.locations(times), dtype=complex)
    vel = np.asarray(traj.velocities(times), dtype=complex)
    if locs.shape[-1] != m:
        raise ValueError("state and trajectory disagree on the number of singularities")
    locs, vel = locs.reshape(-1, m), vel.reshape(-1, m)
    if np.any((locs == 0) & (vel != 0)):
        raise SingularResidueError("a moving singularity sits at the origin")
    if np.any((locs[:, :, None] == locs[:, None, :]) & ~np.eye(m, dtype=bool)):
        raise SingularResidueError("coincident singularities in the Schlesinger sum")
    rhos = np.asarray(traj.weight0.exponents, dtype=complex).tolist()
    table = []
    for zs, vs in zip(locs.tolist(), vel.tolist()):
        ratios = [(4 * j, vs[j] / zs[j]) for j in range(m) if vs[j] != 0]
        pairs = [
            [(4 * k, (vs[j] - vs[k]) / (zs[j] - zs[k])) for k in range(m) if vs[k] != vs[j]]
            for j in range(m)
        ] + [[]]  # dA_inf/dt = [B_inf, A_inf]
        table.append((ratios, sum((rhos[b // 4] * r for b, r in ratios), 0j), pairs))
    return table


def _rhs(y: list, m: int, coef) -> tuple[list, complex, complex]:
    """d(state)/dt on the packed state (a list of 4m+7 Python complex), with
    the 2x2 products written out by entry through
    [B_inf, A_j] + sum_k c_jk [A_k, A_j] = [B_inf + sum_k c_jk A_k, A_j].
    Returns the packed derivative, kappa-dot/kappa and B_inf[1, 0]."""
    ratios, sum_rho_zdot, pairs = coef
    s00 = s01 = s10 = s11 = 0j
    for b, ratio in ratios:
        s00 += ratio * y[b]
        s01 += ratio * y[b + 1]
        s10 += ratio * y[b + 2]
        s11 += ratio * y[b + 3]
    kdot = 0.5 * (0.5 * (-sum_rho_zdot - s00) + 0.5 * s11)
    out = []
    for j, row in enumerate(pairs):
        p00, p01, p10, p11 = kdot, 0j, -s10, -kdot
        for b, coeff in row:
            p00 += coeff * y[b]
            p01 += coeff * y[b + 1]
            p10 += coeff * y[b + 2]
            p11 += coeff * y[b + 3]
        a00, a01, a10, a11 = y[4 * j : 4 * j + 4]
        dp = p00 - p11
        da = a00 - a11
        c00 = p01 * a10 - a01 * p10
        out += (c00, a01 * dp - p01 * da, p10 * da - a10 * dp, -c00)
    kappa, r, rbar = y[4 * m + 4 :]
    out += (kappa * kdot, s01 - r * (2.0 * kdot + sum_rho_zdot), -s10 - 2.0 * rbar * kdot)
    return out, kdot, -s10


def schlesinger_rhs(state: DeformState, traj, t: float) -> SchlesingerRhs:
    """d(state)/dt.  B_inf and the scalar rates are read off the residue
    matrices themselves: every bilinear residue sum entering them is, up to
    zdot_j/z_j weights, a sum of A_j entries."""
    m = len(state.a)
    dy, kdot, b10 = _rhs(state.pack().tolist(), m, _flow_table(traj, t, m)[0])
    b_inf = np.array([[kdot, 0.0], [b10, -kdot]], dtype=complex)
    blocks = np.array(dy[: 4 * m + 4])
    return SchlesingerRhs(
        blocks[: 4 * m].reshape(m, 2, 2), blocks[4 * m :].reshape(2, 2), *dy[-3:], b_inf
    )


# ---------------------------------------------------------------------------
# Flow integration (classic fixed-step RK4 with Richardson monitoring)
# ---------------------------------------------------------------------------

def _rk4_steps(initial: DeformState, traj, t_span: tuple[float, float], steps: int):
    """Fixed-step fourth-order Runge-Kutta on the packed Schlesinger state;
    yields (t, packed state as a list) after every step.  The time-only
    coefficients of every grid time and midpoint come from one table."""
    t0, t1 = t_span
    if steps < 1:
        raise ValueError("steps must be positive")
    m = len(initial.a)
    h = (t1 - t0) / steps
    half = 0.5 * h
    grid = [t0 + (step + 1) * h for step in range(steps - 1)] + [t1]
    times = [t0] + [t for s, t_next in enumerate(grid) for t in (t0 + s * h + half, t_next)]
    table = _flow_table(traj, np.array(times), m)
    y = initial.pack().tolist()
    for step, t_next in enumerate(grid):
        coef, coef_mid, coef_next = table[2 * step : 2 * step + 3]
        k1 = _rhs(y, m, coef)[0]
        k2 = _rhs([a + half * b for a, b in zip(y, k1)], m, coef_mid)[0]
        k3 = _rhs([a + half * b for a, b in zip(y, k2)], m, coef_mid)[0]
        k4 = _rhs([a + h * b for a, b in zip(y, k3)], m, coef_next)[0]
        y = [
            a + h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        ]
        if not all(map(cmath.isfinite, y)):
            raise SingularResidueError(f"flow blew up at t = {t_next} (movable singularity?)")
        yield t_next, y


def integrate_flow(
    initial: DeformState, traj, t_span: tuple[float, float], steps: int
) -> list[DeformState]:
    """Fixed-step RK4 on the packed Schlesinger state; returns the state at
    every grid time (steps + 1 entries)."""
    t0, t1 = t_span
    if steps < 1:
        raise ValueError("steps must be positive")
    if t1 == t0:
        return [initial]
    m, n = len(initial.a), initial.n
    out = [DeformState.unpack(t0, n, m, initial.pack())]
    for t, y in _rk4_steps(initial, traj, t_span, steps):
        out.append(DeformState.unpack(t, n, m, np.array(y)))
    return out


def flow_endpoint(
    initial: DeformState, traj, t_span: tuple[float, float], steps: int
) -> np.ndarray:
    """The packed state integrate_flow reaches at t_span[1], bit for bit,
    without keeping the states on the way."""
    for _, y in _rk4_steps(initial, traj, t_span, steps):
        pass
    return np.array(y)


def flow_convergence(states: Sequence[DeformState], traj) -> dict:
    """Richardson step-halving monitor on a flow returned by integrate_flow.

    The rungs s are the powers of two with 2s <= steps (s = 1 for a one-step
    flow); fine = |y_s - y_2s| and coarse = |y_{s/2} - y_s| read 16 for a
    clean fourth-order integrator, but below 100 ulps of the largest endpoint
    entry they are round-off.  The ladder is climbed from s = 1 and stops
    below the first rung whose fine is under that floor, or at the top;
    ``resolved`` says whether fine cleared it and ``steps`` is the s used.
    The flow's own endpoint is y_2s when 2s = steps.  At s = 1 there is no
    coarser grid, so coarse and the ratio are 0."""
    initial, end = states[0], states[-1]
    if len(states) == 1:
        return {"coarse": 0.0, "fine": 0.0, "ratio": float("inf"), "steps": 0, "resolved": False}
    t_span = (initial.t, end.t)
    steps = len(states) - 1
    ends = {steps: end.pack()}

    def at(k: int) -> np.ndarray:
        if k not in ends:
            ends[k] = flow_endpoint(initial, traj, t_span, k)
        return ends[k]

    def fine_at(s: int) -> float:
        return float(np.max(np.abs(at(s) - at(2 * s))))

    floor = 100 * 2.0**-52 * float(np.max(np.abs(ends[steps])))
    top = 1 << max(steps.bit_length() - 2, 0)
    s, coarse, fine = 1, 0.0, fine_at(1)
    while fine >= floor and s < top and (finer := fine_at(2 * s)) >= floor:
        s, coarse, fine = 2 * s, fine, finer
    ratio = coarse / fine if fine > 0 else float("inf")
    return {"coarse": coarse, "fine": fine, "ratio": ratio, "steps": s, "resolved": fine >= floor}


def flow_invariants(states: Sequence[DeformState], exponents) -> dict[str, float]:
    """Trace conservation, rank-one persistence and the local monodromy along
    a flow.  ``monodromy_gap`` is the largest departure, over every state and
    block, of (tr A_nj, det A_nj) from (-rho_j, 0), with n - rho_0 in place
    of -rho_0 for the origin block (the first one)."""
    a = np.stack([st.a for st in states])
    traces = np.trace(a, axis1=2, axis2=3)
    dets = np.abs(np.linalg.det(a))
    closed = -np.asarray(exponents, dtype=complex)
    closed[0] += states[0].n
    return {
        "trace_drift": float(np.max(np.abs(traces - traces[0]))),
        "det_max": float(np.max(dets)),
        "monodromy_gap": float(max(np.max(np.abs(traces - closed)), np.max(dets))),
    }
