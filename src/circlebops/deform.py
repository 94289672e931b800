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

The monodromy of the system about each singularity is encoded in the
coefficient C_j of the local decomposition F = f_j + C_j w of the
Caratheodory transform (f_j the holomorphic ODE solution); C_j is extracted
by ring least squares and must be constant along any flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assoc import AssocSystem
from .bops import BopsSystem
from .coeffs import CoeffQuad
from .config import DEFAULT_QUAD, DEFAULT_TOL, QuadratureConfig, Tolerances
from .errors import GeometryError, SingularResidueError, WeightValidationError
from .lax import ResidueSet, assemble_residues, k_matrix
from .moments import CaratheodoryEvaluator, compute_moments
from .numerics import rel_residual
from .pipeline import Bundle, build_bundle
from .report import IdentityReport
from .weight import PolyPair, SemiClassicalWeight, eval_weight


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

    def locations(self, t: float) -> np.ndarray:
        locs = self.weight0.locations.copy()
        frac = (t - self.t0) / (self.t1 - self.t0)
        start = self.weight0.singularities[self.moving].location
        locs[self.moving] = start + frac * (complex(self.target) - start)
        return locs

    def velocities(self, t: float) -> np.ndarray:
        out = np.zeros(self.weight0.m, dtype=complex)
        start = self.weight0.singularities[self.moving].location
        out[self.moving] = (complex(self.target) - start) / (self.t1 - self.t0)
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


def weight_logderivative_rate(traj, t: float, z) -> np.ndarray:
    """d/dt log w(z; t) = -sum_j rho_j zdot_j / (z - z_j(t))."""
    zs = np.asarray(z, dtype=complex)
    locs = traj.locations(t)
    vel = traj.velocities(t)
    rhos = traj.weight0.exponents
    out = np.zeros_like(zs)
    for zj, zdot, rho in zip(locs, vel, rhos):
        if zdot != 0:
            out = out - rho * zdot / (zs - zj)
    return out


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
    provenance: str = "schlesinger_flow"

    @property
    def phibar0(self) -> complex:
        return self.kappa * self.rbar

    def pack(self) -> np.ndarray:
        return np.concatenate(
            [self.a.ravel(), self.a_inf.ravel(), [self.kappa, self.r, self.rbar]]
        )

    @classmethod
    def unpack(cls, t: float, n: int, m: int, y: np.ndarray, provenance: str) -> "DeformState":
        a = y[: 4 * m].reshape(m, 2, 2)
        a_inf = y[4 * m : 4 * m + 4].reshape(2, 2)
        kappa, r, rbar = y[4 * m + 4 :]
        return cls(t, n, a.copy(), a_inf.copy(), complex(kappa), complex(r), complex(rbar), provenance)


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
    quad: QuadratureConfig = DEFAULT_QUAD,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[DeformState, Bundle]:
    """Full from-scratch construction of the deformation state at time t
    (the independent oracle for flowed states)."""
    weight = traj.weight_at(t)
    bundle = build_bundle(
        weight, n + 2, quad_ns=(n - 1, n) if n >= 1 else (n,), quad=quad, tol=tol
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
        provenance="moment_rebuild",
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


def _moving_terms(traj, t: float):
    locs = traj.locations(t)
    vel = traj.velocities(t)
    rhos = traj.weight0.exponents
    for zj, zdot, rho in zip(locs, vel, rhos):
        if zdot == 0:
            continue
        if zj == 0:
            raise SingularResidueError("a moving singularity sits at the origin")
        yield complex(zj), complex(zdot), complex(rho)


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
    from the bilinear-residue sums over the moving singularities.  Both
    displayed routes to kappa-dot are computed; their gap is an internal
    consistency diagnostic.  r-dot / rbar-dot use the level n-1 coefficient
    functions, so quads must hold levels n-1 and n."""
    lev = sys.level(n)
    sum_rho_zdot = 0j
    route_a = 0j
    route_b = 0j
    rdot_sum = 0j
    rbardot_sum = 0j
    dphi_sum = 0j
    dphibar_sum = 0j
    qm = quads[n - 1] if n >= 1 else None
    qn = quads[n]
    for zj, zdot, rho in _moving_terms(traj, t):
        vj = vw.v_eval(zj)
        if abs(vj) < 1e-12:
            raise SingularResidueError(f"V({zj}) = 0 in a deformation-rate sum")
        ratio = zdot / zj
        sum_rho_zdot += rho * ratio
        phi, star, eps, eps_s = asys.evaluate(n, zj)
        route_a += 0.5 * rho * ratio * zj ** (-n) * eps * star
        route_b += -0.5 * rho * ratio * zj ** (-n) * eps_s * phi
        if qm is not None:
            rdot_sum += 0.5 * rho * ratio * (qm.om(zj) - vj) / vj
            rbardot_sum += 0.5 * rho * ratio * (qm.oms(zj) + vj) / vj
        dphi_sum += rho / (2.0 * vj) * ratio * qn.th(zj)
        dphibar_sum += rho / (2.0 * vj) * zdot * qn.ths(zj)

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
    rdot = lev.r * rdot_sum if qm is not None else lev.r * (dlog_phi0 - kdot)
    rbardot = lev.rbar * rbardot_sum if qm is not None else lev.rbar * (dlog_phibar0 - kdot)
    return RatesRecord(
        n=n,
        t=t,
        kdot_over_k_a=kdot_a,
        kdot_over_k_b=kdot_b,
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


def _flow_coefficients(traj, t: float, m: int):
    """The factors of the right-hand side that depend on t only: the moving
    (4j, zdot_j/z_j), sum_j rho_j zdot_j/z_j, and for each packed block
    (A_1..A_m, A_inf) its nonzero (4k, (zdot_j - zdot_k)/(z_j - z_k))."""
    locs = np.asarray(traj.locations(t), dtype=complex).tolist()
    vel = np.asarray(traj.velocities(t), dtype=complex).tolist()
    rhos = np.asarray(traj.weight0.exponents, dtype=complex).tolist()
    if len(locs) != m:
        raise ValueError("state and trajectory disagree on the number of singularities")
    moving = [j for j in range(m) if vel[j] != 0]
    if any(locs[j] == 0 for j in moving):
        raise SingularResidueError("a moving singularity sits at the origin")
    if len(set(locs)) < m:
        raise SingularResidueError("coincident singularities in the Schlesinger sum")
    ratios = [(4 * j, vel[j] / locs[j]) for j in moving]
    sum_rho_zdot = sum((rhos[b // 4] * ratio for b, ratio in ratios), 0j)
    pairs = [
        [(4 * k, (vel[j] - vel[k]) / (locs[j] - locs[k])) for k in range(m) if vel[k] != vel[j]]
        for j in range(m)
    ] + [[]]  # dA_inf/dt = [B_inf, A_inf]
    return ratios, sum_rho_zdot, pairs


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
    dy, kdot, b10 = _rhs(state.pack().tolist(), m, _flow_coefficients(traj, t, m))
    b_inf = np.array([[kdot, 0.0], [b10, -kdot]], dtype=complex)
    blocks = np.array(dy[: 4 * m + 4])
    return SchlesingerRhs(
        blocks[: 4 * m].reshape(m, 2, 2), blocks[4 * m :].reshape(2, 2), *dy[-3:], b_inf
    )


def schlesinger_component_check(
    sys: BopsSystem,
    quads: dict[int, CoeffQuad],
    vw: PolyPair,
    traj,
    n: int,
    t: float,
    rates: RatesRecord,
    residues: ResidueSet,
    tol: float = 1e-8,
) -> IdentityReport:
    """The component forms of the Schlesinger derivatives (written in
    coefficient-function evaluations at the singular points) against the
    matrix-form right-hand side, entry by entry."""
    rep = IdentityReport(f"Schlesinger component forms at n={n}")
    locs = traj.locations(t)
    vel = traj.velocities(t)
    rhos = traj.weight0.exponents
    lev, lp = sys.level(n), sys.level(n + 1)
    quad = quads[n]
    kdot = rates.kdot_over_k
    dkb = rates.d_kappa_phibar0
    state = DeformState(
        t=t, n=n, a=residues.a, a_inf=residues.a_inf,
        kappa=lev.kappa, r=lev.r, rbar=lev.rbar,
    )
    rhs = schlesinger_rhs(state, traj, t)
    anchor = "we find the following independent derivatives in component form"

    def comm(x, y):
        return x @ y - y @ x

    # The component reductions below hold for the non-origin singularities
    # (they use Omega* - Omega = -(kappa_{n+1}/kappa_n)(z Theta - Theta*) at
    # a point with W = 0, z != 0); the origin's commutator term carries the
    # extra n W'(0) of that identity and is added with its exact residue
    # matrix instead.
    for j in range(1, len(locs)):
        zj = complex(locs[j])
        vj = vw.v_eval(zj)
        pref = rhos[j] / (2.0 * vj)
        cross_a = 0j
        cross_b = 0j
        cross_c = 0j
        origin = np.zeros((2, 2), dtype=complex)
        for k in range(len(locs)):
            if k == j:
                continue
            zk = complex(locs[k])
            coeff = (vel[j] - vel[k]) / (zj - zk)
            if coeff == 0:
                continue
            if k == 0:
                origin = origin + coeff * comm(residues.a[0], residues.a[j])
                continue
            vk = vw.v_eval(zk)
            pk = rhos[k] / (2.0 * vk)
            cross_a += pk * coeff * (
                zk * quad.ths(zk) * quad.th(zj) - zj * quad.th(zk) * quad.ths(zj)
            )
            cross_b += pk * coeff * (
                quad.th(zk) * (quad.om(zj) - lp.kappa / lev.kappa * zj * quad.th(zj))
                - quad.th(zj) * (quad.om(zk) - lp.kappa / lev.kappa * zk * quad.th(zk))
            )
            cross_c += pk * coeff * (
                zk * quad.ths(zk) * (quad.oms(zj) - lp.kappa / lev.kappa * quad.ths(zj))
                - zj * quad.ths(zj) * (quad.oms(zk) - lp.kappa / lev.kappa * quad.ths(zk))
            )

        # the B_inf term of the first component enters with + (it is
        # -A_j[0,1] B_inf[1,0] of the commutator, and the displayed bracket
        # is -A_j[0,0])
        comp_a = (
            pref * lp.phi0 / lev.kappa**3 * dkb * quad.th(zj)
            - pref * lp.phi0 * lp.phibar0 / lev.kappa**2 * cross_a
            - origin[0, 0]
        )
        rep.add(
            "schlesinger_component_a",
            anchor,
            rel_residual(comp_a - (-rhs.da[j][0, 0]), comp_a, rhs.da[j][0, 0]),
            tol,
            n=n,
            where=f"z_{j + 1}",
        )
        comp_b = (
            rhos[j] / vj * lp.phi0 / lev.kappa * (kdot * quad.th(zj) + cross_b)
            + origin[0, 1]
        )
        rep.add(
            "schlesinger_component_b",
            anchor,
            rel_residual(comp_b - rhs.da[j][0, 1], comp_b, rhs.da[j][0, 1]),
            tol,
            n=n,
            where=f"z_{j + 1}",
        )
        comp_c = (
            rhos[j]
            / vj
            * lp.phibar0
            / lev.kappa
            * (
                -kdot * zj * quad.ths(zj)
                + dkb / (lev.kappa * lp.phibar0)
                * (quad.oms(zj) - lp.kappa / lev.kappa * quad.ths(zj))
                - cross_c
            )
            - origin[1, 0]
        )
        rep.add(
            "schlesinger_component_c",
            anchor,
            rel_residual(comp_c - (-rhs.da[j][1, 0]), comp_c, rhs.da[j][1, 0]),
            tol,
            n=n,
            where=f"z_{j + 1}",
        )
    return rep


# ---------------------------------------------------------------------------
# Flow integration (classic fixed-step RK4 with Richardson monitoring)
# ---------------------------------------------------------------------------

def integrate_flow(
    initial: DeformState,
    traj,
    t_span: tuple[float, float],
    steps: int,
) -> list[DeformState]:
    """Fixed-step fourth-order Runge-Kutta on the packed Schlesinger state;
    returns the state at every grid time (steps + 1 entries).  The
    time-only coefficients are computed once per grid time and midpoint."""
    t0, t1 = t_span
    if steps < 1:
        raise ValueError("steps must be positive")
    if t1 == t0:
        return [initial]
    m = len(initial.a)
    n = initial.n
    h = (t1 - t0) / steps
    half = 0.5 * h
    out = [DeformState.unpack(t0, n, m, initial.pack(), "schlesinger_flow")]
    y = initial.pack().tolist()
    coef = _flow_coefficients(traj, t0, m)
    for step in range(steps):
        t_next = t1 if step == steps - 1 else t0 + (step + 1) * h
        coef_mid = _flow_coefficients(traj, t0 + step * h + half, m)
        coef_next = _flow_coefficients(traj, t_next, m)
        k1 = _rhs(y, m, coef)[0]
        k2 = _rhs([a + half * b for a, b in zip(y, k1)], m, coef_mid)[0]
        k3 = _rhs([a + half * b for a, b in zip(y, k2)], m, coef_mid)[0]
        k4 = _rhs([a + h * b for a, b in zip(y, k3)], m, coef_next)[0]
        y = [
            a + h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        ]
        coef = coef_next
        packed = np.array(y)
        if not np.isfinite(packed).all():
            raise SingularResidueError(f"flow blew up at t = {t_next} (movable singularity?)")
        out.append(DeformState.unpack(t_next, n, m, packed, "schlesinger_flow"))
    return out


def flow_convergence(states: Sequence[DeformState], traj) -> dict[str, float]:
    """Richardson step-halving monitor on a flow returned by integrate_flow:
    endpoint changes under halving from steps/2 -> steps and steps ->
    2*steps, and their ratio (16 for a clean fourth-order integrator).  The
    flow's own endpoint is the steps one; only the other two are integrated."""
    initial, mid = states[0], states[-1]
    t_span = (initial.t, mid.t)
    steps = len(states) - 1
    coarse = integrate_flow(initial, traj, t_span, max(1, steps // 2))[-1]
    fine = integrate_flow(initial, traj, t_span, max(1, 2 * steps))[-1]
    err_coarse = state_gap(coarse, mid)
    err_fine = state_gap(mid, fine)
    ratio = err_coarse / err_fine if err_fine > 0 else float("inf")
    return {"coarse": err_coarse, "fine": err_fine, "ratio": ratio}


def flow_invariants(states: Sequence[DeformState]) -> dict[str, float]:
    """Trace conservation and rank-one persistence along a flow."""
    a = np.stack([st.a for st in states])
    traces = np.trace(a, axis1=2, axis2=3)
    return {
        "trace_drift": float(np.max(np.abs(traces - traces[0]))),
        "det_max": float(np.max(np.abs(np.linalg.det(a)))),
    }


# ---------------------------------------------------------------------------
# Monodromy: ring extraction of the connection coefficient C_j
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonodromyRecord:
    j: int
    rho: complex
    ts: tuple[float, ...]
    c_series: tuple[complex, ...]
    drift: float
    refinement_drift: float
    m_matrix: np.ndarray
    asserted: bool  # Re rho > 0: constancy is a theorem, not best-effort

    @property
    def c0(self) -> complex:
        return self.c_series[0]


def _ring_radius(locs: np.ndarray, j: int) -> float:
    zj = locs[j]
    dist = min(abs(zj - locs[k]) for k in range(len(locs)) if k != j)
    dist = min(dist, abs(abs(zj) - 1.0))
    if dist <= 0:
        raise GeometryError(f"singularity {j + 1} touches the unit circle or a neighbour")
    return dist / 3.0


def extract_connection_coefficient(
    weight: SemiClassicalWeight,
    f_eval: CaratheodoryEvaluator,
    j: int,
    radius: float | None = None,
    points: int = 48,
    basis_degree: int = 10,
) -> complex:
    """Least-squares fit F(z) ~ sum_l a_l (z - z_j)^l + C_j w(z) on a ring
    around z_j; returns C_j.  The ring never touches the unit circle or
    another singularity, and the ring angles avoid the branch cut of the
    local weight factor."""
    locs = weight.locations
    zj = complex(locs[j])
    if radius is None:
        radius = _ring_radius(locs, j)
    side = "outside" if abs(zj) > 1 else "inside"
    angles = 2.0 * np.pi * (np.arange(points) + 0.5) / points
    ring = zj + radius * np.exp(1j * angles)
    cols = [(ring - zj) ** l for l in range(basis_degree + 1)]
    cols.append(eval_weight(weight, ring))
    amat = np.stack(cols, axis=1)
    rhs = f_eval(ring, side=side)
    coeffs, _res, rank, _sv = np.linalg.lstsq(amat, rhs, rcond=None)
    if rank < amat.shape[1]:
        raise GeometryError(
            f"ill-conditioned monodromy fit around z_{j + 1}; "
            f"try a smaller ring than {radius}"
        )
    return complex(coeffs[-1])


def isomonodromy_check(
    states: Sequence[DeformState],
    traj,
    window: int = 32,
    subsample: int = 8,
    points: int = 48,
    basis_degree: int = 10,
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> list[MonodromyRecord]:
    """Extract C_j at a subsample of the flow grid and report its drift;
    the monodromy matrix [[1, C_j (1 - e^{-2 pi i rho_j})], [0, e^{-2 pi i
    rho_j}]] is then constant along the flow whenever C_j is.  Asserted only
    for Re rho_j > 0 (elsewhere the extraction is best-effort)."""
    ts = [st.t for st in states]
    picks = sorted(set(list(range(0, len(ts), max(1, len(ts) // subsample))) + [len(ts) - 1]))
    records = []
    weights = {}
    fs = {}
    for idx in picks:
        w_t = traj.weight_at(ts[idx])
        weights[idx] = w_t
        fs[idx] = CaratheodoryEvaluator(compute_moments(w_t, window, quad))
    for j in range(1, traj.weight0.m):
        rho = complex(traj.weight0.singularities[j].exponent)
        series = []
        for idx in picks:
            series.append(
                extract_connection_coefficient(
                    weights[idx], fs[idx], j, points=points, basis_degree=basis_degree
                )
            )
        # refinement validation at the initial time: halve the ring radius
        base_radius = _ring_radius(weights[picks[0]].locations, j)
        refined = extract_connection_coefficient(
            weights[picks[0]], fs[picks[0]], j, radius=base_radius / 2.0,
            points=points, basis_degree=basis_degree,
        )
        c0 = series[0]
        drift = max(abs(c - c0) for c in series)
        phase = np.exp(-2j * np.pi * rho)
        m_matrix = np.array([[1.0, c0 * (1.0 - phase)], [0.0, phase]], dtype=complex)
        records.append(
            MonodromyRecord(
                j=j,
                rho=rho,
                ts=tuple(ts[i] for i in picks),
                c_series=tuple(series),
                drift=float(drift),
                refinement_drift=float(abs(refined - c0)),
                m_matrix=m_matrix,
                asserted=rho.real > 0,
            )
        )
    return records


# ---------------------------------------------------------------------------
# Cross-checks tying rates, transfer matrices and the weight motion together
# ---------------------------------------------------------------------------

def rates_fd_check(traj, n: int, t: float, h: float = 1e-4) -> dict[str, float]:
    """Finite-difference oracle for the scalar rates: rebuild kappa_n, r_n,
    rbar_n from moments at t -+ h and compare the centered difference with
    the closed-form rates at t."""
    state_m, _ = moment_rebuild(traj, t - h, n)
    state_p, _ = moment_rebuild(traj, t + h, n)
    state_0, bundle = moment_rebuild(traj, t, n)
    rates = deformation_rates(
        bundle.sys, bundle.asys, bundle.quads, bundle.vw, traj, n, t
    )
    fd = {
        "kappa": (state_p.kappa - state_m.kappa) / (2.0 * h),
        "r": (state_p.r - state_m.r) / (2.0 * h),
        "rbar": (state_p.rbar - state_m.rbar) / (2.0 * h),
    }
    closed = {
        "kappa": rates.kdot_over_k * state_0.kappa,
        "r": rates.rdot,
        "rbar": rates.rbardot,
    }
    return {
        key: abs(fd[key] - closed[key]) / max(1.0, abs(closed[key])) for key in fd
    }


def transfer_rate_check(
    traj, n: int, t: float, zs: Sequence[complex], h: float = 1e-4
) -> float:
    """Compatibility K-dot_n = B_{n+1} K_n - K_n B_n at sampled z, with
    K-dot by centered differences of rebuilt transfer matrices and B_n(z) =
    B_inf - sum_j zdot_j A_j / (z - z_j)."""
    _, bundle_m = moment_rebuild(traj, t - h, n + 1)
    _, bundle_p = moment_rebuild(traj, t + h, n + 1)
    state_n, bundle = moment_rebuild(traj, t, n)
    state_np, bundle_hi = moment_rebuild(traj, t, n + 1)
    rates_n = deformation_rates(bundle.sys, bundle.asys, bundle.quads, bundle.vw, traj, n, t)
    rates_np = deformation_rates(
        bundle_hi.sys, bundle_hi.asys, bundle_hi.quads, bundle_hi.vw, traj, n + 1, t
    )
    locs = traj.locations(t)
    vel = traj.velocities(t)

    def b_matrix(rates, state, z):
        out = rates.b_inf.copy()
        for zj, zdot, aj in zip(locs, vel, state.a):
            if zdot != 0:
                out = out - zdot / (z - zj) * aj
        return out

    worst = 0.0
    for z in zs:
        kd = (k_matrix(bundle_p.sys, n, z) - k_matrix(bundle_m.sys, n, z)) / (2.0 * h)
        rhs = b_matrix(rates_np, state_np, z) @ k_matrix(bundle.sys, n, z) - k_matrix(
            bundle.sys, n, z
        ) @ b_matrix(rates_n, state_n, z)
        worst = max(worst, rel_residual(kd - rhs, kd, rhs))
    return worst


def weight_rate_check(traj, t: float, zs: Sequence[complex], h: float = 1e-5) -> float:
    """d/dt log w against -sum rho_j zdot_j/(z - z_j) by finite differences
    of the weight along the trajectory."""
    w_m = traj.weight_at(t - h)
    w_p = traj.weight_at(t + h)
    w_0 = traj.weight_at(t)
    worst = 0.0
    for z in zs:
        fd = (eval_weight(w_p, z) - eval_weight(w_m, z)) / (2.0 * h * eval_weight(w_0, z))
        want = complex(weight_logderivative_rate(traj, t, z))
        worst = max(worst, abs(fd - want) / max(1.0, abs(want)))
    return worst
