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
moments at any time provides the cross-validation oracle; it rebuilds the
weight continued along the trajectory (`weight_at`), on the branch the
flow follows.  The state
arithmetic is scalar: on 2x2 blocks numpy's per-call overhead outweighs the
work.  A flow is one packed array, one row of 4m+7 entries (A_1..A_m,
A_inf, kappa, r, rbar) per time.  Its time-only coefficients come from one
numpy table over all its times.  Which state entries meet which columns
(the plan) is fixed for a flow, so the right-hand side and the whole RK4
loop are generated per plan as straight-line Python, the state held in
locals, and compiled on first use; a flow is one call of that loop.  Block
j's derivative [P_j, A_j], P_j = B_inf + sum_k c_jk A_k, is formed from P_j's
off-diagonal entries and P_j00 - P_j11 = 2 kdot + sum_k c_jk (A_k00 - A_k11),
each diagonal difference once per stage; its (1,1) entry, minus its (0,0)
one, is never formed.  The loop neither divides nor compares, so an entry
once inf or nan stays so: finiteness is checked once per flow.
The same trajectory, level and steps give the same flow, bit for bit, in a
repeated run or from the console script.

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
are never integrated.  Each rung is one flow; the rungs share one table.

`verify_flow` is the `deform` command's report: the flow against the
rebuild at its end, its invariants, the Richardson check, the two
kappa-rate routes and the rebuilds' own gates, each gated at its value in
FLOW_GATES times the run's --tol.

Level ceiling.  Moving the flagship's z_2 from 2 to 2-0.3i in 256 steps,
`richardson_halving` first fails at n = 8 (2.4e-7) and `flow_vs_moment_rebuild`
at n = 13 (2.0e-5).  Both are walls of the gates' absolute scale, not of the
flow: the A_nj entries grow to about 1.3e6 at n = 14, where the flowed
endpoint still matches the rebuild to about 5e-11 of each entry's own size.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .coeffs import DEGREE_TOL
from .errors import FlowPatternError, SingularResidueError, WeightValidationError
from .lax import RESIDUE_TOL, assemble_residues
from .numerics import polyval
from .pipeline import Bundle, build_bundle
from .report import IdentityReport
from .weight import SemiClassicalWeight


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
        if not np.isfinite(span := float(self.t1) - float(self.t0)):  # no overflow warning
            raise ValueError(f"the time span t1 - t0 must be finite, got {span!r}")

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
        """The weight at time t, continued along the segment from t0."""
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

def moment_rebuild(traj, t: float, n: int) -> tuple[np.ndarray, float, Bundle]:
    """Full from-scratch construction of the deformation state at time t
    (the independent oracle for flowed states): the packed row (A_1..A_m,
    A_inf, kappa_n, r_n, rbar_n), its residue sum's consistency
    (`ResidueSet.consistency`) and the bundle.  Nothing here is gated: the
    consistency and the bundle's quadruples' out-of-band ratios are
    reported by `deform`."""
    weight = traj.weight_at(t)
    bundle = build_bundle(weight, n + 2, quad_ns=(n - 1, n) if n >= 1 else (n,))
    res = assemble_residues(bundle, n)
    r, rbar = bundle.sys.reflections
    state = np.concatenate([res.a.ravel(), res.a_inf.ravel(), [bundle.sys.kappas[n], r[n], rbar[n]]])
    return state, float(res.consistency), bundle


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


def deformation_rates(bundle: Bundle, traj, n: int, t: float) -> RatesRecord:
    """Logarithmic t-rates of kappa_n, r_n, rbar_n, phi_n(0), phibar_n(0)
    from the bilinear-residue sums over the moving singularities, each
    evaluated once at all of them, on the bundle of the weight at time t.
    Both displayed routes to kappa-dot are computed; their gap is an
    internal consistency diagnostic.  r-dot / rbar-dot use the level n-1
    coefficient functions, so the bundle must hold quadruples n-1 and n."""
    sys = bundle.sys
    sys.require(n, n + 1)
    kappa, p0, pb0 = sys.kappas[n], sys.phi[n : n + 2, 0], sys.phibar[n : n + 2, 0]
    r, rbar = (col[n] for col in sys.reflections)
    vel = np.asarray(traj.velocities(t), dtype=complex)
    moving = vel != 0
    zj, zdot = np.asarray(traj.locations(t), dtype=complex)[moving], vel[moving]
    rho = np.asarray(traj.weight0.exponents, dtype=complex)[moving]
    if np.any(zj == 0):
        raise SingularResidueError("a moving singularity sits at the origin")
    vj = polyval(bundle.weight.vw.V, zj)
    if np.any(abs(vj) < 1e-12):
        raise SingularResidueError(f"V({zj[abs(vj) < 1e-12][0]}) = 0 in a deformation-rate sum")
    ratio = zdot / zj
    phi, star, eps, eps_s = (v[n] for v in bundle.asys.evaluate(zj))
    th, ths, _, _ = bundle.quads.values([n], zj)[0]
    sum_rho_zdot = np.sum(rho * ratio)
    route_a = np.sum(0.5 * rho * ratio * zj ** (-n) * eps * star)
    route_b = np.sum(-0.5 * rho * ratio * zj ** (-n) * eps_s * phi)
    dphi_sum = np.sum(rho / (2.0 * vj) * ratio * th)
    dphibar_sum = np.sum(rho / (2.0 * vj) * zdot * ths)

    kdot_a = 0.5 * (-sum_rho_zdot + route_a)
    kdot_b = 0.5 * route_b
    kdot = 0.5 * (kdot_a + kdot_b)
    dlog_phi0 = p0[1] / p0[0] * dphi_sum - kdot - sum_rho_zdot
    dlog_phibar0 = pb0[1] / pb0[0] * dphibar_sum - kdot
    d_kappa_phibar0 = kappa * pb0[0] * (kdot + dlog_phibar0)
    b_inf = np.array(
        [[kdot, 0.0], [d_kappa_phibar0 / kappa**2, -kdot]], dtype=complex
    )
    if n >= 1:
        _, _, om_m, oms_m = bundle.quads.values([n - 1], zj)[0]
        rdot = r * np.sum(0.5 * rho * ratio * (om_m - vj) / vj)
        rbardot = rbar * np.sum(0.5 * rho * ratio * (oms_m + vj) / vj)
    else:
        rdot = r * (dlog_phi0 - kdot)
        rbardot = rbar * (dlog_phibar0 - kdot)
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
# Schlesinger right-hand side, closed over the state, compiled per plan
# ---------------------------------------------------------------------------

def _flow_table(traj, times, m: int) -> tuple[tuple, list]:
    """The factors of the right-hand side that depend on t only, at each of
    ``times``, in one numpy pass from one trajectory call: zdot_j/z_j of
    each moving j, sum_j rho_j zdot_j/z_j, and (zdot_j - zdot_k)/(z_j - z_k)
    for each pair with zdot_j != zdot_k.

    Returns a plan and one row per time.  The plan holds (4j, column) per
    moving j, the column of the sum, and per block A_1..A_m, A_inf the
    (4k, column) of its pairs.  It is read off the first time; if the
    moving set or the pair set changes along ``times``, FlowPatternError."""
    locs = np.asarray(traj.locations(times), dtype=complex)
    vel = np.asarray(traj.velocities(times), dtype=complex)
    if locs.shape[-1] != m:
        raise ValueError("state and trajectory disagree on the number of singularities")
    locs, vel = locs.reshape(-1, m), vel.reshape(-1, m)
    if np.any((locs == 0) & (vel != 0)):
        raise SingularResidueError("a moving singularity sits at the origin")
    if np.any((locs[:, :, None] == locs[:, None, :]) & ~np.eye(m, dtype=bool)):
        raise SingularResidueError("coincident singularities in the Schlesinger sum")
    moving, apart = vel != 0, vel[:, :, None] != vel[:, None, :]
    if np.any(moving != moving[0]) or np.any(apart != apart[0]):
        raise FlowPatternError(
            "the moving singularities or their velocity pairs change along the flow"
        )
    js = np.flatnonzero(moving[0])
    pj, pk = np.nonzero(apart[0])  # j ascending, then k
    rho = np.asarray(traj.weight0.exponents, dtype=complex)[js]
    with np.errstate(all="ignore"):  # an overflow is inf; the flow reports it
        ratio = vel[:, js] / locs[:, js]
        pair = (vel[:, pj] - vel[:, pk]) / (locs[:, pj] - locs[:, pk])
        # an elementwise sum over the movers: no row's bits depend on the row count
        table = np.column_stack((ratio, (ratio * rho).sum(axis=1), pair))
    blocks = [[] for _ in range(m + 1)]  # A_inf's stays empty: dA_inf/dt = [B_inf, A_inf]
    for col, (j, k) in enumerate(zip(pj.tolist(), pk.tolist()), start=len(js) + 1):
        blocks[j].append((4 * k, col))
    ratios = tuple((4 * j, c) for c, j in enumerate(js.tolist()))
    return (ratios, len(js), tuple(map(tuple, blocks))), table.tolist()


_KERNELS: dict[tuple, tuple] = {}  # plan -> (rhs, run), compiled on the plan's first use


def _rhs_lines(plan: tuple, y: list, col: str, k: str) -> list[str]:
    """Source lines setting ``{k}_i`` to entry i of d(state)/dt at the state
    named ``y`` (4m+7 names) but each block's (1,1) entry, ``{k}_kdot`` to
    kappa-dot/kappa and ``{k}_b10`` to B_inf[1, 0], with column c of the
    table row named ``{col}{c}``; block j's is [P_j, A_j] (module
    docstring), and P_j01 = 0 where block j has no pairs."""
    ratios, total, blocks = plan
    n, kdot2, b10 = 4 * len(blocks), f"{k}_kdot2", f"{k}_b10"
    a01, a10, da = y[1:n:4], y[2:n:4], [f"{k}_d{j}" for j in range(len(blocks))]

    def acc(start: str, terms, names) -> str:
        """``start`` (if any) plus column c times names[b // 4] over ``terms``, or 0j."""
        products = [f"{col}{c} * {names[b // 4]}" for b, c in terms]
        return " + ".join([start] * bool(start) + products) or "0j"

    lines = [f"{da[j]} = {y[4 * j]} - {y[4 * j + 3]}" for j in range(len(blocks))] + [
        f"{k}_s01, {b10} = {acc('', ratios, a01)}, -({acc('', ratios, a10)})",
        f"{kdot2} = -0.5 * ({acc('', ratios, da)} + {col}{total})",
        f"{k}_kdot = 0.5 * {kdot2}",
    ]
    for j, blk in enumerate(blocks):
        p10, dp = (f"{k}_p10", f"{k}_dp") if blk else (b10, kdot2)
        lines += [
            f"{k}_p01, {p10}, {dp} = {acc('', blk, a01)}, {acc(b10, blk, a10)}, {acc(kdot2, blk, da)}",
            f"{k}_{4 * j} = {k}_p01 * {a10[j]} - {a01[j]} * {p10}",
            f"{k}_{4 * j + 1} = {a01[j]} * {dp} - {k}_p01 * {da[j]}",
        ] if blk else [f"{k}_{4 * j} = -({a01[j]} * {p10})", f"{k}_{4 * j + 1} = {a01[j]} * {dp}"]
        lines.append(f"{k}_{4 * j + 2} = {p10} * {da[j]} - {a10[j]} * {dp}")
    kappa, r, rbar = y[n:]
    return lines + [
        f"{k}_{n} = {kappa} * {k}_kdot",
        f"{k}_{n + 1} = {k}_s01 - {r} * ({kdot2} + {col}{total})",
        f"{k}_{n + 2} = {b10} - {rbar} * {kdot2}",
    ]


def _kernel(plan: tuple) -> tuple:
    """The right-hand side ``rhs(y, row)`` -> (derivative, kdot, B_inf[1, 0])
    and the RK4 loop ``run(y, rows, h, half, sixth, out)`` -> last state of
    one plan, compiled from straight-line source with every state entry,
    stage value and table column a local; ``run`` extends a flat list ``out``
    by each state.  The source is made from the plan's integers alone."""
    if plan not in _KERNELS:
        _, total, blocks = plan
        size, width = 4 * len(blocks) + 3, total + 1 + sum(map(len, blocks))
        y, u, v, w = ([f"{x}{i}" for i in range(size)] for x in "yuvw")
        unpack = [f"{', '.join(y)}, = y"] + [  # row, mid, end: columns r0.., m0.., e0..
            f"{', '.join(f'{arg[0]}{i}' for i in range(width))}, = {arg}"
            for arg in ("row", "mid", "end")
        ]
        diag = range(0, size - 3, 4)  # the (0,0) entries; each (1,1) one is 3 past

        def add(into, term):
            """Lines setting ``into`` to y + term(i) entrywise; a (1,1) entry's
            increment is minus its (0,0) one's, formed once as t."""
            return [f"{a}, {into[i + 3]} = {b} + (t := {term(i)}), {y[i + 3]} - t" if i in diag
                    else f"{a} = {b} + {term(i)}" for i, (a, b) in enumerate(zip(into, y)) if i - 3 not in diag]

        def stage(state, col, k, into=(), scale=""):
            """Stage k at ``state``, then the state ``into`` = y + scale * k."""
            return _rhs_lines(plan, state, col, k) + add(into, lambda i: f"{scale} * {k}_{i}")

        dy = [f"-k_{i - 3}" if i - 3 in diag else f"k_{i}" for i in range(size)]
        rhs = ["def rhs(y, row):", *unpack[:2], *stage(y, "r", "k"), f"return [{', '.join(dy)}], k_kdot, k_b10"]
        step = unpack[1:] + stage(y, "r", "a", u, "half") + stage(u, "m", "b", v, "half")
        step += stage(v, "m", "c", w, "h") + stage(w, "e", "d")
        step += add(y, lambda i: f"sixth * (a_{i} + 2.0 * b_{i} + 2.0 * c_{i} + d_{i})") + [
            "if out is not None:", f" out += {', '.join(y)},"
        ]
        run = ["def run(y, rows, h, half, sixth, out):", unpack[0]]
        run += ["for row, mid, end in zip(rows[::2], rows[1::2], rows[2::2]):"]
        run += [" " + line for line in step] + [f"return [{', '.join(y)}]"]
        namespace: dict = {}
        source = "\n ".join(rhs) + "\n" + "\n ".join(run)
        exec(compile(source, "<schlesinger kernel>", "exec"), namespace)
        _KERNELS[plan] = namespace["rhs"], namespace["run"]
    return _KERNELS[plan]


# ---------------------------------------------------------------------------
# Flow integration (classic fixed-step RK4 with Richardson monitoring)
# ---------------------------------------------------------------------------

def _rk4_times(t_span: tuple[float, float], steps: int) -> list[float]:
    """t0, then the midpoint and end of each of ``steps`` RK4 steps over t_span."""
    t0, t1 = t_span
    if steps < 1:
        raise ValueError("steps must be positive")
    h = (t1 - t0) / steps
    grid = [t0 + (i + 1) * h for i in range(steps - 1)] + [t1]
    return [t0] + [t for s, t_next in enumerate(grid) for t in (t0 + s * h + 0.5 * h, t_next)]


def _rk4(run, y0: list, rows: list, times: list[float], out: list | None) -> list:
    """RK4's last state from ``y0`` over ``times`` (table ``rows``), in one
    call of ``run``; a flow that blew up is rerun to find its first bad step."""
    h = (times[-1] - times[0]) / (len(times) // 2)
    if all(map(cmath.isfinite, y := run(y0, rows, h, 0.5 * h, h / 6.0, out))):
        return y
    run(y0, rows, h, 0.5 * h, h / 6.0, states := [])
    bad = next(i for i, x in enumerate(states) if not cmath.isfinite(x)) // len(y0)
    raise SingularResidueError(f"flow blew up at t = {times[2 * bad + 2]} (movable singularity?)")


def integrate_flow(
    y0: np.ndarray, traj, t_span: tuple[float, float], steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 from the packed state ``y0`` (`moment_rebuild`);
    returns the grid times, shape (steps + 1,), and the packed state at
    each, shape (steps + 1, 4m + 7).  A zero span returns t0 and y0."""
    times, states = _rk4_times(t_span, steps), np.asarray(y0, dtype=complex).tolist()
    if times[-1] == times[0]:
        return np.array(times[:1]), np.array([states])
    plan, table = _flow_table(traj, np.array(times), (len(y0) - 7) // 4)
    _rk4(_kernel(plan)[1], states[:], table, times, states)
    return np.array(times[::2]), np.fromiter(states, complex, len(states)).reshape(-1, len(y0))


def state_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entrywise discrepancy between two packed states."""
    return float(np.max(np.abs(a - b)))


def flow_convergence(times: np.ndarray, flow: np.ndarray, traj) -> dict:
    """Richardson step-halving monitor on a flow returned by integrate_flow.

    The rungs s are the powers of two with 2s <= steps (s = 1 for a one-step
    flow); fine = |y_s - y_2s| and coarse = |y_{s/2} - y_s| read 16 for a
    clean fourth-order integrator, but below 100 ulps of the largest endpoint
    entry they are round-off.  The ladder is climbed from s = 1 and stops
    below the first rung whose fine is under that floor, or at the top;
    ``resolved`` says whether fine cleared it and ``steps`` is the s used.
    The flow's own endpoint is y_2s when 2s = steps.  At s = 1 there is no
    coarser grid, so coarse and the ratio are 0."""
    if len(flow) == 1:
        return {"coarse": 0.0, "fine": 0.0, "ratio": float("inf"), "steps": 0, "resolved": False}
    t_span, steps = (float(times[0]), float(times[-1])), len(flow) - 1
    top = 1 << max(steps.bit_length() - 2, 0)
    grids = {2**i: _rk4_times(t_span, 2**i) for i in range(top.bit_length() + 1) if 2**i != steps}
    plan, table = _flow_table(traj, np.concatenate(list(grids.values())), (flow.shape[1] - 7) // 4)
    bounds = np.cumsum([0] + list(map(len, grids.values()))).tolist()
    rows = {k: table[a:b] for k, a, b in zip(grids, bounds, bounds[1:])}
    run, y0, ends = _kernel(plan)[1], flow[0].tolist(), {steps: flow[-1]}

    def at(k: int) -> np.ndarray:
        if k not in ends:
            ends[k] = np.array(_rk4(run, y0, rows[k], grids[k], None))
        return ends[k]

    def fine_at(s: int) -> float:
        return float(np.max(np.abs(at(s) - at(2 * s))))

    floor = 100 * 2.0**-52 * float(np.max(np.abs(ends[steps])))
    s, coarse, fine = 1, 0.0, fine_at(1)
    while fine >= floor and s < top and (finer := fine_at(2 * s)) >= floor:
        s, coarse, fine = 2 * s, fine, finer
    ratio = coarse / fine if fine > 0 else float("inf")
    return {"coarse": coarse, "fine": fine, "ratio": ratio, "steps": s, "resolved": fine >= floor}


def flow_invariants(flow: np.ndarray, exponents, n: int) -> dict[str, float]:
    """Trace conservation, rank-one persistence and the local monodromy along
    a packed flow at level n.  ``monodromy_gap`` is the largest departure,
    over every state and block, of (tr A_nj, det A_nj) from (-rho_j, 0),
    with n - rho_0 in place of -rho_0 for the origin block (the first one)."""
    m = len(exponents)
    a00, a01, a10, a11 = flow[:, : 4 * m].reshape(len(flow), m, 4).transpose(2, 0, 1)
    traces, dets = a00 + a11, a00 * a11 - a01 * a10
    closed = -np.asarray(exponents, dtype=complex)
    closed[0] += n
    gaps = np.stack([traces - closed, dets])
    return {
        "trace_drift": float(np.max(np.abs(traces - traces[0]))),
        "det_max": float(np.max(np.abs(dets))),
        "monodromy_gap": float(np.max(np.abs(gaps))),
    }


# ---------------------------------------------------------------------------
# The flow report
# ---------------------------------------------------------------------------

# Each entry's gate, times the run's --tol (``tol_scale``); the rebuilds'
# degree_certification and residue_at_infinity keep the gates of the
# modules that compute them, DEGREE_TOL and RESIDUE_TOL
FLOW_GATES = {
    "flow_vs_moment_rebuild": 1e-5,
    "trace_conservation": 1e-8,
    "rank_one_persistence": 1e-7,
    "monodromy_constancy": 1e-8,
    "richardson_halving": 1e-7,
    "kappa_rate_route_agreement": 1e-7,
    "degree_certification": DEGREE_TOL,
    "residue_at_infinity": RESIDUE_TOL,
}


def verify_flow(
    traj, n: int, steps: int, tol_scale: float = 1.0
) -> tuple[IdentityReport, np.ndarray, np.ndarray]:
    """The flow of level n along ``traj`` in ``steps`` RK4 steps, checked:
    its endpoint against the moment rebuild there, its invariants
    (`flow_invariants`), Richardson step halving (`flow_convergence`, kept
    in the notes), the two kappa-rate routes at t0, and both rebuilds'
    quadruples' out-of-band ratios and residue sums (NaN fails).  Returns
    the report, the grid times and the packed flow."""
    initial, consistency0, bundle0 = moment_rebuild(traj, traj.t0, n)
    times, flow = integrate_flow(initial, traj, (traj.t0, traj.t1), steps)
    final, consistency1, bundle1 = moment_rebuild(traj, traj.t1, n)
    inv = flow_invariants(flow, traj.weight0.exponents, n)
    conv = flow_convergence(times, flow, traj)
    report = IdentityReport(f"Schlesinger flow at n={n}")
    for name, anchor, residual in (
        ("flow_vs_moment_rebuild", "the deformation derivatives are equivalent to the matrix equation",
         state_gap(flow[-1], final)),
        ("trace_conservation", "leads us to the Schlesinger equations", inv["trace_drift"]),
        ("rank_one_persistence", "we find that det A_nj = 0", inv["det_max"]),
        ("monodromy_constancy", "is constant with respect to the deformation variable",
         inv["monodromy_gap"]),
        ("richardson_halving", "fixed-step integration with step-halving error estimate",
         conv["fine"]),
        ("kappa_rate_route_agreement", "sums of the bilinear residues over the finite singular points",
         deformation_rates(bundle0, traj, n, traj.t0).route_gap),
        ("degree_certification", "are polynomials in z of bounded degree",
         np.max([bundle0.quads.ratios, bundle1.quads.ratios])),
        ("residue_at_infinity", "the regular singularity at infinity", np.max([consistency0, consistency1])),
    ):
        report.add(name, anchor, residual, FLOW_GATES[name] * tol_scale, n=n)
    report.notes["richardson"] = conv
    return report, times, flow
