"""Test-only oracles.

Sampled oracles for the exact series routes of the package: a literal
central difference for derivatives and an FFT read of Laurent coefficients.
Both evaluate the function under test on whole arrays of points, so any
array-shaped evaluator can be checked against them.

Deformation oracles: the component forms of the Schlesinger derivatives,
finite differences of rebuilt states, transfer matrices and weights along a
trajectory against the closed-form rates, the top-down Richardson rule
that the upward ladder of ``flow_convergence`` must reproduce, the
per-time scalar table of a flow's time-only coefficients that the
vectorised table must equal bit for bit, the loop right-hand side and
list-comprehension RK4 that the compiled flow kernel must equal bit for
bit, and the ladder climbed with that RK4, one table per rung, that the
one-table ladder must equal bit for bit.

Evaluation oracles: the defining contour integrals of F, of the Gram matrix
and of eps_n, eps*_n by trapezoidal quadrature, and the determinantal
representations of phi_n, phi*_n, eps_n and eps*_n from Toeplitz
determinants of shifted or Cauchy-modified weights.  F summed at points
from its moment series, and eps_n = psi_n + F phi_n, eps*_n = psi*_n -
F phi*_n formed at points from it: the point route the exact series replace,
accurate where psi_n and F phi_n do not cancel (small n, |z| away from 0).
The same route at 50 digits with mpmath, from the engine's own moments, is
the reference that sees the cancellation.

Row oracles: the one-row relative residual ``rel_residual`` and the
per-level loops of the associated-function, linear-relation and spectral
derivative suites, which the row-wise suites must equal bit for bit.  Build
references: the list-of-levels Szego recursion and the per-level system.json
payload, which the row-filled recursion and the bulk writer must equal bit
for bit and byte for byte.  Last, the evaluators only the tests use: the solution matrix Y_n, w'/w summed
directly and the per-level monomial orthogonality."""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import mpmath
import numpy as np
import numpy.polynomial.polynomial as npoly

from circlebops.assoc import AssocSystem
from circlebops.bops import (
    EXISTENCE_FLOOR,
    BopsLevel,
    BopsSystem,
    _monomial_residuals,
    eval_levels,
    eval_poly,
)
from circlebops.coeffs import CoeffQuad
from circlebops.deform import (
    DeformState,
    RatesRecord,
    _flow_table,
    deformation_rates,
    flow_endpoint,
    moment_rebuild,
    schlesinger_rhs,
)
from circlebops.config import IDENTITY_TOL, QUAD_POINTS
from circlebops.errors import ExistenceError, QuadratureError, SingularResidueError
from circlebops.lax import ResidueSet, _mat, k_matrix
from circlebops.moments import (
    QUAD_MAX_POINTS,
    QUAD_TOL,
    CaratheodoryEvaluator,
    MomentTable,
    compute_moments,
    toeplitz_det,
)
from circlebops.numerics import polyval, principal_sqrt
from circlebops.report import SCHEMA, IdentityReport, dump_json
from circlebops.weight import PolyPair, SemiClassicalWeight, eval_weight


def central_diff(f: Callable, z, step: float = 1e-6):
    """Central difference f'(z) with step h = step * (1 + |z|), elementwise
    over an array z; f is called on the whole array z + h, then on z - h.

    f must be analytic near z; the real-direction difference then approximates
    the complex derivative to O(h^2).
    """
    h = step * (1.0 + abs(z))
    return (f(z + h) - f(z - h)) / (2.0 * h)


def laurent_coefficients(
    f: Callable,
    radius: float,
    orders: Sequence[int],
    oversample: int = 4,
) -> dict[int, complex]:
    """Laurent coefficients of f on the circle |z| = radius by FFT.

    f is sampled at P uniformly spaced points with P >= oversample * (max
    requested order magnitude + 1), rounded up to a power of two.  The
    coefficient of z^k is FFT_k / (P * radius^k).
    """
    kmax = max(abs(int(k)) for k in orders) + 1
    p = 1
    while p < max(oversample * kmax, 64):
        p *= 2
    theta = 2.0 * np.pi * np.arange(p) / p
    zs = radius * np.exp(1j * theta)
    samples = np.asarray(f(zs), dtype=complex)
    hat = np.fft.fft(samples) / p
    return {int(k): complex(hat[int(k) % p] * radius ** (-int(k))) for k in orders}


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
    th, ths, om, oms = quads[n].evaluate(locs)  # the quadruple at every z_j
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
                zk * ths[k] * th[j] - zj * th[k] * ths[j]
            )
            cross_b += pk * coeff * (
                th[k] * (om[j] - lp.kappa / lev.kappa * zj * th[j])
                - th[j] * (om[k] - lp.kappa / lev.kappa * zk * th[k])
            )
            cross_c += pk * coeff * (
                zk * ths[k] * (oms[j] - lp.kappa / lev.kappa * ths[j])
                - zj * ths[j] * (oms[k] - lp.kappa / lev.kappa * ths[k])
            )

        # the B_inf term of the first component enters with + (it is
        # -A_j[0,1] B_inf[1,0] of the commutator, and the displayed bracket
        # is -A_j[0,0])
        comp_a = (
            pref * lp.phi0 / lev.kappa**3 * dkb * th[j]
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
            rhos[j] / vj * lp.phi0 / lev.kappa * (kdot * th[j] + cross_b)
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
                -kdot * zj * ths[j]
                + dkb / (lev.kappa * lp.phibar0)
                * (oms[j] - lp.kappa / lev.kappa * ths[j])
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


def flow_table_scalar(traj, times, m: int) -> list:
    """The factors of the right-hand side that depend on t only, at each of
    ``times``, in scalar Python complex arithmetic: the moving (4j,
    zdot_j/z_j), sum_j rho_j zdot_j/z_j and, per block A_1..A_m, A_inf, the
    nonzero (4k, (zdot_j - zdot_k)/(z_j - z_k))."""
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


def rhs_loop(y: list, m: int, plan: tuple, row: list) -> tuple[list, complex, complex]:
    """d(state)/dt on the packed state (a list of 4m+7 Python complex) as a
    loop over the plan of `_flow_table`, with the 2x2 products written out by
    entry through [B_inf, A_j] + sum_k c_jk [A_k, A_j] = [B_inf + sum_k c_jk
    A_k, A_j].  Returns the packed derivative, kappa-dot/kappa and B_inf[1, 0]."""
    ratios, total, blocks = plan
    sum_rho_zdot = row[total]
    s00 = s01 = s10 = s11 = 0j
    for b, c in ratios:
        ratio = row[c]
        s00 += ratio * y[b]
        s01 += ratio * y[b + 1]
        s10 += ratio * y[b + 2]
        s11 += ratio * y[b + 3]
    kdot = 0.5 * (0.5 * (-sum_rho_zdot - s00) + 0.5 * s11)
    out = []
    for j, blk in enumerate(blocks):
        p00, p01, p10, p11 = kdot, 0j, -s10, -kdot
        for b, c in blk:
            coeff = row[c]
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


def rk4_loop(y0, traj, t_span: tuple[float, float], steps: int) -> list[list]:
    """Fixed-step RK4 with `rhs_loop`, each stage state a list comprehension
    over the packed state; returns the state after every step, raising on
    the first non-finite one as the flow does."""
    t0, t1 = t_span
    m = (len(y0) - 7) // 4
    h = (t1 - t0) / steps
    half, sixth = 0.5 * h, h / 6.0
    grid = [t0 + (i + 1) * h for i in range(steps - 1)] + [t1]
    times = [t0] + [t for s, t_next in enumerate(grid) for t in (t0 + s * h + half, t_next)]
    plan, table = _flow_table(traj, np.array(times), m)
    y, states = np.asarray(y0, dtype=complex).tolist(), []
    for step, t_next in enumerate(grid):
        row, row_mid, row_next = table[2 * step : 2 * step + 3]
        k1 = rhs_loop(y, m, plan, row)[0]
        k2 = rhs_loop([a + half * b for a, b in zip(y, k1)], m, plan, row_mid)[0]
        k3 = rhs_loop([a + half * b for a, b in zip(y, k2)], m, plan, row_mid)[0]
        k4 = rhs_loop([a + h * b for a, b in zip(y, k3)], m, plan, row_next)[0]
        y = [
            a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        ]
        if not all(map(cmath.isfinite, y)):
            raise SingularResidueError(f"flow blew up at t = {t_next} (movable singularity?)")
        states.append(y)
    return states


def richardson_loop(y0, traj, t_span: tuple[float, float], steps: int) -> dict:
    """The Richardson ladder of ``flow_convergence`` on the ``steps``-step
    flow from ``y0``, with that flow and each rung by `rk4_loop`: the rungs
    are climbed one at a time from s = 1, each with its own table, and a
    rung that blows up raises as `rk4_loop` does."""
    ends = {steps: np.array(rk4_loop(y0, traj, t_span, steps)[-1])}

    def at(k: int) -> np.ndarray:
        if k not in ends:
            ends[k] = np.array(rk4_loop(y0, traj, t_span, k)[-1])
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


def richardson_top_down(times: np.ndarray, flow: np.ndarray, traj) -> dict:
    """The Richardson monitor walked down its rungs: s starts at steps // 2
    (1 for a one-step flow, compared with two steps), y_2s is the flow's
    own endpoint, and s is halved while fine = |y_s - y_2s| is below 100
    ulps of the largest endpoint entry and s >= 2.  For power-of-two steps
    and a fine error falling with s it stops on the rung the upward ladder
    stops on, so both return the same dict."""
    if len(flow) == 1:
        return {"coarse": 0.0, "fine": 0.0, "ratio": float("inf"), "steps": 0, "resolved": False}
    t_span = (float(times[0]), float(times[-1]))
    steps = len(flow) - 1
    ends = {steps: flow[-1]}

    def at(k: int) -> np.ndarray:
        if k not in ends:
            ends[k] = flow_endpoint(flow[0], traj, t_span, k)
        return ends[k]

    def gap(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.max(np.abs(a - b)))

    floor = 100 * 2.0**-52 * float(np.max(np.abs(ends[steps])))
    s, hi = (steps // 2, steps) if steps > 1 else (1, 2)
    fine = gap(at(s), at(hi))
    while fine < floor and s >= 2:
        s, hi = s // 2, s
        fine = gap(at(s), at(hi))
    coarse = gap(at(s // 2), at(s)) if s >= 2 else 0.0
    ratio = coarse / fine if fine > 0 else float("inf")
    return {"coarse": coarse, "fine": fine, "ratio": ratio, "steps": s, "resolved": fine >= floor}


# ---------------------------------------------------------------------------
# Evaluation oracles: contour quadratures and determinantal representations
# ---------------------------------------------------------------------------

def caratheodory_quadrature(w, z: complex) -> complex:
    """Direct contour quadrature of F(z) for a weight callable on arrays;
    cross-check for the series route."""
    points = QUAD_POINTS
    prev = None
    while points <= QUAD_MAX_POINTS:
        theta = 2.0 * np.pi * np.arange(points) / points
        zeta = np.exp(1j * theta)
        vals = np.asarray(w(zeta), dtype=complex)
        total = complex(np.mean((zeta + z) / (zeta - z) * vals))
        if prev is not None and abs(total - prev) < QUAD_TOL * max(1.0, abs(total)):
            return total
        prev = total
        points *= 2
    raise QuadratureError(abs(total - prev), points // 2)


def caratheodory(f: CaratheodoryEvaluator, z, side: str | None = None, derivative: bool = False):
    """F (F' with ``derivative``) summed from its moment series over an array
    z (a scalar gives a complex): the inside series on |z| < 1, the outside
    one in 1/z elsewhere, or one side forced.  F' outside is
    -z^-2 (d/du series)(1/z)."""
    zs = np.asarray(z, dtype=complex)
    count = f.table.window + 1
    inner, outer = f.series(count), f.series(count, side="outside")
    if derivative:
        inner, outer = npoly.polyder(inner), npoly.polyder(outer)
    inside = np.abs(zs) < 1.0 if side is None else np.full(zs.shape, side == "inside")
    out = np.empty(zs.shape, dtype=complex)
    out[inside] = npoly.polyval(zs[inside], inner)
    values = npoly.polyval(1.0 / zs[~inside], outer)
    out[~inside] = -values / zs[~inside] ** 2 if derivative else values
    return out[()]


def eps_point_route(asys: AssocSystem, z, side: str | None = None, derivative: bool = False):
    """(phi, phi*, eps, eps*) of every level, or their derivatives, as
    psi_n + F phi_n and psi*_n - F phi*_n at the points of z, level by level,
    stacked with shape (N+1, *z.shape)."""
    zs = np.asarray(z, dtype=complex)
    f = caratheodory(asys.F, zs, side)
    df = caratheodory(asys.F, zs, side, derivative=True)
    rows = []
    for n, lev in enumerate(asys.sys.levels):
        coeffs = (lev.c, lev.cbar[::-1], asys.psi(n), asys.psistar(n))
        phi, star, psi, psistar = (npoly.polyval(zs, c) for c in coeffs)
        if not derivative:
            rows.append((phi, star, psi + f * phi, psistar - f * star))
            continue
        dphi, dstar, dpsi, dpsistar = (npoly.polyval(zs, npoly.polyder(c)) for c in coeffs)
        rows.append((dphi, dstar, dpsi + df * phi + f * dphi, dpsistar - df * star - f * dstar))
    return tuple(np.array(col) for col in zip(*rows))


def eps_reference(
    tbl: MomentTable, n: int, zs: Sequence[complex], dps: int = 50
) -> list[tuple[complex, complex]]:
    """(eps_n, eps*_n) at each point, with every step at ``dps`` digits from
    the table's moments: the Gram solves for c_n and cbar_n, psi_n and psi*_n
    by their moment sums, F by its series over the whole window, and
    psi_n + F phi_n, psi*_n - F phi*_n."""
    with mpmath.workdps(dps):
        K = tbl.window
        w = {k: mpmath.mpc(tbl.moment(k)) for k in range(-K, K + 1)}
        e = mpmath.matrix(n + 1, 1)
        e[n] = 1
        x = mpmath.lu_solve(mpmath.matrix([[w[a - b] for b in range(n + 1)] for a in range(n + 1)]), e)
        y = mpmath.lu_solve(mpmath.matrix([[w[b - a] for b in range(n + 1)] for a in range(n + 1)]), e)
        kappa = mpmath.sqrt(x[n])
        kappa = -kappa if kappa.real < 0 or (kappa.real == 0 and kappa.imag < 0) else kappa
        c, cbar = [x[j] / kappa for j in range(n + 1)], [y[j] / kappa for j in range(n + 1)]

        def second_kind(coeffs, sign):
            """Orders of psi_n (psi*_n reversed with sign -1)."""
            return [
                sum(coeffs[j] * w[sign * (i - j)] for j in range(i + 1, n + 1))
                + (sum(coeffs[j] * w[sign * (i - j)] for j in range(i, n + 1)) if i >= 1 else 0)
                for i in range(n + 1)
            ]

        psi, psistar_rev = second_kind(c, 1), second_kind(cbar, -1)
        out = []
        for z in zs:
            z = mpmath.mpc(z)
            if abs(z) < 1:
                f = w[0] + 2 * sum(w[k] * z**k for k in range(1, K + 1))
            else:
                f = -w[0] - 2 * sum(w[-k] * z**-k for k in range(1, K + 1))
            phi = sum(c[j] * z**j for j in range(n + 1))
            phistar = sum(cbar[j] * z ** (n - j) for j in range(n + 1))
            eps = sum(psi[j] * z**j for j in range(n + 1)) + f * phi
            epsstar = sum(psistar_rev[j] * z ** (n - j) for j in range(n + 1)) - f * phistar
            out.append((complex(eps), complex(epsstar)))
    return out


def orthonormality_quadrature(sys: BopsSystem, wfun, points: int = 4096) -> np.ndarray:
    """The Gram matrix <phi_m, phibar_n> by direct trapezoidal quadrature
    against w."""
    theta = 2.0 * np.pi * np.arange(points) / points
    zeta = np.exp(1j * theta)
    wv = np.asarray(wfun(zeta), dtype=complex)
    phis = eval_levels(sys, zeta)
    phibars = eval_levels(sys, 1.0 / zeta, "phibar")
    return (phis * wv[None, :]) @ phibars.T / points


@dataclass(frozen=True)
class DetRepValues:
    n: int
    z: complex
    phi: complex
    phistar: complex
    phi_integral: complex
    phistar_integral: complex

    @property
    def max_mismatch(self) -> float:
        scale = max(1.0, abs(self.phi), abs(self.phistar))
        return (
            max(
                abs(self.phi - self.phi_integral),
                abs(self.phistar - self.phistar_integral),
            )
            / scale
        )


def det_rep_oracle(tbl: MomentTable, n: int, z: complex) -> DetRepValues:
    """phi_n(z) and phi*_n(z) by bordered determinants and, independently, by
    Toeplitz determinants of the shifted weights w(zeta)(zeta - z) and
    w(zeta)(1 - z/zeta)."""
    z = complex(z)
    i0n = toeplitz_det(tbl, 0, n)
    i0np = toeplitz_det(tbl, 0, n + 1)
    kappa = principal_sqrt(i0n / i0np)

    # bordered determinant for phi_n: rows 0..n-1 of moments, last row 1..z^n
    mat = np.zeros((n + 1, n + 1), dtype=complex)
    for i in range(n):
        for j in range(n + 1):
            mat[i, j] = tbl.moment(i - j)
    mat[n, :] = z ** np.arange(n + 1)
    phi = kappa / i0n * complex(np.linalg.det(mat))

    # bordered determinant for phi*_n: row i has moments w_{i-k} and z^{n-i}
    mat = np.zeros((n + 1, n + 1), dtype=complex)
    for i in range(n + 1):
        for k in range(n):
            mat[i, k] = tbl.moment(i - k)
        mat[i, n] = z ** (n - i)
    phistar = kappa / i0n * complex(np.linalg.det(mat))

    # integral representations via shifted moment tables
    ks = np.arange(-(tbl.window - 1), tbl.window)
    shifted = MomentTable(
        tbl.window - 1,
        np.array([tbl.moment(k - 1) - z * tbl.moment(k) for k in ks]),
        {"kind": "shifted (zeta - z)"},
    )
    hat = MomentTable(
        tbl.window - 1,
        np.array([tbl.moment(k) - z * tbl.moment(k + 1) for k in ks]),
        {"kind": "shifted (1 - z/zeta)"},
    )
    phi_int = (-1) ** n * kappa * toeplitz_det(shifted, 0, n) / i0n
    phistar_int = kappa * toeplitz_det(hat, 0, n) / i0n
    return DetRepValues(n, z, phi, phistar, phi_int, phistar_int)


def eps_quadrature(wfun, sys: BopsSystem, n: int, z: complex, points: int = 4096):
    """Defining contour integral of eps_n (and the two displayed forms of
    eps*_n) by trapezoidal quadrature; returns (eps, epsstar_a, epsstar_b)."""
    theta = 2.0 * np.pi * np.arange(points) / points
    zeta = np.exp(1j * theta)
    wv = np.asarray(wfun(zeta), dtype=complex)
    kernel = (zeta + z) / (zeta - z)
    eps = np.mean(kernel * wv * eval_poly(sys, n, zeta, "phi"))
    star_a = -(z**n) * np.mean(kernel * wv * eval_poly(sys, n, 1.0 / zeta, "phibar"))
    star_b = 1.0 / sys.kappa(n) - np.mean(
        kernel * wv * eval_poly(sys, n, zeta, "phistar")
    )
    return complex(eps), complex(star_a), complex(star_b)


def eps_intrep(
    wfun,
    tbl: MomentTable,
    sys: BopsSystem,
    n: int,
    z: complex,
) -> tuple[complex, complex]:
    """(eps_n, eps*_n) via Toeplitz determinants of the Cauchy-modified
    weight w(zeta)/(zeta - z):

        (kappa_n/2) eps_n  =  z^n    I^1_{n+1}[w/(zeta-z)] / I^0_{n+1}[w],
        (kappa_n/2) eps*_n = (-z)^{n+1} I^0_{n+1}[w/(zeta-z)] / I^0_{n+1}[w].
    """
    mod = compute_moments(lambda zeta: wfun(zeta) / (zeta - z), n + 2)
    i0 = toeplitz_det(tbl, 0, n + 1)
    kappa = sys.kappa(n)
    eps = 2.0 / kappa * z**n * toeplitz_det(mod, 1, n + 1) / i0
    epsstar = 2.0 / kappa * (-z) ** (n + 1) * toeplitz_det(mod, 0, n + 1) / i0
    return complex(eps), complex(epsstar)


# ---------------------------------------------------------------------------
# One-row residuals and the per-level loops of the row-wise suites
# ---------------------------------------------------------------------------

def rel_residual(mismatch, *terms) -> float:
    """|mismatch| scaled by the largest constituent term (floor 1): the
    one-row reference of numerics.rel_residuals.

    Identities are evaluated as displayed, so the natural scale is the size of
    the terms being cancelled; the floor keeps 0 = 0 checks meaningful.
    """
    scale = 1.0
    for t in terms:
        scale = max(scale, float(np.max(np.abs(t))) if np.ndim(t) else abs(t))
    return float(np.max(np.abs(mismatch)) / scale)


def assoc_identities_loop(
    asys: AssocSystem,
    ns: Sequence[int],
    samples: Sequence[complex],
    tol: float = IDENTITY_TOL,
) -> tuple[IdentityReport, tuple[np.ndarray, ...]]:
    """The per-level loop of assoc.verify_assoc_identities, which its rows
    must equal bit for bit.  Residuals of the eps recurrences, the psi three-term recurrences and
    all three Casoratian identities (in both the psi and eps forms) at the
    sampled points (taken off the unit circle).  Returns the report and
    the values it checked, ``asys.evaluate(samples)``."""
    rep = IdentityReport("associated-function identity web")
    sys = asys.sys
    zs = np.asarray(samples, dtype=complex)
    values = asys.evaluate(zs)
    phi, phistar, eps, epsstar = values

    for n in ns:
        ln, lp = sys.level(n), sys.level(n + 1)
        phi_n, ps_n, eps_n, star_n = phi[n], phistar[n], eps[n], epsstar[n]
        phi_p, ps_p, eps_p, star_p = phi[n + 1], phistar[n + 1], eps[n + 1], epsstar[n + 1]
        lhs = ln.kappa * eps_p
        rhs = lp.kappa * zs * eps_n - lp.phi0 * star_n
        rep.add(
            "eps_recurrence",
            "satisfy a variant of the coupled recurrences",
            rel_residual(lhs - rhs, lhs, rhs),
            tol,
            n=n,
        )
        lhs = ln.kappa * star_p
        rhs = lp.kappa * star_n - lp.phibar0 * zs * eps_n
        rep.add(
            "eps_recurrence_star",
            "satisfy a variant of the coupled recurrences",
            rel_residual(lhs - rhs, lhs, rhs),
            tol,
            n=n,
        )

        # Casoratians, eps form and psi form
        psi_n, psi_p = polyval(asys.psi(n), zs), polyval(asys.psi(n + 1), zs)
        psis_n, psis_p = polyval(asys.psistar(n), zs), polyval(asys.psistar(n + 1), zs)

        cas_a_rhs = 2.0 * lp.phi0 / ln.kappa * zs**n
        for label, lhs in (
            ("casoratian_a_eps", phi_p * eps_n - eps_p * phi_n),
            ("casoratian_a_psi", phi_p * psi_n - psi_p * phi_n),
        ):
            rep.add(
                label,
                "the Casoratians of the polynomial solutions",
                rel_residual(lhs - cas_a_rhs, lhs, cas_a_rhs, phi_p * eps_n),
                tol,
                n=n,
            )
        cas_b_rhs = 2.0 * lp.phibar0 / ln.kappa * zs ** (n + 1)
        for label, lhs in (
            ("casoratian_b_eps", ps_p * star_n - star_p * ps_n),
            ("casoratian_b_psi", ps_p * psis_n - psis_p * ps_n),
        ):
            rep.add(
                label,
                "the Casoratians of the polynomial solutions",
                rel_residual(lhs - cas_b_rhs, lhs, cas_b_rhs, ps_p * star_n),
                tol,
                n=n,
            )
        cas_c_rhs = 2.0 * zs**n
        for label, lhs in (
            ("casoratian_c_eps", phi_n * star_n + eps_n * ps_n),
            ("casoratian_c_psi", phi_n * psis_n + psi_n * ps_n),
        ):
            rep.add(
                label,
                "the Casoratians of the polynomial solutions",
                rel_residual(lhs - cas_c_rhs, lhs, cas_c_rhs, phi_n * star_n),
                tol,
                n=n,
            )

    # psi three-term recurrences need three consecutive levels
    for n in ns:
        if n < 1 or n + 1 > sys.nmax:
            continue
        lm, ln, lp = sys.level(n - 1), sys.level(n), sys.level(n + 1)
        psi_m, psi_n, psi_p = (
            polyval(asys.psi(n - 1), zs),
            polyval(asys.psi(n), zs),
            polyval(asys.psi(n + 1), zs),
        )
        lhs = ln.kappa * ln.phi0 * psi_p + lm.kappa * lp.phi0 * zs * psi_m
        rhs = (ln.kappa * lp.phi0 + lp.kappa * ln.phi0 * zs) * psi_n
        rep.add(
            "psi_three_term",
            "polynomials of the second kind satisfy the three-term recurrences",
            rel_residual(lhs - rhs, lhs, rhs),
            tol,
            n=n,
        )
        psis_m, psis_n, psis_p = (
            polyval(asys.psistar(n - 1), zs),
            polyval(asys.psistar(n), zs),
            polyval(asys.psistar(n + 1), zs),
        )
        lhs = ln.kappa * ln.phibar0 * psis_p + lm.kappa * lp.phibar0 * zs * psis_m
        rhs = (ln.kappa * lp.phibar0 * zs + lp.kappa * ln.phibar0) * psis_n
        rep.add(
            "psistar_three_term",
            "polynomials of the second kind satisfy the three-term recurrences",
            rel_residual(lhs - rhs, lhs, rhs),
            tol,
            n=n,
        )
    return rep, values


def linear_relations_loop(
    quads: Mapping[int, CoeffQuad],
    vw: PolyPair,
    sys: BopsSystem,
    samples: Sequence[complex],
    tol: float = 1e-7,
) -> IdentityReport:
    """The per-level loops of coeffs.verify_linear_relations, which its rows
    must equal bit for bit.  Residuals of all eight coupled recurrences among the coefficient
    functions plus the three additional corollary identities, at sampled
    z != 0.  Each level n requires quads at n-1, n, n+1."""
    rep = IdentityReport("coefficient-function linear relations")
    zs = np.asarray([z for z in samples if abs(z) > 1e-8], dtype=complex)
    w_z = polyval(vw.W, zs)
    ev = {n: q.evaluate(zs) for n, q in quads.items()}  # each quadruple once
    anchor = "the coefficient functions satisfy the coupled linear recurrence relations"
    anchor_cor = "some additional identities satisfied by the coefficient functions"

    levels_needed = lambda n: n + 2 <= sys.nmax
    for n in sorted(quads):
        if not (n - 1 in quads and n + 1 in quads and levels_needed(n)):
            continue
        (th_m, ths_m, om_m, oms_m), (th_n, ths_n, om_n, oms_n) = ev[n - 1], ev[n]
        th_p, ths_p, _, _ = ev[n + 1]
        lm, ln, lp, lpp = (
            sys.level(n - 1),
            sys.level(n),
            sys.level(n + 1),
            sys.level(n + 2),
        )
        ratio = lp.phi0 / ln.phi0 + lp.kappa / ln.kappa * zs
        ratio_s = lp.kappa / ln.kappa + lp.phibar0 / ln.phibar0 * zs

        lhs = om_n + om_m - ratio * th_n + (n - 1) * w_z / zs
        rep.add("linear_a", anchor, rel_residual(lhs, om_n, ratio * th_n, w_z / zs), tol, n=n)

        lhs = (
            ratio * (om_m - om_n)
            + ln.kappa * lpp.phi0 / (lp.kappa * lp.phi0) * zs * th_p
            - lm.kappa * lp.phi0 / (ln.kappa * ln.phi0) * zs * th_m
            - lp.phi0 / ln.phi0 * w_z / zs
        )
        rep.add("linear_b", anchor, rel_residual(lhs, ratio * om_m, zs * th_p), tol, n=n)

        lhs = oms_n + oms_m - ratio_s * ths_n - n * w_z / zs
        rep.add("linear_c", anchor, rel_residual(lhs, oms_n, ratio_s * ths_n, w_z / zs), tol, n=n)

        lhs = (
            ratio_s * (oms_m - oms_n)
            + ln.kappa * lpp.phibar0 / (lp.kappa * lp.phibar0) * zs * ths_p
            - lm.kappa * lp.phibar0 / (ln.kappa * ln.phibar0) * zs * ths_m
            + lp.kappa / ln.kappa * w_z / zs
        )
        rep.add("linear_d", anchor, rel_residual(lhs, ratio_s * oms_m, zs * ths_p), tol, n=n)

    for n in sorted(quads):
        if not (n + 1 in quads and levels_needed(n)):
            continue
        (th_n, ths_n, om_n, oms_n), (th_p, ths_p, om_p, oms_p) = ev[n], ev[n + 1]
        ln, lp, lpp = sys.level(n), sys.level(n + 1), sys.level(n + 2)
        ratio_p = lpp.phi0 / lp.phi0 + lpp.kappa / lp.kappa * zs
        ratio_ps = lpp.kappa / lp.kappa + lpp.phibar0 / lp.phibar0 * zs
        cross = lp.kappa / ln.kappa * (zs * th_n - ths_n)

        lhs = om_p + oms_n - ratio_p * th_p + cross
        rep.add("linear_e", anchor, rel_residual(lhs, om_p, ratio_p * th_p, cross), tol, n=n)

        lhs = (
            om_n
            - om_p
            + lpp.kappa / lp.kappa * (zs + lp.phibar0 / lp.kappa * lpp.phi0 / lpp.kappa) * th_p
            + lp.phi0 * lp.phibar0 / (lp.kappa * ln.kappa) * ths_n
            - lp.kappa / ln.kappa * zs * th_n
            - w_z / zs
        )
        rep.add("linear_f", anchor, rel_residual(lhs, om_n, zs * th_p, w_z / zs), tol, n=n)

        lhs = (
            oms_p
            + om_n
            - ratio_ps * ths_p
            - cross
            - w_z / zs
        )
        rep.add("linear_g", anchor, rel_residual(lhs, oms_p, ratio_ps * ths_p, w_z / zs), tol, n=n)

        lhs = (
            oms_n
            - oms_p
            + lpp.kappa / lp.kappa * (1.0 + lp.phi0 / lp.kappa * lpp.phibar0 / lpp.kappa * zs) * ths_p
            + lp.phi0 * lp.phibar0 / (lp.kappa * ln.kappa) * zs * th_n
            - lp.kappa / ln.kappa * ths_n
        )
        rep.add("linear_h", anchor, rel_residual(lhs, oms_n, ths_p, zs * th_n), tol, n=n)

        # corollary (j), (k) need only n and n+1
        lhs = oms_n - om_n + lp.kappa / ln.kappa * (zs * th_n - ths_n) - n * w_z / zs
        rep.add("linear_j", anchor_cor, rel_residual(lhs, om_n, oms_n, w_z / zs), tol, n=n)

        lhs = (
            oms_n
            + om_n
            - ln.kappa**2
            / lp.kappa**2
            * (lpp.phi0 / lp.phi0 * th_p + lp.kappa / ln.kappa * ths_n)
            - w_z / zs
        )
        rep.add("linear_k", anchor_cor, rel_residual(lhs, om_n, oms_n, w_z / zs), tol, n=n)

    for n in sorted(quads):
        if not (n - 1 in quads and n + 1 <= sys.nmax):
            continue
        (th_m, ths_m, _, _), (th_n, ths_n, _, _) = ev[n - 1], ev[n]
        lm, ln, lp = sys.level(n - 1), sys.level(n), sys.level(n + 1)
        lhs = (
            lp.phi0 / ln.phi0 * th_n
            - ln.kappa / lm.kappa * zs * th_m
            - lp.phibar0 / ln.phibar0 * zs * ths_n
            + ln.kappa / lm.kappa * ths_m
        )
        rep.add("linear_i", anchor_cor, rel_residual(lhs, th_n, zs * ths_n), tol, n=n)
    return rep


def spectral_derivative_loop(
    quads: Mapping[int, CoeffQuad],
    vw: PolyPair,
    sys: BopsSystem,
    asys: AssocSystem,
    samples: Sequence[complex],
    weight: SemiClassicalWeight | None = None,
    tol: float = IDENTITY_TOL,
) -> IdentityReport:
    """The per-level loop of coeffs.spectral_derivative_check, which its rows
    must equal bit for bit.  Residuals of the four derivative relations, with the exact
    derivatives of `AssocSystem.evaluate_with_derivative` (polyder of phi,
    phi*, psi, psi* and the series of F'), so every relation holds to the
    identity tolerance."""
    rep = IdentityReport("spectral derivative relations")
    anchor = "the derivatives of the bi-orthogonal polynomials and associated functions are expressible"
    avoid = list(weight.locations) if weight is not None else []
    zs = np.asarray(
        [z for z in samples if abs(z) > 1e-8 and all(abs(z - a) > 0.05 for a in avoid)],
        dtype=complex,
    )
    w_z = polyval(vw.W, zs)
    v_z = polyval(vw.V, zs)

    (phi, star, eps, es), derivatives = asys.evaluate_with_derivative(zs)

    for n in sorted(quads):
        if n + 1 > sys.nmax:
            continue
        th, ths, om, oms = quads[n].evaluate(zs)
        phi_n, star_n, eps_n, es_n = phi[n], star[n], eps[n], es[n]
        phi_p, star_p, eps_p, es_p = phi[n + 1], star[n + 1], eps[n + 1], es[n + 1]
        dphi, dstar, deps, des = (d[n] for d in derivatives)

        lhs = w_z * dphi - th * phi_p + (om + v_z) * phi_n
        rep.add("spectral_d_phi", anchor, rel_residual(lhs, w_z * dphi, th * phi_p), tol, n=n)

        lhs = w_z * dstar + ths * star_p - (oms - v_z) * star_n
        rep.add("spectral_d_phistar", anchor, rel_residual(lhs, w_z * dstar, ths * star_p), tol, n=n)

        lhs = w_z * deps - th * eps_p + (om - v_z) * eps_n
        rep.add("spectral_d_eps", anchor, rel_residual(lhs, w_z * deps, th * eps_p), tol, n=n)

        lhs = w_z * des + ths * es_p - (oms + v_z) * es_n
        rep.add("spectral_d_epsstar", anchor, rel_residual(lhs, w_z * des, ths * es_p), tol, n=n)

        # trace consistency: W Tr A_n reduces to n W / z - 2 V
        ln, lp = sys.level(n), sys.level(n + 1)
        trace_w = (
            -(om + v_z)
            + lp.kappa / ln.kappa * zs * th
            + oms
            - v_z
            - lp.kappa / ln.kappa * ths
        )
        lhs = trace_w - (n * w_z / zs - 2.0 * v_z)
        rep.add(
            "trace_reduction",
            "we note that Tr A_n = n/z - w'/w",
            rel_residual(lhs, trace_w, w_z / zs),
            tol,
            n=n,
        )
    return rep


# ---------------------------------------------------------------------------
# Build references: the per-level recursion and system.json payload
# ---------------------------------------------------------------------------

def recursion_levels_loop(tbl: MomentTable, nmax: int) -> tuple[list[BopsLevel], list[int]]:
    """Levels 0..nmax by the monic Szego recursion, one BopsLevel a level,
    each monic pair concatenated from the last; the row-filled recursion of
    build_system must give these rows, log and errors bit for bit."""
    w, k = tbl.values, tbl.window
    e = w[k]
    if e == 0:
        raise ExistenceError(1, 0.0, EXISTENCE_FLOOR)

    def scaled(n, a, b, e):
        kappa = principal_sqrt(1.0 / e)
        return BopsLevel(n=n, kappa=kappa, c=kappa * a, cbar=kappa * b)

    a = b = np.ones(1, dtype=complex)
    levels = [scaled(0, a, b, e)]
    log: list[int] = []
    for n in range(1, nmax + 1):
        j = np.arange(n)
        r = -(a @ w[k - 1 - j]) / e
        rbar = -(b @ w[k + 1 + j]) / e
        ratio = 1.0 - r * rbar
        if abs(ratio) < EXISTENCE_FLOOR:
            raise ExistenceError(n + 1, abs(ratio), EXISTENCE_FLOOR)
        if abs(ratio) < 1e6 * EXISTENCE_FLOOR:
            log.append(n + 1)
        a, b = (
            np.concatenate(([0.0], a)) + r * np.concatenate((b[::-1], [0.0])),
            np.concatenate(([0.0], b)) + rbar * np.concatenate((a[::-1], [0.0])),
        )
        e = e * ratio
        levels.append(scaled(n, a, b, e))
    return levels, log


def system_json_payload(system: BopsSystem, path) -> None:
    """system.json by the per-level payload route: one dict a level, written
    by dump_json; the byte reference of the bulk writer."""
    def pairs(coeffs):
        return np.column_stack((coeffs.real, coeffs.imag)).tolist()

    payload = {
        "schema": SCHEMA,
        "method": "both",
        "cross_check_deviation": system.cross_check_deviation,
        "existence_log": system.existence_log,
        "levels": [
            {
                "n": lev.n,
                "kappa": [lev.kappa.real, lev.kappa.imag],
                "r": [lev.r.real, lev.r.imag],
                "rbar": [lev.rbar.real, lev.rbar.imag],
                "c": pairs(lev.c),
                "cbar": pairs(lev.cbar),
            }
            for lev in system.levels
        ],
    }
    dump_json(payload, path)


# ---------------------------------------------------------------------------
# Test-only evaluators
# ---------------------------------------------------------------------------

def y_matrix(
    sys: BopsSystem, asys: AssocSystem, wfun: Callable, n: int, z,
    side: str | None = None,
) -> np.ndarray:
    """Y_n = [[phi_n, eps_n / w], [phi*_n, -eps*_n / w]] stacked over the array
    z, shape z.shape + (2, 2)."""
    zs = np.asarray(z, dtype=complex)
    w = np.asarray(wfun(zs), dtype=complex)
    if np.any(w == 0):
        raise SingularResidueError(f"w(z) = 0 at z = {zs[w == 0].flat[0]}")
    phi, phistar, eps, epsstar = (v[n] for v in asys.evaluate(zs, side))
    return _mat(phi, eps / w, phistar, -epsstar / w)


def weight_log_derivative(spec, z):
    """w'(z)/w(z) = sum_j rho_j / (z - z_j), evaluated directly."""
    zs = np.asarray(z, dtype=complex)
    out = np.zeros_like(zs, dtype=complex)
    for s in spec.singularities:
        out = out + s.exponent / (zs - s.location)
    return out


def monomial_orthogonality(sys: BopsSystem, n: int) -> tuple[float, float]:
    """Max residuals of <phi_n, zetabar^j> = 0 (0 <= j < n) and
    <phi*_n, zetabar^j> = 0 (1 <= j <= n)."""
    sys.level(n)  # IndexError for a level that is not built
    res_phi, res_star = _monomial_residuals(sys)[n]
    return float(res_phi), float(res_star)
