"""Test-only oracles.

Sampled oracles for the exact series routes of the package: a literal
central difference for derivatives and an FFT read of Laurent coefficients.
Both evaluate the function under test on whole arrays of points, so any
array-shaped evaluator can be checked against them.

Deformation oracles: the component forms of the Schlesinger derivatives,
finite differences of rebuilt states, transfer matrices and weights along a
trajectory against the closed-form rates, and the top-down Richardson rule
that the upward ladder of ``flow_convergence`` must reproduce.

Evaluation oracles: the defining contour integrals of F, of the Gram matrix
and of eps_n, eps*_n by trapezoidal quadrature, and the determinantal
representations of phi_n, phi*_n, eps_n and eps*_n from Toeplitz
determinants of shifted or Cauchy-modified weights."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from circlebops.bops import BopsSystem, eval_levels, eval_poly
from circlebops.coeffs import CoeffQuad
from circlebops.deform import (
    DeformState,
    RatesRecord,
    deformation_rates,
    flow_endpoint,
    moment_rebuild,
    schlesinger_rhs,
)
from circlebops.config import DEFAULT_QUAD, QuadratureConfig
from circlebops.errors import QuadratureError
from circlebops.lax import ResidueSet, k_matrix
from circlebops.moments import MomentTable, compute_moments, toeplitz_det
from circlebops.numerics import principal_sqrt, rel_residual
from circlebops.report import IdentityReport
from circlebops.weight import PolyPair, eval_weight


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


def richardson_top_down(states: Sequence[DeformState], traj) -> dict:
    """The Richardson monitor walked down its rungs: s starts at steps // 2
    (1 for a one-step flow, compared with two steps), y_2s is the flow's
    own endpoint, and s is halved while fine = |y_s - y_2s| is below 100
    ulps of the largest endpoint entry and s >= 2.  For power-of-two steps
    and a fine error falling with s it stops on the rung the upward ladder
    stops on, so both return the same dict."""
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

def caratheodory_quadrature(
    w,
    z: complex,
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> complex:
    """Direct contour quadrature of F(z) for a weight callable on arrays;
    cross-check for the series route."""
    points = quad.start_points
    prev = None
    while points <= quad.max_points:
        theta = 2.0 * np.pi * np.arange(points) / points
        zeta = np.exp(1j * theta)
        vals = np.asarray(w(zeta), dtype=complex)
        total = complex(np.mean((zeta + z) / (zeta - z) * vals))
        if prev is not None and abs(total - prev) < quad.tol * max(1.0, abs(total)):
            return total
        prev = total
        points *= 2
    raise QuadratureError(abs(total - prev), points // 2)


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
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> tuple[complex, complex]:
    """(eps_n, eps*_n) via Toeplitz determinants of the Cauchy-modified
    weight w(zeta)/(zeta - z):

        (kappa_n/2) eps_n  =  z^n    I^1_{n+1}[w/(zeta-z)] / I^0_{n+1}[w],
        (kappa_n/2) eps*_n = (-z)^{n+1} I^0_{n+1}[w/(zeta-z)] / I^0_{n+1}[w].
    """
    mod = compute_moments(lambda zeta: wfun(zeta) / (zeta - z), n + 2, quad)
    i0 = toeplitz_det(tbl, 0, n + 1)
    kappa = sys.kappa(n)
    eps = 2.0 / kappa * z**n * toeplitz_det(mod, 1, n + 1) / i0
    epsstar = 2.0 / kappa * (-z) ** (n + 1) * toeplitz_det(mod, 0, n + 1) / i0
    return complex(eps), complex(epsstar)
