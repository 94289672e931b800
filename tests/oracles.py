"""Test-only oracles.

Sampled oracles for the exact series routes of the package: a literal
central difference for derivatives and an FFT read of Laurent coefficients.
Both evaluate the function under test on whole arrays of points, so any
array-shaped evaluator can be checked against them.

Deformation oracles: the component forms of the Schlesinger derivatives,
finite differences of rebuilt states, transfer matrices and weights along a
trajectory against the closed-form rates.

Evaluation oracles: the defining contour integrals of F, of the Gram matrix
and of eps_n, eps*_n by trapezoidal quadrature, and the determinantal
representations of phi_n, phi*_n, eps_n and eps*_n from Toeplitz
determinants of shifted or Cauchy-modified weights.  The per-level
quadruple and the two-sided read of U, each band of a truncated product
read by `series_band`.  F summed at points from the table's series, and eps_n = psi_n + F phi_n, eps*_n = psi*_n -
F phi*_n formed at points from it: the point route the exact series replace,
accurate where psi_n and F phi_n do not cancel (small n, |z| away from 0).
The reference: exact moments at 50 digits for the flagship family
z^-1 prod_j (z - z_j)^rho_j (singularities outside the disc), their Gram
solves at 50 digits, and the point route above at 50 digits from them, which
sees the cancellation.  Last, the evaluators only the tests use: the
solution matrix Y_n, w'/w summed directly and the per-level monomial
orthogonality."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import mpmath
import numpy as np
import numpy.polynomial.polynomial as npoly

from circlebops.assoc import AssocSystem
from circlebops.bops import BopsSystem, _monomial_residuals
from circlebops.coeffs import QuadStore
from circlebops.deform import (
    RatesRecord,
    _flow_table,
    _kernel,
    deformation_rates,
    moment_rebuild,
)
from circlebops.errors import QuadratureError, SingularResidueError
from circlebops.lax import ResidueSet, _mat, k_matrix
from circlebops.moments import (
    QUAD_MAX_POINTS,
    QUAD_POINTS,
    QUAD_TOL,
    MomentTable,
    compute_moments,
    toeplitz_det,
)
from circlebops.numerics import (
    polyadd,
    polyder,
    polymul,
    polyval,
    principal_sqrt,
    rel_residuals,
)
from circlebops.report import IdentityReport
from circlebops.weight import PolyPair, SemiClassicalWeight


def one_residual(mismatch, *terms) -> float:
    """`numerics.rel_residuals` of a single row."""
    return float(rel_residuals([mismatch], *([t] for t in terms))[0])


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


@dataclass(frozen=True)
class SchlesingerRhs:
    da: np.ndarray
    da_inf: np.ndarray
    kappadot: complex
    rdot: complex
    rbardot: complex
    b_inf: np.ndarray


def schlesinger_rhs(state: np.ndarray, traj, t: float) -> SchlesingerRhs:
    """d(state)/dt of a packed state at one time from the flow kernel's
    compiled right-hand side, unpacked into blocks.  B_inf and the scalar rates are read off the
    residue matrices themselves: every bilinear residue sum entering them
    is, up to zdot_j/z_j weights, a sum of A_j entries."""
    m = (len(state) - 7) // 4
    plan, (row,) = _flow_table(traj, t, m)
    dy, kdot, b10 = _kernel(plan)[0](np.asarray(state).tolist(), row)
    b_inf = np.array([[kdot, 0.0], [b10, -kdot]], dtype=complex)
    blocks = np.array(dy[: 4 * m + 4])
    return SchlesingerRhs(
        blocks[: 4 * m].reshape(m, 2, 2), blocks[4 * m :].reshape(2, 2), *dy[-3:], b_inf
    )


def schlesinger_component_check(
    sys: BopsSystem,
    quads: QuadStore,
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
    kappa, kappa_p = sys.kappas[n : n + 2].tolist()
    phi0_p, phibar0_p = complex(sys.phi[n + 1, 0]), complex(sys.phibar[n + 1, 0])
    r, rbar = (complex(col[n]) for col in sys.reflections)
    th, ths, om, oms = quads.values([n], locs)[0]  # the quadruple at every z_j
    kdot = rates.kdot_over_k
    dkb = rates.d_kappa_phibar0
    state = np.concatenate([residues.a.ravel(), residues.a_inf.ravel(), [kappa, r, rbar]])
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
        vj = polyval(vw.V, zj)
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
            vk = polyval(vw.V, zk)
            pk = rhos[k] / (2.0 * vk)
            cross_a += pk * coeff * (
                zk * ths[k] * th[j] - zj * th[k] * ths[j]
            )
            cross_b += pk * coeff * (
                th[k] * (om[j] - kappa_p / kappa * zj * th[j])
                - th[j] * (om[k] - kappa_p / kappa * zk * th[k])
            )
            cross_c += pk * coeff * (
                zk * ths[k] * (oms[j] - kappa_p / kappa * ths[j])
                - zj * ths[j] * (oms[k] - kappa_p / kappa * ths[k])
            )

        # the B_inf term of the first component enters with + (it is
        # -A_j[0,1] B_inf[1,0] of the commutator, and the displayed bracket
        # is -A_j[0,0])
        comp_a = (
            pref * phi0_p / kappa**3 * dkb * th[j]
            - pref * phi0_p * phibar0_p / kappa**2 * cross_a
            - origin[0, 0]
        )
        rep.add(
            "schlesinger_component_a",
            anchor,
            one_residual(comp_a + rhs.da[j][0, 0], comp_a, rhs.da[j][0, 0]),
            tol,
            n=n,
            where=f"z_{j + 1}",
        )
        comp_b = (
            rhos[j] / vj * phi0_p / kappa * (kdot * th[j] + cross_b)
            + origin[0, 1]
        )
        rep.add(
            "schlesinger_component_b",
            anchor,
            one_residual(comp_b - rhs.da[j][0, 1], comp_b, rhs.da[j][0, 1]),
            tol,
            n=n,
            where=f"z_{j + 1}",
        )
        comp_c = (
            rhos[j]
            / vj
            * phibar0_p
            / kappa
            * (
                -kdot * zj * ths[j]
                + dkb / (kappa * phibar0_p)
                * (oms[j] - kappa_p / kappa * ths[j])
                - cross_c
            )
            - origin[1, 0]
        )
        rep.add(
            "schlesinger_component_c",
            anchor,
            one_residual(comp_c + rhs.da[j][1, 0], comp_c, rhs.da[j][1, 0]),
            tol,
            n=n,
            where=f"z_{j + 1}",
        )
    return rep


def rates_fd_check(traj, n: int, t: float, h: float = 1e-4) -> dict[str, float]:
    """Finite-difference oracle for the scalar rates: rebuild kappa_n, r_n,
    rbar_n from moments at t -+ h and compare the centered difference with
    the closed-form rates at t."""
    (state_m, _, _), (state_p, _, _) = (moment_rebuild(traj, s, n) for s in (t - h, t + h))
    state_0, _, bundle = moment_rebuild(traj, t, n)
    rates = deformation_rates(bundle, traj, n, t)
    # the packed states end in kappa_n, r_n, rbar_n
    fd = dict(zip(("kappa", "r", "rbar"), (state_p[-3:] - state_m[-3:]) / (2.0 * h)))
    closed = {
        "kappa": rates.kdot_over_k * state_0[-3],
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
    *_, bundle_m = moment_rebuild(traj, t - h, n + 1)
    *_, bundle_p = moment_rebuild(traj, t + h, n + 1)
    state_n, _, bundle = moment_rebuild(traj, t, n)
    state_np, _, bundle_hi = moment_rebuild(traj, t, n + 1)
    rates_n = deformation_rates(bundle, traj, n, t)
    rates_np = deformation_rates(bundle_hi, traj, n + 1, t)
    locs = traj.locations(t)
    vel = traj.velocities(t)

    def b_matrix(rates, state, z):
        out = rates.b_inf.copy()
        for zj, zdot, aj in zip(locs, vel, state[: 4 * len(locs)].reshape(-1, 2, 2)):
            if zdot != 0:
                out = out - zdot / (z - zj) * aj
        return out

    worst = 0.0
    for z in zs:
        kd = (k_matrix(bundle_p.sys, n, z) - k_matrix(bundle_m.sys, n, z)) / (2.0 * h)
        rhs = b_matrix(rates_np, state_np, z) @ k_matrix(bundle.sys, n, z) - k_matrix(
            bundle.sys, n, z
        ) @ b_matrix(rates_n, state_n, z)
        worst = max(worst, one_residual(kd - rhs, kd, rhs))
    return worst


def weight_rate_check(traj, t: float, zs: Sequence[complex], h: float = 1e-5) -> float:
    """d/dt log w against -sum rho_j zdot_j/(z - z_j) by finite differences
    of the weight along the trajectory."""
    w_m = traj.weight_at(t - h)
    w_p = traj.weight_at(t + h)
    w_0 = traj.weight_at(t)
    worst = 0.0
    for z in zs:
        fd = (w_p(z) - w_m(z)) / (2.0 * h * w_0(z))
        want = complex(weight_logderivative_rate(traj, t, z))
        worst = max(worst, abs(fd - want) / max(1.0, abs(want)))
    return worst


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


def series_band(series, lo: int, hi: int):
    """Orders lo..hi of a truncated power series and its out-of-band ratio:
    the largest coefficient below lo or at orders hi+1, hi+2 over the largest
    in the band (absolute when the band is zero), round-off for z^lo times a
    polynomial of degree hi-lo.  Orders missing at the end are zero."""
    s = polyadd(np.zeros(hi + 3), series)
    band = s[lo : hi + 1]
    stray = float(np.max(np.abs(np.concatenate([s[:lo], s[hi + 1 : hi + 3]]))))
    top = float(np.max(np.abs(band)))
    return band, stray / top if top > 0 else stray


def coeff_quad_by_convolution(
    sys: BopsSystem, asys: AssocSystem, vw: PolyPair, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The quadruple of level n by the per-level route, as the store holds
    it: members (order, member), the Theta pair zero at its top order, and
    out-of-band ratios (member,).  Each truncated product of the defining
    combinations is one `np.convolve`, on the orders 0..n+m+2 of level n
    alone, each band read by `series_band`; oracle for the one-pass
    `compute_coeff_quads` (same reads, same bands, the sums in another
    order)."""
    m = vw.degree
    size = n + m + 3

    def mul(a, b):
        out, prod = np.zeros(size, dtype=complex), np.convolve(a, b)[:size]
        out[: len(prod)] = prod
        return out

    def combinations(pair, p, p1, e, e1):
        dp, de = polyder(p), polyder(e)
        return (
            mul(pair.W, mul(e, dp) - mul(p, de)) + 2.0 * mul(pair.V, mul(p, e)),
            mul(pair.W, mul(e1, dp) - mul(p1, de)) + mul(pair.V, mul(p, e1) + mul(e, p1)),
        )

    c_n, c_p = sys.phi[n, : n + 1], sys.phi[n + 1, : n + 2]
    cbar_n, cbar_p = sys.phibar[n, : n + 1], sys.phibar[n + 1, : n + 2]
    theta, omega = combinations(vw, c_n, c_p, asys.eps_taylor(n, size + 1), asys.eps_taylor(n + 1, size + 1))
    ref = vw.reflected()
    e_n, e_p = (asys.eps_taylor(k, size + 1, star=True, at_infinity=True) for k in (n, n + 1))
    thetastar, omegastar = combinations(ref, cbar_n, cbar_p, e_n, e_p)
    omegastar += n * mul(ref.W[1:], mul(cbar_p, e_n) - mul(e_p, cbar_n))
    pref = 2.0 * sys.phi[n + 1, 0] / sys.kappas[n]
    pref_star = 2.0 * sys.phibar[n + 1, 0] / sys.kappas[n]
    plan = (
        (theta, n, n + m - 2, pref, 1),
        (thetastar, n + 1, n + m - 1, pref_star, -1),
        (omega, n, n + m - 1, pref, 1),
        (omegastar, n + 1, n + m, pref_star, -1),
    )
    members, ratios = np.zeros((m, 4), dtype=complex), np.zeros(4)
    for j, (series, lo, hi, scale, direction) in enumerate(plan):
        band, ratios[j] = series_band(series, lo, hi)
        members[: len(band), j] = band[::direction] / scale
    return members, ratios


def u_reads(weight: SemiClassicalWeight, table: MomentTable, vw: PolyPair) -> dict:
    """U = W F' - 2 V F read off F's exact series on both sides: at z = 0
    (orders 0..m-1, `moments.recover_u`'s read) and at infinity, from the
    negative moments alone, as the same read for the reflected weight
    w(1/u), whose F is -F outside and whose W F' - 2 V F is u^-m times U's
    series, so that read comes reversed.  Each read's out-of-band ratio, and
    the gap between the reads relative to the largest inside coefficient."""
    m = weight.m

    def read(pair, series, lo, hi):
        product = polyadd(polymul(pair.W, polyder(series)), -2.0 * polymul(pair.V, series))
        return series_band(product, lo, hi)

    inside, res_in = read(vw, table.caratheodory(m + 3), 0, m - 1)
    outside, res_out = read(vw.reflected(), -table.caratheodory(m + 3, side="outside"), 1, m)
    scale = max(float(np.max(np.abs(inside))), 1e-30)
    return {
        "inside": inside,
        "outside": outside[::-1],
        "residual_inside": res_in,
        "residual_outside": res_out,
        "coefficient_agreement": float(np.max(np.abs(inside - outside[::-1]))) / scale,
    }


def caratheodory(table: MomentTable, z, side: str | None = None, derivative: bool = False):
    """F (F' with ``derivative``) summed from the table's series
    (`MomentTable.caratheodory`) over an array z (a scalar gives a complex):
    the inside series on |z| < 1, the outside one in 1/z elsewhere, or one
    side forced.  F' outside is -z^-2 (d/du series)(1/z)."""
    zs = np.asarray(z, dtype=complex)
    count = table.window + 1
    inner, outer = table.caratheodory(count), table.caratheodory(count, side="outside")
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
    f = caratheodory(asys.sys.table, zs, side)
    df = caratheodory(asys.sys.table, zs, side, derivative=True)
    rows = []
    for n in range(asys.sys.nmax + 1):
        c, cbar = asys.sys.phi[n, : n + 1], asys.sys.phibar[n, : n + 1]
        coeffs = (c, cbar[::-1], asys.psi(n), asys.psistar(n))
        phi, star, psi, psistar = (npoly.polyval(zs, c) for c in coeffs)
        if not derivative:
            rows.append((phi, star, psi + f * phi, psistar - f * star))
            continue
        dphi, dstar, dpsi, dpsistar = (npoly.polyval(zs, npoly.polyder(c)) for c in coeffs)
        rows.append((dphi, dstar, dpsi + df * phi + f * dphi, dpsistar - df * star - f * dstar))
    return tuple(np.array(col) for col in zip(*rows))


def exact_moments(weight: SemiClassicalWeight, window: int, dps: int = 50) -> dict[int, mpmath.mpc]:
    """w_k for |k| <= window at ``dps`` digits, independent of the engine's
    moment routes, from the factorisation of the `weight` docstring's
    branch convention, w(z) = C z^S A(1/z) B(z) with A(u) = prod_inside
    (1 - z_j u)^rho_j and B(z) = prod_outside (1 - z/z_j)^rho_j: w_k =
    C sum_b A_b B_{k-S+b}, a correlation of two products of binomial series.
    The sum runs until the orders of A's majorant prod (1 - r u)^-|rho_j|,
    r the largest inside |z_j|, have fallen by 10^-dps past the window:
    L with r^L (1 + L/K0)^P <= 10^-dps, P the sum of the inside |rho_j|
    and K0 = window + |S| + 1.  The branch constant C is read off
    one evaluation of the engine's weight, at z = 1, over A(1) B(1), so
    every moment shares that value's one double rounding.  ValueError when
    the inside exponents do not sum to an integer."""
    total = weight.factorisation[0]
    if abs(total - round(total.real)) > 1e-9:
        raise ValueError("exact moments need inside exponents that sum to an integer")
    s = int(round(total.real))
    with mpmath.workdps(dps):
        one = mpmath.mpc(1)
        sings = [(mpmath.mpc(x.location), mpmath.mpc(x.exponent)) for x in weight.singularities
                 if x.location != 0 and x.exponent != 0]
        inside = [(z, rho) for z, rho in sings if abs(z) < 1]
        outside = [(z, rho) for z, rho in sings if abs(z) >= 1]
        start, tail = window + abs(s) + 1, 0
        if inside:
            rate = -math.log(max(abs(complex(z)) for z, _ in inside))
            power = sum(abs(complex(rho)) for _, rho in inside)
            while rate * tail - power * math.log1p(tail / start) < dps * math.log(10):
                tail += 1
        count = start + tail

        def series(factors, length):
            """Orders 0..length-1 of prod (1 - x u)^rho over (x, rho)."""
            out = [one] + [mpmath.mpc(0)] * (length - 1)
            for i, (x, rho) in enumerate(factors):
                binomial = [one]
                for j in range(1, length):
                    binomial.append(binomial[-1] * (j - 1 - rho) * x / j)
                out = [mpmath.fsum(out[a] * binomial[j - a] for a in range(j + 1))
                       for j in range(length)] if i else binomial
            return out

        a = series(inside, count)
        b = series([(1 / z, rho) for z, rho in outside], count + window - s)
        factor = mpmath.fprod([(1 - z) ** rho for z, rho in inside]
                              + [(1 - 1 / z) ** rho for z, rho in outside])
        c = mpmath.mpc(complex(weight(1.0))) / factor
        return {k: c * mpmath.fsum(a[j] * b[k - s + j] for j in range(max(0, s - k), count))
                for k in range(-window, window + 1)}


def gram_reference(moments: Mapping[int, mpmath.mpc], n: int, dps: int = 50):
    """(kappa_n, c_n, cbar_n) by the Gram solves of the moments at ``dps``
    digits, kappa_n with the engine's sign (Re > 0, tie towards Im > 0)."""
    with mpmath.workdps(dps):
        e = mpmath.matrix(n + 1, 1)
        e[n] = 1
        toeplitz = mpmath.matrix([[moments[a - b] for b in range(n + 1)] for a in range(n + 1)])
        x, y = mpmath.lu_solve(toeplitz, e), mpmath.lu_solve(toeplitz.T, e)
        kappa = mpmath.sqrt(x[n])
        kappa = -kappa if kappa.real < 0 or (kappa.real == 0 and kappa.imag < 0) else kappa
        return kappa, [x[j] / kappa for j in range(n + 1)], [y[j] / kappa for j in range(n + 1)]


def eps_reference(
    moments: Mapping[int, mpmath.mpc], n: int, zs: Sequence[complex], dps: int = 50
) -> list[tuple[complex, complex]]:
    """(eps_n, eps*_n) at each point, with every step at ``dps`` digits from
    the moments w_k, |k| <= K (`exact_moments`): the Gram solves for c_n and
    cbar_n, psi_n and psi*_n by their moment sums, F by its series over the
    whole window, and psi_n + F phi_n, psi*_n - F phi*_n."""
    with mpmath.workdps(dps):
        w, K = moments, max(moments)
        _, c, cbar = gram_reference(w, n, dps)

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
    phis = polyval(sys.families["phi"].T, zeta)
    phibars = polyval(sys.families["phibar"].T, 1.0 / zeta)
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
    fam = sys.families
    eps = np.mean(kernel * wv * polyval(fam["phi"][n, : n + 1], zeta))
    star_a = -(z**n) * np.mean(kernel * wv * polyval(fam["phibar"][n, : n + 1], 1.0 / zeta))
    star_b = 1.0 / sys.kappas[n] - np.mean(kernel * wv * polyval(fam["phistar"][n, : n + 1], zeta))
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
    kappa = complex(sys.kappas[n])
    eps = 2.0 / kappa * z**n * toeplitz_det(mod, 1, n + 1) / i0
    epsstar = 2.0 / kappa * (-z) ** (n + 1) * toeplitz_det(mod, 0, n + 1) / i0
    return complex(eps), complex(epsstar)


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
    sys.require(n)
    res_phi, res_star = _monomial_residuals(sys)[n]
    return float(res_phi), float(res_star)
