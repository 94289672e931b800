"""2x2 matrix structure: the solution matrix built from the bi-orthogonal
system and its associated functions, the one-step transfer matrix, the
rational coefficient matrix of the z-derivative, its residue matrices at the
finite singularities and at infinity, and the Riemann-Hilbert normalization.

Matrix conventions (ascending row-major):

    Y_n = [[phi_n,  eps_n / w], [phi*_n, -eps*_n / w]],    det Y_n = -2 z^n / w
    K_n = (1/kappa_n) [[kappa_{n+1} z,    phi_{n+1}(0)],
                       [phibar_{n+1}(0) z, kappa_{n+1}]],  Y_{n+1} = K_n Y_n
    W(z) A_n(z) = [[-(Omega_n + V) + (kappa_{n+1}/kappa_n) z Theta_n,
                    (phi_{n+1}(0)/kappa_n) Theta_n],
                   [-(phibar_{n+1}(0)/kappa_n) z Theta*_n,
                    Omega*_n - V - (kappa_{n+1}/kappa_n) Theta*_n]]

Every matrix builder takes an array z of any shape (a scalar is a 0-d
array) and returns the stack of matrices, of shape z.shape + (2, 2).  The
derivative checks in `verify_matrix_system` differentiate the assembled
matrices exactly: phi_n, phi*_n and eps_n, eps*_n through
`AssocSystem.derivative` (polynomials and the moment series of F), eps/w
through W w' = 2 V w, and K'_n as the constant z-coefficient of K_n.  They
stay independent of the coefficient-function construction, which reads each
quadruple as a band of the Taylor series at 0 or at infinity: these checks
test the whole matrix identity pointwise at the given sample points, each
with the element of F on its own side of the circle.  Each quadruple is
evaluated once per point set (`CoeffQuad.evaluate`), and each per-point
check takes its residuals at all points in one `rel_residuals` call.

Level ceiling: on the flagship weight z^-1 (z-2)^(1/2) (z-3)^(1/3) the
matrix system passes at the identity tolerance 1e-9 through n = 7.
transfer_compatibility is scaled by its O(1) result, while A_{n+1} K_n and
K_n A_n cancel from about 5.7e4 at n = 10; it reads 9.0e-12 at n = 5,
5.1e-10 at n = 7 and 3.3e-9 at n = 8, a fail.  xstar_derivative_system
grows the same way (3.5e-11 at n = 5, 7.9e-9 at n = 10).  `verify-all`
meets the Riemann-Hilbert ceiling (rhp_order_22_at_zero, n = 6) first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .assoc import AssocSystem
from .bops import BopsSystem
from .coeffs import CoeffQuad
from .config import DEFAULT_TOL, Tolerances
from .errors import SingularResidueError
from .numerics import rel_residual, rel_residuals, slope_fit
from .report import IdentityReport
from .weight import PolyPair, SemiClassicalWeight


def _mat(a, b, c, d) -> np.ndarray:
    """Stack the entries [[a, b], [c, d]], broadcast together, into shape
    (..., 2, 2)."""
    a, b, c, d = np.broadcast_arrays(*(np.asarray(e, dtype=complex) for e in (a, b, c, d)))
    return np.stack([a, b, c, d], axis=-1).reshape(a.shape + (2, 2))


def y_matrix(
    sys: BopsSystem, asys: AssocSystem, wfun: Callable, n: int, z,
    side: str | None = None,
) -> np.ndarray:
    zs = np.asarray(z, dtype=complex)
    w = np.asarray(wfun(zs), dtype=complex)
    if np.any(w == 0):
        raise SingularResidueError(f"w(z) = 0 at z = {zs[w == 0].flat[0]}")
    phi, phistar, eps, epsstar = asys.evaluate(n, zs, side)
    return _mat(phi, eps / w, phistar, -epsstar / w)


def k_matrix(sys: BopsSystem, n: int, z) -> np.ndarray:
    ln, lp = sys.level(n), sys.level(n + 1)
    zs = np.asarray(z, dtype=complex)
    return _mat(lp.kappa * zs, lp.phi0, lp.phibar0 * zs, lp.kappa) / ln.kappa


def a_matrix(quad: CoeffQuad, vw: PolyPair, sys: BopsSystem, n: int, z) -> np.ndarray:
    """A_n(z) = (W A)/W with the coefficient-function parameterisation."""
    zs = np.asarray(z, dtype=complex)
    return _a_matrix(quad.evaluate(zs), vw, sys, n, zs)


def _a_matrix(values, vw: PolyPair, sys: BopsSystem, n: int, zs: np.ndarray) -> np.ndarray:
    """a_matrix from the values (Theta_n, Theta*_n, Omega_n, Omega*_n) at zs."""
    ln, lp = sys.level(n), sys.level(n + 1)
    v = vw.v_eval(zs)
    th, ths, om, oms = values
    ratio = lp.kappa / ln.kappa
    mat = _mat(
        -(om + v) + ratio * zs * th,
        lp.phi0 / ln.kappa * th,
        -lp.phibar0 / ln.kappa * zs * ths,
        oms - v - ratio * ths,
    )
    return mat / np.asarray(vw.w_eval(zs))[..., None, None]


@dataclass(frozen=True)
class ResidueSet:
    """Residue matrices of A_n(z) at the finite singularities and infinity."""

    n: int
    a: np.ndarray  # shape (m, 2, 2), ordered like the weight's singularities
    a_inf: np.ndarray
    a_inf_closed: np.ndarray
    consistency: float  # entrywise gap between -sum A_j and the closed form


def assemble_residues(
    quad: CoeffQuad,
    vw: PolyPair,
    sys: BopsSystem,
    n: int,
    weight: SemiClassicalWeight,
    tol: float = 1e-7,
) -> ResidueSet:
    """A_{nj} = rho_j / (2 V(z_j)) * [W A_n](z_j) for j >= 2, the special
    upper-triangular form at the origin, and the residue at infinity both as
    -sum_j A_{nj} and in its closed form [[-n, 0], [-(n+sum rho) rbar_n,
    sum rho]]; the two must agree entrywise."""
    ln, lp = sys.level(n), sys.level(n + 1)
    ratio = lp.kappa / ln.kappa
    th, ths, om, oms = quad.evaluate(weight.locations)  # once at every z_j
    mats = []
    for j, s in enumerate(weight.singularities):
        zj, rho = s.location, s.exponent
        vj = vw.v_eval(zj)
        if abs(vj) < 1e-12:
            raise SingularResidueError(f"V(z_{j + 1}) = 0 at z = {zj}")
        if j == 0:
            if zj != 0:
                raise SingularResidueError("first singularity must be the origin")
            w1 = vw.w_deriv(0.0)
            v0 = vw.v_eval(0.0)
            top = n * w1 - 2.0 * v0
            mats.append(
                rho
                / (2.0 * v0)
                * np.array([[top, -top * ln.r], [0.0, 0.0]], dtype=complex)
            )
        else:
            mats.append(
                rho
                / (2.0 * vj)
                * np.array(
                    [
                        [-(om[j] + vj) + ratio * zj * th[j], lp.phi0 / ln.kappa * th[j]],
                        [-lp.phibar0 / ln.kappa * zj * ths[j], oms[j] - vj - ratio * ths[j]],
                    ],
                    dtype=complex,
                )
            )
    a = np.array(mats)
    a_inf = -a.sum(axis=0)
    sum_rho = weight.exponent_sum
    a_inf_closed = np.array(
        [[-n, 0.0], [-(n + sum_rho) * ln.rbar, sum_rho]], dtype=complex
    )
    consistency = float(np.max(np.abs(a_inf - a_inf_closed))) / max(1.0, n)
    if consistency > tol:
        raise SingularResidueError(
            f"residue sum -sum A_j deviates from the closed form at infinity "
            f"by {consistency:.3e}"
        )
    return ResidueSet(n=n, a=a, a_inf=a_inf, a_inf_closed=a_inf_closed, consistency=consistency)


def residues_bilinear_form(
    sys: BopsSystem, asys: AssocSystem, weight: SemiClassicalWeight, n: int
) -> dict[int, np.ndarray]:
    """Alternative rank-one expression for the residues at the non-origin
    singularities, built from phi/eps products."""
    out = {}
    for j, s in enumerate(weight.singularities):
        if s.location == 0:
            continue
        zj, rho = s.location, s.exponent
        phi, star, eps, eps_s = asys.evaluate(n, zj)
        out[j] = (
            -0.5
            * rho
            * zj ** (-n)
            * np.array(
                [[star * eps, -phi * eps], [-star * eps_s, phi * eps_s]],
                dtype=complex,
            )
        )
    return out


def verify_matrix_system(
    sys: BopsSystem,
    asys: AssocSystem,
    quads: Mapping[int, CoeffQuad],
    vw: PolyPair,
    weight: SemiClassicalWeight,
    n: int,
    samples: Sequence[complex],
    wfun: Callable | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> IdentityReport:
    """Matrix-level identity web at level n:

    * Y'_n = A_n Y_n, with Y'_n exact from `AssocSystem.derivative`;
    * K'_n = A_{n+1} K_n - K_n A_n and det K_n = z via the kappa identity;
    * Tr A_n = n/z - w'/w;
    * the X / X* / Z / Z* variant derivative systems;
    * the rank-one bilinear form of the residues against the
      coefficient-function form;
    * the four summation identities over the singular points.

    The residue and summation checks run at 100x (the rank-one determinant
    at 10x) tol.identity.
    """
    rep = IdentityReport(f"matrix system at n={n}")
    # written as a ratio so that the default tolerances are exactly 1e-7, 1e-8
    residue_tol = 1e-7 * (tol.identity / DEFAULT_TOL.identity)
    rank_tol = 1e-8 * (tol.identity / DEFAULT_TOL.identity)
    if wfun is None:
        wfun = lambda z: weight(z)
    quad = quads[n]
    zs = np.asarray(
        [
            z
            for z in samples
            if abs(z) > 1e-6 and all(abs(z - s.location) > 0.05 for s in weight.singularities)
        ],
        dtype=complex,
    )
    wheres = [f"z={z:.3g}" for z in zs]
    w = np.asarray(wfun(zs), dtype=complex)
    w_z, v_z = vw.w_eval(zs), vw.v_eval(zs)
    log_w = 2.0 * v_z / w_z  # w'/w, as W w' = 2 V w

    def over_w(e, de):
        """e/w and its derivative (e' - (w'/w) e)/w."""
        return e / w, (de - log_w * e) / w

    def level(k):
        """(value, exact derivative) of phi_k, phi*_k, eps_k/w, -eps*_k/w."""
        phi, star, eps, es = asys.evaluate(k, zs)
        dphi, dstar, deps, des = asys.derivative(k, zs)
        return (phi, dphi), (star, dstar), over_w(eps, deps), over_w(-es, -des)

    def with_derivative(*entries):
        """The matrix of (value, derivative) entries and its derivative."""
        return _mat(*(value for value, _ in entries)), _mat(*(d for _, d in entries))

    def add_per_point(checks):
        """One entry per sample point and check (lhs = rhs), in point order."""
        res = [rel_residuals(lhs - rhs, lhs, rhs) for _, _, lhs, rhs in checks]
        for i, where in enumerate(wheres):
            for (name, anchor, _, _), r in zip(checks, res):
                rep.add(name, anchor, r[i], tol.identity, n=n, where=where)

    phi, star, eps, es = level(n)
    y, yd = with_derivative(phi, eps, star, es)
    values = quad.evaluate(zs)  # Theta_n, Theta*_n, Omega_n, Omega*_n
    a_n = _a_matrix(values, vw, sys, n, zs)
    add_per_point(
        [
            ("y_derivative_system", "equivalent to the matrix differential equation",
             yd, a_n @ y),
            ("y_determinant", "note that det Y_n = -2 z^n / w(z)",
             np.linalg.det(y), -2.0 * zs**n / w),
            ("trace_of_a", "we note that Tr A_n = n/z - w'/w",
             np.trace(a_n, axis1=-2, axis2=-1), n / zs - log_w),
        ]
    )

    if n + 1 in quads:
        values_p = quads[n + 1].evaluate(zs)
        ln, lp = sys.level(n), sys.level(n + 1)
        k_n = k_matrix(sys, n, zs)
        # K_n is linear in z: K'_n is the constant z-coefficient
        kd = np.broadcast_to(_mat(lp.kappa, 0.0, lp.phibar0, 0.0) / ln.kappa, k_n.shape)
        k_rhs = _a_matrix(values_p, vw, sys, n + 1, zs) @ k_n - k_n @ a_n
        add_per_point(
            [("transfer_compatibility", "compatibility of the relations", kd, k_rhs)]
        )
        det_k_identity = lp.kappa**2 - lp.phi0 * lp.phibar0 - ln.kappa**2
        rep.add(
            "transfer_determinant",
            "the matrix K_n has the property det K_n = z",
            rel_residual(det_k_identity, lp.kappa**2, ln.kappa**2),
            tol.identity,
            n=n,
        )

        # X / X* / Z / Z* variants: W M' = C M with the coefficient matrices C
        lpp = sys.level(n + 2)
        phi_p, star_p, eps_p, es_p = level(n + 1)
        neg = lambda entry: (-entry[0], -entry[1])
        th, ths, om, oms = values
        th_p, ths_p, _, _ = values_p
        # the Z* (1,1) entry carries n W / z, as the trace must equal
        # W (log det Z*)' = n W / z - 2 V (det Z* = 2 kappa_{n+1} z^n /
        # (kappa_n w), from the mixed Casoratian)
        variants = (
            (
                "x_derivative_system",
                (phi_p, eps_p, phi, eps),
                (
                    om - v_z + n * w_z / zs,
                    -ln.kappa * lpp.phi0 / (lp.kappa * lp.phi0) * zs * th_p,
                    th,
                    -om - v_z,
                ),
            ),
            (
                "xstar_derivative_system",
                (star_p, neg(es_p), star, neg(es)),
                (
                    -oms - v_z + (n + 1) * w_z / zs,
                    ln.kappa * lpp.phibar0 / (lp.kappa * lp.phibar0) * zs * ths_p,
                    -ths,
                    oms - v_z,
                ),
            ),
            (
                "z_derivative_system",
                (phi_p, eps_p, star, es),
                (
                    -oms - v_z + ln.kappa / lp.kappa * ths + (n + 1) * w_z / zs,
                    ln.kappa * lpp.phi0 / lp.kappa**2 * th_p,
                    -lp.phibar0 / lp.kappa * ths,
                    oms - v_z - ln.kappa / lp.kappa * ths,
                ),
            ),
            (
                "zstar_derivative_system",
                (star_p, es_p, phi, eps),
                (
                    om - v_z - ln.kappa / lp.kappa * zs * th + n * w_z / zs,
                    -ln.kappa * lpp.phibar0 / lp.kappa**2 * zs**2 * ths_p,
                    lp.phi0 / lp.kappa * th,
                    -om - v_z + ln.kappa / lp.kappa * zs * th,
                ),
            ),
        )
        checks = []
        for name, entries, coeff in variants:
            mat, der = with_derivative(*entries)
            checks.append(
                (name, "other forms of the matrix variables",
                 w_z[:, None, None] * der, _mat(*coeff) @ mat)
            )
        add_per_point(checks)

    # residues: coefficient-function form vs rank-one bilinear form
    res = assemble_residues(quad, vw, sys, n, weight)
    bil = residues_bilinear_form(sys, asys, weight, n)
    for j, mat in bil.items():
        gap = rel_residual(res.a[j] - mat, res.a[j], mat)
        rep.add(
            "residue_bilinear_form",
            "an alternative expression for the residue matrices",
            gap,
            residue_tol,
            n=n,
            where=f"z_{j + 1}",
        )
        rep.add(
            "residue_rank_one",
            "we find that det A_nj = 0",
            abs(np.linalg.det(res.a[j])) / max(1.0, float(np.max(np.abs(res.a[j]))) ** 2),
            rank_tol,
            n=n,
            where=f"z_{j + 1}",
        )
    for j, s in enumerate(weight.singularities):
        want = s.exponent if j > 0 else s.exponent - n
        rep.add(
            "residue_trace",
            "using the identity we note the traces of the residue matrices",
            abs(np.trace(res.a[j]) + want) / max(1.0, abs(want)),
            residue_tol,
            n=n,
            where=f"z_{j + 1}",
        )
    rep.add(
        "residue_at_infinity",
        "the regular singularity at infinity",
        res.consistency,
        residue_tol,
        n=n,
    )

    # four summation identities
    sum_rho = weight.exponent_sum
    ln = sys.level(n)
    sums = [0j, 0j, 0j, 0j]
    for s in weight.singularities:
        zj, rho = s.location, s.exponent
        if zj == 0:
            continue
        phi, star, eps, eps_s = asys.evaluate(n, zj)
        base = 0.5 * rho * zj ** (-n)
        sums[0] += base * phi * eps
        sums[1] += base * star * eps
        sums[2] += base * phi * eps_s
        sums[3] += base * star * eps_s
    # the sums run over the non-zero singularities; the origin enters through
    # its (upper-triangular) residue matrix, whose first row contributes to
    # the first two identities
    res0 = res.a[0]
    targets = [
        ("summation_phi_eps", sums[0] + res0[0, 1], 0.0),
        ("summation_phistar_eps", sums[1] - res0[0, 0], -float(n)),
        ("summation_phi_epsstar", sums[2], sum_rho),
        ("summation_phistar_epsstar", sums[3], (n + sum_rho) * ln.rbar),
    ]
    for name, got, want in targets:
        rep.add(
            name,
            "imply the summation identities",
            rel_residual(got - want, got, want, n),
            residue_tol,
            n=n,
        )
    return rep


# ---------------------------------------------------------------------------
# Riemann-Hilbert normalization checks
# ---------------------------------------------------------------------------

def normalized_solution(
    sys: BopsSystem, asys: AssocSystem, n: int, z, side: str | None = None
) -> np.ndarray:
    """The RHP-normalized matrix [[phi_n/kappa_n, eps_n/(2 kappa_n z)],
    [kappa_n phi*_n, -kappa_n eps*_n/(2z)]] (no weight division), stacked
    over the array z: shape z.shape + (2, 2)."""
    zs = np.asarray(z, dtype=complex)
    kappa = sys.kappa(n)
    phi, phistar, eps, epsstar = asys.evaluate(n, zs, side)
    return _mat(
        phi / kappa, eps / (2.0 * kappa * zs), kappa * phistar, -kappa * epsstar / (2.0 * zs)
    )


def rhp_jump_check(
    sys: BopsSystem,
    asys: AssocSystem,
    wfun: Callable,
    n: int,
    thetas: Sequence[float],
    weight: SemiClassicalWeight | None = None,
    offset: float = 1e-4,
    tol: float = 1e-5,
) -> IdentityReport:
    """Jump, determinant and asymptotic order conditions of the normalized
    problem.  The inside and outside analytic elements are evaluated at the
    same points just off the circle (both extend into the weight's annulus),
    so the jump Y_+ = Y_- [[1, w/z], [0, 1]] is exact up to series
    truncation.  Each circle of points is evaluated in one call."""
    rep = IdentityReport(f"Riemann-Hilbert checks at n={n}")
    if n < 1:
        raise ValueError("the normalized problem is stated for n >= 1")

    def near_cut(theta: float) -> bool:
        if weight is None:
            return False
        for s in weight.singularities:
            zj = s.location
            if zj == 0:
                continue
            if abs(abs(zj) - 1.0) < 4 * offset:
                if abs(np.exp(1j * theta) - zj / abs(zj)) < 0.05:
                    return True
        return False

    kept = np.asarray([float(t) for t in thetas if not near_cut(float(t))])
    for radius in (1.0 - offset, 1.0 + offset):
        zs = radius * np.exp(1j * kept)
        w = np.asarray(wfun(zs), dtype=complex)
        lhs = normalized_solution(sys, asys, n, zs, side="inside")
        rhs = normalized_solution(sys, asys, n, zs, side="outside") @ _mat(1.0, w / zs, 0.0, 1.0)
        for theta, residual in zip(kept, rel_residuals(lhs - rhs, lhs, rhs)):
            rep.add(
                "rhp_jump",
                "consider the following Riemann-Hilbert problem",
                residual,
                tol,
                n=n,
                where=f"theta={theta:.3f}, r={radius}",
            )

    zdet = np.array([0.5 + 0.21j, -1.7 + 1.1j, 2.0 - 0.6j])
    for z, det in zip(zdet, np.linalg.det(normalized_solution(sys, asys, n, zdet))):
        want = -(z ** (n - 1))
        rep.add(
            "rhp_determinant",
            "we also point out det Y(z) = -z^{n-1}",
            rel_residual(det - want, det, want),
            1e-9,
            n=n,
            where=f"z={z:.3g}",
        )

    # asymptotic orders: two-radius mean-log slope fits, one stack of
    # matrices per circle shared by the four entries
    slope_tol = 0.01
    ring = np.exp(1j * np.linspace(0.1, 2 * np.pi, 8))
    orders = (
        ("outside", "as z tends to infinity", 20.0, (20.0, 80.0), (
            ("rhp_order_11_at_infinity", (0, 0), n, "two-sided"),
            ("rhp_order_22_at_infinity", (1, 1), -1, "two-sided"),
            ("rhp_order_12_at_infinity", (0, 1), -2, "upper"),
            ("rhp_order_21_at_infinity", (1, 0), n, "upper"),
        )),
        ("inside", "as z tends to zero", 0.1, (0.025, 0.1), (
            ("rhp_order_11_at_zero", (0, 0), 0, "lower"),
            ("rhp_order_12_at_zero", (0, 1), n - 1, "lower"),
            ("rhp_order_21_at_zero", (1, 0), 0, "lower"),
            ("rhp_order_22_at_zero", (1, 1), n, "lower"),
        )),
    )
    for side, anchor, r_mag, radii, checks in orders:
        stack = lambda z, side=side: normalized_solution(sys, asys, n, z, side)
        magnitude = np.abs(stack(r_mag * ring)).max(axis=0)
        slopes = slope_fit(stack, *radii)
        for name, entry, order, kind in checks:
            if magnitude[entry] < 1e-13:
                rep.add(name, anchor, 0.0, slope_tol, n=n, where="vanishes")
                continue
            slope = float(slopes[entry])
            if kind == "two-sided":
                gap = abs(slope - order)
            elif kind == "upper":
                gap = max(0.0, slope - order)
            else:
                gap = max(0.0, order - slope)
            rep.add(name, anchor, gap, slope_tol, n=n, where=f"slope={slope:.4f}")
    return rep
