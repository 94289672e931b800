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
array) and returns the stack of matrices, of shape z.shape + (2, 2);
`normalized_solution` also takes an array of levels and stacks them first.
`verify_matrix_system` and `rhp_jump_check` take a range of levels, write
their entries level by level, and evaluate each point set once for all
levels.  The derivative checks in `verify_matrix_system` differentiate the
assembled matrices exactly: phi_n, phi*_n and eps_n, eps*_n through
`evaluate_with_derivative` (polynomials and the bands of the exact eps
series), eps/w through W w' = 2 V w, and K'_n as the constant z-coefficient
of K_n.  They stay independent of the coefficient-function construction,
which reads each quadruple as a band of the Taylor series at 0 or at
infinity: these checks test the whole matrix identity pointwise at the
given sample points, each with the eps series of its own side of the
circle.  Each quadruple is evaluated once per point set (`CoeffQuad.evaluate`).  Every check is a row family of
`IdentityReport.add_rows`: a per-point check has one row a sample point,
the residue checks one row a singular point, and the transfer determinant
and the summation identities one row at their level, since each level's
entries keep their order.  The rank-one bilinear form of the
residues comes from one evaluation at all the non-origin singular points
for all levels, and the four summation identities are read off its stack
and the origin's residue matrix.  The Riemann-Hilbert orders of Y at 0 and
at infinity are read off exact coefficients, never off points.

Level ceiling: the matrix system sets `verify-all`'s.  On the flagship
weight z^-1 (z-2)^(1/2) (z-3)^(1/3) and on the complex m = 4 weight it
passes at the identity tolerance 1e-9 through n = 7.
transfer_compatibility is scaled by its O(1) result, while A_{n+1} K_n and
K_n A_n cancel from about 5.7e4 at n = 10; on the flagship it reads
9.0e-12 at n = 5, 5.1e-10 at n = 7 and 3.3e-9 at n = 8, a fail (5.9e-9 on
the m = 4 weight).  xstar_derivative_system grows the same way (3.5e-11 at
n = 5, 7.9e-9 at n = 10).  The Riemann-Hilbert suite passes the flagship
through n = 22 (19 on the complex m = 4 weight): at n = 23
rhp_order_12_at_zero reads 1.9e-9, since the orders of eps_n below
z^(n-1) vanish only to the round-off of psi_n's coefficients, which double
with each level (3.6e7 at n = 23).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .assoc import AssocSystem
from .bops import BopsSystem
from .coeffs import CoeffQuad
from .config import IDENTITY_TOL
from .errors import SingularResidueError
from .report import IdentityReport, equation
from .weight import PolyPair, SemiClassicalWeight


def _mat(a, b, c, d) -> np.ndarray:
    """Stack the entries [[a, b], [c, d]], broadcast together, into shape
    (..., 2, 2)."""
    a, b, c, d = np.broadcast_arrays(*(np.asarray(e, dtype=complex) for e in (a, b, c, d)))
    return np.stack([a, b, c, d], axis=-1).reshape(a.shape + (2, 2))


def k_matrix(sys: BopsSystem, n: int, z) -> np.ndarray:
    ln, lp = sys.level(n), sys.level(n + 1)
    zs = np.asarray(z, dtype=complex)
    return _mat(lp.kappa * zs, lp.phi0, lp.phibar0 * zs, lp.kappa) / ln.kappa


def a_matrix(values, v, w, sys: BopsSystem, n: int, zs: np.ndarray) -> np.ndarray:
    """A_n(z) = (W A)/W with the coefficient-function parameterisation, from
    the quadruple's values (Theta_n, Theta*_n, Omega_n, Omega*_n) at zs
    (`CoeffQuad.evaluate`) and those of V and W."""
    ln, lp = sys.level(n), sys.level(n + 1)
    th, ths, om, oms = values
    ratio = lp.kappa / ln.kappa
    mat = _mat(
        -(om + v) + ratio * zs * th,
        lp.phi0 / ln.kappa * th,
        -lp.phibar0 / ln.kappa * zs * ths,
        oms - v - ratio * ths,
    )
    return mat / w[..., None, None]


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
    asys: AssocSystem, weight: SemiClassicalWeight, ns: Sequence[int]
) -> np.ndarray:
    """Alternative rank-one expression for the residues at the non-origin
    singularities z_2..z_m, built from phi/eps products at each level of
    ``ns``: the stack of shape (len(ns), m-1, 2, 2), from one evaluation at
    all of them."""
    zj = weight.locations[1:]
    levels = np.asarray(ns, dtype=int)
    phi, star, eps, eps_s = (v[levels] for v in asys.evaluate(zj))
    scale = -0.5 * weight.exponents[1:] * zj ** -levels[:, None]
    return scale[..., None, None] * _mat(star * eps, -phi * eps, -star * eps_s, phi * eps_s)


def verify_matrix_system(
    sys: BopsSystem,
    asys: AssocSystem,
    quads: Mapping[int, CoeffQuad],
    vw: PolyPair,
    weight: SemiClassicalWeight,
    ns: Sequence[int],
    samples: Sequence[complex],
    tol_scale: float = 1.0,
) -> IdentityReport:
    """Matrix-level identity web at each level n of ``ns``, level by level:

    * Y'_n = A_n Y_n, with Y'_n exact from `evaluate_with_derivative`;
    * K'_n = A_{n+1} K_n - K_n A_n and det K_n = z via the kappa identity;
    * Tr A_n = n/z - w'/w;
    * the X / X* / Z / Z* variant derivative systems;
    * the rank-one bilinear form of the residues against the
      coefficient-function form;
    * the four summation identities over the singular points.

    The sample points and the singular points are each evaluated once for
    every level.  Each gate is its stated tolerance times ``tol_scale``:
    the identity tolerance 1e-9, 1e-7 for the residue and summation checks
    and 1e-8 for the rank-one determinant.
    """
    rep = IdentityReport("matrix systems")
    identity_tol = IDENTITY_TOL * tol_scale
    residue_tol = 1e-7 * tol_scale
    rank_tol = 1e-8 * tol_scale
    zs = np.asarray(
        [
            z
            for z in samples
            if abs(z) > 1e-6 and all(abs(z - s.location) > 0.05 for s in weight.singularities)
        ],
        dtype=complex,
    )
    wheres = [f"z={z:.3g}" for z in zs]
    w = weight(zs)
    w_z, v_z = vw.w_eval(zs), vw.v_eval(zs)
    log_w = 2.0 * v_z / w_z  # w'/w, as W w' = 2 V w
    values_at, derivatives_at = asys.evaluate_with_derivative(zs)
    quad_values = {
        k: quads[k].evaluate(zs)  # Theta_k, Theta*_k, Omega_k, Omega*_k
        for k in sorted({k for n in ns for k in (n, n + 1)} & quads.keys())
    }
    bilinear = residues_bilinear_form(asys, weight, ns)

    def over_w(e, de):
        """e/w and its derivative (e' - (w'/w) e)/w."""
        return e / w, (de - log_w * e) / w

    def level(k):
        """(value, exact derivative) of phi_k, phi*_k, eps_k/w, -eps*_k/w."""
        phi, star, eps, es = (v[k] for v in values_at)
        dphi, dstar, deps, des = (d[k] for d in derivatives_at)
        return (phi, dphi), (star, dstar), over_w(eps, deps), over_w(-es, -des)

    def with_derivative(*entries):
        """The matrix of (value, derivative) entries and its derivative."""
        return _mat(*(value for value, _ in entries)), _mat(*(d for _, d in entries))

    for n, bil in zip(ns, bilinear):
        phi, star, eps, es = level(n)
        y, yd = with_derivative(phi, eps, star, es)
        values = quad_values[n]
        a_n = a_matrix(values, v_z, w_z, sys, n, zs)
        at_points = [n] * len(zs)
        rep.add_rows([
            equation("y_derivative_system", "equivalent to the matrix differential equation",
                     yd, a_n @ y),
            equation("y_determinant", "note that det Y_n = -2 z^n / w(z)",
                     np.linalg.det(y), -2.0 * zs**n / w),
            equation("trace_of_a", "we note that Tr A_n = n/z - w'/w",
                     np.trace(a_n, axis1=-2, axis2=-1), n / zs - log_w),
        ], identity_tol, at_points, wheres)

        if n + 1 in quads:
            values_p = quad_values[n + 1]
            ln, lp = sys.level(n), sys.level(n + 1)
            k_n = k_matrix(sys, n, zs)
            # K_n is linear in z: K'_n is the constant z-coefficient
            kd = np.broadcast_to(_mat(lp.kappa, 0.0, lp.phibar0, 0.0) / ln.kappa, k_n.shape)
            k_rhs = a_matrix(values_p, v_z, w_z, sys, n + 1, zs) @ k_n - k_n @ a_n
            rep.add_rows([
                equation("transfer_compatibility", "compatibility of the relations", kd, k_rhs),
            ], identity_tol, at_points, wheres)
            # one row: the level's entries keep their order around it
            rep.add_rows([
                ("transfer_determinant", "the matrix K_n has the property det K_n = z",
                 [lp.kappa**2 - lp.phi0 * lp.phibar0 - ln.kappa**2], [lp.kappa**2], [ln.kappa**2]),
            ], identity_tol, [n])

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
                    equation(name, "other forms of the matrix variables",
                             w_z[:, None, None] * der, _mat(*coeff) @ mat)
                )
            rep.add_rows(checks, identity_tol, at_points, wheres)

        # residues: coefficient-function form vs rank-one bilinear form; the
        # determinant over max|A_nj|^2, the trace against its target
        res = assemble_residues(quads[n], vw, sys, n, weight, tol=residue_tol)
        m = len(res.a)
        rep.add_rows([
            ("residue_bilinear_form", "an alternative expression for the residue matrices",
             res.a[1:] - bil, res.a[1:], bil),
            ("residue_rank_one", "we find that det A_nj = 0",
             np.linalg.det(res.a[1:]), np.abs(res.a[1:]).max(axis=(1, 2)) ** 2),
        ], [residue_tol, rank_tol], [n] * (m - 1), [f"z_{j + 1}" for j in range(1, m)])
        wants = weight.exponents - n * (np.arange(m) == 0)  # n - rho_0 at the origin
        rep.add_rows([
            ("residue_trace", "using the identity we note the traces of the residue matrices",
             np.trace(res.a, axis1=1, axis2=2) + wants, wants),
        ], residue_tol, [n] * m, [f"z_{j + 1}" for j in range(m)])
        rep.add(
            "residue_at_infinity",
            "the regular singularity at infinity",
            res.consistency,
            residue_tol,
            n=n,
        )

        # four summation identities, read off the residue matrices: the sums
        # run over the bilinear residues of the non-zero singularities, and
        # the origin enters through its (upper-triangular) residue matrix
        sum_rho = weight.exponent_sum
        total = bil.sum(axis=0) + res.a[0]
        targets = [
            ("summation_phi_eps", total[0, 1], 0.0),
            ("summation_phistar_eps", -total[0, 0], -float(n)),
            ("summation_phi_epsstar", -total[1, 1], sum_rho),
            ("summation_phistar_epsstar", total[1, 0], (n + sum_rho) * sys.level(n).rbar),
        ]
        rep.add_rows([
            (name, "imply the summation identities", [got - want], [got], [want], [n])
            for name, got, want in targets
        ], residue_tol, [n])
    return rep


# ---------------------------------------------------------------------------
# Riemann-Hilbert normalization checks
# ---------------------------------------------------------------------------

def normalized_solution(
    sys: BopsSystem, asys: AssocSystem, n, z, side: str | None = None
) -> np.ndarray:
    """The RHP-normalized matrix [[phi_n/kappa_n, eps_n/(2 kappa_n z)],
    [kappa_n phi*_n, -kappa_n eps*_n/(2z)]] (no weight division), stacked
    over the array z, at the level n or at every level of an array n: shape
    n.shape + z.shape + (2, 2)."""
    zs = np.asarray(z, dtype=complex)
    levels = np.asarray(n, dtype=int)
    kappa = np.array([sys.kappa(k) for k in levels.flat]).reshape(levels.shape + (1,) * zs.ndim)
    phi, phistar, eps, epsstar = (v[levels] for v in asys.evaluate(zs, side))
    return _mat(
        phi / kappa, eps / (2.0 * kappa * zs), kappa * phistar, -kappa * epsstar / (2.0 * zs)
    )


def rhp_jump_check(
    sys: BopsSystem,
    asys: AssocSystem,
    wfun: Callable,
    ns: Sequence[int],
    thetas: Sequence[float],
    weight: SemiClassicalWeight | None = None,
    offset: float = 1e-4,
    tol: float = 1e-5,
) -> IdentityReport:
    """Jump, determinant and asymptotic order conditions of the normalized
    problem at each level n of ``ns``, level by level.  The inside and
    outside analytic elements are evaluated at the same points just off the
    circle (both extend into the weight's annulus), so the jump
    Y_+ = Y_- [[1, w/z], [0, 1]] is exact up to series truncation; its (1,2)
    entry is the Plemelj jump eps_+ - eps_- = 2 w phi_n.  The points of both
    circles are evaluated together, once per side for every level, and the
    entries are written circle by circle.  The orders of Y at 0 and at
    infinity are read off exact coefficients, with no points: those of
    phi_n and phi*_n, and the series of eps_n and eps*_n from
    `AssocSystem.eps_taylor`.  Each order entry's residual is its largest
    forbidden coefficient over max(1, its largest allowed one).  The jump is
    gated at ``tol``, the determinant and the orders at the identity
    tolerance 1e-9, both scaled by tol / 1e-5."""
    rep = IdentityReport("Riemann-Hilbert suite")
    identity_tol = IDENTITY_TOL * (tol / 1e-5)
    if any(n < 1 for n in ns):
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
    radii = (1.0 - offset, 1.0 + offset)
    zs = np.multiply.outer(radii, np.exp(1j * kept))  # one circle a row
    w = np.asarray(wfun(zs), dtype=complex)
    lhs = normalized_solution(sys, asys, ns, zs, side="inside")
    rhs = normalized_solution(sys, asys, ns, zs, side="outside") @ _mat(1.0, w / zs, 0.0, 1.0)
    circles = [[f"theta={theta:.3f}, r={radius}" for theta in kept] for radius in radii]
    zdet = np.array([0.5 + 0.21j, -1.7 + 1.1j, 2.0 - 0.6j])
    dets = np.linalg.det(normalized_solution(sys, asys, ns, zdet))
    # an array of exponents raises each point as the scalar z ** (n - 1) does
    wants = -(zdet ** (np.asarray(ns) - 1)[:, None])
    zwheres = [f"z={z:.3g}" for z in zdet]

    for i, n in enumerate(ns):
        for c, wheres in enumerate(circles):
            rep.add_rows([
                equation("rhp_jump", "consider the following Riemann-Hilbert problem",
                         lhs[i, c], rhs[i, c]),
            ], tol, [n] * len(wheres), wheres)
        rep.add_rows([
            equation("rhp_determinant", "we also point out det Y(z) = -z^{n-1}", dets[i], wants[i]),
        ], identity_tol, [n] * len(zdet), zwheres)

        # asymptotic orders, read off exact coefficients: each entry's
        # expansion runs in powers of z up from `edge` at 0, or down from
        # `edge` at infinity, and the stated order forbids the |order - edge|
        # coefficients before it.  phi_n and phi*_n are polynomials of degree
        # n; eps_n and eps*_n come from their exact series, where the 1/z of
        # their entries moves each power down by one.
        lev = sys.level(n)
        kappa = lev.kappa

        def eps_entry(star: bool, at_infinity: bool) -> np.ndarray:
            factor = -kappa / 2.0 if star else 0.5 / kappa
            return factor * asys.eps_taylor(n, n + 4, star, at_infinity)

        orders = (
            ("as z tends to infinity", (
                ("rhp_order_11_at_infinity", lev.c[::-1] / kappa, n, n),
                ("rhp_order_22_at_infinity", eps_entry(True, True), n - 1, -1),
                ("rhp_order_12_at_infinity", eps_entry(False, True), n - 1, -2),
                ("rhp_order_21_at_infinity", kappa * lev.cbar, n, n),
            )),
            ("as z tends to zero", (
                ("rhp_order_11_at_zero", lev.c / kappa, 0, 0),
                ("rhp_order_12_at_zero", eps_entry(False, False), -1, n - 1),
                ("rhp_order_21_at_zero", kappa * lev.cbar[::-1], 0, 0),
                ("rhp_order_22_at_zero", eps_entry(True, False), -1, n),
            )),
        )
        for anchor, checks in orders:
            for name, series, edge, order in checks:
                size = np.abs(series)
                cut = abs(order - edge)
                residual = size[:cut].max(initial=0.0) / max(1.0, size[cut:].max())
                rep.add(name, anchor, residual, identity_tol, n=n, where=f"z^{order}")
    return rep
