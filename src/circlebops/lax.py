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
`k_matrix`, `a_matrix`, `normalized_solution` and `assemble_residues` also
take an array of levels and stack them first.  In `verify_matrix_system`
and `rhp_jump_check` the level is an array axis: the level scalars
(kappa_n, phi_{n+1}(0), ...) are columns of the coefficient store, the
quadruple values are stacked as (levels, 4, points), each identity family
is formed once over (levels, points) with its residuals from one
`rel_residuals` call, the residues of every level come from one
`assemble_residues`, and the Riemann-Hilbert orders are row families, a
row a level, read off exact coefficients, never off points.  Both suites
write their entries level by level (`IdentityReport.add_groups`), as one
level run alone does.  The derivative checks in `verify_matrix_system`
differentiate the assembled matrices exactly: phi_n, phi*_n and eps_n,
eps*_n through `evaluate_with_derivative` (polynomials and the bands of
the exact eps series), eps/w through W w' = 2 V w, and K'_n as the
constant z-coefficient of K_n.  They stay independent of the
coefficient-function construction, which reads each quadruple as a band of
the Taylor series at 0 or at infinity: these checks test the whole matrix
identity pointwise at the given sample points, each with the eps series of
its own side of the circle.  The rank-one bilinear form of the residues
comes from one evaluation at all the non-origin singular points for all
levels, and the four summation identities are read off its stack and the
origin's residue matrix.  `assemble_residues`, `residues_bilinear_form`
and both suites read one `pipeline.Bundle`: its levels, their associated
functions, its quadruples, and its weight with the weight's own (V, W).
The suites take the levels they check and ``tol_scale``, the run's --tol,
which scales the gates stated below (RESIDUE_TOL, RANK_TOL, JUMP_TOL) and
IDENTITY_TOL.

Level ceiling: the matrix system sets `verify-all`'s.  On the flagship
weight z^-1 (z-2)^(1/2) (z-3)^(1/3) and on the complex m = 4 weight it
passes at the identity tolerance 1e-9 through n = 11 (8 on the
inside-complex weight).  transfer_compatibility is scaled by its O(1)
result, while A_{n+1} K_n and K_n A_n cancel from about 5.7e4 at n = 10;
on the flagship it reads 2.4e-12 at n = 5, 7.1e-10 at n = 11 and 1.5e-9
at n = 12, a fail (2.2e-9 on the m = 4 weight); where a level lands
against the gate moves with the last bits of the evaluations.  xstar_derivative_system
reads 2.6e-12 at n = 10.  The Riemann-Hilbert suite passes the flagship
through n = 21 (19 on the complex m = 4 weight, 20 on the inside-complex
one): at n = 22 rhp_order_12_at_zero reads 1.2e-9, since the orders of
eps_n below z^(n-1) vanish only to the round-off of psi_n's coefficients,
which double with each level (3.6e7 at n = 23).  That entry is of the
order of 2^-52 |r_n|, so whether a level near the wall passes is chance:
level 22 read 9.3e-10 on the trapezoid's moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .assoc import AssocSystem
from .bops import BopsSystem
from .config import IDENTITY_TOL
from .errors import SingularResidueError
from .numerics import polyder, polyval
from .report import IdentityReport, PerFamily, equation

if TYPE_CHECKING:  # pipeline imports coeffs, which lax imports
    from .pipeline import Bundle

# The gates of the suites here besides IDENTITY_TOL, each times the run's
# --tol (``tol_scale``)
RESIDUE_TOL = 1e-7  # the residue checks, residue_at_infinity and the summations
RANK_TOL = 1e-8  # residue_rank_one, det A_nj over max|A_nj|^2
JUMP_TOL = 1e-5  # rhp_jump
# the matrix suite's sample points, and the Riemann-Hilbert jump's circles:
# radii 1 -+ RHP_OFFSET at the angles RHP_THETAS
MATRIX_SAMPLES = (0.4 + 0.2j, -0.3 + 0.35j, 0.5 - 0.1j)
RHP_OFFSET = 1e-4
RHP_THETAS = np.linspace(0.05, 2.0 * np.pi, 24)


def _mat(a, b, c, d) -> np.ndarray:
    """Stack the entries [[a, b], [c, d]], broadcast together, into shape
    (..., 2, 2)."""
    a, b, c, d = np.broadcast_arrays(*(np.asarray(e, dtype=complex) for e in (a, b, c, d)))
    return np.stack([a, b, c, d], axis=-1).reshape(a.shape + (2, 2))


def _level_columns(sys: BopsSystem, n, ndim: int):
    """kappa_n, kappa_{n+1}, phi_{n+1}(0) and phibar_{n+1}(0) of the level n
    or of each level of an array n, read off the store, shaped to broadcast
    against ``ndim`` point axes."""
    at = np.asarray(n)[(...,) + (None,) * ndim]
    return sys.kappas[at], sys.kappas[at + 1], sys.phi[at + 1, 0], sys.phibar[at + 1, 0]


def k_matrix(sys: BopsSystem, n, z) -> np.ndarray:
    """K_n over the array z, at the level n or at every level of an array n."""
    zs = np.asarray(z, dtype=complex)
    kn, kp, p1, pb1 = _level_columns(sys, n, zs.ndim)
    return _mat(kp * zs, p1, pb1 * zs, kp) / np.asarray(kn)[..., None, None]


def _wa_matrix(values, v, sys: BopsSystem, n, zs: np.ndarray) -> np.ndarray:
    """W A_n over zs in the coefficient-function parameterisation, from the
    quadruple's values (Theta_n, Theta*_n, Omega_n, Omega*_n) at zs
    (`QuadStore.values`) and V's, at the level n or at each level of an
    array n (values stacked first)."""
    kn, kp, p1, pb1 = _level_columns(sys, n, np.ndim(zs))
    th, ths, om, oms = values
    ratio = kp / kn
    return _mat(
        -(om + v) + ratio * zs * th,
        p1 / kn * th,
        -pb1 / kn * zs * ths,
        oms - v - ratio * ths,
    )


def a_matrix(values, v, w, sys: BopsSystem, n, zs: np.ndarray) -> np.ndarray:
    """A_n(z) = (W A)/W (`_wa_matrix`) from the quadruple's values at zs and
    those of V and W, at the level n or at each level of an array n."""
    return _wa_matrix(values, v, sys, n, zs) / w[..., None, None]


@dataclass(frozen=True)
class ResidueSet:
    """Residue matrices of A_n(z) at the finite singularities and infinity,
    at one level or with the levels of an array n first."""

    a: np.ndarray  # shape (m, 2, 2), ordered like the weight's singularities
    a_inf: np.ndarray
    a_inf_closed: np.ndarray
    consistency: float  # entrywise gap between -sum A_j and the closed form


def assemble_residues(bundle: Bundle, n) -> ResidueSet:
    """A_{nj} = rho_j / (2 V(z_j)) * [W A_n](z_j) for j >= 2, the special
    upper-triangular form at the origin, and the residue at infinity both as
    -sum_j A_{nj} and in its closed form [[-n, 0], [-(n+sum rho) rbar_n,
    sum rho]]; their entrywise gap over max(1, n) is ``consistency``, which
    the matrix suite and `deform` gate as residue_at_infinity (RESIDUE_TOL).
    At the level n from the bundle's quadruple of it, or at every level of
    an array n: every field then carries n's axes first, all levels and
    singular points formed at once from the level scalars read off the
    store."""
    sys, weight = bundle.sys, bundle.weight
    vw, levels = weight.vw, np.asarray(n)
    flat = levels.reshape(-1)
    locs, rho = weight.locations, weight.exponents
    v = polyval(vw.V, locs)
    small = np.abs(v) < 1e-12
    if small.any():
        j = int(np.argmax(small))
        raise SingularResidueError(f"V(z_{j + 1}) = 0 at z = {weight.singularities[j].location}")
    # once at every level and every z_j: (member, level, z_j)
    values = bundle.quads.values(flat, locs).transpose(1, 0, 2)
    r, rbar = (c[flat] for c in sys.reflections)
    w1 = polyval(polyder(vw.W), 0.0)
    v0 = polyval(vw.V, 0.0)
    top = flat * w1 - 2.0 * v0
    origin = rho[0] / (2.0 * v0) * _mat(top, -top * r, 0.0, 0.0)
    others = (rho[1:] / (2.0 * v[1:]))[:, None, None] * _wa_matrix(
        values[..., 1:], v[1:], sys, flat, locs[1:]
    )
    a = np.concatenate([origin[:, None], others], axis=1)
    a_inf = -a.sum(axis=1)
    sum_rho = weight.exponent_sum
    a_inf_closed = _mat(-flat, 0.0, -(flat + sum_rho) * rbar, sum_rho)
    consistency = np.abs(a_inf - a_inf_closed).max(axis=(1, 2)) / np.maximum(1.0, flat)
    shape = levels.shape
    return ResidueSet(a=a.reshape(shape + a.shape[1:]), a_inf=a_inf.reshape(shape + (2, 2)),
                      a_inf_closed=a_inf_closed.reshape(shape + (2, 2)),
                      consistency=consistency.reshape(shape)[()])


def residues_bilinear_form(bundle: Bundle, ns: Sequence[int]) -> np.ndarray:
    """Alternative rank-one expression for the residues at the non-origin
    singularities z_2..z_m, built from phi/eps products at each level of
    ``ns``: the stack of shape (len(ns), m-1, 2, 2), from one evaluation at
    all of them."""
    zj = bundle.weight.locations[1:]
    levels = np.asarray(ns, dtype=int)
    phi, star, eps, eps_s = (v[levels] for v in bundle.asys.evaluate(zj))
    scale = -0.5 * bundle.weight.exponents[1:] * zj ** -levels[:, None]
    return scale[..., None, None] * _mat(star * eps, -phi * eps, -star * eps_s, phi * eps_s)


def verify_matrix_system(bundle: Bundle, ns: Sequence[int], tol_scale: float = 1.0) -> IdentityReport:
    """Matrix-level identity web at the levels of ``ns``, at the points
    MATRIX_SAMPLES, written level by level:

    * Y'_n = A_n Y_n, with Y'_n exact from `evaluate_with_derivative`;
    * K'_n = A_{n+1} K_n - K_n A_n and det K_n = z via the kappa identity;
    * Tr A_n = n/z - w'/w;
    * the X / X* / Z / Z* variant derivative systems;
    * the rank-one bilinear form of the residues against the
      coefficient-function form;
    * the four summation identities over the singular points.

    The level is an array axis: each identity family is formed once over
    (levels, points) from the level scalars read off the store as columns
    and the quadruple values stacked per level, the residues of every level
    come from one `assemble_residues`, and the sample points and the
    singular points are each evaluated once.  The checks that need the
    quadruple of level n+1 run at the levels that have it.  Each gate is its
    stated tolerance times ``tol_scale``: IDENTITY_TOL, RESIDUE_TOL for the
    residue and summation checks and RANK_TOL for the rank-one determinant.
    """
    rep = IdentityReport("matrix systems")
    sys, asys, quads, weight = bundle.sys, bundle.asys, bundle.quads, bundle.weight
    identity_tol = IDENTITY_TOL * tol_scale
    residue_tol = RESIDUE_TOL * tol_scale
    zs = np.asarray(
        [z for z in MATRIX_SAMPLES if all(abs(z - a) > 0.05 for a in weight.locations)], dtype=complex
    )
    wheres = [f"z={z:.3g}" for z in zs]
    singular = [f"z_{j + 1}" for j in range(weight.m)]
    w = weight(zs)
    w_z, v_z = polyval(weight.vw.W, zs), polyval(weight.vw.V, zs)
    log_w = 2.0 * v_z / w_z  # w'/w, as W w' = 2 V w
    values_at, derivatives_at = asys.evaluate_with_derivative(zs)
    levels = np.asarray(ns, dtype=int)
    n = levels[:, None]
    # the positions and levels that have the quadruple of the next level
    nxt = np.flatnonzero(np.isin(levels + 1, quads.levels))
    up = levels[nxt]
    u = up[:, None]
    values = quads.values(np.concatenate([levels, up + 1]), zs).transpose(1, 0, 2)
    th, ths, om, oms = values[:, : len(levels)]
    th_p, ths_p, _, _ = values[:, len(levels) :]
    bilinear = residues_bilinear_form(bundle, levels)

    def over_w(e, de):
        """e/w and its derivative (e' - (w'/w) e)/w."""
        return e / w, (de - log_w * e) / w

    def level(k):
        """(value, exact derivative) of phi_k, phi*_k, eps_k/w, -eps*_k/w at
        each level of the array k, one row a level."""
        phi, star, eps, es = (v[k] for v in values_at)
        dphi, dstar, deps, des = (d[k] for d in derivatives_at)
        return (phi, dphi), (star, dstar), over_w(eps, deps), over_w(-es, -des)

    def with_derivative(*entries):
        """The matrix of (value, derivative) entries and its derivative."""
        return _mat(*(value for value, _ in entries)), _mat(*(d for _, d in entries))

    phi, star, eps, es = level(levels)
    y, yd = with_derivative(phi, eps, star, es)
    a_n = a_matrix((th, ths, om, oms), v_z, w_z, sys, levels, zs)

    # at the levels with a successor quadruple
    kn, kp, p1, pb1 = _level_columns(sys, up, 1)
    p2, pb2 = sys.phi[u + 2, 0], sys.phibar[u + 2, 0]
    k_n = k_matrix(sys, up, zs)
    # K_n is linear in z: K'_n is the constant z-coefficient
    kd = np.broadcast_to(_mat(kp, 0.0, pb1, 0.0) / kn[..., None, None], k_n.shape)
    k_rhs = a_matrix(values[:, len(levels) :], v_z, w_z, sys, up + 1, zs) @ k_n - k_n @ a_n[nxt]
    phi, star, eps, es = level(up)
    phi_p, star_p, eps_p, es_p = level(up + 1)
    th, ths, om, oms = values[:, nxt]
    neg = lambda entry: (-entry[0], -entry[1])
    # X / X* / Z / Z* variants: W M' = C M with the coefficient matrices C;
    # the Z* (1,1) entry carries n W / z, as the trace must equal
    # W (log det Z*)' = n W / z - 2 V (det Z* = 2 kappa_{n+1} z^n /
    # (kappa_n w), from the mixed Casoratian)
    variants = (
        ("x_derivative_system", (phi_p, eps_p, phi, eps),
         (om - v_z + u * w_z / zs, -kn * p2 / (kp * p1) * zs * th_p, th, -om - v_z)),
        ("xstar_derivative_system", (star_p, neg(es_p), star, neg(es)),
         (-oms - v_z + (u + 1) * w_z / zs, kn * pb2 / (kp * pb1) * zs * ths_p, -ths, oms - v_z)),
        ("z_derivative_system", (phi_p, eps_p, star, es),
         (-oms - v_z + kn / kp * ths + (u + 1) * w_z / zs, kn * p2 / kp**2 * th_p,
          -pb1 / kp * ths, oms - v_z - kn / kp * ths)),
        ("zstar_derivative_system", (star_p, es_p, phi, eps),
         (om - v_z - kn / kp * zs * th + u * w_z / zs, -kn * pb2 / kp**2 * zs**2 * ths_p,
          p1 / kp * th, -om - v_z + kn / kp * zs * th)),
    )
    checks = []
    for name, entries, coeff in variants:
        mat, der = with_derivative(*entries)
        checks.append(equation(name, "other forms of the matrix variables",
                               w_z[:, None, None] * der, _mat(*coeff) @ mat))

    # residues: coefficient-function form vs rank-one bilinear form; the
    # determinant over max|A_nj|^2, the trace against its target (n - rho_0
    # at the origin)
    res = assemble_residues(bundle, levels)
    a_j = res.a[:, 1:]
    wants = weight.exponents - n * (np.arange(weight.m) == 0)
    # four summation identities, read off the residue matrices: the sums
    # run over the bilinear residues of the non-zero singularities, and
    # the origin enters through its (upper-triangular) residue matrix
    total = bilinear.sum(axis=1) + res.a[:, 0]
    sum_rho = weight.exponent_sum
    targets = [
        ("summation_phi_eps", total[:, 0, 1], 0.0),
        ("summation_phistar_eps", -total[:, 0, 0], -levels),
        ("summation_phi_epsstar", -total[:, 1, 1], sum_rho),
        ("summation_phistar_epsstar", total[:, 1, 0], (levels + sum_rho) * sys.reflections[1][levels]),
    ]
    rep.add_groups([
        ([
            equation("y_derivative_system", "equivalent to the matrix differential equation",
                     yd, a_n @ y),
            equation("y_determinant", "note that det Y_n = -2 z^n / w(z)",
                     np.linalg.det(y), -2.0 * zs**n / w),
            equation("trace_of_a", "we note that Tr A_n = n/z - w'/w",
                     np.trace(a_n, axis1=-2, axis2=-1), n / zs - log_w),
        ], identity_tol, n, wheres),
        ([equation("transfer_compatibility", "compatibility of the relations", kd, k_rhs)],
         identity_tol, u, wheres, nxt),
        # one row a level: the level's entries keep their order around it
        ([("transfer_determinant", "the matrix K_n has the property det K_n = z",
           kp**2 - p1 * pb1 - kn**2, kp**2, kn**2)], identity_tol, u, None, nxt),
        (checks, identity_tol, u, wheres, nxt),
        ([
            ("residue_bilinear_form", "an alternative expression for the residue matrices",
             a_j - bilinear, a_j, bilinear),
            ("residue_rank_one", "we find that det A_nj = 0",
             np.linalg.det(a_j), np.abs(a_j).max(axis=(2, 3)) ** 2),
        ], [residue_tol, RANK_TOL * tol_scale], n, singular[1:]),
        ([("residue_trace", "using the identity we note the traces of the residue matrices",
           np.trace(res.a, axis1=2, axis2=3) + wants, wants)], residue_tol, n, singular),
        ([("residue_at_infinity", "the regular singularity at infinity", res.consistency)],
         residue_tol, levels, None),
        ([(name, "imply the summation identities", got - want, got, want, levels)
          for name, got, want in targets], residue_tol, levels, None),
    ])
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
    kappa = sys.kappas[levels.reshape(levels.shape + (1,) * zs.ndim)]
    phi, phistar, eps, epsstar = (v[levels] for v in asys.evaluate(zs, side))
    return _mat(
        phi / kappa, eps / (2.0 * kappa * zs), kappa * phistar, -kappa * epsstar / (2.0 * zs)
    )


def rhp_jump_check(bundle: Bundle, ns: Sequence[int], tol_scale: float = 1.0) -> IdentityReport:
    """Jump, determinant and asymptotic order conditions of the normalized
    problem at the levels of ``ns``, written level by level, each check
    formed once over all of them.  The inside and outside analytic elements
    are evaluated at the same points just off the circle, at radii
    1 -+ RHP_OFFSET and the angles RHP_THETAS less those within 0.05 of a
    singularity that close to the circle (both extend into the weight's
    annulus), so the jump
    Y_+ = Y_- [[1, w/z], [0, 1]] is exact up to series truncation; its (1,2)
    entry is the Plemelj jump eps_+ - eps_- = 2 w phi_n.  The points of both
    circles are evaluated together, once per side for every level, and a
    level's jump entries are written circle by circle.  The orders of Y at
    0 and at infinity are read off exact coefficients, with no points: the
    store's rows of phi_n and phi*_n, and the series of eps_n and eps*_n
    from `AssocSystem.eps_taylor`.  Each order check is one row family, a
    row a level: its residual is the largest forbidden coefficient over
    max(1, the largest allowed one).  The jump is
    gated at JUMP_TOL, the determinant and the orders at IDENTITY_TOL, both
    times ``tol_scale``.  On a raw table the weight is the table called."""
    rep = IdentityReport("Riemann-Hilbert suite")
    sys, asys = bundle.sys, bundle.asys
    identity_tol = IDENTITY_TOL * tol_scale
    levels = np.asarray(ns, dtype=int)
    if np.any(levels < 1):
        raise ValueError("the normalized problem is stated for n >= 1")
    sings = () if bundle.weight is None else bundle.weight.singularities
    near = [s.location / abs(s.location) for s in sings
            if s.location != 0 and abs(abs(s.location) - 1.0) < 4 * RHP_OFFSET]
    kept = np.asarray([float(t) for t in RHP_THETAS
                       if all(abs(np.exp(1j * float(t)) - u) >= 0.05 for u in near)])
    radii = (1.0 - RHP_OFFSET, 1.0 + RHP_OFFSET)
    zs = np.multiply.outer(radii, np.exp(1j * kept))  # one circle a row
    weight = bundle.sys.table if bundle.weight is None else bundle.weight
    w = np.asarray(weight(zs), dtype=complex)
    # both circles as one row of points a level, circle by circle
    lhs = normalized_solution(sys, asys, levels, zs, side="inside").reshape(len(levels), zs.size, 2, 2)
    rhs = normalized_solution(sys, asys, levels, zs, side="outside") @ _mat(1.0, w / zs, 0.0, 1.0)
    circles = [f"theta={theta:.3f}, r={radius}" for radius in radii for theta in kept]
    zdet = np.array([0.5 + 0.21j, -1.7 + 1.1j, 2.0 - 0.6j])
    dets = np.linalg.det(normalized_solution(sys, asys, levels, zdet))
    # an array of exponents raises each point as the scalar z ** (n - 1) does
    wants = -(zdet ** (levels - 1)[:, None])
    n = levels[:, None]

    # asymptotic orders, read off exact coefficients: each entry's expansion
    # runs in powers of z up from `edge` at 0, or down from `edge` at
    # infinity, and the stated order forbids the |order - edge| coefficients
    # before it.  phi_n and phi*_n are polynomials of degree n, their rows of
    # the store; eps_n and eps*_n come from their exact series, orders
    # 0..n+3 a level, where the 1/z of their entries moves each power down
    # by one.
    kappa = sys.kappas[n]
    fam = {name: rows[levels] for name, rows in sys.families.items()}
    count = int(levels.max(initial=0)) + 4

    def eps_entry(star: bool, at_infinity: bool) -> np.ndarray:
        factor = -kappa / 2.0 if star else 0.5 / kappa
        return factor * asys.eps_taylor(levels, count, star, at_infinity)

    infinity, zero = "as z tends to infinity", "as z tends to zero"
    orders = (
        ("rhp_order_11_at_infinity", infinity, fam["phibarstar"] / kappa, n, n),
        ("rhp_order_22_at_infinity", infinity, eps_entry(True, True), n - 1, -1),
        ("rhp_order_12_at_infinity", infinity, eps_entry(False, True), n - 1, -2),
        ("rhp_order_21_at_infinity", infinity, kappa * fam["phibar"], n, n),
        ("rhp_order_11_at_zero", zero, fam["phi"] / kappa, 0, 0),
        ("rhp_order_12_at_zero", zero, eps_entry(False, False), -1, n - 1),
        ("rhp_order_21_at_zero", zero, kappa * fam["phistar"], 0, 0),
        ("rhp_order_22_at_zero", zero, eps_entry(True, False), -1, n),
    )
    families, wheres = [], []
    for name, anchor, series, edge, order in orders:
        k, cut = np.arange(series.shape[1]), np.abs(np.subtract(order, edge))
        forbidden, allowed = k < cut, (k >= cut) & (k < n + 4)
        families.append((name, anchor, np.where(forbidden, series, 0.0), np.where(allowed, series, 0.0)))
        wheres.append(f"z^{order}" if np.ndim(order) == 0 else [f"z^{k}" for k in order[:, 0].tolist()])
    rep.add_groups([
        ([equation("rhp_jump", "consider the following Riemann-Hilbert problem", lhs,
                   rhs.reshape(lhs.shape))], JUMP_TOL * tol_scale, n, circles),
        ([equation("rhp_determinant", "we also point out det Y(z) = -z^{n-1}", dets, wants)],
         identity_tol, n, [f"z={z:.3g}" for z in zdet]),
        (families, identity_tol, levels, PerFamily(wheres)),
    ])
    return rep
