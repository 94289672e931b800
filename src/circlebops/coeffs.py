"""Coefficient functions (Theta_n, Theta*_n, Omega_n, Omega*_n) of a regular
semi-classical weight.

For such weights the spectral derivatives of the bi-orthogonal system are

    W phi'_n   =  Theta_n  phi_{n+1} - (Omega_n  + V) phi_n,
    W phi*'_n  = -Theta*_n phi*_{n+1} + (Omega*_n - V) phi*_n,
    W eps'_n   =  Theta_n  eps_{n+1} - (Omega_n  - V) eps_n,
    W eps*'_n  = -Theta*_n eps*_{n+1} + (Omega*_n + V) eps*_n,

with the four coefficient functions polynomials of degree m-2, m-2, m-1, m-1.
They are read off their defining bilinear combinations, e.g.

    2 (phi_{n+1}(0)/kappa_n) z^n Theta_n(z)
        = W (-phi_n eps'_n + eps_n phi'_n) + 2 V phi_n eps_n,

as exact truncated power series: F's moment series makes the expansions of
eps_n at z = 0 and of eps*_n at infinity exact up to the moment window, so
each member is a band of coefficients and the orders around the band must
vanish.  The rest of the module verifies the difference / functional /
bilinear relation web these functions satisfy, including the
discrete-Painleve ratio recurrence, and the four derivative relations
above.  Those take phi', phi*', eps' and eps*' exact from
`AssocSystem.evaluate_with_derivative` and hold to the identity tolerance;
they stay independent of the quadruples' band reads because they test each
relation pointwise, at sample points inside and outside the circle, on both
sides' eps series.
The quadruples of all the levels a bundle asks for are read in one pass
into one store (`compute_coeff_quads`, `QuadStore`): every truncated
product is a stack of Toeplitz matrices, one a level, applied by one
matmul, with no per-level loop.  Each suite evaluates the quadruples it
reads once per point set, in one Horner pass over the members of all of
them (`QuadStore.values`), and indexes those values.  Every suite
forms each relation once over all its levels, the level scalars read off
the store as columns, and takes its residuals in one `rel_residuals` call
(`IdentityReport.add_groups`): the linear relations, the spectral
derivative relations, the ratio recurrence and the expansion closed forms
one row a level, written level by level; the bilinear suite one row a
(point, level), its values evaluated once over all the non-zero singular
points, written point by point across the levels.
Every function here that reads more than the level store reads one
`pipeline.Bundle` (levels, associated functions, (V, W), quadruples and
U); each suite also takes the levels it checks and ``tol_scale``, the
run's --tol, and gates each entry at one of the constants below times it.
The arithmetic is numpy's throughout; the same inputs give the same bytes,
and `verify-all` writes the bytes of `coeffs` run alone.

Level ceiling: on the flagship weight z^-1 (z-2)^(1/2) (z-3)^(1/3) the
`coeffs` suite passes through --n 30, where the quadruples' out-of-band
ratio (degree_certification) reads 4.0e-8 against 1e-7 and the next
entry, bilres_j at z_3, 7.1e-10 against 1e-6; at --n 31 the ratio of the
level-32 quadruple reads 1.1e-7.  The complex m = 4 weight stops at the
same entry (passes 29, 1.6e-7 at 30), and so does the inside-complex
weight (passes 30, 1.4e-7 at 31).  `verify-all` passes through --n 11; at
--n 12 it is stopped by the matrix system in lax (transfer_compatibility
1.5e-9 against 1e-9), not by this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import IDENTITY_TOL
from .errors import (
    DegenerateLevelError,
    NotSemiClassicalError,
    SingularResidueError,
)
from .numerics import polyadd, polyder, polymul, polyval
from .report import IdentityReport, PerFamily, equation
from .weight import is_strict_semiclassical

if TYPE_CHECKING:  # pipeline builds its bundles with compute_coeff_quads
    from .pipeline import Bundle

# The gates of the suites here, each times the run's --tol (``tol_scale``);
# the spectral derivative relations are gated at IDENTITY_TOL.
FORM_TOL = 1e-6  # the expansion closed forms and omega_at_origin
DEGREE_TOL = 1e-7  # degree_certification, the quadruples' out-of-band ratio
LINEAR_TOL = 1e-7  # the linear relations (a)-(k)
BILINEAR_TOL = 1e-6  # bilinear identities, residues and initial members: the
# budget the acceptance suite gives exact identities
RATIO_TOL = 1e-7  # the discrete-Painleve ratio recurrence


@dataclass(frozen=True)
class QuadStore:
    """The quadruples of sorted levels, a row a level: members[k, j] holds
    the z^j coefficients of Theta_n, Theta*_n, Omega_n and Omega*_n of level
    n = levels[k] (the Theta pair 0 at its top order m-1, which leaves every
    Horner step unchanged) and ratios[k] their out-of-band ratios."""

    levels: np.ndarray
    members: np.ndarray  # (level, order, member)
    ratios: np.ndarray  # (level, member)

    def index(self, ns) -> np.ndarray:
        """The rows of the levels ``ns`` by one searchsorted; KeyError for the
        first level whose row is past the end or holds another level."""
        ns = np.asarray(ns, dtype=int)
        rows, top = np.searchsorted(self.levels, ns), len(self.levels) - 1
        stored = self.levels[np.minimum(rows, top)] == ns if top >= 0 else np.zeros(ns.shape, bool)
        if not stored.all():
            raise KeyError(int(ns[np.argmin(stored)]))
        return rows

    def member(self, j: int, rows=slice(None)) -> np.ndarray:
        """Member j's z^0.. coefficients (MEMBERS order) at the store rows
        ``rows``, a level a row; the Theta pair (j < 2) without its top 0."""
        return self.members[rows, : self.members.shape[1] - (j < 2), j]

    def values(self, ns, z) -> np.ndarray:
        """(Theta_n, Theta*_n, Omega_n, Omega*_n) of each level n of ``ns``
        over an array z of any shape, shape (len(ns), 4, *z.shape): one
        Horner pass over the (m, 4 len(ns)) stack of their members, level by
        level.  A row is the level's pass alone bit for bit only where the
        tests pin it: rounding can depend on the stack's shape (`numerics`)."""
        if not len(ns):
            return np.zeros((0, 4) + np.shape(z), dtype=complex)
        members = self.members[self.index(ns)].transpose(1, 0, 2)
        return polyval(members.reshape(len(members), -1), z).reshape((len(ns), 4) + np.shape(z))


def _toeplitz(poly: np.ndarray, size: int) -> np.ndarray:
    """Lower-triangular Toeplitz matrices of the polynomials along the last
    axis of ``poly``, as a read-only view: entry [..., k, j] is the
    coefficient of order k - j, so a matrix times a series gives orders
    0..size-1 of their product."""
    padded = np.zeros(np.shape(poly)[:-1] + (2 * size - 1,), dtype=complex)
    width = min(np.shape(poly)[-1], size)
    padded[..., size - 1 : size - 1 + width] = poly[..., :width]
    return sliding_window_view(padded, size, axis=-1)[..., ::-1]


MEMBERS = ("theta", "thetastar", "omega", "omegastar")


def compute_coeff_quads(bundle: Bundle, ns: Sequence[int]) -> QuadStore:
    """The quadruples of the levels of ``ns``, one `QuadStore`, on the
    bundle's levels and (V, W), read off exact truncated series of their
    defining combinations: Theta_n / Omega_n are the orders
    n..n+m-2 / n..n+m-1 of the Taylor series at z = 0, Theta*_n / Omega*_n
    the orders n+1..n+m-1 / n+1..n+m of the expansion at infinity, which is
    the Taylor series of the reflected weight w(1/u).  Both are exact up to
    the moment window.  The starred pair is read at infinity because that
    read holds up at the outer singular points: on the flagship weight at
    n = 10 the bilinear residue bilres_j at z_3 = 3 reads 3e-11 from it and
    4e-7 from a Taylor read at 0.  Every order of each series below its band
    and the two above it must vanish; their size against the band is the
    out-of-band ratio kept in the store's ``ratios``, which
    `verify_expansion_forms` gates as degree_certification (DEGREE_TOL).

    One pass over the levels: each truncated product is a stack of the
    Toeplitz matrices of its polynomial factor, one a level, applied by one
    matmul (phi_n, phi_n' and phi_{n+1} on the stacked eps_n, eps_n' and
    eps_{n+1} series, per side), then the Toeplitz matrices of W and V act
    on the results, all on the orders 0..N+m+2 of the top level N; the
    bands are read by index.  Raises NotSemiClassicalError for a weight
    outside the strict regular semi-classical class, DegenerateLevelError
    at the lowest level whose phi_{n+1}(0) or phibar_{n+1}(0), a prefactor
    divided by, is exactly 0, and WindowError when the series need moments
    beyond the table."""
    sys, asys, vw, weight = bundle.sys, bundle.asys, bundle.vw, bundle.weight
    if weight is None or not is_strict_semiclassical(weight):
        raise NotSemiClassicalError(
            "coefficient functions are defined for strict regular "
            "semi-classical weights only"
        )
    levels, m = np.unique(np.asarray(ns, dtype=int)), vw.degree
    if not levels.size:
        return QuadStore(levels, np.zeros((0, m, 4), dtype=complex), np.zeros((0, 4)))
    sys.require(*(k for n in levels.tolist() for k in (n, n + 1)))
    kappa, p0, pb0 = sys.kappas, sys.phi[:, 0], sys.phibar[:, 0]
    zero, zero_bar = p0[levels + 1] == 0, pb0[levels + 1] == 0
    if (zero | zero_bar).any():
        k = int(np.argmax(zero | zero_bar))
        n = int(levels[k])
        if zero[k]:
            raise DegenerateLevelError(f"phi_{n + 1}(0) = 0: Theta_{n}/Omega_{n} prefactor vanishes")
        raise DegenerateLevelError(f"phibar_{n + 1}(0) = 0: starred prefactor vanishes")
    size = int(levels[-1]) + m + 3  # orders 0..N+m+2: every band and the two orders above it

    def combinations(pair, rows, star):
        # 2 (phi_{n+1}(0)/kappa_n) z^n (Theta_n, Omega_n) of every level from
        # the weight's (W, V) and phi_n, phi_{n+1}, eps_n, eps_{n+1}, and
        # phi_{n+1} eps_n - eps_{n+1} phi_n
        e, e1 = (asys.eps_taylor(k, size + 1, star, at_infinity=star) for k in (levels, levels + 1))
        series = np.stack([e[:, :size], polyder(e.T).T, e1[:, :size]], axis=-1)
        p = rows[levels]
        dp = np.zeros_like(p)
        dp[:, :-1] = polyder(p.T).T
        products = _toeplitz(np.stack([p, dp, rows[levels + 1]]), size) @ series
        (pe, pde, pe1), (dpe, _, dpe1), (p1e, p1de, _) = np.moveaxis(products, -1, 1)
        # W and V act on the series of every level at once, one matmul each
        w_parts = np.concatenate([dpe - pde, dpe1 - p1de]).T
        v_parts = np.concatenate([2.0 * pe, pe1 + p1e]).T
        both = _toeplitz(pair.W, size) @ w_parts + _toeplitz(pair.V, size) @ v_parts
        theta, omega = both.T.reshape(2, len(levels), size)
        return theta, omega, p1e - pe1

    theta, omega, _ = combinations(vw, sys.phi, False)
    # at infinity, in u = 1/z: phi*_k = z^k phibar_k(u) and eps*_k = z^k e_k(u)
    # with e_k the eps_k of the reflected weight, so the starred combinations
    # are z^(2n+m) and z^(2n+m+1) times the plain ones of the reflected weight,
    # Omega*'s plus n u W^ (phibar_{n+1} e_n - e_{n+1} phibar_n) from d/dz
    # acting on z^n (W^ as in PolyPair.reflected); orders in u mirror orders
    # in z about the band
    ref = vw.reflected()
    thetastar, omegastar, cross = combinations(ref, sys.phibar, True)
    omegastar = omegastar + levels[:, None] * (_toeplitz(ref.W[1:], size) @ cross.T).T

    # bands in z for the plain pair, in u for the starred pair (read down from
    # hi): member j of level n is orders lo..hi, lo = n (+1 starred), m - 1 or m wide
    series = np.stack([theta, thetastar, omega, omegastar], axis=1)  # (level, member, order)
    lo = levels[:, None] + np.array([0, 1, 0, 1])
    hi = lo + np.array([m - 2, m - 2, m - 1, m - 1])
    order = np.arange(size)[None, None]
    magnitude = np.abs(series)
    band = (order >= lo[..., None]) & (order <= hi[..., None])
    stray = (order < lo[..., None]) | (order > hi[..., None]) & (order <= hi[..., None] + 2)
    top = np.where(band, magnitude, 0.0).max(axis=-1)
    ratios = np.where(stray, magnitude, 0.0).max(axis=-1)  # NaN propagates
    ratios = np.divide(ratios, top, out=ratios.copy(), where=top > 0)
    scale = 2.0 * np.stack([p0[levels + 1], pb0[levels + 1]] * 2, axis=1) / kappa[levels, None]
    starred = np.array([False, True, False, True])[:, None]
    reads = np.where(starred, hi[..., None] - np.arange(m), lo[..., None] + np.arange(m))
    members = np.take_along_axis(series, reads, axis=-1) / scale[..., None]
    members[:, :2, m - 1] = 0.0  # the Theta pair is one order shorter
    return QuadStore(levels, np.ascontiguousarray(members.transpose(0, 2, 1)), ratios)


# ---------------------------------------------------------------------------
# Expansion closed forms (leading and trailing coefficients)
# ---------------------------------------------------------------------------

def expansion_closed_forms(bundle: Bundle, n) -> list[tuple]:
    """Closed forms for the top two and bottom two coefficients of each
    member of the quadruple, expressed through kappa / l / phi(0) data and
    the weight's singularity data, at the level n or at every level of an
    array n.  Returned as (poly, order, value, block, lowest) tuples, each
    value of n's shape from the level scalars read off the store as
    columns, and each form with the lowest level it holds at: two forms read
    level n-1 and hold from n = 1; below its lowest level a value is not a
    form.  At small m the leading and trailing windows overlap and a
    coefficient is pinned by two independent forms, both of which are
    returned.

    Three sub-leading terms are derived from the series expansions directly:
    the lbar_{n-1} term of the trailing Theta_n block and the l_{n-1} term of
    the leading Theta*_n block carry a 1/kappa_{n-1} (they enter through
    phi'_n(0) and the z^{n-1} coefficient of phi*_n, both of which contribute
    that factor), and the reflection-product term of the leading Theta_n
    block carries 1/kappa_{n+1}^2 (it arises from trading l_n for l_{n+1}
    through the l-recursion).  All three hold for the coefficients read by
    compute_coeff_quads to 1e-9 through n = 12, on the flagship weight and on
    an m = 4 weight with complex locations and exponents.
    """
    sys, vw, weight = bundle.sys, bundle.vw, bundle.weight
    m = weight.m
    locs = weight.locations
    rhos = weight.exponents
    sum_rho = complex(rhos.sum())
    sum_z = complex(locs.sum())
    sum_rho_z = complex((rhos * locs).sum())

    n = np.asarray(n)
    k, p0, pb0 = sys.kappas, sys.phi[:, 0], sys.phibar[:, 0]
    l, lbar, _ = sys.subleading
    prev = np.maximum(n - 1, 0)  # level n-1; the forms that read it do not hold at n = 0
    kn, kp, kpp, km = k[n], k[n + 1], k[n + 2], k[prev]
    pn, pp, ppp, pm = p0[n], p0[n + 1], p0[n + 2], p0[prev]
    pbn, pbp, pbpp, pbm = pb0[n], pb0[n + 1], pb0[n + 2], pb0[prev]

    w1 = vw.w_deriv(0.0)  # W'(0)
    wpp = polyval(polyder(polyder(vw.W)), 0.0)  # W''(0)
    v0 = vw.v_eval(0.0)
    v1 = polyval(polyder(vw.V), 0.0)  # V'(0)

    out = [
        ("theta", m - 2, (n + 1 + sum_rho) * kn / kp, "leading", 0),
        ("theta", m - 3,
         -((n + 1 + sum_rho) * sum_z - sum_rho_z) * kn / kp
         + (n + 2 + sum_rho) * kn**3 / (kp**2 * kpp) * ppp / pp
         - (n + sum_rho) * pp * pbn / kp**2
         - 2.0 * kn * l[n + 1] / kp**2, "leading", 0),
        ("theta", 0, (2.0 * v0 - n * w1) * pn / pp, "trailing", 0),
        ("theta", 1,
         (2.0 * v1 - 0.5 * n * wpp) * pn / pp
         + (2.0 * v0 - (n - 1) * w1) * kn * pm / (km * pp)
         + (((n + 1) * w1 - 2.0 * v0) * lbar[n + 1] / kp - ((n - 1) * w1 - 2.0 * v0) * lbar[prev] / km)
         * pn / pp, "trailing", 1),
        ("thetastar", m - 2, -(n + sum_rho) * pbn / pbp, "leading", 0),
        ("thetastar", m - 3,
         ((n + sum_rho) * sum_z - sum_rho_z) * pbn / pbp
         + (n + 1 + sum_rho) * pbn / pbp * l[n + 1] / kp
         - (n - 1 + sum_rho) * (kn * pbm + pbn * l[prev]) / (km * pbp), "leading", 1),
        ("thetastar", 0, -(2.0 * v0 - (n + 1) * w1) * kn / kp, "trailing", 0),
        ("thetastar", 1,
         -(2.0 * v1 - 0.5 * (n + 1) * wpp) * kn / kp
         - (2.0 * v0 - n * w1) * lbar[n] / kp
         + ((n + 2) * w1 - 2.0 * v0)
         * (kn**3 / (kpp * kp**2) * pbpp / pbp - kn / kp * lbar[n + 1] / kp), "trailing", 0),
        ("omega", m - 1, 1.0 + 0.5 * sum_rho, "leading", 0),
        ("omega", m - 2,
         -0.5 * sum_rho * sum_z + 0.5 * sum_rho_z - sum_z
         + (n + 2 + sum_rho) * kn**2 / (kpp * kp) * ppp / pp
         - l[n + 1] / kp, "leading", 0),
        ("omega", 0, v0 - n * w1, "trailing", 0),
        ("omega", 1,
         v1 - 0.5 * n * wpp
         + (v0 * kn / kp + (v0 - n * w1) * kp / kn) * pn / pp
         + (v0 - n * w1) * lbar[n] / kn
         - (v0 - (n + 1) * w1) * lbar[n + 1] / kp, "trailing", 0),
        ("omegastar", m - 1, -0.5 * sum_rho, "leading", 0),
        ("omegastar", m - 2,
         0.5 * sum_rho * sum_z - 0.5 * sum_rho_z
         - (n + sum_rho) * kn / kp * pbn / pbp
         + l[n + 1] / kp, "leading", 0),
        ("omegastar", 0, (n + 1) * w1 - v0, "trailing", 0),
        ("omegastar", 1,
         0.5 * (n + 1) * wpp - v1
         + ((n + 2) * w1 - 2.0 * v0) * kn**2 / (kpp * kp) * pbpp / pbp
         - w1 * lbar[n + 1] / kp, "trailing", 0),
    ]
    return [form for form in out if form[1] >= 0]


def verify_expansion_forms(bundle: Bundle, ns: Sequence[int], tol_scale: float = 1.0) -> IdentityReport:
    """Coefficients against every closed leading/trailing form at the levels
    of ``ns`` (gate FORM_TOL), plus the largest out-of-band ratio of every
    quadruple of the bundle as its degree certificate (DEGREE_TOL).  Each
    form is one row family over the levels it holds at, formed once for all
    of them, and all are one group; entries level by level."""
    rep = IdentityReport("coefficient-function expansion closed forms")
    quads, vw, tol = bundle.quads, bundle.vw, FORM_TOL * tol_scale
    levels = quads.levels[np.unique(quads.index(ns))]  # KeyError for a level not stored
    checked = np.isin(quads.levels, levels)
    anchor = "specifically these have leading and trailing expansions"
    families, wheres, held = [], [], []
    for name, order, want, block, lowest in expansion_closed_forms(bundle, levels):
        rows = checked & (quads.levels >= lowest)
        coeffs = quads.member(MEMBERS.index(name), rows)
        if order < coeffs.shape[1]:  # the Theta pair is one order shorter
            want = np.broadcast_to(want, levels.shape)[levels >= lowest]
            families.append((f"{name}_{block}_z{order}", anchor, coeffs[:, order] - want, coeffs))
            wheres.append(f"z^{order}")
            held.append(rows)
    om0 = quads.values(levels, 0.0)[:, 2]
    families.append(("omega_at_origin", "does not lead to any new independent relation",
                     om0 - (vw.v_eval(0.0) - levels * vw.w_deriv(0.0)), om0))
    fit = np.max(quads.ratios, axis=1)  # NaN fails
    families.append(("degree_certification", "are polynomials in z of bounded degree", fit))
    gates = [tol] * (len(families) - 1) + [DEGREE_TOL * tol_scale]
    rep.add_groups([(families, gates, quads.levels, PerFamily(wheres + [None, None]), None,
                     PerFamily(held + [checked, None]))])
    return rep


# ---------------------------------------------------------------------------
# Coupled linear recurrence relations (a)-(h) and the three corollary
# identities (i)-(k)
# ---------------------------------------------------------------------------

def _quad_rows(quads: QuadStore, levels: Sequence[int], zs: np.ndarray):
    """The quadruples of ``levels`` evaluated once at zs, in one Horner pass
    (`QuadStore.values`); the returned rows(ns, shift) stacks (Theta,
    Theta*, Omega, Omega*) of level n + shift, one n of ns a row."""
    values = dict(zip(levels, quads.values(levels, zs)))

    def rows(ns: Sequence[int], shift: int = 0) -> tuple[np.ndarray, ...]:
        stack = np.array([values[n + shift] for n in ns]).reshape(len(ns), 4, zs.size)
        return tuple(stack.transpose(1, 0, 2))

    return rows


def verify_linear_relations(
    bundle: Bundle, samples: Sequence[complex], tol_scale: float = 1.0
) -> IdentityReport:
    """Residuals of all eight coupled recurrences among the coefficient
    functions plus the three additional corollary identities, at sampled
    z != 0, gated at LINEAR_TOL.  Each level n requires the bundle's
    quadruples at n-1, n, n+1.  Each relation is checked over all its levels
    at once, one row a level, with the level scalars read off the store as
    columns."""
    rep = IdentityReport("coefficient-function linear relations")
    quads, sys, tol = bundle.quads, bundle.sys, LINEAR_TOL * tol_scale
    zs = np.asarray([z for z in samples if abs(z) > 1e-8], dtype=complex)
    w_z = polyval(bundle.vw.W, zs)
    keys = quads.levels
    quad_rows = _quad_rows(quads, keys.tolist(), zs)
    k, p0, pb0 = (col[:, None] for col in (sys.kappas, sys.phi[:, 0], sys.phibar[:, 0]))
    anchor = "the coefficient functions satisfy the coupled linear recurrence relations"
    anchor_cor = "some additional identities satisfied by the coefficient functions"

    ns = keys[np.isin(keys - 1, keys) & np.isin(keys + 1, keys) & (keys + 2 <= sys.nmax)].tolist()
    n = np.asarray(ns, dtype=int)
    (th_m, ths_m, om_m, oms_m), (th_n, ths_n, om_n, oms_n) = quad_rows(ns, -1), quad_rows(ns)
    th_p, ths_p, _, _ = quad_rows(ns, 1)
    ratio = p0[n + 1] / p0[n] + k[n + 1] / k[n] * zs
    ratio_s = k[n + 1] / k[n] + pb0[n + 1] / pb0[n] * zs
    lhs_a = om_n + om_m - ratio * th_n + (n[:, None] - 1) * w_z / zs
    lhs_b = (
        ratio * (om_m - om_n)
        + k[n] * p0[n + 2] / (k[n + 1] * p0[n + 1]) * zs * th_p
        - k[n - 1] * p0[n + 1] / (k[n] * p0[n]) * zs * th_m
        - p0[n + 1] / p0[n] * w_z / zs
    )
    lhs_c = oms_n + oms_m - ratio_s * ths_n - n[:, None] * w_z / zs
    lhs_d = (
        ratio_s * (oms_m - oms_n)
        + k[n] * pb0[n + 2] / (k[n + 1] * pb0[n + 1]) * zs * ths_p
        - k[n - 1] * pb0[n + 1] / (k[n] * pb0[n]) * zs * ths_m
        + k[n + 1] / k[n] * w_z / zs
    )
    rep.add_rows([
        ("linear_a", anchor, lhs_a, om_n, ratio * th_n, w_z / zs),
        ("linear_b", anchor, lhs_b, ratio * om_m, zs * th_p),
        ("linear_c", anchor, lhs_c, oms_n, ratio_s * ths_n, w_z / zs),
        ("linear_d", anchor, lhs_d, ratio_s * oms_m, zs * ths_p),
    ], tol, ns)

    ns = keys[np.isin(keys + 1, keys) & (keys + 2 <= sys.nmax)].tolist()
    n = np.asarray(ns, dtype=int)
    (th_n, ths_n, om_n, oms_n), (th_p, ths_p, om_p, oms_p) = quad_rows(ns), quad_rows(ns, 1)
    ratio_p = p0[n + 2] / p0[n + 1] + k[n + 2] / k[n + 1] * zs
    ratio_ps = k[n + 2] / k[n + 1] + pb0[n + 2] / pb0[n + 1] * zs
    step, step_p = k[n + 1] / k[n], k[n + 2] / k[n + 1]
    mixed = p0[n + 1] * pb0[n + 1] / (k[n + 1] * k[n])
    cross = step * (zs * th_n - ths_n)
    lhs_e = om_p + oms_n - ratio_p * th_p + cross
    lhs_f = (
        om_n
        - om_p
        + step_p * (zs + pb0[n + 1] / k[n + 1] * p0[n + 2] / k[n + 2]) * th_p
        + mixed * ths_n
        - step * zs * th_n
        - w_z / zs
    )
    lhs_g = oms_p + om_n - ratio_ps * ths_p - cross - w_z / zs
    lhs_h = (
        oms_n
        - oms_p
        + step_p * (1.0 + p0[n + 1] / k[n + 1] * pb0[n + 2] / k[n + 2] * zs) * ths_p
        + mixed * zs * th_n
        - step * ths_n
    )
    # corollary (j), (k) need only n and n+1
    lhs_j = oms_n - om_n + cross - n[:, None] * w_z / zs
    lhs_k = (
        oms_n
        + om_n
        - k[n] ** 2 / k[n + 1] ** 2 * (p0[n + 2] / p0[n + 1] * th_p + step * ths_n)
        - w_z / zs
    )
    rep.add_rows([
        ("linear_e", anchor, lhs_e, om_p, ratio_p * th_p, cross),
        ("linear_f", anchor, lhs_f, om_n, zs * th_p, w_z / zs),
        ("linear_g", anchor, lhs_g, oms_p, ratio_ps * ths_p, w_z / zs),
        ("linear_h", anchor, lhs_h, oms_n, ths_p, zs * th_n),
        ("linear_j", anchor_cor, lhs_j, om_n, oms_n, w_z / zs),
        ("linear_k", anchor_cor, lhs_k, om_n, oms_n, w_z / zs),
    ], tol, ns)

    ns = keys[np.isin(keys - 1, keys) & (keys + 1 <= sys.nmax)].tolist()
    n = np.asarray(ns, dtype=int)
    (th_m, ths_m, _, _), (th_n, ths_n, _, _) = quad_rows(ns, -1), quad_rows(ns)
    lhs_i = (
        p0[n + 1] / p0[n] * th_n
        - k[n] / k[n - 1] * zs * th_m
        - pb0[n + 1] / pb0[n] * zs * ths_n
        + k[n] / k[n - 1] * ths_m
    )
    rep.add_rows([("linear_i", anchor_cor, lhs_i, th_n, zs * ths_n)], tol, ns)
    return rep


# ---------------------------------------------------------------------------
# Bilinear identities, bilinear residues, initial members, telescoping
# ---------------------------------------------------------------------------

def verify_bilinear(
    bundle: Bundle, ns: Sequence[int] | None = None, tol_scale: float = 1.0
) -> IdentityReport:
    """At every non-zero singular point: the six bilinear identities among
    quadruple evaluations, the ten bilinear residue formulas tying them to
    phi/eps products, the telescoped summation constant V^2(z_j), and (when
    quadruples 0 and 1 and U are in the bundle) the six initial-member
    formulas as polynomial identities, all gated at BILINEAR_TOL.  ``ns``
    selects the levels asserted (default: every level whose successor
    quadruple is built); each check is one row family over (point, level),
    written point by point."""
    rep = IdentityReport("bilinear identities at the singular points")
    quads, sys, vw, weight = bundle.quads, bundle.sys, bundle.vw, bundle.weight
    tol = BILINEAR_TOL * tol_scale
    anchor_bil = "the coefficient functions satisfy the bilinear identities"
    anchor_res = "bilinear residues are related to the coefficient function residues"
    keys = quads.levels
    levels = np.sort(np.asarray(keys[np.isin(keys + 1, keys)] if ns is None else ns, dtype=int))
    # every value once at all the non-zero singular points z_2..z_m, one
    # row a point and one column a level: the quadruples of all levels in
    # one Horner pass, phi/eps of every level in one call
    zj = weight.locations[1:]
    v_j = vw.v_eval(zj)
    if np.any(abs(v_j) < 1e-12):
        k = int(np.argmax(abs(v_j) < 1e-12))
        raise SingularResidueError(f"V(z_{k + 2}) = 0 at z = {zj[k]}")
    z, v, v2 = zj[:, None], v_j[:, None], v_j[:, None] ** 2
    phi, star, eps, es = (x.T for x in bundle.asys.evaluate(zj))
    kap, p0, pb0 = sys.kappas, sys.phi[:, 0], sys.phibar[:, 0]

    chain = levels[np.isin(levels + 1, keys) & (levels + 2 <= sys.nmax)]
    res_ns = levels[np.isin(levels, keys) & (levels + 1 <= sys.nmax)]
    # (member, point, level) of the levels chain, chain + 1 and res_ns
    quad = quads.values(np.concatenate([chain, chain + 1, res_ns]), zj).transpose(1, 2, 0)
    bounds = np.cumsum([0, len(chain), len(chain), len(res_ns)])
    at_chain, at_next, at_res = (quad[..., a:b] for a, b in zip(bounds, bounds[1:]))

    n = chain
    th_n, ths_n, om_n, oms_n = at_chain
    th_p, ths_p, _, _ = at_next
    kn, kp, p1, p2, pb1, pb2 = kap[n], kap[n + 1], p0[n + 1], p0[n + 2], pb0[n + 1], pb0[n + 2]
    lhs_ef = p1 * pb1 / kn**2 * z * th_n * ths_n + v2
    d_n = kn * p2 / (kp * p1) * z * th_n * th_p
    bilinear = [
        ("bilinear_a", om_n**2, d_n + v2),
        ("bilinear_b", oms_n**2, kn * pb2 / (kp * pb1) * z * ths_n * ths_p + v2),
        # mirror of (d) under the bar swap: the scale factor carries
        # kappa_n / kappa_{n+1}^3 (verified numerically at every level)
        ("bilinear_c", (om_n - kn**2 / kp**2 * p2 / p1 * th_p) ** 2,
         kn * p2 * pb1 / kp**3 * th_p * ths_n + v2),
        ("bilinear_d", (oms_n - kn**2 / kp**2 * pb2 / pb1 * z * ths_p) ** 2,
         kn * pb2 * p1 / kp**3 * z**2 * ths_p * th_n + v2),
        ("bilinear_e", lhs_ef, (om_n - kp / kn * z * th_n) ** 2),
        ("bilinear_f", lhs_ef, (oms_n - kp / kn * ths_n) ** 2),
    ]
    # telescoped summation: Omega_n^2 - D_n is the constant V^2(z_j); the
    # exact difference cancels the large terms, so it is scaled by them
    telescoped = ("telescoped_constant", "upon summing this relation the summation constant is",
                  om_n**2 - d_n - v2, om_n**2, d_n, v2)

    # bilinear residue formulas (phi/eps products against the quadruple)
    n = res_ns
    phi_n, star_n, eps_n, es_n = phi[:, n], star[:, n], eps[:, n], es[:, n]
    phi_p, star_p, eps_p, es_p = phi[:, n + 1], star[:, n + 1], eps[:, n + 1], es[:, n + 1]
    th_n, ths_n, om_n, oms_n = at_res
    zn = z**n
    base = 2.0 * p0[n + 1] / kap[n] * zn
    base_s = 2.0 * pb0[n + 1] / kap[n] * z ** (n + 1)
    ratio = kap[n + 1] / kap[n]
    bilres = [
        ("bilres_a", phi_n * eps_n, base * th_n / (2.0 * v)),
        ("bilres_b", star_n * es_n, -base_s * ths_n / (2.0 * v)),
        ("bilres_c", phi_p * eps_n, base * (om_n + v) / (2.0 * v)),
        ("bilres_d", phi_n * eps_p, base * (om_n - v) / (2.0 * v)),
        ("bilres_e", star_n * es_p, -base_s * (oms_n + v) / (2.0 * v)),
        ("bilres_f", star_p * es_n, -base_s * (oms_n - v) / (2.0 * v)),
        ("bilres_g", phi_n * es_n, -zn / v * (om_n - v - ratio * z * th_n)),
        ("bilres_h", phi_n * es_n, -zn / v * (oms_n - v - ratio * ths_n)),
        ("bilres_i", star_n * eps_n, zn / v * (om_n + v - ratio * z * th_n)),
        ("bilres_j", star_n * eps_n, zn / v * (oms_n + v - ratio * ths_n)),
    ]

    # point by point, each point's rows level by level
    wheres = np.array([f"z_{k + 2}" for k in range(len(zj))], dtype=object)[:, None]
    rep.add_groups([
        ([equation(name, anchor_bil, lhs, rhs) for name, lhs, rhs in bilinear], tol, chain, wheres),
        ([equation(name, anchor_res, lhs, rhs) for name, lhs, rhs in bilres], tol, res_ns, wheres),
        ([telescoped], tol, chain, wheres),
    ])

    if bundle.u_poly is not None and np.isin([0, 1], keys).all():
        rep.extend(verify_initial_members(bundle, tol_scale))
    return rep


def verify_initial_members(bundle: Bundle, tol_scale: float = 1.0) -> IdentityReport:
    """The six lowest coefficient functions against V, W and the recovered
    inhomogeneity polynomial U, as coefficientwise polynomial identities
    gated at BILINEAR_TOL."""
    rep = IdentityReport("initial members of the coefficient-function sequences")
    anchor = "the initial members of the sequences"
    sys, vw, tol = bundle.sys, bundle.vw, BILINEAR_TOL * tol_scale
    (th0, ths0, om0, oms0), (th1, ths1, _, _) = ([bundle.quads.member(j, row) for j in range(len(MEMBERS))]
                                                  for row in bundle.quads.index([0, 1]).tolist())
    sys.require(2)
    k0, k1 = sys.kappas[:2]
    (p1, p2), (pb1, pb2) = sys.phi[1:3, 0], sys.phibar[1:3, 0]
    two_v = polyadd(2.0 * vw.V)
    k0sq = k0**2
    u = np.asarray(bundle.u_poly, dtype=complex)
    z = np.array([0.0, 1.0], dtype=complex)  # multiply-by-z polynomial

    def poly_equation(name: str, lhs: np.ndarray, rhs: np.ndarray) -> tuple:
        # both sides zero-padded to one length, one row
        sides = np.zeros((2, 1, max(len(lhs), len(rhs))), dtype=complex)
        sides[0, 0, : len(lhs)], sides[1, 0, : len(rhs)] = lhs, rhs
        return equation(name, anchor, *sides)

    plus = polyadd(two_v, k0sq * u)  # 2V + kappa_0^2 U
    minus = polyadd(two_v, -k0sq * u)  # 2V - kappa_0^2 U

    rep.add_rows([
        poly_equation("initial_theta_0", 2.0 * p1 / k0 * th0, minus),
        poly_equation(
            "initial_theta_1",
            polymul(z, 2.0 * p2 / k1 * th1),
            polyadd(
                k1**2 / k0sq * polymul(polymul(z, z), minus),
                -2.0 * k1 * p1 * polymul(z, u),
                -2.0 * k1 * p1 / k0sq * vw.W,
                -(p1**2) / k0sq * plus,
            ),
        ),
        poly_equation(
            "initial_thetastar_0",
            polymul(z, 2.0 * pb1 / k0 * ths0),
            polyadd(-two_v, -k0sq * u),
        ),
        poly_equation(
            "initial_thetastar_1",
            polymul(polymul(z, z), 2.0 * pb2 / k1 * ths1),
            polyadd(
                pb1**2 / k0sq * polymul(polymul(z, z), minus),
                -2.0 * k1 * pb1 * polymul(z, u),
                -2.0 * k1 * pb1 / k0sq * vw.W,
                -(k1**2) / k0sq * plus,
            ),
        ),
        poly_equation(
            "initial_omega_0",
            2.0 * p1 * om0,
            polyadd(k1 * polymul(z, minus), -k0sq * p1 * u),
        ),
        poly_equation(
            "initial_omegastar_0",
            polymul(z, 2.0 * pb1 * oms0),
            polyadd(-k1 * plus, -k0sq * pb1 * polymul(z, u)),
        ),
    ], tol, [None])
    return rep


# ---------------------------------------------------------------------------
# Spectral derivative relations and the discrete-Painleve ratio
# ---------------------------------------------------------------------------

def spectral_derivative_check(
    bundle: Bundle, ns: Sequence[int], samples: Sequence[complex], tol_scale: float = 1.0
) -> IdentityReport:
    """Residuals of the four derivative relations at the levels of ``ns``,
    with the exact derivatives of `AssocSystem.evaluate_with_derivative`
    (polyder of phi, phi*, psi, psi* and the series of F'), so every
    relation holds to the identity tolerance."""
    rep = IdentityReport("spectral derivative relations")
    anchor = "the derivatives of the bi-orthogonal polynomials and associated functions are expressible"
    sys, vw = bundle.sys, bundle.vw
    zs = np.asarray(
        [z for z in samples if abs(z) > 1e-8 and all(abs(z - a) > 0.05 for a in bundle.weight.locations)],
        dtype=complex,
    )
    w_z = polyval(vw.W, zs)
    v_z = polyval(vw.V, zs)

    values, derivatives = bundle.asys.evaluate_with_derivative(zs)
    ns = [n for n in ns if n + 1 <= sys.nmax]
    th, ths, om, oms = _quad_rows(bundle.quads, ns, zs)(ns)
    levels = np.asarray(ns, dtype=int)
    phi_n, star_n, eps_n, es_n = (v[levels] for v in values)
    phi_p, star_p, eps_p, es_p = (v[levels + 1] for v in values)
    dphi, dstar, deps, des = (d[levels] for d in derivatives)
    # trace consistency: W Tr A_n reduces to n W / z - 2 V
    step = (sys.kappas[levels + 1] / sys.kappas[levels])[:, None]
    trace_w = -(om + v_z) + step * zs * th + oms - v_z - step * ths
    rep.add_rows([
        ("spectral_d_phi", anchor, w_z * dphi - th * phi_p + (om + v_z) * phi_n,
         w_z * dphi, th * phi_p),
        ("spectral_d_phistar", anchor, w_z * dstar + ths * star_p - (oms - v_z) * star_n,
         w_z * dstar, ths * star_p),
        ("spectral_d_eps", anchor, w_z * deps - th * eps_p + (om - v_z) * eps_n,
         w_z * deps, th * eps_p),
        ("spectral_d_epsstar", anchor, w_z * des + ths * es_p - (oms + v_z) * es_n,
         w_z * des, ths * es_p),
        ("trace_reduction", "we note that Tr A_n = n/z - w'/w",
         trace_w - (levels[:, None] * w_z / zs - 2.0 * v_z), trace_w, w_z / zs),
    ], IDENTITY_TOL * tol_scale, ns)
    return rep


def dpainleve_ratio_check(bundle: Bundle, ns: Sequence[int], tol_scale: float = 1.0) -> IdentityReport:
    """Ratio recurrence between the first two non-zero singularities z_a,
    z_b of the weight, at each level n of ``ns``, gated at RATIO_TOL:

        z_a Theta_n Theta_{n+1}|_{z_a} / z_b Theta_n Theta_{n+1}|_{z_b}
            = (Omega_n - V)(Omega_n + V)|_{z_a} / (same at z_b).

    Each quadruple is evaluated once at the two points.  A weight with one
    non-zero singularity has no entries."""
    rep = IdentityReport("discrete-Painleve ratio recurrence")
    if bundle.weight.m < 3:
        return rep
    ns = list(ns)
    zs = np.array(bundle.weight.locations[1:3], dtype=complex)  # the origin is z_1
    rows = _quad_rows(bundle.quads, list(dict.fromkeys(k for n in ns for k in (n, n + 1))), zs)
    (th, _, om, _), th_p = rows(ns), rows(ns, 1)[0]
    v = bundle.vw.v_eval(zs)
    num, den = zs * th * th_p, (om - v) * (om + v)  # one row a level, one column a point
    if np.any(np.abs(num[:, 1]) < 1e-14) or np.any(np.abs(den) < 1e-14):
        raise SingularResidueError("vanishing denominator in the ratio recurrence")
    rep.add_rows([
        equation("ratio_recurrence", "this constitutes a recurrence relation",
                 num[:, 0] / num[:, 1], den[:, 0] / den[:, 1]),
    ], RATIO_TOL * tol_scale, ns)
    return rep
