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
`AssocSystem.derivative` and hold to the identity tolerance; they stay
independent of the band reads because they test each relation pointwise,
at sample points inside and outside the circle, on both elements of F.
Each suite evaluates a quadruple once per point set, in one Horner pass over
its four members (`CoeffQuad.evaluate`), and indexes those values; `th`,
`ths`, `om` and `oms` are the one-member readers.

Level ceiling: on the flagship weight z^-1 (z-2)^(1/2) (z-3)^(1/3) the
`coeffs` suite passes through --n 15, where the spectral derivative
relations read at most 1.0e-10 against 1e-9; at --n 16 bilinear_d at z_2
and z_3 reads 1.8e-6 and 1.3e-6 against 1e-6.  `verify-all` stops at
--n 5, set by the Riemann-Hilbert order check rhp_order_22_at_zero in lax at
n = 6 (slope 5.9875 against 6 +- 0.01), not by this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from numpy.polynomial.polyutils import trimseq

from .assoc import AssocSystem
from .bops import BopsSystem
from .config import DEFAULT_TOL, Tolerances
from .errors import (
    DegenerateLevelError,
    NotSemiClassicalError,
    SingularResidueError,
)
from .numerics import (
    as_poly,
    polyadd,
    polyder,
    polymul,
    polyval,
    rel_residual,
    series_band,
)
from .report import IdentityReport
from .weight import PolyPair, SemiClassicalWeight, is_strict_semiclassical


@dataclass(frozen=True)
class CoeffQuad:
    n: int
    theta: np.ndarray
    thetastar: np.ndarray
    omega: np.ndarray
    omegastar: np.ndarray
    fit_residuals: dict = field(default_factory=dict)

    def evaluate(self, z):
        """(Theta_n, Theta*_n, Omega_n, Omega*_n) over an array z of any shape
        (a scalar is a 0-d array) in one Horner pass over the four members.
        The Theta pair is zero-padded at the top to the length of Omega_n; a
        leading zero leaves every Horner step unchanged, so each row equals
        its one-member reader (th, ths, om, oms) bit for bit."""
        padded = (np.append(self.theta, 0), np.append(self.thetastar, 0))
        return polyval(np.stack([*padded, self.omega, self.omegastar], axis=1), z)

    def th(self, z):
        return polyval(self.theta, z)

    def ths(self, z):
        return polyval(self.thetastar, z)

    def om(self, z):
        return polyval(self.omega, z)

    def oms(self, z):
        return polyval(self.omegastar, z)


def _require_strict(vw: PolyPair, weight: SemiClassicalWeight | None):
    if weight is not None:
        if not is_strict_semiclassical(weight):
            raise NotSemiClassicalError(
                "coefficient functions are defined for strict regular "
                "semi-classical weights only"
            )
        return
    # fall back to checking the residues of 2V/W at the roots of W
    roots = np.polynomial.polynomial.polyroots(vw.W)
    for zj in roots:
        rho = 2.0 * vw.v_eval(zj) / vw.w_deriv(zj)
        if abs(rho.imag) < 1e-9 and rho.real > -1e-9 and abs(rho.real - round(rho.real)) < 1e-9:
            raise NotSemiClassicalError(
                f"residue {rho} at W-root {zj} is a non-negative integer"
            )


def _product(a, b, size: int) -> np.ndarray:
    """Orders 0..size-1 of a*b, bit for bit numpy.polynomial's polymul padded
    with zeros: trailing zeros are trimmed first, as polymul does, because
    np.convolve puts the longer operand first and that order sets the
    rounding of every sum; += turns -0 into 0, as polyadd does."""
    prod = np.convolve(*(trimseq(as_poly(x)) for x in (a, b)))[:size]
    out = np.zeros(size, dtype=complex)
    out[: len(prod)] += prod
    return out


def compute_coeff_quad(
    sys: BopsSystem,
    asys: AssocSystem,
    vw: PolyPair,
    n: int,
    weight: SemiClassicalWeight | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> CoeffQuad:
    """Read the quadruple at level n off exact truncated series of its
    defining combinations: Theta_n / Omega_n are the orders n..n+m-2 /
    n..n+m-1 of the Taylor series at z = 0, Theta*_n / Omega*_n the orders
    n+1..n+m-1 / n+1..n+m of the expansion at infinity, which is the Taylor
    series of the reflected weight w(1/u).  Both are exact up to the moment
    window.  The starred pair is read at infinity because that read holds up
    at the outer singular points: on the flagship weight at n = 10 the
    bilinear residue bilres_j at z_3 = 3 reads 3e-11 from it and 4e-7 from a
    Taylor read at 0.  Every order of each series below its band and the two
    above it must vanish; their size against the band is the out-of-band
    ratio kept in ``fit_residuals``.  Raises
    DegenerateLevelError when a reflection-coefficient prefactor vanishes,
    NotSemiClassicalError when an out-of-band ratio exceeds
    tol.fit_residual, and WindowError when the series needs moments beyond
    the table."""
    _require_strict(vw, weight)
    m = vw.degree
    lev_n, lev_p = sys.level(n), sys.level(n + 1)
    if abs(lev_p.phi0) < 1e-13 * max(1.0, abs(lev_p.kappa)):
        raise DegenerateLevelError(f"phi_{n + 1}(0) ~ 0: Theta_{n}/Omega_{n} prefactor vanishes")
    if abs(lev_p.phibar0) < 1e-13 * max(1.0, abs(lev_p.kappa)):
        raise DegenerateLevelError(f"phibar_{n + 1}(0) ~ 0: starred prefactor vanishes")

    size = n + m + 3  # orders 0..n+m+2: every band and the two orders above it

    def mul(a, b):
        return _product(a, b, size)

    def combinations(pair, p, p1, e, e1):
        # 2 (phi_{n+1}(0)/kappa_n) z^n (Theta_n, Omega_n) from the weight's
        # (W, V) and phi_n, phi_{n+1}, eps_n, eps_{n+1}
        dp, de = polyder(p), polyder(e)
        return (
            mul(pair.W, mul(e, dp) - mul(p, de)) + 2.0 * mul(pair.V, mul(p, e)),
            mul(pair.W, mul(e1, dp) - mul(p1, de)) + mul(pair.V, mul(p, e1) + mul(e, p1)),
        )

    eps_n, eps_p = asys.eps_taylor(n, size + 1), asys.eps_taylor(n + 1, size + 1)
    theta, omega = combinations(vw, lev_n.c, lev_p.c, eps_n, eps_p)
    # at infinity, in u = 1/z: phi*_k = z^k phibar_k(u) and eps*_k = z^k e_k(u)
    # with e_k the eps_k of the reflected weight, so the starred combinations
    # are z^(2n+m) and z^(2n+m+1) times the plain ones of the reflected weight,
    # Omega*'s plus n u W^ (phibar_{n+1} e_n - e_{n+1} phibar_n) from d/dz
    # acting on z^n (W^ as in PolyPair.reflected); orders in u mirror orders
    # in z about the band
    ref = vw.reflected()
    e_n, e_p = (asys.eps_taylor(k, size + 1, star=True, at_infinity=True) for k in (n, n + 1))
    thetastar, omegastar = combinations(ref, lev_n.cbar, lev_p.cbar, e_n, e_p)
    omegastar += n * mul(ref.W[1:], mul(lev_p.cbar, e_n) - mul(e_p, lev_n.cbar))

    # bands in z for the plain pair, in u (reversed) for the starred pair
    pref = 2.0 * lev_p.phi0 / lev_n.kappa
    pref_star = 2.0 * lev_p.phibar0 / lev_n.kappa
    plan = (
        ("theta", theta, n, n + m - 2, pref, 1),
        ("thetastar", thetastar, n + 1, n + m - 1, pref_star, -1),
        ("omega", omega, n, n + m - 1, pref, 1),
        ("omegastar", omegastar, n + 1, n + m, pref_star, -1),
    )
    members = {}
    ratios = {}
    for name, series, lo, hi, scale, direction in plan:
        band, ratio = series_band(series, lo, hi)
        if ratio > tol.fit_residual:
            raise NotSemiClassicalError(
                f"{name}_{n} out-of-band ratio {ratio:.3e} exceeds {tol.fit_residual:.1e}; "
                "defining combination is not a polynomial of the stated degree"
            )
        members[name] = band[::direction] / scale
        ratios[name] = ratio
    return CoeffQuad(n=n, fit_residuals=ratios, **members)


# ---------------------------------------------------------------------------
# Expansion closed forms (leading and trailing coefficients)
# ---------------------------------------------------------------------------

def expansion_closed_forms(
    sys: BopsSystem, vw: PolyPair, weight: SemiClassicalWeight, n: int
) -> list[tuple[str, int, complex, str]]:
    """Closed forms for the top two and bottom two coefficients of each
    member of the quadruple, expressed through kappa / l / phi(0) data and
    the weight's singularity data.  Returned as (poly, order, value, block)
    tuples: at small m the leading and trailing windows overlap and a
    coefficient is pinned by two independent forms, both of which are
    reported.

    Three sub-leading terms are derived from the series expansions directly:
    the lbar_{n-1} term of the trailing Theta_n block and the l_{n-1} term of
    the leading Theta*_n block carry a 1/kappa_{n-1} (they enter through
    phi'_n(0) and the z^{n-1} coefficient of phi*_n, both of which contribute
    that factor), and the reflection-product term of the leading Theta_n
    block carries 1/kappa_{n+1}^2 (it arises from trading l_n for l_{n+1}
    through the l-recursion).  All three hold for the coefficients read by
    compute_coeff_quad to 1e-9 through n = 12, on the flagship weight and on
    an m = 4 weight with complex locations and exponents.
    """
    m = weight.m
    locs = weight.locations
    rhos = weight.exponents
    sum_rho = complex(rhos.sum())
    sum_z = complex(locs.sum())
    sum_rho_z = complex((rhos * locs).sum())

    lm1 = sys.level(n - 1) if n >= 1 else None
    ln = sys.level(n)
    lp = sys.level(n + 1)
    lpp = sys.level(n + 2)

    w1 = vw.w_deriv(0.0)  # W'(0)
    wpp = polyval(polyder(polyder(vw.W)), 0.0)  # W''(0)
    v0 = vw.v_eval(0.0)
    v1 = polyval(polyder(vw.V), 0.0)  # V'(0)

    out: list[tuple[str, int, complex, str]] = []

    out.append(("theta", m - 2, (n + 1 + sum_rho) * ln.kappa / lp.kappa, "leading"))
    out.append(
        (
            "theta",
            m - 3,
            -((n + 1 + sum_rho) * sum_z - sum_rho_z) * ln.kappa / lp.kappa
            + (n + 2 + sum_rho)
            * ln.kappa**3
            / (lp.kappa**2 * lpp.kappa)
            * lpp.phi0
            / lp.phi0
            - (n + sum_rho) * lp.phi0 * ln.phibar0 / lp.kappa**2
            - 2.0 * ln.kappa * lp.l / lp.kappa**2,
            "leading",
        )
    )
    out.append(("theta", 0, (2.0 * v0 - n * w1) * ln.phi0 / lp.phi0, "trailing"))
    if lm1 is not None:
        out.append(
            (
                "theta",
                1,
                (2.0 * v1 - 0.5 * n * wpp) * ln.phi0 / lp.phi0
                + (2.0 * v0 - (n - 1) * w1) * ln.kappa * lm1.phi0 / (lm1.kappa * lp.phi0)
                + (
                    ((n + 1) * w1 - 2.0 * v0) * lp.lbar / lp.kappa
                    - ((n - 1) * w1 - 2.0 * v0) * lm1.lbar / lm1.kappa
                )
                * ln.phi0
                / lp.phi0,
                "trailing",
            )
        )

    out.append(("thetastar", m - 2, -(n + sum_rho) * ln.phibar0 / lp.phibar0, "leading"))
    if lm1 is not None:
        out.append(
            (
                "thetastar",
                m - 3,
                ((n + sum_rho) * sum_z - sum_rho_z) * ln.phibar0 / lp.phibar0
                + (n + 1 + sum_rho) * ln.phibar0 / lp.phibar0 * lp.l / lp.kappa
                - (n - 1 + sum_rho)
                * (ln.kappa * lm1.phibar0 + ln.phibar0 * lm1.l)
                / (lm1.kappa * lp.phibar0),
                "leading",
            )
        )
    out.append(("thetastar", 0, -(2.0 * v0 - (n + 1) * w1) * ln.kappa / lp.kappa, "trailing"))
    out.append(
        (
            "thetastar",
            1,
            -(2.0 * v1 - 0.5 * (n + 1) * wpp) * ln.kappa / lp.kappa
            - (2.0 * v0 - n * w1) * ln.lbar / lp.kappa
            + ((n + 2) * w1 - 2.0 * v0)
            * (
                ln.kappa**3 / (lpp.kappa * lp.kappa**2) * lpp.phibar0 / lp.phibar0
                - ln.kappa / lp.kappa * lp.lbar / lp.kappa
            ),
            "trailing",
        )
    )

    out.append(("omega", m - 1, 1.0 + 0.5 * sum_rho, "leading"))
    out.append(
        (
            "omega",
            m - 2,
            -0.5 * sum_rho * sum_z
            + 0.5 * sum_rho_z
            - sum_z
            + (n + 2 + sum_rho) * ln.kappa**2 / (lpp.kappa * lp.kappa) * lpp.phi0 / lp.phi0
            - lp.l / lp.kappa,
            "leading",
        )
    )
    out.append(("omega", 0, v0 - n * w1, "trailing"))
    out.append(
        (
            "omega",
            1,
            v1
            - 0.5 * n * wpp
            + (v0 * ln.kappa / lp.kappa + (v0 - n * w1) * lp.kappa / ln.kappa)
            * ln.phi0
            / lp.phi0
            + (v0 - n * w1) * ln.lbar / ln.kappa
            - (v0 - (n + 1) * w1) * lp.lbar / lp.kappa,
            "trailing",
        )
    )

    out.append(("omegastar", m - 1, -0.5 * sum_rho, "leading"))
    out.append(
        (
            "omegastar",
            m - 2,
            0.5 * sum_rho * sum_z
            - 0.5 * sum_rho_z
            - (n + sum_rho) * ln.kappa / lp.kappa * ln.phibar0 / lp.phibar0
            + lp.l / lp.kappa,
            "leading",
        )
    )
    out.append(("omegastar", 0, (n + 1) * w1 - v0, "trailing"))
    out.append(
        (
            "omegastar",
            1,
            0.5 * (n + 1) * wpp
            - v1
            + ((n + 2) * w1 - 2.0 * v0)
            * ln.kappa**2
            / (lpp.kappa * lp.kappa)
            * lpp.phibar0
            / lp.phibar0
            - w1 * lp.lbar / lp.kappa,
            "trailing",
        )
    )
    return [(name, order, val, block) for name, order, val, block in out if order >= 0]


def verify_expansion_forms(
    quads: Mapping[int, CoeffQuad],
    sys: BopsSystem,
    vw: PolyPair,
    weight: SemiClassicalWeight,
    ns: Sequence[int],
    tol: float = 1e-6,
) -> IdentityReport:
    """Coefficients against every closed leading/trailing form, plus the
    largest out-of-band ratio of each quadruple as its degree certificate."""
    rep = IdentityReport("coefficient-function expansion closed forms")
    for n in ns:
        quad = quads[n]
        polys = {
            "theta": quad.theta,
            "thetastar": quad.thetastar,
            "omega": quad.omega,
            "omegastar": quad.omegastar,
        }
        for name, order, want, block in expansion_closed_forms(sys, vw, weight, n):
            coeffs = polys[name]
            if order >= len(coeffs):
                continue
            scale = max(1.0, float(np.max(np.abs(coeffs))))
            rep.add(
                f"{name}_{block}_z{order}",
                "specifically these have leading and trailing expansions",
                abs(coeffs[order] - want) / scale,
                tol,
                n=n,
                where=f"z^{order}",
            )
        om0 = quad.om(0.0)
        rep.add(
            "omega_at_origin",
            "does not lead to any new independent relation",
            abs(om0 - (vw.v_eval(0.0) - n * vw.w_deriv(0.0))) / max(1.0, abs(om0)),
            tol,
            n=n,
        )
        rep.add(
            "degree_certification",
            "are polynomials in z of bounded degree",
            max(quad.fit_residuals.values()),
            1e-7,
            n=n,
        )
    return rep


# ---------------------------------------------------------------------------
# Coupled linear recurrence relations (a)-(h) and the three corollary
# identities (i)-(k)
# ---------------------------------------------------------------------------

def verify_linear_relations(
    quads: Mapping[int, CoeffQuad],
    vw: PolyPair,
    sys: BopsSystem,
    samples: Sequence[complex],
    tol: float = 1e-7,
) -> IdentityReport:
    """Residuals of all eight coupled recurrences among the coefficient
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


# ---------------------------------------------------------------------------
# Bilinear identities, bilinear residues, initial members, telescoping
# ---------------------------------------------------------------------------

def verify_bilinear(
    quads: Mapping[int, CoeffQuad],
    vw: PolyPair,
    sys: BopsSystem,
    asys: AssocSystem,
    weight: SemiClassicalWeight,
    u_poly: np.ndarray | None = None,
    ns: Sequence[int] | None = None,
    tol: float = 1e-7,
) -> IdentityReport:
    """At every non-zero singular point: the six bilinear identities among
    quadruple evaluations, the ten bilinear residue formulas tying them to
    phi/eps products, the telescoped summation constant V^2(z_j), and (when
    quads 0 and 1 and U are available) the six initial-member formulas as
    polynomial identities.  ``ns`` selects the levels asserted (default:
    every level whose successor quad is available)."""
    rep = IdentityReport("bilinear identities at the singular points")
    sings = [(j, s.location) for j, s in enumerate(weight.singularities) if s.location != 0]
    anchor_bil = "the coefficient functions satisfy the bilinear identities"
    anchor_res = "bilinear residues are related to the coefficient function residues"
    if ns is None:
        ns = [n for n in sorted(quads) if n + 1 in quads]
    # each quadruple once at all the singular points: ev[n][member, k]
    ev = {n: q.evaluate(np.array([zj for _, zj in sings], dtype=complex)) for n, q in quads.items()}

    for k, (j, zj) in enumerate(sings):
        v_j = vw.v_eval(zj)
        if abs(v_j) < 1e-12:
            raise SingularResidueError(f"V(z_{j + 1}) = 0 at z = {zj}")
        v2 = v_j**2

        for n in sorted(ns):
            if n + 1 not in quads or n + 2 > sys.nmax:
                continue
            ln, lp, lpp = sys.level(n), sys.level(n + 1), sys.level(n + 2)
            th_n, ths_n, om_n, oms_n = ev[n][:, k]
            th_p, ths_p = ev[n + 1][:2, k]

            lhs = om_n**2
            rhs = ln.kappa * lpp.phi0 / (lp.kappa * lp.phi0) * zj * th_n * th_p + v2
            rep.add("bilinear_a", anchor_bil, rel_residual(lhs - rhs, lhs, rhs), tol, n=n, where=f"z_{j + 1}")

            lhs = oms_n**2
            rhs = ln.kappa * lpp.phibar0 / (lp.kappa * lp.phibar0) * zj * ths_n * ths_p + v2
            rep.add("bilinear_b", anchor_bil, rel_residual(lhs - rhs, lhs, rhs), tol, n=n, where=f"z_{j + 1}")

            # mirror of (d) under the bar swap: the scale factor carries
            # kappa_n / kappa_{n+1}^3 (verified numerically at every level)
            lhs = (om_n - ln.kappa**2 / lp.kappa**2 * lpp.phi0 / lp.phi0 * th_p) ** 2
            rhs = ln.kappa * lpp.phi0 * lp.phibar0 / lp.kappa**3 * th_p * ths_n + v2
            rep.add("bilinear_c", anchor_bil, rel_residual(lhs - rhs, lhs, rhs), tol, n=n, where=f"z_{j + 1}")

            lhs = (oms_n - ln.kappa**2 / lp.kappa**2 * lpp.phibar0 / lp.phibar0 * zj * ths_p) ** 2
            rhs = ln.kappa * lpp.phibar0 * lp.phi0 / lp.kappa**3 * zj**2 * ths_p * th_n + v2
            rep.add("bilinear_d", anchor_bil, rel_residual(lhs - rhs, lhs, rhs), tol, n=n, where=f"z_{j + 1}")

            lhs = lp.phi0 * lp.phibar0 / ln.kappa**2 * zj * th_n * ths_n + v2
            rhs = (om_n - lp.kappa / ln.kappa * zj * th_n) ** 2
            rep.add("bilinear_e", anchor_bil, rel_residual(lhs - rhs, lhs, rhs), tol, n=n, where=f"z_{j + 1}")
            rhs = (oms_n - lp.kappa / ln.kappa * ths_n) ** 2
            rep.add("bilinear_f", anchor_bil, rel_residual(lhs - rhs, lhs, rhs), tol, n=n, where=f"z_{j + 1}")

        # bilinear residue formulas (phi/eps products against the quadruple)
        for n in sorted(ns):
            if n not in quads or n + 1 > sys.nmax:
                continue
            ln, lp = sys.level(n), sys.level(n + 1)
            # per point: eps = psi + F phi is rounded differently over an array
            phi_n, star_n, eps_n, es_n = asys.evaluate(n, zj)
            phi_p, star_p, eps_p, es_p = asys.evaluate(n + 1, zj)
            th_n, ths_n, om_n, oms_n = ev[n][:, k]
            base = 2.0 * lp.phi0 / ln.kappa * zj**n
            base_s = 2.0 * lp.phibar0 / ln.kappa * zj ** (n + 1)

            checks = [
                ("bilres_a", phi_n * eps_n, base * th_n / (2.0 * v_j)),
                ("bilres_b", star_n * es_n, -base_s * ths_n / (2.0 * v_j)),
                ("bilres_c", phi_p * eps_n, base * (om_n + v_j) / (2.0 * v_j)),
                ("bilres_d", phi_n * eps_p, base * (om_n - v_j) / (2.0 * v_j)),
                ("bilres_e", star_n * es_p, -base_s * (oms_n + v_j) / (2.0 * v_j)),
                ("bilres_f", star_p * es_n, -base_s * (oms_n - v_j) / (2.0 * v_j)),
                (
                    "bilres_g",
                    phi_n * es_n,
                    -(zj**n) / v_j * (om_n - v_j - lp.kappa / ln.kappa * zj * th_n),
                ),
                (
                    "bilres_h",
                    phi_n * es_n,
                    -(zj**n) / v_j * (oms_n - v_j - lp.kappa / ln.kappa * ths_n),
                ),
                (
                    "bilres_i",
                    star_n * eps_n,
                    zj**n / v_j * (om_n + v_j - lp.kappa / ln.kappa * zj * th_n),
                ),
                (
                    "bilres_j",
                    star_n * eps_n,
                    zj**n / v_j * (oms_n + v_j - lp.kappa / ln.kappa * ths_n),
                ),
            ]
            for name, lhs, rhs in checks:
                rep.add(name, anchor_res, rel_residual(lhs - rhs, lhs, rhs), tol, n=n, where=f"z_{j + 1}")

        # telescoped summation: Omega_n^2 - D_n is the constant V^2(z_j)
        ns_chain = sorted(nn for nn in ns if nn + 1 in quads and nn + 2 <= sys.nmax)
        for n in ns_chain:
            ln, lp, lpp = sys.level(n), sys.level(n + 1), sys.level(n + 2)
            th_n, _, om_n, _ = ev[n][:, k]
            d_n = ln.kappa * lpp.phi0 / (lp.kappa * lp.phi0) * zj * th_n * ev[n + 1][0, k]
            partial = om_n**2 - d_n
            # the exact difference cancels the large terms; scale by them
            rep.add(
                "telescoped_constant",
                "upon summing this relation the summation constant is",
                rel_residual(partial - v2, om_n**2, d_n, v2),
                tol,
                n=n,
                where=f"z_{j + 1}",
            )

    if u_poly is not None and 0 in quads and 1 in quads:
        rep.extend(verify_initial_members(quads, vw, sys, u_poly, tol=tol))
    return rep


def verify_initial_members(
    quads: Mapping[int, CoeffQuad],
    vw: PolyPair,
    sys: BopsSystem,
    u_poly: np.ndarray,
    tol: float = 1e-7,
) -> IdentityReport:
    """The six lowest coefficient functions against V, W and the recovered
    inhomogeneity polynomial U, as coefficientwise polynomial identities."""
    rep = IdentityReport("initial members of the coefficient-function sequences")
    anchor = "the initial members of the sequences"
    q0, q1 = quads[0], quads[1]
    l0, l1, l2 = sys.level(0), sys.level(1), sys.level(2)
    two_v = polyadd(2.0 * vw.V)
    k0sq = l0.kappa**2
    u = np.asarray(u_poly, dtype=complex)
    z = np.array([0.0, 1.0], dtype=complex)  # multiply-by-z polynomial

    def check(name: str, lhs: np.ndarray, rhs: np.ndarray):
        diff = polyadd(lhs, -rhs)
        scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
        rep.add(name, anchor, float(np.max(np.abs(diff))) / scale, tol)

    plus = polyadd(two_v, k0sq * u)  # 2V + kappa_0^2 U
    minus = polyadd(two_v, -k0sq * u)  # 2V - kappa_0^2 U

    check("initial_theta_0", 2.0 * l1.phi0 / l0.kappa * q0.theta, minus)
    check(
        "initial_theta_1",
        polymul(z, 2.0 * l2.phi0 / l1.kappa * q1.theta),
        polyadd(
            l1.kappa**2 / k0sq * polymul(polymul(z, z), minus),
            -2.0 * l1.kappa * l1.phi0 * polymul(z, u),
            -2.0 * l1.kappa * l1.phi0 / k0sq * vw.W,
            -(l1.phi0**2) / k0sq * plus,
        ),
    )
    check(
        "initial_thetastar_0",
        polymul(z, 2.0 * l1.phibar0 / l0.kappa * q0.thetastar),
        polyadd(-two_v, -k0sq * u),
    )
    check(
        "initial_thetastar_1",
        polymul(polymul(z, z), 2.0 * l2.phibar0 / l1.kappa * q1.thetastar),
        polyadd(
            l1.phibar0**2 / k0sq * polymul(polymul(z, z), minus),
            -2.0 * l1.kappa * l1.phibar0 * polymul(z, u),
            -2.0 * l1.kappa * l1.phibar0 / k0sq * vw.W,
            -(l1.kappa**2) / k0sq * plus,
        ),
    )
    check(
        "initial_omega_0",
        2.0 * l1.phi0 * q0.omega,
        polyadd(l1.kappa * polymul(z, minus), -k0sq * l1.phi0 * u),
    )
    check(
        "initial_omegastar_0",
        polymul(z, 2.0 * l1.phibar0 * q0.omegastar),
        polyadd(-l1.kappa * plus, -k0sq * l1.phibar0 * polymul(z, u)),
    )
    return rep


# ---------------------------------------------------------------------------
# Spectral derivative relations and the discrete-Painleve ratio
# ---------------------------------------------------------------------------

def spectral_derivative_check(
    quads: Mapping[int, CoeffQuad],
    vw: PolyPair,
    sys: BopsSystem,
    asys: AssocSystem,
    samples: Sequence[complex],
    weight: SemiClassicalWeight | None = None,
    tol: float | None = None,
) -> IdentityReport:
    """Residuals of the four derivative relations, with the exact
    derivatives of `AssocSystem.derivative` (polyder of phi, phi*, psi, psi*
    and the series of F'), so every relation holds to the identity
    tolerance."""
    tol = DEFAULT_TOL.identity if tol is None else tol
    rep = IdentityReport("spectral derivative relations")
    anchor = "the derivatives of the bi-orthogonal polynomials and associated functions are expressible"
    avoid = list(weight.locations) if weight is not None else []
    zs = np.asarray(
        [z for z in samples if abs(z) > 1e-8 and all(abs(z - a) > 0.05 for a in avoid)],
        dtype=complex,
    )
    w_z = polyval(vw.W, zs)
    v_z = polyval(vw.V, zs)

    for n in sorted(quads):
        if n + 1 > sys.nmax:
            continue
        th, ths, om, oms = quads[n].evaluate(zs)
        phi_n, star_n, eps_n, es_n = asys.evaluate(n, zs)
        phi_p, star_p, eps_p, es_p = asys.evaluate(n + 1, zs)
        dphi, dstar, deps, des = asys.derivative(n, zs)

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


def dpainleve_ratio_check(
    quads: Mapping[int, CoeffQuad],
    vw: PolyPair,
    n: int,
    z_a: complex,
    z_b: complex,
    tol: float = 1e-7,
) -> IdentityReport:
    """Ratio recurrence between two distinct non-zero singularities:

        z_a Theta_n Theta_{n+1}|_{z_a} / z_b Theta_n Theta_{n+1}|_{z_b}
            = (Omega_n - V)(Omega_n + V)|_{z_a} / (same at z_b).
    """
    rep = IdentityReport("discrete-Painleve ratio recurrence")
    if z_a == z_b:
        raise SingularResidueError("ratio check needs two distinct singularities")
    if z_a == 0 or z_b == 0:
        raise SingularResidueError("ratio check is defined away from the origin")
    zs = np.array([z_a, z_b], dtype=complex)
    ev_n, ev_p = quads[n].evaluate(zs), quads[n + 1].evaluate(zs)

    def packed(k, zj):
        v = vw.v_eval(zj)
        num = zj * ev_n[0, k] * ev_p[0, k]
        den = (ev_n[2, k] - v) * (ev_n[2, k] + v)
        return num, den

    num_a, den_a = packed(0, z_a)
    num_b, den_b = packed(1, z_b)
    if min(abs(num_b), abs(den_b), abs(den_a)) < 1e-14:
        raise SingularResidueError("vanishing denominator in the ratio recurrence")
    lhs = num_a / num_b
    rhs = den_a / den_b
    rep.add(
        "ratio_recurrence",
        "this constitutes a recurrence relation",
        rel_residual(lhs - rhs, lhs, rhs),
        tol,
        n=n,
    )
    return rep
