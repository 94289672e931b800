"""Associated polynomials psi_n, psi*_n and associated functions
eps_n = psi_n + F phi_n, eps*_n = psi*_n - F phi*_n.

psi_n is obtained as an exact moment convolution: expanding
(zeta + z)/(zeta - z) * [phi_n(zeta) - phi_n(z)] in powers of z with Laurent
polynomial coefficients in zeta and integrating term by term against the
weight gives

    psi_n(z)  = sum_{j>=1} c_{n,j}    sum_{a=0}^{j-1} (w_{-a-1} z^{j-1-a} + w_{-a} z^{j-a}),
    psi*_n(z) = sum_{j>=1} cbar_{n,j} sum_{a=0}^{j-1} (w_{j-a-1} z^{n-a-1} + w_{j-a} z^{n-a}),

with psi_0 = psi*_0 = 1/kappa_0.  The singular kernel never has to be
quadratured, which keeps psi_n a certified polynomial.

The eps evaluators use the two-sided moment series for F and refuse the
near-circle band unless a side is forced; both analytic elements extend into
the annulus of the weight, which the Plemelj jump check exploits.  The same
series give the exact derivatives (`AssocSystem.derivative`) and the exact
expansions of eps_n and eps*_n at 0 and at infinity
(`AssocSystem.eps_taylor`), from which `verify_expansions` reads its
Laurent coefficients.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .bops import BopsSystem, eval_poly
from .errors import WindowError
from .moments import CaratheodoryEvaluator, MomentTable
from .numerics import polyadd, polyder, polymul, polyval, rel_residual
from .report import IdentityReport


class AssocSystem:
    """Associated polynomials and function evaluators for every built level."""

    def __init__(
        self,
        sys: BopsSystem,
        tbl: MomentTable | None = None,
        tol: Tolerances = DEFAULT_TOL,
    ):
        self.sys = sys
        self.table = tbl if tbl is not None else sys.table
        self.F = CaratheodoryEvaluator(self.table, tol)
        self._psi: dict[int, np.ndarray] = {}
        self._psistar: dict[int, np.ndarray] = {}
        self._stack: dict[int, np.ndarray] = {}

    def psi(self, n: int) -> np.ndarray:
        if n not in self._psi:
            self._psi[n] = _psi_coeffs(self.sys, self.table, n)
        return self._psi[n]

    def psistar(self, n: int) -> np.ndarray:
        if n not in self._psistar:
            self._psistar[n] = _psistar_coeffs(self.sys, self.table, n)
        return self._psistar[n]

    def _stacked(self, n: int) -> np.ndarray:
        """Columns phi_n, phi*_n, psi_n, psi*_n, ascending; built once per level."""
        if n not in self._stack:
            lev = self.sys.level(n)
            self._stack[n] = np.stack([lev.c, lev.cbar[::-1], self.psi(n), self.psistar(n)], axis=1)
        return self._stack[n]

    def evaluate(self, n: int, z, side: str | None = None):
        """(phi_n, phi*_n, eps_n, eps*_n) over an array z of any shape (a
        scalar is a 0-d array): one Horner pass over the four polynomials
        phi_n, phi*_n, psi_n, psi*_n and one evaluation of F."""
        zs = np.asarray(z, dtype=complex)
        phi, phistar, psi, psistar = polyval(self._stacked(n), zs)
        f = self.F(zs, side=side)
        return phi, phistar, psi + f * phi, psistar - f * phistar

    def derivative(self, n: int, z, side: str | None = None):
        """(phi'_n, phi*'_n, eps'_n, eps*'_n) over an array z, exact:
        eps'_n = psi'_n + F' phi_n + F phi'_n and eps*'_n = psi*'_n - F'
        phi*_n - F phi*'_n, with F' from the same moment series as F."""
        zs = np.asarray(z, dtype=complex)
        coeffs = self._stacked(n)
        phi, phistar = polyval(coeffs[:, :2], zs)
        dphi, dphistar, dpsi, dpsistar = polyval(polyder(coeffs), zs)
        f, df = self.F(zs, side=side), self.F(zs, side=side, derivative=True)
        return (
            dphi,
            dphistar,
            dpsi + df * phi + f * dphi,
            dpsistar - df * phistar - f * dphistar,
        )

    def eps(self, n: int, z, side: str | None = None):
        return self.evaluate(n, z, side)[2]

    def epsstar(self, n: int, z, side: str | None = None):
        return self.evaluate(n, z, side)[3]

    def eps_taylor(
        self, n: int, count: int, star: bool = False, at_infinity: bool = False
    ) -> np.ndarray:
        """Orders 0..count-1 of the expansion of eps_n (eps*_n with ``star``),
        exact up to the moment window: its Taylor series at 0, or with
        ``at_infinity`` the Taylor series of z^-n eps_n in u = 1/z, whose
        order k is the coefficient of z^(n-k).  At infinity each polynomial
        is reversed (z^-n p(z) is p reversed in u for degree n) and F is
        its outside series."""
        lev = self.sys.level(n)
        if star:
            psi, phi, sign = self.psistar(n), lev.cbar[::-1], -1.0
        else:
            psi, phi, sign = self.psi(n), lev.c, 1.0
        if at_infinity:
            psi, phi = psi[::-1], phi[::-1]
        f = self.F.series(count, side="outside" if at_infinity else "inside")
        return polyadd(np.zeros(count), psi, sign * polymul(f, phi))[:count]


def _psi_coeffs(sys: BopsSystem, tbl: MomentTable, n: int) -> np.ndarray:
    if tbl.window < n + 1:
        raise WindowError(n + 1, tbl.window, f"psi_{n}")
    if n == 0:
        return np.array([1.0 / sys.kappa(0)], dtype=complex)
    c = sys.level(n).c
    out = np.zeros(n + 1, dtype=complex)
    for j in range(1, n + 1):
        for a in range(j):
            out[j - 1 - a] += c[j] * tbl.moment(-a - 1)
            out[j - a] += c[j] * tbl.moment(-a)
    return out


def _psistar_coeffs(sys: BopsSystem, tbl: MomentTable, n: int) -> np.ndarray:
    if tbl.window < n + 1:
        raise WindowError(n + 1, tbl.window, f"psistar_{n}")
    if n == 0:
        return np.array([1.0 / sys.kappa(0)], dtype=complex)
    cbar = sys.level(n).cbar
    out = np.zeros(n + 1, dtype=complex)
    for j in range(1, n + 1):
        for a in range(j):
            out[n - a - 1] += cbar[j] * tbl.moment(j - a - 1)
            out[n - a] += cbar[j] * tbl.moment(j - a)
    return out


# ---------------------------------------------------------------------------
# Identity web: recurrences, Casoratians, Plemelj jump
# ---------------------------------------------------------------------------

def verify_assoc_identities(
    asys: AssocSystem,
    ns: Sequence[int],
    samples: Sequence[complex],
    tol: float | None = None,
) -> IdentityReport:
    """Residuals of the eps recurrences, the psi three-term recurrences and
    all three Casoratian identities (in both the psi and eps forms) at the
    sampled points (taken off the unit circle)."""
    tol = DEFAULT_TOL.identity if tol is None else tol
    rep = IdentityReport("associated-function identity web")
    sys = asys.sys
    zs = np.asarray(samples, dtype=complex)

    for n in ns:
        ln, lp = sys.level(n), sys.level(n + 1)
        phi_n, ps_n, eps_n, star_n = asys.evaluate(n, zs)
        phi_p, ps_p, eps_p, star_p = asys.evaluate(n + 1, zs)
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
    return rep


def plemelj_jump_residual(
    asys: AssocSystem,
    wfun,
    n: int,
    thetas: Sequence[float],
    offset: float = 1e-4,
) -> float:
    """max over theta of | eps_+ - eps_- - 2 w phi_n | using the inside and
    outside analytic elements evaluated at the same points (1 -+ offset) e^{i
    theta}; both elements extend across the circle into the annulus of the
    weight, so the identity holds pointwise there."""
    worst = 0.0
    for radius in (1.0 - offset, 1.0 + offset):
        zs = radius * np.exp(1j * np.asarray(thetas, dtype=float))
        inside = asys.eps(n, zs, side="inside")
        outside = asys.eps(n, zs, side="outside")
        jump = 2.0 * np.asarray(wfun(zs), dtype=complex) * eval_poly(asys.sys, n, zs)
        worst = max(worst, rel_residual(inside - outside - jump, jump, inside))
    return worst


# ---------------------------------------------------------------------------
# Two-sided expansions (exact series coefficients vs closed forms)
# ---------------------------------------------------------------------------

def verify_expansions(
    asys: AssocSystem,
    n: int,
    tol: float = 1e-8,
) -> IdentityReport:
    """Leading Laurent coefficients of (kappa_n/2) eps_n and
    (kappa_n/2) eps*_n at 0 and at infinity, read off their exact truncated
    series (`AssocSystem.eps_taylor`), against their closed forms in the
    kappa / l / m / phi(0) data (levels n+1, n+2 must be built)."""
    sys = asys.sys
    if n + 2 > sys.nmax:
        raise IndexError(f"expansion check at n={n} needs levels up to {n + 2}")
    rep = IdentityReport(f"associated-function expansions at n={n}")
    ln, lp, lpp = sys.level(n), sys.level(n + 1), sys.level(n + 2)
    half_kappa = ln.kappa / 2.0

    def coefficients(star: bool, at_infinity: bool) -> dict[int, complex]:
        """Coefficients of z^k, k = 0..n+3 at 0 and k = -3..0 at infinity."""
        series = half_kappa * asys.eps_taylor(n, n + 4, star, at_infinity)
        if at_infinity:
            return {n - j: complex(c) for j, c in enumerate(series) if j >= n}
        return {k: complex(c) for k, c in enumerate(series)}

    def gap(got: complex, want: complex) -> float:
        return abs(got - want) / max(1.0, abs(want))

    inner, outer = coefficients(False, False), coefficients(False, True)
    inner_s, outer_s = coefficients(True, False), coefficients(True, True)
    scale = ln.kappa**2 / lp.kappa**2
    entries = [
        ("eps_inside_order_0", gap(inner[n], 1.0), f"z^{n} inside"),
        ("eps_inside_order_1", gap(inner[n + 1], -lp.lbar / lp.kappa), f"z^{n + 1} inside"),
        ("eps_inside_low_orders_vanish", max((abs(inner[k]) for k in range(n)), default=0.0), None),
        ("eps_outside_order_-1", gap(outer[-1], lp.phi0 / lp.kappa), "z^-1 outside"),
        (
            "eps_outside_order_-2",
            gap(outer[-2], scale * lpp.phi0 / lpp.kappa - lp.phi0 / lp.kappa * lp.l / lp.kappa),
            "z^-2 outside",
        ),
        ("eps_outside_order_0_vanishes", abs(outer[0]), None),
        ("epsstar_inside_order_1", gap(inner_s[n + 1], lp.phibar0 / lp.kappa), f"z^{n + 1} inside"),
        (
            "epsstar_inside_order_2",
            gap(inner_s[n + 2], scale * lpp.phibar0 / lpp.kappa - lp.phibar0 / lp.kappa * lp.lbar / lp.kappa),
            f"z^{n + 2} inside",
        ),
        ("epsstar_inside_low_orders_vanish", max(abs(inner_s[k]) for k in range(n + 1)), None),
        ("epsstar_outside_order_0", gap(outer_s[0], 1.0), "z^0 outside"),
        ("epsstar_outside_order_-1", gap(outer_s[-1], -lp.l / lp.kappa), "z^-1 outside"),
        (
            "epsstar_outside_order_-2",
            gap(outer_s[-2], lpp.l * lp.l / (lpp.kappa * lp.kappa) - (lpp.m2 or 0.0) / lpp.kappa),
            "z^-2 outside",
        ),
    ]
    for name, residual, where in entries:
        rep.add(name, "have the following expansions", residual, tol, n=n, where=where)
    return rep
