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
the annulus of the weight, which the Riemann-Hilbert jump check in `lax`
exploits.  The same series give the exact derivatives
(`AssocSystem.derivative`) and the exact expansions of eps_n and eps*_n at 0
and at infinity (`AssocSystem.eps_taylor`), from which `verify_expansions`
reads its Laurent coefficients.

`evaluate` and `derivative` give every level at once, from one Horner pass
over the zero-padded coefficients of all levels and one evaluation of F
(and F'); each row is the level's own Horner value bit for bit.  A caller
evaluates each point set once and indexes the levels: one `verify-all
--n 4` makes 13 such calls and 15 of F or F'.  A point's values are the
same bit for bit alone or inside an array.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .bops import BopsSystem
from .config import IDENTITY_TOL
from .errors import WindowError
from .moments import CaratheodoryEvaluator
from .numerics import polyadd, polyder, polymul, polyval, rel_residual
from .report import IdentityReport


class AssocSystem:
    """Associated polynomials and function evaluators for every built level."""

    def __init__(self, sys: BopsSystem):
        self.sys = sys
        self.F = CaratheodoryEvaluator(sys.table)
        self._psi: dict[int, np.ndarray] = {}
        self._psistar: dict[int, np.ndarray] = {}

    def psi(self, n: int) -> np.ndarray:
        if n not in self._psi:
            self._psi[n] = _psi_coeffs(self.sys, n)
        return self._psi[n]

    def psistar(self, n: int) -> np.ndarray:
        if n not in self._psistar:
            self._psistar[n] = _psistar_coeffs(self.sys, n)
        return self._psistar[n]

    @cached_property
    def _stack(self) -> np.ndarray:
        """Ascending coefficients of phi_n, phi*_n, psi_n, psi*_n of every
        level n = 0..N, zero-padded to N+1: shape (N+1, 4, N+1), entry
        [k, j, n] the coefficient of z^k of polynomial j at level n.  Each
        column is filled by assignment: polyadd would turn -0 into +0."""
        size = self.sys.nmax + 1
        out = np.zeros((size, 4, size), dtype=complex)
        for n, lev in enumerate(self.sys.levels):
            for j, coeffs in enumerate((lev.c, lev.cbar[::-1], self.psi(n), self.psistar(n))):
                out[: n + 1, j, n] = coeffs
        return out

    def evaluate(self, z, side: str | None = None):
        """(phi, phi*, eps, eps*) of every level n = 0..N over an array z of
        any shape (a scalar is a 0-d array), each of shape (N+1, *z.shape)
        with row n the level n: one Horner pass over the zero-padded stack
        of phi_n, phi*_n, psi_n, psi*_n and one evaluation of F.  Leading
        zeros leave Horner's steps unchanged, so row n is the level's own
        Horner value bit for bit, and each value at a point is the same
        whether the point comes alone or inside an array."""
        zs = np.asarray(z, dtype=complex)
        flat = zs.reshape(-1)
        phi, phistar, psi, psistar = polyval(self._stack, flat)
        f = self.F(flat, side=side)
        return _shaped(zs.shape, phi, phistar, psi + f * phi, psistar - f * phistar)

    def derivative(self, z, side: str | None = None):
        """(phi', phi*', eps', eps*') of every level over an array z, shaped
        as `evaluate`, exact: eps'_n = psi'_n + F' phi_n + F phi'_n and
        eps*'_n = psi*'_n - F' phi*_n - F phi*'_n, with F' from the same
        moment series as F."""
        zs = np.asarray(z, dtype=complex)
        flat = zs.reshape(-1)
        phi, phistar = polyval(self._stack[:, :2], flat)
        dphi, dphistar, dpsi, dpsistar = polyval(polyder(self._stack), flat)
        f, df = self.F(flat, side=side), self.F(flat, side=side, derivative=True)
        return _shaped(
            zs.shape,
            dphi,
            dphistar,
            dpsi + df * phi + f * dphi,
            dpsistar - df * phistar - f * dphistar,
        )

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


def _shaped(shape, *values):
    """The values, computed over the flattened points with one row a level,
    in the shape (levels, *points' shape).  The arithmetic always runs over
    arrays: on numpy scalars (a 0-d point) a complex product rounds
    differently from numpy's array loop."""
    return tuple(v.reshape(v.shape[:1] + shape) for v in values)


def _psi_coeffs(sys: BopsSystem, n: int) -> np.ndarray:
    tbl = sys.table
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


def _psistar_coeffs(sys: BopsSystem, n: int) -> np.ndarray:
    tbl = sys.table
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
# Identity web: recurrences, Casoratians
# ---------------------------------------------------------------------------

def verify_assoc_identities(
    asys: AssocSystem,
    ns: Sequence[int],
    samples: Sequence[complex],
    tol: float = IDENTITY_TOL,
) -> tuple[IdentityReport, tuple[np.ndarray, ...]]:
    """Residuals of the eps recurrences, the psi three-term recurrences and
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


# ---------------------------------------------------------------------------
# Two-sided expansions (exact series coefficients vs closed forms)
# ---------------------------------------------------------------------------

def verify_expansions(
    asys: AssocSystem,
    ns: Sequence[int],
    tol: float = 1e-8,
) -> IdentityReport:
    """Leading Laurent coefficients of (kappa_n/2) eps_n and
    (kappa_n/2) eps*_n at 0 and at infinity for each level n of ``ns``,
    read off their exact truncated series (`AssocSystem.eps_taylor`),
    against their closed forms in the kappa / l / m / phi(0) data (levels
    n+1, n+2 must be built)."""
    rep = IdentityReport("associated-function expansions")

    def gap(got: complex, want: complex) -> float:
        return abs(got - want) / max(1.0, abs(want))

    for n in ns:
        if n + 2 > asys.sys.nmax:
            raise IndexError(f"expansion check at n={n} needs levels up to {n + 2}")
        ln, lp, lpp = asys.sys.level(n), asys.sys.level(n + 1), asys.sys.level(n + 2)
        half_kappa = ln.kappa / 2.0

        def coefficients(star: bool, at_infinity: bool) -> dict[int, complex]:
            """Coefficients of z^k, k = 0..n+3 at 0 and k = -3..0 at infinity."""
            series = half_kappa * asys.eps_taylor(n, n + 4, star, at_infinity)
            if at_infinity:
                return {n - j: complex(c) for j, c in enumerate(series) if j >= n}
            return {k: complex(c) for k, c in enumerate(series)}

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
