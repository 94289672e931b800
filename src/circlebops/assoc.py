"""Associated polynomials psi_n, psi*_n and associated functions
eps_n = psi_n + F phi_n, eps*_n = psi*_n - F phi*_n.

psi_n is an exact moment convolution: integrating
(zeta + z)/(zeta - z) [phi_n(zeta) - phi_n(z)] term by term against the
weight gives order i of psi_n, and of psi*_n reversed (z^n psi*_n(1/z)), as

    sum_{j>i} c_{n,j} w_{i-j}     + [i >= 1] sum_{j>=i} c_{n,j} w_{i-j},
    sum_{j>i} cbar_{n,j} w_{j-i}  + [i >= 1] sum_{j>=i} cbar_{n,j} w_{j-i},

with psi_0 = psi*_0 = 1/kappa_0: one product of all levels' coefficients
with the masked moment block each.  The singular kernel is never
quadratured, which keeps psi_n a certified polynomial.

eps_n and eps*_n have one construction, their exact series: orders 0..K
(K the moment window) at 0, and of z^-n eps_n, z^-n eps*_n in u = 1/z, from
one product per side of the Toeplitz matrix of F's series, which the moment
table gives (`MomentTable.caratheodory`), with the phi columns (`eps_taylor`
slices it).  A point's value is read off the band of its side's series that
does not vanish identically, so psi_n and F phi_n, which cancel inside the
circle, are never formed at a point:

    inside:  eps_n = z^n B(z),  eps*_n = z^(n+1) B*(z),
    outside: eps_n = u B(u),    eps*_n = B*(u),

with exact derivatives from polyder of the same bands, summed beside them.
Both series extend into the weight's annulus (the jump check in `lax` forces
a side there); unforced, a point within NEAR_CIRCLE of |z| = 1 is refused.
Every level comes at once, from one Horner pass per side over the
zero-padded bands (`numerics.polyval`, in blocks of 8 orders: a 49-order
band takes 13 array steps).  The same inputs give the same bytes.  A
point's values are the same alone as inside an array only for the shapes
the tests pin (the singular points of the flagship and m = 4 weights, and
the 0-d, 1-D and 2-D points of the per-level Horner test): an element's
rounding can depend on the array's shape, which picks numpy's
complex-multiply loop, and a sweep of shapes finds points whose bits
differ, as they do under numpy's own Horner.  The identity web
and the two-sided expansions use the level axis: each family is formed
once over all its levels, one row a level (`IdentityReport.add_rows`), the
level scalars read off the store as columns, with numpy arithmetic.  The
psi three-term recurrences are checked on the psi rows, with no point.

Level ceiling: none of its own.  Against a 50-digit solve from the same
moments the values are within 1e-13 relative at n = 8, 14, 20 and 22 on the
flagship weight, and on its factorised moments eps_n and eps*_n at n = 20
and 22 are within 3.2e-14 of the exact weight's at inside points where
psi_n and F phi_n cancel (the trapezoid's moments, accurate to about 5e-16
absolute, put eps*_22 1.3e-6 off there).  The orders that vanish carry the
round-off of psi_n's coefficients, which sets the Riemann-Hilbert ceiling
in `lax`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .bops import BopsSystem, _moment_block, _reversed
from .config import IDENTITY_TOL
from .errors import NearCircleError
from .numerics import polyder, polyval, times_z
from .report import IdentityReport, PerFamily, equation

# A point within NEAR_CIRCLE of |z| = 1 is refused unless a side is forced.
NEAR_CIRCLE = 1e-3
# The two-sided expansions' gate, times --tol; the identity web's is
# IDENTITY_TOL
EXPANSION_TOL = 1e-8


class AssocSystem:
    """Associated polynomials and function evaluators for every built level."""

    def __init__(self, sys: BopsSystem):
        self.sys = sys

    def psi(self, n: int) -> np.ndarray:
        self.sys.table.require(n + 1, f"psi_{n}")
        return self._stack[: n + 1, 2, n]

    def psistar(self, n: int) -> np.ndarray:
        self.sys.table.require(n + 1, f"psistar_{n}")
        return self._stack[: n + 1, 3, n]

    @cached_property
    def _stack(self) -> np.ndarray:
        """Ascending coefficients of phi_n, phi*_n, psi_n, psi*_n of every
        level n = 0..N, zero-padded to N+1: shape (N+1, 4, N+1), entry
        [k, j, n] the coefficient of z^k of polynomial j at level n.  psi and
        psi* reversed are one product each (see the module docstring)."""
        fam = self.sys.families
        block = _moment_block(self.sys)  # block[j, i] = w_{i-j}
        j, i = np.indices(block.shape)  # coefficient j, order i
        mask = (j > i) * 1 + (i >= 1) * (j >= i)  # an int: True + True is True
        psi = fam["phi"] @ (block * mask)
        psistar = fam["phibar"] @ (block.T * mask)
        psi[0, 0] = psistar[0, 0] = 1.0 / self.sys.kappas[0]
        stack = np.stack([fam["phi"], fam["phistar"], psi, psistar], axis=1).T
        stack[:, 3:] = _reversed(stack[:, 3:])
        return stack

    @cached_property
    def _series(self) -> np.ndarray:
        """Orders 0..K of eps_n, eps*_n at 0 (side 0) and of z^-n eps_n,
        z^-n eps*_n in u = 1/z (side 1) for every level: shape
        (2, K+1, 2, N+1), entry [side, k, star, n].  At infinity each
        polynomial is reversed (z^-n p(z) is p reversed in u for degree n) and
        F is its outside series."""
        window, size = self.sys.table.window, self.sys.nmax + 1
        k, j = np.indices((window + 1, size))
        sign = np.array([1.0, -1.0])[:, None]
        sides = []
        for side, stack in (("inside", self._stack), ("outside", _reversed(self._stack))):
            f = self.sys.table.caratheodory(window + 1, side)
            lower = np.where(k >= j, f[k - j], 0.0)
            series = sign * (lower @ stack[:, :2].reshape(size, -1)).reshape(-1, 2, size)
            series[:size] += stack[:, 2:]
            sides.append(series)
        return np.stack(sides)

    @cached_property
    def _bands(self) -> tuple[np.ndarray, np.ndarray]:
        """Each level's band that does not vanish identically, zero-padded,
        per side, shaped (K+1, 2, N+1) like a side of ``_series``: inside,
        orders n.. of eps_n and n+1.. of eps*_n in z; outside, orders n+1..
        of z^-n eps_n and n.. of z^-n eps*_n, moved down by n to the series
        of eps_n and eps*_n in u."""
        inside, outside = self._series
        k, n = np.indices((len(inside), inside.shape[-1]))
        top = len(inside) - 1
        inside = np.where(np.stack([k >= n, k > n], axis=1), inside, 0.0)
        shifted = np.take_along_axis(outside, np.minimum(k + n, top)[:, None], axis=0)
        keep = np.stack([(k >= 1) & (k + n <= top), k + n <= top], axis=1)
        return inside, np.where(keep, shifted, 0.0)

    @cached_property
    def _with_derivatives(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """The phi columns of ``_stack`` and each side's band, each beside its
        polyder zero-padded at the top to the same orders."""

        def beside(stack):
            padded = np.concatenate([polyder(stack), np.zeros_like(stack[:1])])[: len(stack)]
            return np.concatenate([stack, padded], axis=1)

        return beside(self._stack[:, :2]), (beside(self._bands[0]), beside(self._bands[1]))

    def _values(self, z, side: str | None, phis: np.ndarray, bands) -> tuple:
        """Every level's phi, phi*, eps, eps*, then phi', phi*', eps', eps*'
        if the stacks carry them (``_with_derivatives``), over the array z:
        one Horner pass over ``phis`` and one per side of ``bands`` that has
        points, d/dz = -u^2 d/du outside.  The passes run over the flattened
        points, always arrays: on numpy scalars (a 0-d point) a complex
        product rounds differently from numpy's array loop."""
        zs = np.asarray(z, dtype=complex)
        flat = zs.reshape(-1)
        inside = _inside(flat, side)
        eps = np.empty((bands[0].shape[1], self.sys.nmax + 1, flat.size), dtype=complex)
        if inside.any():
            eps[..., inside] = polyval(bands[0], flat[inside])
        if not inside.all():
            outer = flat[~inside]
            values = polyval(bands[1], 1.0 / outer)
            values[2:] = -values[2:] / outer**2
            eps[..., ~inside] = values
        phi = polyval(phis, flat)
        rows = (*phi[:2], *eps[:2], *phi[2:], *eps[2:])
        return tuple(row.reshape(row.shape[:1] + zs.shape) for row in rows)

    def evaluate(self, z, side: str | None = None):
        """(phi, phi*, eps, eps*) of every level n = 0..N over an array z of
        any shape (a scalar is a 0-d array), each of shape (N+1, *z.shape)
        with row n the level n: one Horner pass over the zero-padded phi
        columns and one per side over the bands.  A value at a point is the
        same alone as inside an array for the shapes the tests pin (see the
        module docstring)."""
        return self._values(z, side, self._stack[:, :2], self._bands)

    def evaluate_with_derivative(self, z, side: str | None = None):
        """`evaluate`'s (phi, phi*, eps, eps*) and their exact
        derivatives (phi', phi*', eps', eps*'), shaped alike, from one Horner
        pass over the phi columns and one per side over the bands, each
        beside its polyder."""
        values = self._values(z, side, *self._with_derivatives)
        return values[:4], values[4:]

    def eps_taylor(
        self, n, count: int, star: bool = False, at_infinity: bool = False
    ) -> np.ndarray:
        """Orders 0..count-1 of the expansion of eps_n (eps*_n with ``star``),
        exact up to the moment window: its Taylor series at 0, or with
        ``at_infinity`` the Taylor series of z^-n eps_n in u = 1/z, whose
        order k is the coefficient of z^(n-k).  With an array n, one row a
        level."""
        self.sys.table.require(count - 1, f"F series to order {count - 1}")
        return self._series[int(at_infinity), :count, int(star), n]


def _inside(zs: np.ndarray, side: str | None) -> np.ndarray:
    """Mask of the points read off the inside series: every point or none
    with a forced side, else those inside the circle; raises for the first
    point within the near-circle band."""
    if side is not None:
        if side not in ("inside", "outside"):
            raise ValueError("side must be 'inside' or 'outside'")
        return np.full(zs.shape, side == "inside")
    r = np.abs(zs)
    near = np.abs(r - 1.0) < NEAR_CIRCLE
    if near.any():
        raise NearCircleError(
            f"|z| = {float(r[near].flat[0])} is within {NEAR_CIRCLE} of "
            "the unit circle; force side='inside' or side='outside'"
        )
    return r < 1.0


# ---------------------------------------------------------------------------
# Identity web: recurrences, Casoratians
# ---------------------------------------------------------------------------

def verify_assoc_identities(
    asys: AssocSystem,
    ns: Sequence[int],
    points: Sequence[complex],
    tol_scale: float = 1.0,
) -> tuple[IdentityReport, tuple[np.ndarray, ...]]:
    """Residuals of the eps recurrences and all three Casoratian identities
    (in both the psi and eps forms) at ``points`` (taken off the unit
    circle), and of the psi three-term recurrences on the psi coefficients.
    Returns the report and the values it checked, ``asys.evaluate(points)``.

    Each family is checked over the levels of ``ns`` at once, one row a
    level (`IdentityReport.add_rows`): phi, phi*, eps and eps* of every level
    come from one `evaluate`, psi and psi* from one Horner pass over the
    stack's psi columns, and the level scalars are read off the store."""
    rep = IdentityReport("associated-function identity web")
    sys, tol = asys.sys, IDENTITY_TOL * tol_scale
    zs = np.asarray(points, dtype=complex)
    values = asys.evaluate(zs)
    phi, phistar, eps, epsstar = values
    psi, psistar = polyval(asys._stack[:, 2:], zs)

    ns = [int(n) for n in ns]
    if ns:
        sys.require(min(ns), max(ns) + 1)
    n0 = np.asarray(ns, dtype=int)
    n1 = n0 + 1
    k, p0, pb0 = (col[:, None] for col in (sys.kappas, sys.phi[:, 0], sys.phibar[:, 0]))
    recurrence = "satisfy a variant of the coupled recurrences"
    casoratian = "the Casoratians of the polynomial solutions"
    cas_a = 2.0 * p0[n1] / k[n0] * zs ** n0[:, None]
    cas_b = 2.0 * pb0[n1] / k[n0] * zs ** n1[:, None]
    cas_c = 2.0 * zs ** n0[:, None]
    a_eps = phi[n1] * eps[n0] - eps[n1] * phi[n0]
    a_psi = phi[n1] * psi[n0] - psi[n1] * phi[n0]
    b_eps = phistar[n1] * epsstar[n0] - epsstar[n1] * phistar[n0]
    b_psi = phistar[n1] * psistar[n0] - psistar[n1] * phistar[n0]
    c_eps = phi[n0] * epsstar[n0] + eps[n0] * phistar[n0]
    c_psi = phi[n0] * psistar[n0] + psi[n0] * phistar[n0]
    rep.add_rows([
        equation("eps_recurrence", recurrence, k[n0] * eps[n1],
                 k[n1] * zs * eps[n0] - p0[n1] * epsstar[n0]),
        equation("eps_recurrence_star", recurrence, k[n0] * epsstar[n1],
                 k[n1] * epsstar[n0] - pb0[n1] * zs * eps[n0]),
        ("casoratian_a_eps", casoratian, a_eps - cas_a, a_eps, cas_a, phi[n1] * eps[n0]),
        ("casoratian_a_psi", casoratian, a_psi - cas_a, a_psi, cas_a, phi[n1] * eps[n0]),
        ("casoratian_b_eps", casoratian, b_eps - cas_b, b_eps, cas_b, phistar[n1] * epsstar[n0]),
        ("casoratian_b_psi", casoratian, b_psi - cas_b, b_psi, cas_b, phistar[n1] * epsstar[n0]),
        ("casoratian_c_eps", casoratian, c_eps - cas_c, c_eps, cas_c, phi[n0] * epsstar[n0]),
        ("casoratian_c_psi", casoratian, c_psi - cas_c, c_psi, cas_c, phi[n0] * epsstar[n0]),
    ], tol, ns)

    # psi three-term recurrences need three consecutive levels
    ns = [n for n in ns if 1 <= n < sys.nmax]
    m = np.asarray(ns, dtype=int)
    c, cs = asys._stack[:, 2:].transpose(1, 2, 0)  # psi_n, psi*_n: a row a level
    zc, zcs = times_z(c), times_z(cs)
    three_term = "polynomials of the second kind satisfy the three-term recurrences"
    rep.add_rows([
        equation(
            "psi_three_term", three_term,
            k[m] * p0[m] * c[m + 1] + k[m - 1] * p0[m + 1] * zc[m - 1],
            k[m] * p0[m + 1] * c[m] + k[m + 1] * p0[m] * zc[m],
        ),
        equation(
            "psistar_three_term", three_term,
            k[m] * pb0[m] * cs[m + 1] + k[m - 1] * pb0[m + 1] * zcs[m - 1],
            k[m] * pb0[m + 1] * zcs[m] + k[m + 1] * pb0[m] * cs[m],
        ),
    ], tol, ns)
    return rep, values


# ---------------------------------------------------------------------------
# Two-sided expansions (exact series coefficients vs closed forms)
# ---------------------------------------------------------------------------

def verify_expansions(asys: AssocSystem, ns: Sequence[int], tol_scale: float = 1.0) -> IdentityReport:
    """Leading Laurent coefficients of (kappa_n/2) eps_n and
    (kappa_n/2) eps*_n at 0 and at infinity for each level n of ``ns``,
    read off their exact truncated series (`AssocSystem.eps_taylor`),
    against their closed forms in the kappa / l / m / phi(0) data (levels
    n+1, n+2 must be built).  The level is an array axis: one series read
    per (star, side) over all the levels, each expansion one row family,
    its residual |got - want| / max(1, |want|) against EXPANSION_TOL, each
    its own where labels; entries level by level."""
    rep = IdentityReport("associated-function expansions")
    sys = asys.sys
    levels = np.asarray(ns, dtype=int)
    if not levels.size:
        return rep
    sys.require(int(levels.min()), int(levels.max()) + 2)
    half = sys.kappas[levels, None] / 2.0
    # orders 0..n+3 of each level, zero past them: at 0 order k is z^k, at
    # infinity order j is z^(n-j)
    inner, outer, inner_s, outer_s = (
        half * asys.eps_taylor(levels, levels.max() + 4, star, at_infinity)
        for star in (False, True) for at_infinity in (False, True)
    )
    rows = np.arange(len(levels))

    def order(series: np.ndarray, shift: int) -> np.ndarray:
        return series[rows, levels + shift]

    k, (r, rbar), (l, lbar, m) = sys.kappas, sys.reflections, sys.subleading
    p, q = levels + 1, levels + 2
    scale = k[levels] ** 2 / k[p] ** 2
    depth = np.arange(inner.shape[1]) - levels[:, None]  # order k at 0 less n

    def inside(shift: int) -> np.ndarray:
        return np.array([f"z^{n + shift} inside" for n in levels.tolist()], dtype=object)

    anchor = "have the following expansions"
    expansions = [  # (name, got, want or None for a vanishing order, where)
        ("eps_inside_order_0", order(inner, 0), 1.0, inside(0)),
        ("eps_inside_order_1", order(inner, 1), -lbar[p] / k[p], inside(1)),
        ("eps_inside_low_orders_vanish", np.where(depth < 0, inner, 0.0), None, None),
        ("eps_outside_order_-1", order(outer, 1), r[p], "z^-1 outside"),
        ("eps_outside_order_-2", order(outer, 2), scale * r[q] - r[p] * l[p] / k[p], "z^-2 outside"),
        ("eps_outside_order_0_vanishes", order(outer, 0), None, None),
        ("epsstar_inside_order_1", order(inner_s, 1), rbar[p], inside(1)),
        ("epsstar_inside_order_2", order(inner_s, 2), scale * rbar[q] - rbar[p] * lbar[p] / k[p],
         inside(2)),
        ("epsstar_inside_low_orders_vanish", np.where(depth <= 0, inner_s, 0.0), None, None),
        ("epsstar_outside_order_0", order(outer_s, 0), 1.0, "z^0 outside"),
        ("epsstar_outside_order_-1", order(outer_s, 1), -l[p] / k[p], "z^-1 outside"),
        ("epsstar_outside_order_-2", order(outer_s, 2), l[q] * l[p] / (k[q] * k[p]) - m[q] / k[q],
         "z^-2 outside"),
    ]
    rep.add_rows(
        [(name, anchor, got) if want is None else (name, anchor, got - want, want)
         for name, got, want, _ in expansions],
        EXPANSION_TOL * tol_scale, levels, PerFamily(where for *_, where in expansions),
    )
    return rep
