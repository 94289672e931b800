"""Bi-orthogonal polynomial systems {phi_n, phi*_n} on the unit circle.

Construction has one route, the per-level Gram solve: solve the moment
system sum_j x_j w_{m-j} = delta_{m,n} (and its transpose for the barred
family), then kappa_n^2 = x_n and c_{n,j} = x_j / kappa_n, with kappa_n the
principal square root of I0_n / I0_{n+1} (Re > 0, tie towards Im > 0).

Every build also runs the bi-orthogonal Szego recursion (Baxter) on the
monic pair A_n = phi_n / kappa_n, B_n = phibar_n / kappa_n, in O(N^2):

    r_{n+1} = -(A_n . w_{-1-j}) / e_n,    rbar_{n+1} = -(B_n . w_{1+j}) / e_n,
    A_{n+1} = z A_n + r_{n+1} B*_n,       B_{n+1} = z B_n + rbar_{n+1} A*_n,
    e_{n+1} = e_n (1 - r_{n+1} rbar_{n+1}),   e_0 = w_0 = I0_1,

so that e_n = I0_{n+1} / I0_n = 1 / kappa_n^2.  The recursion decides
existence without a scale (1 - r_n rbar_n = I0_{n+1} I0_{n-1} / I0_n^2) and
is the coefficientwise oracle of the Gram levels.  It is not the production
route: levels built from it fail the orthonormality gate on the flagship
weight from N = 20 (1.8e-9 against 3.7e-10 from the Gram solves).

One coefficient store per system: ``kappas`` and the zero-padded (N+1, N+1)
matrices ``phi`` and ``phibar``, row n the ascending coefficients of level
n.  The Gram solves fill its rows, the recursion fills rows of its own for
the cross-check, and every reader reads the store, a level's scalars as
columns and its coefficients as a row: the family matrices (phi*, phibar*
its rows reversed in their degree, formed once), r_n and rbar_n (the first
column over kappa), l_n, lbar_n and m_n (its sub-diagonals), the identity
web, system.json, and ``prefix(n)``, a slice.  The same inputs give the
same bytes: a run repeated, and ``prefix(n)`` against a build to n, bit for
bit.  The identity web checks the recurrences on the store's rows, with
no point; only the Christoffel-Darboux forms read points.

Level ceiling: on the flagship weight the Gram levels pass the identity web
through N = 21 (19 on the complex m = 4 and the inside-complex weights).
Above that, orthonormality and monomial orthogonality fail the 1e-9 gate
because the double-precision coefficients grow (about 2.5e10 at N = 32),
whatever route computes them from moments accurate to their own size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import IDENTITY_TOL
from .errors import ExistenceError, WindowError
from .moments import MomentTable, toeplitz_det
from .numerics import principal_sqrt, polyval, times_z
from .report import IdentityReport, equation

# |1 - r_n rbar_n| = |I0_{n+1} I0_{n-1} / I0_n^2| below this is zero: the
# system does not exist at level n + 1.  The ratio has no scale.
EXISTENCE_FLOOR = 1e-13
# The identity web's gate on cross_check_deviation, times --tol
CROSS_CHECK_TOL = 1e-8


@dataclass(eq=False)
class BopsSystem:
    """Levels 0..N as one store (see the module docstring): kappa_n, and
    c_{n,j}, cbar_{n,j} at [n, j] of ``phi``, ``phibar`` (zero past j = n)."""

    table: MomentTable
    kappas: np.ndarray
    phi: np.ndarray
    phibar: np.ndarray
    # levels n whose |1 - r_{n-1} rbar_{n-1}| is within 1e6 of the floor
    existence_log: list[int]
    # coefficientwise gap between the Gram levels and the recursion, by level
    deviations: list[float]

    @property
    def nmax(self) -> int:
        return len(self.kappas) - 1

    @property
    def cross_check_deviation(self) -> float:
        return float(np.max(self.deviations, initial=0.0))

    @cached_property
    def families(self) -> dict[str, np.ndarray]:
        """Each family's zero-padded coefficient matrix, row n its level n:
        phi and phibar are the store, phi*_n(z) = z^n phibar_n(1/z) and
        phibar*_n(z) = z^n phi_n(1/z) their rows reversed, formed once."""
        stack = np.stack([self.phibar.T, self.phi.T], axis=1)  # (orders, family, levels)
        star, barstar = _reversed(stack).transpose(1, 2, 0).copy()
        return {"phi": self.phi, "phibar": self.phibar, "phistar": star, "phibarstar": barstar}

    @cached_property
    def reflections(self) -> tuple[np.ndarray, np.ndarray]:
        """r_n = phi_n(0) / kappa_n and rbar_n = phibar_n(0) / kappa_n of every
        level, read off the store's first column."""
        return self.phi[:, 0] / self.kappas, self.phibar[:, 0] / self.kappas

    @cached_property
    def subleading(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """l_n = c_{n,n-1} and lbar_n = cbar_{n,n-1} (0 at n = 0) and
        m_n = c_{n,n-2} (0 below n = 2) of every level, the store's
        sub-diagonals."""
        n = np.arange(self.nmax + 1)
        return tuple(np.where(n >= k, c[n, np.maximum(n - k, 0)], 0j)
                     for c, k in ((self.phi, 1), (self.phibar, 1), (self.phi, 2)))

    def require(self, *levels: int) -> None:
        """IndexError for the first of ``levels`` that is not built."""
        for n in levels:
            if not 0 <= n <= self.nmax:
                raise IndexError(f"level {n} not built (nmax = {self.nmax})")

    def prefix(self, n: int) -> "BopsSystem":
        """Levels 0..n, bit for bit build_system(table, n): each Gram level is
        its own solve, and the recursion's levels 0..n are a prefix."""
        self.require(n)
        log = [k for k in self.existence_log if k <= n + 1]
        size = slice(n + 1)
        return BopsSystem(self.table, self.kappas[size], self.phi[size, size],
                          self.phibar[size, size], log, self.deviations[size])


def _reversed(stack: np.ndarray) -> np.ndarray:
    """Each level's polynomials reversed in its degree n, z^n p(1/z): order
    k of level n takes order n - k, for a stack (orders, columns, levels)."""
    k, n = np.indices((len(stack), stack.shape[-1]))
    flipped = np.take_along_axis(stack, np.abs(n - k)[:, None], axis=0)
    return np.where((k <= n)[:, None], flipped, 0.0)


def _gram_levels(tbl: MomentTable, nmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """kappa and the zero-padded phi, phibar rows of levels 0..nmax: level n
    solves the leading (n+1)-block of one Toeplitz matrix and its transpose."""
    j = np.arange(nmax + 1)
    toeplitz = tbl.values[(j[:, None] - j[None, :]) + tbl.window]  # w_{m-j}
    phi, phibar = np.zeros((2, nmax + 1, nmax + 1), dtype=complex)
    unit, kappas = np.eye(nmax + 1, dtype=complex), []  # unit[n, : n + 1] = e_n
    for n in range(nmax + 1):
        mat, rhs = toeplitz[: n + 1, : n + 1], unit[n, : n + 1]
        x, y = np.linalg.solve(mat, rhs), np.linalg.solve(mat.T, rhs)
        kappas.append(kappa := principal_sqrt(x[n]))
        phi[n, : n + 1], phibar[n, : n + 1] = x / kappa, y / kappa
    return np.array(kappas, dtype=complex), phi, phibar


def _recursion_levels(tbl: MomentTable, nmax: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The zero-padded phi, phibar rows of levels 0..nmax by the monic
    bi-orthogonal Szego recursion (see the module docstring), each monic row
    filled from the one before and scaled by its kappa at the end, and the
    existence log; raises ExistenceError(n + 1) when |1 - r_n rbar_n| <
    EXISTENCE_FLOOR, and ExistenceError(1) when w_0 = 0."""
    w, k = tbl.values, tbl.window
    e = w[k]
    if e == 0:
        raise ExistenceError(1, 0.0, EXISTENCE_FLOOR)
    down = w[::-1].copy()  # down[k + j] = w_{-j}: w_{-1-j}, j = 0..n-1, is one slice
    a, b = np.zeros((2, nmax + 1, nmax + 1), dtype=complex)  # monic A_n, B_n
    a[:1, :1] = b[:1, :1] = 1.0
    es, log = [e], []
    for n in range(1, nmax + 1):
        r = -(a[n - 1, :n] @ down[k + 1 : k + 1 + n]) / e
        rbar = -(b[n - 1, :n] @ w[k + 1 : k + 1 + n]) / e
        ratio = 1.0 - r * rbar  # e_n / e_{n-1}
        if abs(ratio) < EXISTENCE_FLOOR:
            raise ExistenceError(n + 1, abs(ratio), EXISTENCE_FLOOR)
        if abs(ratio) < 1e6 * EXISTENCE_FLOOR:
            log.append(n + 1)
        # A_n = z A_{n-1} + r B*_{n-1}, B_n = z B_{n-1} + rbar A*_{n-1}
        a[n, 1 : n + 1], b[n, 1 : n + 1] = a[n - 1, :n], b[n - 1, :n]
        a[n, :n] += r * b[n - 1, n - 1 :: -1]
        b[n, :n] += rbar * a[n - 1, n - 1 :: -1]
        e = e * ratio
        es.append(e)
    kappas = np.array([principal_sqrt(1.0 / e) for e in es], dtype=complex)[:, None]
    return kappas * a, kappas * b, log


def build_system(tbl: MomentTable, nmax: int) -> BopsSystem:
    """Build levels n = 0..nmax by the Gram solves; requires window
    K >= nmax + 1.  The reflection recursion runs first: ExistenceError when
    I0_n vanishes for some n <= nmax + 1 (the system genuinely fails to exist
    at that level, an expected runtime signal under deformation, not a bug).
    The gap between the two routes, by level, is kept in ``deviations``;
    the identity web gates it (CROSS_CHECK_TOL)."""
    if tbl.window < nmax + 1:
        raise WindowError(nmax + 1, tbl.window, f"build_system(N={nmax})")
    *oracle, log = _recursion_levels(tbl, nmax)
    kappas, phi, phibar = _gram_levels(tbl, nmax)
    # (level, family, coefficient) of both routes, zero-padded
    gram, rec = np.stack([phi, phibar], axis=1), np.stack(oracle, axis=1)
    scale = np.fmax(1.0, np.abs(gram).max(axis=(1, 2)))
    deviations = (np.abs(gram - rec).max(axis=(1, 2)) / scale).tolist()
    return BopsSystem(tbl, kappas, phi, phibar, log, deviations)


# ---------------------------------------------------------------------------
# Orthogonality checks (exact moment sums)
# ---------------------------------------------------------------------------

def _moment_block(sys: BopsSystem) -> np.ndarray:
    """W[k, j] = w_{j-k} for 0 <= j, k <= N: (C @ W)[n, j] = <p_n, zetabar^j>
    for the polynomials p_n whose ascending coefficients are the rows of C."""
    nmax = sys.nmax
    sys.table.require(nmax, "orthonormality")
    j = np.arange(nmax + 1)
    return sys.table.values[(j[None, :] - j[:, None]) + sys.table.window]


def orthonormality_matrix(sys: BopsSystem) -> np.ndarray:
    """G[m, n] = <phi_m, phibar_n> computed as an exact moment convolution."""
    return sys.phi @ _moment_block(sys) @ sys.phibar.T


def _monomial_residuals(sys: BopsSystem) -> np.ndarray:
    """Row n: max |<phi_n, zetabar^j>| over 0 <= j < n and
    max |<phi*_n, zetabar^j>| over 1 <= j <= n (0 where the range is empty)."""
    block = _moment_block(sys)
    n, j = np.indices(block.shape)
    phi = np.where(j < n, np.abs(sys.phi @ block), 0.0)
    star = np.where((j >= 1) & (j <= n), np.abs(sys.families["phistar"] @ block), 0.0)
    return np.stack([phi.max(axis=1), star.max(axis=1)], axis=1)


# ---------------------------------------------------------------------------
# Scalar identity web
# ---------------------------------------------------------------------------

def verify_scalar_identities(sys: BopsSystem, points, tol_scale: float = 1.0) -> IdentityReport:
    """Residuals of the coupled recurrences, both three-term recurrences,
    both Christoffel-Darboux forms, and the kappa / l / m coefficient
    recursions across all built levels, gated at IDENTITY_TOL, and the
    largest coefficientwise gap between the Gram levels and the recursion
    (``cross_check_deviation``), gated at CROSS_CHECK_TOL.

    Each family is checked over all levels at once: lhs and rhs rows stacked
    one level a row, one `IdentityReport.add_rows` family each, with the
    level scalars (kappa_n, phi_n(0), l_n, ...) read off the store as arrays
    indexed by level.  The recurrences, linear in the store's rows, are
    checked on the coefficients, every order weighed alike.  The
    Christoffel-Darboux forms run over every pair of an inside and an
    outside point of ``points`` with |1 - z zetabar| > 1e-6."""
    rep = IdentityReport("scalar identity web")
    nmax, tol = sys.nmax, IDENTITY_TOL * tol_scale
    phi, star = sys.phi, sys.families["phistar"]
    zphi, zstar = times_z(phi), times_z(star)  # exact on every level but the top
    # the level scalars by level: kappa_n, phi_n(0), phibar_n(0), r_n, rbar_n,
    # l_n = c_{n,n-1} (0 at n = 0) and m_n = c_{n,n-2} (0 below 2)
    k, p0, pb0 = sys.kappas, sys.phi[:, 0], sys.phibar[:, 0]
    r, rbar = sys.reflections
    l, _, m = sys.subleading

    kap, low = k[:, None], range(nmax)
    coupled = "coupled linear recurrence relations"
    rep.add_rows([
        equation("coupled_recurrence", coupled, kap[:-1] * phi[1:],
                 kap[1:] * zphi[:-1] + phi[1:, :1] * star[:-1]),
        equation("coupled_recurrence_star", coupled, kap[:-1] * star[1:],
                 kap[1:] * star[:-1] + sys.phibar[1:, :1] * zphi[:-1]),
    ], tol, low)

    # columns kappa_n c_n, kappa_{n-1} c_{n+1}, kappa_n c_{n+1}, kappa_{n+1} c_n
    # for c = phi(0) and c = phibar(0)
    mid, shifts = np.arange(1, nmax), ((0, 0), (-1, 1), (0, 1), (1, 0))
    t, tb = ([(k[mid + a] * c[mid + b])[:, None] for a, b in shifts] for c in (p0, pb0))
    three = "three-term recurrence relations"
    rep.add_rows([
        equation("three_term_recurrence", three, t[0] * phi[2:] + t[1] * zphi[:-2],
                 t[2] * phi[1:-1] + t[3] * zphi[1:-1]),
        equation("three_term_recurrence_star", three, tb[0] * star[2:] + tb[1] * zstar[:-2],
                 tb[2] * zstar[1:-1] + tb[3] * star[1:-1]),
    ], tol, range(1, nmax))

    # Christoffel-Darboux: both closed forms against the direct sum, which
    # cumsum accumulates level by level in the order of the displayed sum
    points = np.asarray(points, dtype=complex)
    zs, zetabars = points[np.abs(points) < 1.0], points[np.abs(points) > 1.0]
    p, pstar = np.split(polyval(np.concatenate((phi, star)).T, zs), 2)
    q, qstar = np.split(polyval(np.concatenate((sys.phibar, sys.families["phibarstar"])).T, zetabars), 2)
    zz = zs[:, None] * zetabars
    inner, outer = np.nonzero(np.abs(1.0 - zz) > 1e-6)
    p, pstar, q, qstar = p[:, inner], pstar[:, inner], q[:, outer], qstar[:, outer]
    zz = zz[inner, outer]
    sums = np.cumsum(p * q, axis=0)[:-1]
    cd = "analogue of the Christoffel-Darboux summation formula"
    rep.add_rows([
        equation("christoffel_darboux_n_form", cd,
                 (pstar[:-1] * qstar[:-1] - zz * p[:-1] * q[:-1]) / (1.0 - zz), sums),
        equation("christoffel_darboux_shifted_form", cd,
                 (pstar[1:] * qstar[1:] - p[1:] * q[1:]) / (1.0 - zz), sums),
    ], tol, low)

    n, top = np.arange(1, nmax + 1), range(1, nmax + 1)
    lead = "relate the leading coefficients back to the reflection coefficients"
    rep.add_rows([
        equation("kappa_identity", lead, k[n] ** 2, k[n - 1] ** 2 + p0[n] * pb0[n]),
        equation("l_recursion", lead, l[n] / k[n], l[n - 1] / k[n - 1] + r[n] * rbar[n - 1]),
    ], tol, top)
    up = n[1:]
    rep.add_rows([
        equation("m_recursion", lead, m[up] / k[up],
                 m[up - 1] / k[up - 1]
                 + r[up] * (rbar[up - 2] + rbar[up - 1] * l[up - 2] / k[up - 2])),
    ], tol, top[1:])

    # the LU determinants are the oracle here; construction never uses them
    i0 = np.array([toeplitz_det(sys.table, 0, j) for j in range(nmax + 2)])
    rep.add_rows([
        equation("toeplitz_ratio_recursion", "with the convention I0_0 = 1 the sequence satisfies",
                 i0[n + 1] * i0[n - 1] / i0[n] ** 2, 1.0 - r[n] * rbar[n]),
    ], tol, top)

    off = np.abs(orthonormality_matrix(sys) - np.eye(nmax + 1)).max()
    rep.add("orthonormality", "this system is taken to be orthonormal", float(off), tol)
    rep.add_rows([("monomial_orthogonality", "can be defined up to an overall factor",
                   _monomial_residuals(sys))], tol, range(nmax + 1))
    rep.add("cross_check_deviation", coupled, sys.cross_check_deviation, CROSS_CHECK_TOL * tol_scale)
    return rep
