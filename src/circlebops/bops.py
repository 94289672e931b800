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
weight from N = 19 (1.9e-9 against 1.9e-10 from the Gram solves).

One coefficient store per system: ``kappas`` and the zero-padded (N+1, N+1)
matrices ``phi`` and ``phibar``, row n the ascending coefficients of level
n.  The Gram solves fill its rows, the recursion fills rows of its own for
the cross-check, and every reader reads the store: the level records (views
of its rows), the family matrices (phi*, phibar* its rows reversed in their
degree, formed once), r_n and rbar_n, the identity web, system.json, and
``prefix(n)``, a slice that is bit for bit a build to n.

Level ceiling: on the flagship weight the Gram levels pass the identity web
through N = 21.  Above that, orthonormality and monomial orthogonality fail
the 1e-9 gate because the double-precision coefficients grow (about 2.5e10
at N = 32), whatever route computes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Sequence

import numpy as np

from .config import IDENTITY_TOL
from .errors import ConsistencyError, ExistenceError, WindowError
from .moments import MomentTable, toeplitz_det
from .numerics import column, principal_sqrt, polyval
from .report import IdentityReport, equation

# |1 - r_n rbar_n| = |I0_{n+1} I0_{n-1} / I0_n^2| below this is zero: the
# system does not exist at level n + 1.  The ratio has no scale.
EXISTENCE_FLOOR = 1e-13


@dataclass(frozen=True)
class BopsLevel:
    """Degree-n record: kappa_n, coefficients of phi_n and of the reversed
    reciprocal polynomial (phi*_n(z) = sum_j cbar[j] z^{n-j})."""

    n: int
    kappa: complex
    c: np.ndarray  # ascending coefficients of phi_n, c[j] = c_{n,j}
    cbar: np.ndarray  # cbar[j] = cbar_{n,j}; phi*_n has ascending coeffs cbar[::-1]

    @property
    def phi0(self) -> complex:
        return complex(self.c[0])

    @property
    def phibar0(self) -> complex:
        return complex(self.cbar[0])

    @property
    def r(self) -> complex:
        return complex(self.phi0 / self.kappa)

    @property
    def rbar(self) -> complex:
        return complex(self.phibar0 / self.kappa)

    @property
    def l(self) -> complex:
        """Sub-leading coefficient l_n (0 at n = 0 where the symbol is empty)."""
        return complex(self.c[self.n - 1]) if self.n >= 1 else 0.0 + 0j

    @property
    def lbar(self) -> complex:
        return complex(self.cbar[self.n - 1]) if self.n >= 1 else 0.0 + 0j

    @property
    def m2(self) -> complex | None:
        """Second sub-leading coefficient m_n; undefined below n = 2."""
        return complex(self.c[self.n - 2]) if self.n >= 2 else None


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
    def levels(self) -> list[BopsLevel]:
        """One record a level, its coefficients views of the store's rows."""
        return [BopsLevel(n, kappa, self.phi[n, : n + 1], self.phibar[n, : n + 1])
                for n, kappa in enumerate(self.kappas.tolist())]

    @cached_property
    def families(self) -> dict[str, np.ndarray]:
        """Each family's zero-padded coefficient matrix, row n its level n:
        phi and phibar are the store, phi*_n(z) = z^n phibar_n(1/z) and
        phibar*_n(z) = z^n phi_n(1/z) their rows reversed, formed once."""
        stack = np.stack([self.phibar.T, self.phi.T], axis=1)  # (orders, family, levels)
        star, barstar = _reversed(stack).transpose(1, 2, 0).copy()
        return {"phi": self.phi, "phibar": self.phibar, "phistar": star, "phibarstar": barstar}

    @cached_property
    def reflections(self) -> tuple[list[complex], list[complex]]:
        """r_n = phi_n(0) / kappa_n and rbar_n = phibar_n(0) / kappa_n of every
        level, in Python complex arithmetic: BopsLevel.r's bits."""
        k = self.kappas.tolist()
        return tuple([c / kappa for c, kappa in zip(col.tolist(), k)]
                     for col in (self.phi[:, 0], self.phibar[:, 0]))
    def prefix(self, n: int) -> "BopsSystem":
        """Levels 0..n, bit for bit build_system(table, n): each Gram level is
        its own solve, and the recursion's levels 0..n are a prefix."""
        self.level(n)
        log = [k for k in self.existence_log if k <= n + 1]
        size = slice(n + 1)
        return BopsSystem(self.table, self.kappas[size], self.phi[size, size],
                          self.phibar[size, size], log, self.deviations[size])

    def level(self, n: int) -> BopsLevel:
        if n < 0 or n > self.nmax:
            raise IndexError(f"level {n} not built (nmax = {self.nmax})")
        return self.levels[n]

    def kappa(self, n: int) -> complex:
        return self.level(n).kappa


Family = Literal["phi", "phistar", "phibar", "phibarstar"]


def _reversed(stack: np.ndarray) -> np.ndarray:
    """Each level's polynomials reversed in its degree n, z^n p(1/z): order
    k of level n takes order n - k, for a stack (orders, columns, levels)."""
    k, n = np.indices((len(stack), stack.shape[-1]))
    flipped = np.take_along_axis(stack, np.abs(n - k)[:, None], axis=0)
    return np.where((k <= n)[:, None], flipped, 0.0)


def eval_poly(sys: BopsSystem, n: int, z, which: Family = "phi"):
    """Horner evaluation of phi_n, phi*_n, phibar_n or the reversed-bar
    polynomial phibar*_n(z) = z^n phi_n(1/z)."""
    sys.level(n)  # IndexError for a level that is not built
    return polyval(sys.families[which][n, : n + 1], z)


def eval_levels(sys: BopsSystem, z, which: Family = "phi") -> np.ndarray:
    """Every level n = 0..N of one family at every point of z, shape
    (N+1, *z.shape), in one Horner pass over the family's zero-padded
    coefficient matrix.  Leading zeros leave Horner's steps unchanged: row n
    is eval_poly(sys, n, z, which)."""
    return polyval(sys.families[which].T, z)


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
    at that level, an expected runtime signal under deformation, not a bug),
    ConsistencyError when its levels leave the Gram levels by more than 1e-8
    (relative to the largest coefficient)."""
    if tbl.window < nmax + 1:
        raise WindowError(nmax + 1, tbl.window, f"build_system(N={nmax})")
    *oracle, log = _recursion_levels(tbl, nmax)
    kappas, phi, phibar = _gram_levels(tbl, nmax)
    # (level, family, coefficient) of both routes, zero-padded
    gram, rec = np.stack([phi, phibar], axis=1), np.stack(oracle, axis=1)
    scale = np.fmax(1.0, np.abs(gram).max(axis=(1, 2)))
    deviations = (np.abs(gram - rec).max(axis=(1, 2)) / scale).tolist()
    system = BopsSystem(tbl, kappas, phi, phibar, log, deviations)
    if (deviation := system.cross_check_deviation) > 1e-8:
        raise ConsistencyError("Gram levels and reflection recursion disagree", deviation, 1e-8)
    return system


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

def verify_scalar_identities(
    sys: BopsSystem,
    samples: Sequence[tuple[complex, complex]],
    tol: float = IDENTITY_TOL,
) -> IdentityReport:
    """Residuals of the coupled recurrences, both three-term recurrences,
    both Christoffel-Darboux forms, and the kappa / l / m coefficient
    recursions across all built levels.

    Each family is checked over all levels at once: lhs and rhs rows stacked
    one level a row, one `IdentityReport.add_rows` family each.  A level's
    scalar products (kappa_n phi_n(0), ...) are formed in Python complex
    arithmetic, whose rounding differs from numpy's complex multiply, so
    every residual is bit for bit that of the level written out alone."""
    rep = IdentityReport("scalar identity web")
    nmax = sys.nmax
    zs = np.array([z for z, _ in samples], dtype=complex)
    zetabars = np.array([zb for _, zb in samples], dtype=complex)
    fam = sys.families
    phi, star = np.split(polyval(np.concatenate((sys.phi, fam["phistar"])).T, zs), 2)
    # the level scalars as Python complex lists: kappa_n, phi_n(0), phibar_n(0),
    # r_n, rbar_n, l_n = c_{n,n-1} (0 at n = 0) and m_n = c_{n,n-2} (0 below 2)
    k, p0, pb0 = (col.tolist() for col in (sys.kappas, sys.phi[:, 0], sys.phibar[:, 0]))
    r, rbar = sys.reflections
    l = [0j] + np.diagonal(sys.phi, -1).tolist()
    m = [0.0, 0.0] + [c or 0.0 for c in np.diagonal(sys.phi, -2).tolist()]

    kap, low = sys.kappas[:, None], range(nmax)
    coupled = "coupled linear recurrence relations"
    rep.add_rows([
        equation("coupled_recurrence", coupled, kap[:-1] * phi[1:],
                 kap[1:] * zs * phi[:-1] + sys.phi[1:, :1] * star[:-1]),
        equation("coupled_recurrence_star", coupled, kap[:-1] * star[1:],
                 kap[1:] * star[:-1] + sys.phibar[1:, :1] * zs * phi[:-1]),
    ], tol, low)

    # columns kappa_n c_n, kappa_{n-1} c_{n+1}, kappa_n c_{n+1}, kappa_{n+1} c_n
    # for c = phi(0) and c = phibar(0)
    mid, shifts = range(1, nmax), ((0, 0), (-1, 1), (0, 1), (1, 0))
    t, tb = ([column(k[n + a] * c[n + b] for n in mid) for a, b in shifts] for c in (p0, pb0))
    three = "three-term recurrence relations"
    rep.add_rows([
        equation("three_term_recurrence", three, t[0] * phi[2:] + t[1] * zs * phi[:-2],
                 (t[2] + t[3] * zs) * phi[1:-1]),
        equation("three_term_recurrence_star", three, tb[0] * star[2:] + tb[1] * zs * star[:-2],
                 (tb[2] * zs + tb[3]) * star[1:-1]),
    ], tol, mid)

    # Christoffel-Darboux: both closed forms against the direct sum, which
    # cumsum accumulates level by level in the order of the displayed sum
    mask = np.abs(1.0 - zs * zetabars) > 1e-6
    zcd, zbcd = zs[mask], zetabars[mask]
    p, pstar = phi[:, mask], star[:, mask]
    q, qstar = np.split(polyval(np.concatenate((sys.phibar, fam["phibarstar"])).T, zbcd), 2)
    sums = np.cumsum(p * q, axis=0)[:-1]
    denom = 1.0 - zcd * zbcd
    cd = "analogue of the Christoffel-Darboux summation formula"
    rep.add_rows([
        equation("christoffel_darboux_n_form", cd,
                 (pstar[:-1] * qstar[:-1] - zcd * zbcd * p[:-1] * q[:-1]) / denom, sums),
        equation("christoffel_darboux_shifted_form", cd,
                 (pstar[1:] * qstar[1:] - p[1:] * q[1:]) / denom, sums),
    ], tol, low)

    top = range(1, nmax + 1)
    lead = "relate the leading coefficients back to the reflection coefficients"
    rep.add_rows([
        equation("kappa_identity", lead, [k[n] ** 2 for n in top],
                 [k[n - 1] ** 2 + p0[n] * pb0[n] for n in top]),
        equation("l_recursion", lead, [l[n] / k[n] for n in top],
                 [l[n - 1] / k[n - 1] + r[n] * rbar[n - 1] for n in top]),
    ], tol, top)
    up = range(2, nmax + 1)
    rep.add_rows([
        equation("m_recursion", lead, [m[n] / k[n] for n in up],
                 [m[n - 1] / k[n - 1] + r[n] * (rbar[n - 2] + rbar[n - 1] * l[n - 2] / k[n - 2])
                  for n in up]),
    ], tol, up)

    # the LU determinants are the oracle here; construction never uses them
    i0 = np.array([toeplitz_det(sys.table, 0, n) for n in range(nmax + 2)])
    rep.add_rows([
        equation("toeplitz_ratio_recursion", "with the convention I0_0 = 1 the sequence satisfies",
                 [i0[n + 1] * i0[n - 1] / i0[n] ** 2 for n in top],
                 [1.0 - r[n] * rbar[n] for n in top]),
    ], tol, top)

    off = np.abs(orthonormality_matrix(sys) - np.eye(nmax + 1)).max()
    rep.add("orthonormality", "this system is taken to be orthonormal", float(off), tol)
    rep.add_rows([("monomial_orthogonality", "can be defined up to an overall factor",
                   _monomial_residuals(sys))], tol, range(nmax + 1))
    return rep
