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

Level ceiling: on the flagship weight the Gram levels pass the identity web
through N = 21.  Above that, orthonormality and monomial orthogonality fail
the 1e-9 gate because the double-precision coefficients grow (about 2.5e10
at N = 32), whatever route computes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import ConsistencyError, ExistenceError, WindowError
from .moments import MomentTable, toeplitz_det
from .numerics import principal_sqrt, polyval, rel_residuals
from .report import IdentityReport

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

    @property
    def m2bar(self) -> complex | None:
        return complex(self.cbar[self.n - 2]) if self.n >= 2 else None


@dataclass
class BopsSystem:
    table: MomentTable
    levels: list[BopsLevel]
    # levels n whose |1 - r_{n-1} rbar_{n-1}| is within 1e6 of the floor
    existence_log: list[int] = field(default_factory=list)
    # coefficientwise gap between the Gram levels and the recursion
    cross_check_deviation: float = 0.0

    @property
    def nmax(self) -> int:
        return len(self.levels) - 1

    def level(self, n: int) -> BopsLevel:
        if n < 0 or n > self.nmax:
            raise IndexError(f"level {n} not built (nmax = {self.nmax})")
        return self.levels[n]

    def kappa(self, n: int) -> complex:
        return self.level(n).kappa

    def phi0(self, n: int) -> complex:
        return self.level(n).phi0

    def phibar0(self, n: int) -> complex:
        return self.level(n).phibar0


Family = Literal["phi", "phistar", "phibar", "phibarstar"]

# ascending coefficients of each family at one level; phibar*_n(z) = z^n phi_n(1/z)
_FAMILY = {
    "phi": lambda lev: lev.c,
    "phibar": lambda lev: lev.cbar,
    "phistar": lambda lev: lev.cbar[::-1],
    "phibarstar": lambda lev: lev.c[::-1],
}


def _coeff_matrix(sys: BopsSystem, which: Family) -> np.ndarray:
    """Row n holds the ascending coefficients of level n, zero-padded to N+1."""
    mat = np.zeros((sys.nmax + 1, sys.nmax + 1), dtype=complex)
    for n, lev in enumerate(sys.levels):
        mat[n, : n + 1] = _FAMILY[which](lev)
    return mat


def eval_poly(sys: BopsSystem, n: int, z, which: Family = "phi"):
    """Horner evaluation of phi_n, phi*_n, phibar_n or the reversed-bar
    polynomial phibar*_n(z) = z^n phi_n(1/z)."""
    return polyval(_FAMILY[which](sys.level(n)), z)


def eval_levels(sys: BopsSystem, z, which: Family = "phi", mats=None) -> np.ndarray:
    """Every level n = 0..N of one family at every point of z, shape
    (N+1, *z.shape), in one Horner pass over the zero-padded coefficient
    matrix (from ``mats``, see _level_matrices, when given).  Leading zeros
    leave Horner's steps unchanged: row n is eval_poly(sys, n, z, which)."""
    return polyval((mats[which] if mats else _coeff_matrix(sys, which)).T, z)


def _gram_levels(tbl: MomentTable, nmax: int) -> list[BopsLevel]:
    levels = []
    for n in range(nmax + 1):
        j = np.arange(n + 1)
        mat = tbl.values[(j[:, None] - j[None, :]) + tbl.window]  # w_{m-j}
        rhs = np.zeros(n + 1, dtype=complex)
        rhs[n] = 1.0
        x = np.linalg.solve(mat, rhs)
        y = np.linalg.solve(mat.T, rhs)
        kappa = principal_sqrt(x[n])
        levels.append(BopsLevel(n=n, kappa=kappa, c=x / kappa, cbar=y / kappa))
    return levels


def _recursion_levels(
    tbl: MomentTable, nmax: int, tol: Tolerances
) -> tuple[list[BopsLevel], list[int]]:
    """Levels 0..nmax by the monic bi-orthogonal Szego recursion (see the
    module docstring) and the existence log; raises ExistenceError(n + 1)
    when |1 - r_n rbar_n| < tol.existence_floor, and ExistenceError(1) when
    w_0 = 0."""
    w, k = tbl.values, tbl.window
    e = w[k]
    if e == 0:
        raise ExistenceError(1, 0.0, tol.existence_floor)
    a = b = np.ones(1, dtype=complex)
    levels = [_scaled_level(0, a, b, e)]
    log: list[int] = []
    for n in range(1, nmax + 1):
        j = np.arange(n)
        r = -(a @ w[k - 1 - j]) / e
        rbar = -(b @ w[k + 1 + j]) / e
        ratio = 1.0 - r * rbar  # e_n / e_{n-1}
        if abs(ratio) < tol.existence_floor:
            raise ExistenceError(n + 1, abs(ratio), tol.existence_floor)
        if abs(ratio) < 1e6 * tol.existence_floor:
            log.append(n + 1)
        a, b = (
            np.concatenate(([0.0], a)) + r * np.concatenate((b[::-1], [0.0])),
            np.concatenate(([0.0], b)) + rbar * np.concatenate((a[::-1], [0.0])),
        )
        e = e * ratio
        levels.append(_scaled_level(n, a, b, e))
    return levels, log


def _scaled_level(n: int, a: np.ndarray, b: np.ndarray, e: complex) -> BopsLevel:
    """The level of the monic pair (A_n, B_n) with e_n = 1 / kappa_n^2."""
    kappa = principal_sqrt(1.0 / e)
    return BopsLevel(n=n, kappa=kappa, c=kappa * a, cbar=kappa * b)


def build_system(tbl: MomentTable, nmax: int, tol: Tolerances = DEFAULT_TOL) -> BopsSystem:
    """Build levels n = 0..nmax by the Gram solves; requires window
    K >= nmax + 1.  The reflection recursion runs first: ExistenceError when
    I0_n vanishes for some n <= nmax + 1 (the system genuinely fails to exist
    at that level, an expected runtime signal under deformation, not a bug),
    ConsistencyError when its levels leave the Gram levels by more than 1e-8
    (relative to the largest coefficient)."""
    if tbl.window < nmax + 1:
        raise WindowError(nmax + 1, tbl.window, f"build_system(N={nmax})")
    oracle, log = _recursion_levels(tbl, nmax, tol)
    levels = _gram_levels(tbl, nmax)
    deviation = 0.0
    for a, b in zip(levels, oracle):
        scale = max(1.0, float(np.max(np.abs(a.c))), float(np.max(np.abs(a.cbar))))
        deviation = max(
            deviation,
            float(np.max(np.abs(a.c - b.c))) / scale,
            float(np.max(np.abs(a.cbar - b.cbar))) / scale,
        )
    if deviation > 1e-8:
        raise ConsistencyError("Gram levels and reflection recursion disagree", deviation, 1e-8)
    return BopsSystem(table=tbl, levels=levels, existence_log=log, cross_check_deviation=deviation)


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


def _level_matrices(sys: BopsSystem, families: Sequence[Family]) -> dict[str, np.ndarray]:
    """Each named family's coefficient matrix and the moment "block", built
    once for a caller that reads them more than once."""
    return {**{which: _coeff_matrix(sys, which) for which in families}, "block": _moment_block(sys)}


def orthonormality_matrix(sys: BopsSystem, mats=None) -> np.ndarray:
    """G[m, n] = <phi_m, phibar_n> computed as an exact moment convolution."""
    mats = mats or _level_matrices(sys, ("phi", "phibar"))
    return mats["phi"] @ mats["block"] @ mats["phibar"].T


def _monomial_residuals(sys: BopsSystem, mats=None) -> np.ndarray:
    """Row n: max |<phi_n, zetabar^j>| over 0 <= j < n and
    max |<phi*_n, zetabar^j>| over 1 <= j <= n (0 where the range is empty)."""
    mats = mats or _level_matrices(sys, ("phi", "phistar"))
    n, j = np.indices(mats["block"].shape)
    phi = np.where(j < n, np.abs(mats["phi"] @ mats["block"]), 0.0)
    star = np.where((j >= 1) & (j <= n), np.abs(mats["phistar"] @ mats["block"]), 0.0)
    return np.stack([phi.max(axis=1), star.max(axis=1)], axis=1)


def monomial_orthogonality(sys: BopsSystem, n: int) -> tuple[float, float]:
    """Max residuals of <phi_n, zetabar^j> = 0 (0 <= j < n) and
    <phi*_n, zetabar^j> = 0 (1 <= j <= n)."""
    sys.level(n)  # IndexError for a level that is not built
    res_phi, res_star = _monomial_residuals(sys)[n]
    return float(res_phi), float(res_star)


# ---------------------------------------------------------------------------
# Scalar identity web
# ---------------------------------------------------------------------------

def verify_scalar_identities(
    sys: BopsSystem,
    samples: Sequence[tuple[complex, complex]],
    tol: float | None = None,
) -> IdentityReport:
    """Residuals of the coupled recurrences, both three-term recurrences,
    both Christoffel-Darboux forms, and the kappa / l / m coefficient
    recursions across all built levels.

    Each family is checked over all levels at once: lhs and rhs rows stacked
    one level a row, and one rel_residuals call.  A level's scalar products
    (kappa_n phi_n(0), ...) are formed in Python complex arithmetic, whose
    rounding differs from numpy's complex multiply, so every residual is bit
    for bit that of the level written out alone."""
    tol = DEFAULT_TOL.identity if tol is None else tol
    rep = IdentityReport("scalar identity web")
    nmax = sys.nmax
    zs = np.array([z for z, _ in samples], dtype=complex)
    zetabars = np.array([zb for _, zb in samples], dtype=complex)
    mats = _level_matrices(sys, ("phi", "phistar", "phibar", "phibarstar"))
    phi, star = eval_levels(sys, zs, "phi", mats), eval_levels(sys, zs, "phistar", mats)
    lev = sys.levels
    k, p0, pb0 = ([getattr(a, key) for a in lev] for key in ("kappa", "phi0", "phibar0"))

    def add(anchor, ns, *families):
        """Entries level by level, one per (name, lhs rows, rhs rows) family."""
        res = [rel_residuals(np.subtract(lhs, rhs), lhs, rhs) for _, lhs, rhs in families]
        for i, n in enumerate(ns):
            for (name, _, _), r in zip(families, res):
                rep.add(name, anchor, r[i], tol, n=n)

    def col(f, ns):
        return np.array([f(n) for n in ns], dtype=complex)[:, None]

    kap, low = np.array(k)[:, None], range(nmax)
    add(
        "coupled linear recurrence relations", low,
        ("coupled_recurrence", kap[:-1] * phi[1:],
         kap[1:] * zs * phi[:-1] + np.array(p0)[1:, None] * star[:-1]),
        ("coupled_recurrence_star", kap[:-1] * star[1:],
         kap[1:] * star[:-1] + np.array(pb0)[1:, None] * zs * phi[:-1]),
    )

    # columns kappa_n c_n, kappa_{n-1} c_{n+1}, kappa_n c_{n+1}, kappa_{n+1} c_n
    # for c = phi(0) and c = phibar(0)
    mid, shifts = range(1, nmax), ((0, 0), (-1, 1), (0, 1), (1, 0))
    t, tb = ([col(lambda n: k[n + a] * c[n + b], mid) for a, b in shifts] for c in (p0, pb0))
    add(
        "three-term recurrence relations", mid,
        ("three_term_recurrence", t[0] * phi[2:] + t[1] * zs * phi[:-2],
         (t[2] + t[3] * zs) * phi[1:-1]),
        ("three_term_recurrence_star", tb[0] * star[2:] + tb[1] * zs * star[:-2],
         (tb[2] * zs + tb[3]) * star[1:-1]),
    )

    # Christoffel-Darboux: both closed forms against the direct sum, which
    # cumsum accumulates level by level in the order of the displayed sum
    mask = np.abs(1.0 - zs * zetabars) > 1e-6
    zcd, zbcd = zs[mask], zetabars[mask]
    p, pstar = phi[:, mask], star[:, mask]
    q, qstar = eval_levels(sys, zbcd, "phibar", mats), eval_levels(sys, zbcd, "phibarstar", mats)
    sums = np.cumsum(p * q, axis=0)[:-1]
    denom = 1.0 - zcd * zbcd
    add(
        "analogue of the Christoffel-Darboux summation formula", low,
        ("christoffel_darboux_n_form",
         (pstar[:-1] * qstar[:-1] - zcd * zbcd * p[:-1] * q[:-1]) / denom, sums),
        ("christoffel_darboux_shifted_form", (pstar[1:] * qstar[1:] - p[1:] * q[1:]) / denom, sums),
    )

    top = range(1, nmax + 1)
    lead = "relate the leading coefficients back to the reflection coefficients"
    add(
        lead, top,
        ("kappa_identity", [k[n] ** 2 for n in top], [k[n - 1] ** 2 + p0[n] * pb0[n] for n in top]),
        ("l_recursion", [lev[n].l / k[n] for n in top],
         [lev[n - 1].l / k[n - 1] + lev[n].r * lev[n - 1].rbar for n in top]),
    )
    m, up = [a.m2 or 0.0 for a in lev], range(2, nmax + 1)  # m_n = 0 below n = 2
    add(
        lead, up,
        ("m_recursion", [m[n] / k[n] for n in up],
         [m[n - 1] / k[n - 1]
          + lev[n].r * (lev[n - 2].rbar + lev[n - 1].rbar * lev[n - 2].l / k[n - 2]) for n in up]),
    )

    # the LU determinants are the oracle here; construction never uses them
    i0 = np.array([toeplitz_det(sys.table, 0, n) for n in range(nmax + 2)])
    add(
        "with the convention I0_0 = 1 the sequence satisfies", top,
        ("toeplitz_ratio_recursion", [i0[n + 1] * i0[n - 1] / i0[n] ** 2 for n in top],
         [1.0 - lev[n].r * lev[n].rbar for n in top]),
    )

    gram = orthonormality_matrix(sys, mats)
    off = gram - np.eye(len(gram))
    rep.add(
        "orthonormality",
        "this system is taken to be orthonormal",
        float(np.max(np.abs(off))),
        tol,
    )
    for n, res in enumerate(_monomial_residuals(sys, mats)):
        rep.add(
            "monomial_orthogonality",
            "can be defined up to an overall factor",
            float(res.max()),
            tol,
            n=n,
        )
    return rep
