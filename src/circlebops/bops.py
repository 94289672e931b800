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
from .numerics import principal_sqrt, polyval, rel_residual
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


def eval_levels(sys: BopsSystem, z, which: Family = "phi") -> np.ndarray:
    """Every level n = 0..N of one family at every point of z, shape
    (N+1, *z.shape), in one Horner pass over the zero-padded coefficient
    matrix.  Leading zeros leave Horner's steps unchanged, so row n equals
    eval_poly(sys, n, z, which) bit for bit."""
    return polyval(_coeff_matrix(sys, which).T, z)


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
# Orthogonality checks (exact moment sums; quadrature variant when a weight
# callable is available)
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
    return _coeff_matrix(sys, "phi") @ _moment_block(sys) @ _coeff_matrix(sys, "phibar").T


def orthonormality_quadrature(sys: BopsSystem, wfun, points: int = 4096) -> np.ndarray:
    """Same Gram matrix by direct trapezoidal quadrature against w."""
    theta = 2.0 * np.pi * np.arange(points) / points
    zeta = np.exp(1j * theta)
    wv = np.asarray(wfun(zeta), dtype=complex)
    phis = eval_levels(sys, zeta)
    phibars = eval_levels(sys, 1.0 / zeta, "phibar")
    return (phis * wv[None, :]) @ phibars.T / points


def _monomial_residuals(sys: BopsSystem) -> np.ndarray:
    """Row n: max |<phi_n, zetabar^j>| over 0 <= j < n and
    max |<phi*_n, zetabar^j>| over 1 <= j <= n (0 where the range is empty)."""
    wmat = _moment_block(sys)
    n, j = np.indices(wmat.shape)
    phi = np.where(j < n, np.abs(_coeff_matrix(sys, "phi") @ wmat), 0.0)
    star = np.where((j >= 1) & (j <= n), np.abs(_coeff_matrix(sys, "phistar") @ wmat), 0.0)
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
    recursions across all built levels."""
    tol = DEFAULT_TOL.identity if tol is None else tol
    rep = IdentityReport("scalar identity web")
    nmax = sys.nmax
    zs = np.array([z for z, _ in samples], dtype=complex)
    zetabars = np.array([zb for _, zb in samples], dtype=complex)
    phi, star = eval_levels(sys, zs), eval_levels(sys, zs, "phistar")

    for n in range(nmax):
        ln, lnp = sys.level(n), sys.level(n + 1)
        lhs = ln.kappa * phi[n + 1]
        rhs = lnp.kappa * zs * phi[n] + lnp.phi0 * star[n]
        rep.add(
            "coupled_recurrence",
            "coupled linear recurrence relations",
            rel_residual(lhs - rhs, lhs, rhs),
            tol,
            n=n,
        )
        lhs = ln.kappa * star[n + 1]
        rhs = lnp.kappa * star[n] + lnp.phibar0 * zs * phi[n]
        rep.add(
            "coupled_recurrence_star",
            "coupled linear recurrence relations",
            rel_residual(lhs - rhs, lhs, rhs),
            tol,
            n=n,
        )

    for n in range(1, nmax):
        lm, ln, lp = sys.level(n - 1), sys.level(n), sys.level(n + 1)
        lhs = ln.kappa * ln.phi0 * phi[n + 1] + lm.kappa * lp.phi0 * zs * phi[n - 1]
        rhs = (ln.kappa * lp.phi0 + lp.kappa * ln.phi0 * zs) * phi[n]
        rep.add(
            "three_term_recurrence",
            "three-term recurrence relations",
            rel_residual(lhs - rhs, lhs, rhs),
            tol,
            n=n,
        )
        lhs = ln.kappa * ln.phibar0 * star[n + 1] + lm.kappa * lp.phibar0 * zs * star[n - 1]
        rhs = (ln.kappa * lp.phibar0 * zs + lp.kappa * ln.phibar0) * star[n]
        rep.add(
            "three_term_recurrence_star",
            "three-term recurrence relations",
            rel_residual(lhs - rhs, lhs, rhs),
            tol,
            n=n,
        )

    # Christoffel-Darboux: both closed forms against the direct sum, which
    # cumsum accumulates level by level in the order of the displayed sum
    mask = np.abs(1.0 - zs * zetabars) > 1e-6
    zcd, zbcd = zs[mask], zetabars[mask]
    p, pstar = phi[:, mask], star[:, mask]
    q, qstar = eval_levels(sys, zbcd, "phibar"), eval_levels(sys, zbcd, "phibarstar")
    sums = np.cumsum(p * q, axis=0)
    denom = 1.0 - zcd * zbcd
    for n in range(nmax):
        form_n = (pstar[n] * qstar[n] - zcd * zbcd * p[n] * q[n]) / denom
        form_np = (pstar[n + 1] * qstar[n + 1] - p[n + 1] * q[n + 1]) / denom
        rep.add(
            "christoffel_darboux_n_form",
            "analogue of the Christoffel-Darboux summation formula",
            rel_residual(form_n - sums[n], sums[n], form_n),
            tol,
            n=n,
        )
        rep.add(
            "christoffel_darboux_shifted_form",
            "analogue of the Christoffel-Darboux summation formula",
            rel_residual(form_np - sums[n], sums[n], form_np),
            tol,
            n=n,
        )

    for n in range(1, nmax + 1):
        lm, ln = sys.level(n - 1), sys.level(n)
        lhs = ln.kappa**2
        rhs = lm.kappa**2 + ln.phi0 * ln.phibar0
        rep.add(
            "kappa_identity",
            "relate the leading coefficients back to the reflection coefficients",
            rel_residual(lhs - rhs, lhs, rhs),
            tol,
            n=n,
        )
        lhs = ln.l / ln.kappa
        rhs = lm.l / lm.kappa + ln.r * lm.rbar
        rep.add(
            "l_recursion",
            "relate the leading coefficients back to the reflection coefficients",
            rel_residual(lhs - rhs, lhs, rhs),
            tol,
            n=n,
        )

    for n in range(2, nmax + 1):
        l2, l1, l0 = sys.level(n), sys.level(n - 1), sys.level(n - 2)
        m_n = l2.m2 or 0.0
        m_prev = (l1.m2 or 0.0) if n - 1 >= 2 else 0.0
        lhs = m_n / l2.kappa
        rhs = m_prev / l1.kappa + l2.r * (l0.rbar + l1.rbar * l0.l / l0.kappa)
        rep.add(
            "m_recursion",
            "relate the leading coefficients back to the reflection coefficients",
            rel_residual(lhs - rhs, lhs, rhs),
            tol,
            n=n,
        )

    # the LU determinants are the oracle here; construction never uses them
    i0 = np.array([toeplitz_det(sys.table, 0, n) for n in range(nmax + 2)])
    for n in range(1, nmax + 1):
        lhs = i0[n + 1] * i0[n - 1] / i0[n] ** 2
        rhs = 1.0 - sys.level(n).r * sys.level(n).rbar
        rep.add(
            "toeplitz_ratio_recursion",
            "with the convention I0_0 = 1 the sequence satisfies",
            rel_residual(lhs - rhs, lhs, rhs),
            tol,
            n=n,
        )

    gram = orthonormality_matrix(sys)
    off = gram - np.eye(len(gram))
    rep.add(
        "orthonormality",
        "this system is taken to be orthonormal",
        float(np.max(np.abs(off))),
        tol,
    )
    for n, res in enumerate(_monomial_residuals(sys)):
        rep.add(
            "monomial_orthogonality",
            "can be defined up to an overall factor",
            float(res.max()),
            tol,
            n=n,
        )
    return rep


# ---------------------------------------------------------------------------
# Determinantal / integral representations (independent evaluation oracle)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetRepValues:
    n: int
    z: complex
    phi: complex
    phistar: complex
    phi_integral: complex
    phistar_integral: complex

    @property
    def max_mismatch(self) -> float:
        scale = max(1.0, abs(self.phi), abs(self.phistar))
        return (
            max(
                abs(self.phi - self.phi_integral),
                abs(self.phistar - self.phistar_integral),
            )
            / scale
        )


def det_rep_oracle(tbl: MomentTable, n: int, z: complex) -> DetRepValues:
    """phi_n(z) and phi*_n(z) by bordered determinants and, independently, by
    Toeplitz determinants of the shifted weights w(zeta)(zeta - z) and
    w(zeta)(1 - z/zeta)."""
    z = complex(z)
    i0n = toeplitz_det(tbl, 0, n)
    i0np = toeplitz_det(tbl, 0, n + 1)
    kappa = principal_sqrt(i0n / i0np)

    # bordered determinant for phi_n: rows 0..n-1 of moments, last row 1..z^n
    mat = np.zeros((n + 1, n + 1), dtype=complex)
    for i in range(n):
        for j in range(n + 1):
            mat[i, j] = tbl.moment(i - j)
    mat[n, :] = z ** np.arange(n + 1)
    phi = kappa / i0n * complex(np.linalg.det(mat))

    # bordered determinant for phi*_n: row i has moments w_{i-k} and z^{n-i}
    mat = np.zeros((n + 1, n + 1), dtype=complex)
    for i in range(n + 1):
        for k in range(n):
            mat[i, k] = tbl.moment(i - k)
        mat[i, n] = z ** (n - i)
    phistar = kappa / i0n * complex(np.linalg.det(mat))

    # integral representations via shifted moment tables
    ks = np.arange(-(tbl.window - 1), tbl.window)
    shifted = MomentTable(
        tbl.window - 1,
        np.array([tbl.moment(k - 1) - z * tbl.moment(k) for k in ks]),
        {"kind": "shifted (zeta - z)"},
    )
    hat = MomentTable(
        tbl.window - 1,
        np.array([tbl.moment(k) - z * tbl.moment(k + 1) for k in ks]),
        {"kind": "shifted (1 - z/zeta)"},
    )
    phi_int = (-1) ** n * kappa * toeplitz_det(shifted, 0, n) / i0n
    phistar_int = kappa * toeplitz_det(hat, 0, n) / i0n
    return DetRepValues(n, z, phi, phistar, phi_int, phistar_int)
