"""Bi-orthogonal polynomial systems {phi_n, phi*_n} on the unit circle.

Construction routes:

* ``gram_lu``: per level n, solve the moment linear system
  sum_j x_j w_{m-j} = delta_{m,n} (and its transpose for the barred family);
  then kappa_n^2 = x_n, c_{n,j} = x_j / kappa_n.
* ``szego_recursion``: reflection coefficients from determinant ratios
  r_n = (-1)^n I^1_n / I^0_n, rbar_n = (-1)^n I^-1_n / I^0_n, polynomials
  bootstrapped through the coupled recurrences
  kappa_n phi_{n+1} = kappa_{n+1} z phi_n + phi_{n+1}(0) phi*_n  (+ partner).

kappa_n is fixed to the principal square root of I^0_n / I^0_{n+1}
(Re > 0, tie towards Im > 0); only this sign gauge distinguishes the two
routes, so ``both`` cross-checks them coefficientwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import ConsistencyError, ExistenceError, WindowError
from .moments import MomentTable, hadamard_scale, toeplitz_det
from .numerics import principal_sqrt, polyval, rel_residual
from .report import IdentityReport

Method = Literal["gram_lu", "szego_recursion", "both"]


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
    i0: np.ndarray  # I^0_n for n = 0 .. N+1
    i1: np.ndarray  # I^1_n for n = 0 .. N
    im1: np.ndarray  # I^-1_n for n = 0 .. N
    method: str
    existence_log: list[int] = field(default_factory=list)
    cross_check_deviation: float | None = None
    kappa_sign_rule: str = "principal sqrt of I0_n/I0_{n+1}; Re>0, tie Im>0"

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


def _existence_check(tbl: MomentTable, nmax: int, tol: Tolerances):
    i0 = np.empty(nmax + 1, dtype=complex)
    log: list[int] = []
    for n in range(nmax + 1):
        i0[n] = toeplitz_det(tbl, 0, n)
        scale = hadamard_scale(tbl, n)
        if abs(i0[n]) < tol.existence_floor * scale:
            raise ExistenceError(n, i0[n], tol.existence_floor * scale)
        if abs(i0[n]) < 1e6 * tol.existence_floor * scale:
            log.append(n)
    return i0, log


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


def _szego_levels(
    tbl: MomentTable, nmax: int, i0: np.ndarray, i1: np.ndarray, im1: np.ndarray
) -> list[BopsLevel]:
    kappas = np.array(
        [principal_sqrt(i0[n] / i0[n + 1]) for n in range(nmax + 1)], dtype=complex
    )
    rs = np.array([(-1) ** n * i1[n] / i0[n] for n in range(nmax + 1)], dtype=complex)
    rbars = np.array(
        [(-1) ** n * im1[n] / i0[n] for n in range(nmax + 1)], dtype=complex
    )
    levels = [BopsLevel(n=0, kappa=kappas[0], c=np.array([kappas[0]]), cbar=np.array([kappas[0]]))]
    for n in range(1, nmax + 1):
        prev = levels[-1]
        ratio = kappas[n] / kappas[n - 1]
        z_phi = np.concatenate(([0.0 + 0j], prev.c))
        phistar_prev = prev.cbar[::-1]
        phi_asc = ratio * (z_phi + rs[n] * np.concatenate((phistar_prev, [0.0 + 0j])))
        phistar_asc = ratio * (
            np.concatenate((phistar_prev, [0.0 + 0j])) + rbars[n] * z_phi
        )
        levels.append(
            BopsLevel(n=n, kappa=kappas[n], c=phi_asc, cbar=phistar_asc[::-1])
        )
    return levels


def build_system(
    tbl: MomentTable,
    nmax: int,
    method: Method = "gram_lu",
    tol: Tolerances = DEFAULT_TOL,
) -> BopsSystem:
    """Build levels n = 0..nmax; requires window K >= nmax + 1 and
    |I^0_n| bounded away from zero for n <= nmax + 1 (ExistenceError
    otherwise: the system genuinely fails to exist at such a level, which is
    an expected runtime signal under deformation, not a bug)."""
    if tbl.window < nmax + 1:
        raise WindowError(nmax + 1, tbl.window, f"build_system(N={nmax})")
    i0, log = _existence_check(tbl, nmax + 1, tol)
    i1 = np.array([toeplitz_det(tbl, 1, n) for n in range(nmax + 1)])
    im1 = np.array([toeplitz_det(tbl, -1, n) for n in range(nmax + 1)])

    if method == "gram_lu":
        levels = _gram_levels(tbl, nmax)
        deviation = None
    elif method == "szego_recursion":
        levels = _szego_levels(tbl, nmax, i0, i1, im1)
        deviation = None
    elif method == "both":
        levels = _gram_levels(tbl, nmax)
        alt = _szego_levels(tbl, nmax, i0, i1, im1)
        deviation = 0.0
        for a, b in zip(levels, alt):
            scale = max(1.0, float(np.max(np.abs(a.c))), float(np.max(np.abs(a.cbar))))
            deviation = max(
                deviation,
                float(np.max(np.abs(a.c - b.c))) / scale,
                float(np.max(np.abs(a.cbar - b.cbar))) / scale,
            )
        if deviation > 1e-8:
            raise ConsistencyError(
                "gram_lu and szego_recursion disagree", deviation, 1e-8
            )
    else:
        raise ValueError(f"unknown method {method!r}")

    return BopsSystem(
        table=tbl,
        levels=levels,
        i0=i0,
        i1=i1,
        im1=im1,
        method=method,
        existence_log=log,
        cross_check_deviation=deviation,
    )


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

    for n in range(1, nmax + 1):
        lhs = sys.i0[n + 1] * sys.i0[n - 1] / sys.i0[n] ** 2
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
