"""Trigonometric moments, Toeplitz determinants, the Caratheodory transform
and the inhomogeneity polynomial of its first-order ODE.

The moments are Fourier coefficients

    w_k = (1/2*pi) \\int w(e^{i theta}) e^{-i k theta} d theta.

A weight's moments have one construction, the factorisation
w(z) = C z^S A(1/z) B(z) of its branch convention (`weight`):
w_k = C sum_b A_b B_{k-S+b}, one correlation of two products of binomial
series, so each moment is accurate to the size of the terms it sums: to
its own size where they do not cancel (`factorised_moments`).
The trapezoidal rule with adaptive point doubling (`compute_moments`) is
its oracle: the build suite reports the largest gap between the two, and
the tests apply it to weights given as callables.  Toeplitz determinants
I^eps_n = det[w_{-eps+j-k}] use dense LU.
They are an oracle only (the toeplitz_ratio_recursion check, the
determinants CSV, the Heine check and the test suite's determinantal
representations):
the bi-orthogonal system is built from Gram solves, and its existence is
decided by the reflection recursion in `bops`.  The table gives F's series
and its own Laurent sum: a raw table is called wherever a weight is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import CircleBopsError, QuadratureError, WindowError
from .numerics import polyadd, polyder, polymul
from .weight import PolyPair, SemiClassicalWeight, origin_power

# The factorised moments cut each inside sum where its terms have fallen by
# TAIL_FLOOR, below its round-off, and refuse series past SERIES_MAX terms
# (an inside singularity near the circle): a product costs their square.
TAIL_FLOOR = 2.0**-60
SERIES_MAX = 2**15
# Moment quadrature: the point count doubles from QUAD_POINTS until every
# retained moment moves by less than QUAD_TOL times max(1, max_k |w_k|),
# never beyond QUAD_MAX_POINTS.
QUAD_POINTS = 256
QUAD_MAX_POINTS = 2**20
QUAD_TOL = 1e-12
# The Heine oracle's tensor-product rule doubles from HEINE_START points to
# at most HEINE_MAX, until successive values agree to HEINE_TOL.
HEINE_START = 32
HEINE_MAX = 512
HEINE_TOL = 1e-8
# heine-check's gate on |oracle - I0_n| / max(1, |I0_n|), times --tol
HEINE_CHECK_TOL = 1e-6


def _grid_values(w: Callable, points: int) -> np.ndarray:
    """w at the ``points`` roots of unity, in one call on the whole grid."""
    theta = 2.0 * np.pi * np.arange(points) / points
    zs = np.exp(1j * theta)
    vals = np.asarray(w(zs), dtype=complex)
    if vals.shape != zs.shape:
        raise ValueError(
            f"the weight must return an array of shape {zs.shape} on the grid, "
            f"got shape {vals.shape}"
        )
    return vals


@dataclass(frozen=True)
class MomentTable:
    """Moments w_k for k in [-K, K] plus provenance metadata."""

    window: int
    values: np.ndarray  # index k + window
    source: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (2 * self.window + 1,):
            raise ValueError("values must have length 2*window + 1")
        object.__setattr__(self, "values", vals)

    def moment(self, k: int) -> complex:
        if abs(k) > self.window:
            raise WindowError(abs(k), self.window, f"moment w_{k}")
        return complex(self.values[k + self.window])

    def require(self, k: int, what: str = "") -> None:
        if k > self.window:
            raise WindowError(k, self.window, what)

    def __call__(self, z):
        """w(z) = sum_k w_k z^k over an array z, near the unit circle."""
        ks = np.arange(-self.window, self.window + 1)
        return (self.values * np.asarray(z, dtype=complex)[..., None] ** ks).sum(axis=-1)

    def caratheodory(self, count: int, side: str = "inside") -> np.ndarray:
        """The first ``count`` coefficients of F(z) = \\oint (zeta+z)/(zeta-z)
        w(zeta) dzeta/(2 pi i zeta) at 0, w_0 + 2 sum_{k>=1} w_k z^k, or outside
        at infinity, -w_0 - 2 sum w_{-k} z^{-k}; F is never summed at points."""
        if count > self.window + 1:
            raise WindowError(count - 1, self.window, f"F series to order {count - 1}")
        k, vals = self.window, self.values
        if side == "inside":
            return np.concatenate(([vals[k]], 2.0 * vals[k + 1 :]))[:count]
        return np.concatenate(([-vals[k]], -2.0 * vals[k - 1 :: -1]))[:count]


def table_from_moments(pairs, window: int | None = None) -> MomentTable:
    """Build a table from explicit (k, value) pairs; unlisted entries are 0."""
    pairs = [(int(k), complex(v)) for k, v in pairs]
    if window is None:
        window = max((abs(k) for k, _ in pairs), default=0)
    values = np.zeros(2 * window + 1, dtype=complex)
    for k, v in pairs:
        if abs(k) > window:
            raise WindowError(abs(k), window, "user moment")
        values[k + window] = v
    return MomentTable(window, values, {"kind": "user_supplied"})


def compute_moments(w, window: int) -> MomentTable:
    """Moments by adaptive FFT trapezoid: the point count doubles until every
    retained w_k moves by less than QUAD_TOL * max(1, mean |w| on the grid,
    max_k |w_k|), starting from QUAD_POINTS (never below 4*(window+1) to
    keep aliasing out of the retained band).  The grid's mean |w| is the
    scale of the sum's round-off, which retained moments far smaller than
    the weight on the circle would not track.  QuadratureError, carrying
    the last change on that scale (inf before a second grid), when
    QUAD_MAX_POINTS is reached."""
    points = max(QUAD_POINTS, 4 * (window + 1))
    # round up to a power of two for the FFT
    p = 1
    while p < points:
        p *= 2
    points = p

    def retained(vals: np.ndarray) -> tuple[np.ndarray, float]:
        hat = np.fft.fft(vals) / len(vals)
        ks = np.arange(-window, window + 1)
        return hat[ks % len(vals)], float(np.mean(np.abs(vals)))

    current, _ = retained(_grid_values(w, points))
    change = float("inf")
    while points * 2 <= QUAD_MAX_POINTS:
        points *= 2
        nxt, size = retained(_grid_values(w, points))
        change = float(np.max(np.abs(nxt - current))) / max(1.0, size, float(np.max(np.abs(nxt))))
        current = nxt
        if change < QUAD_TOL:
            source = {"kind": "quadrature", "points": points, "residual": change}
            return MomentTable(window, current, source)
    raise QuadratureError(change, points)


def _binomial(x: complex, rho: complex, count: int) -> np.ndarray:
    """Orders 0..count-1 of (1 - x u)^rho: a_i = a_{i-1} (i - 1 - rho) x / i."""
    i = np.arange(1, count)
    return np.concatenate(([1.0 + 0j], np.cumprod((i - 1 - rho) * x / i)))


def _product(factors, count: int) -> np.ndarray:
    """Orders 0..count-1 of prod (1 - x u)^rho over the (x, rho) factors."""
    out = np.zeros(count, dtype=complex)
    out[0] = 1.0
    for i, (x, rho) in enumerate(factors):
        series = _binomial(x, rho, count)
        out = np.convolve(out, series)[:count] if i else series
    return out


def _tail(inside, start: int) -> int:
    """Least L with r^L ((start + L) / start)^p <= TAIL_FLOOR, r the largest
    inside |z_j| and p the largest -Re rho_j - 1 (at least 0): the orders of
    (1 - z u)^rho grow like b^p as they shrink like |z|^b.  Fixed-point
    iteration from below, stopped once past SERIES_MAX."""
    if not inside:
        return 0
    rate = -np.log(max(abs(z) for z, _ in inside))
    p = max(0.0, *(-rho.real - 1.0 for _, rho in inside))
    tail, nxt = -1, 0
    while tail < nxt <= SERIES_MAX:
        tail, nxt = nxt, int(np.ceil((-np.log(TAIL_FLOOR) + p * np.log1p(nxt / start)) / rate))
    return nxt


def factorised_moments(weight: SemiClassicalWeight, window: int) -> MomentTable:
    """w_k for |k| <= window from the factorisation w = C z^S A(1/z) B(z)
    (`SemiClassicalWeight.factorisation`): w_k = C sum_b A_b B_{k-S+b}.  A's series runs
    window + |S| + L terms, L the tail (`_tail`), so that w_{-window} keeps
    L terms of its sum too; B's runs as far as the sums reach.
    BranchCutError when the inside exponents do not sum to an integer,
    CircleBopsError when the series would pass SERIES_MAX terms."""
    s = origin_power(weight)
    factors = weight.factorisation[1]
    inside = [(z, rho) for z, rho, c in factors if c is None]
    outside = [(z, rho) for z, rho, c in factors if c is not None]
    tail = _tail(inside, window + abs(s) + 1)
    count = window + abs(s) + tail + 1
    if (reach := count + window - s) > SERIES_MAX:
        raise CircleBopsError(f"the factorised moments need series of {reach} terms, more than "
                              f"{SERIES_MAX}: an inside singularity too close to the circle")
    a = _product(inside, count)
    b = _product([(1.0 / z, rho) for z, rho in outside], reach)
    constant = np.prod([c for *_, c in factors if c is not None])
    # np.correlate conjugates its second argument: full[d + count - 1] = sum_b A_b B_{d+b}
    full = np.correlate(b, a.conj(), "full")
    values = constant * full[np.arange(-window, window + 1) - s + count - 1]
    return MomentTable(window, values, {"kind": "factorised", "tail": tail})


# ---------------------------------------------------------------------------
# Toeplitz determinants
# ---------------------------------------------------------------------------

def toeplitz_det(tbl: MomentTable, epsilon: int, n: int) -> complex:
    """I^eps_n = det [w_{-eps+j-k}]_{0<=j,k<=n-1}; the empty determinant is 1."""
    if epsilon not in (-1, 0, 1):
        raise ValueError("epsilon must be one of -1, 0, 1")
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1.0 + 0j
    needed = abs(epsilon) + n - 1
    if needed > tbl.window:
        raise WindowError(max(n, needed), tbl.window, f"I^{epsilon}_{n}")
    j = np.arange(n)
    return complex(np.linalg.det(tbl.values[(-epsilon + j[:, None] - j[None, :]) + tbl.window]))


# ---------------------------------------------------------------------------
# Inhomogeneity polynomial U:  W F' = 2 V F + U
# ---------------------------------------------------------------------------

def recover_u(table: MomentTable, vw: PolyPair) -> np.ndarray:
    """U = W F' - 2 V F, read off the exact series of F at z = 0
    (`MomentTable.caratheodory`): orders 0..m-1 of W F' - 2 V F, m the
    degree of W.  That the orders past them vanish, the operational content
    of F's first-order ODE, is not gated here: a pair (V, W) that does not
    match the weight fails the quadruples' degree_certification entries."""
    m = vw.degree
    series = table.caratheodory(m + 3)
    product = polyadd(polymul(vw.W, polyder(series)), -2.0 * polymul(vw.V, series))
    return polyadd(np.zeros(m), product)[:m]


# ---------------------------------------------------------------------------
# Heine-identity oracle: multidimensional average over the unit circle
# ---------------------------------------------------------------------------

def heine_oracle(w, n: int) -> complex:
    """I^0_n as the n-fold average

        (1/(2 pi)^n n!) \\int prod_l w(e^{i theta_l})
                               prod_{j<k} |z_k - z_j|^2  d theta

    by tensor-product trapezoid with point doubling.  Independent of every
    determinant route; n is capped at 3 (cost grows as P^n)."""
    if n not in (1, 2, 3):
        raise ValueError("heine_oracle supports n in {1, 2, 3}")

    def one(points: int) -> complex:
        theta = 2.0 * np.pi * np.arange(points) / points
        zs = np.exp(1j * theta)
        wv = _grid_values(w, points)
        if n == 1:
            return complex(np.mean(wv))
        dist = np.abs(zs[:, None] - zs[None, :]) ** 2
        if n == 2:
            total = np.einsum("a,b,ab->", wv, wv, dist)
            return complex(total / (2.0 * points**2))
        # n == 3: s_c = sum_{a,b} w_a w_b |z_c-z_a|^2 |z_a-z_b|^2 |z_b-z_c|^2
        v = wv[None, :] * dist  # v[c, a] = w_a |z_c - z_a|^2
        inner = v @ dist  # inner[c, b] = sum_a w_a |z_c-z_a|^2 |z_a-z_b|^2
        s = np.einsum("cb,cb->c", inner, v)
        total = np.dot(wv, s)
        return complex(total / (6.0 * points**3))

    points = HEINE_START
    prev = one(points)
    while points * 2 <= HEINE_MAX:
        points *= 2
        cur = one(points)
        if abs(cur - prev) < HEINE_TOL * max(1.0, abs(cur)):
            return cur
        prev = cur
    return prev
