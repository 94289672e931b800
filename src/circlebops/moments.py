"""Trigonometric moments, Toeplitz determinants, the Caratheodory transform
and the inhomogeneity polynomial of its first-order ODE.

The moments are Fourier coefficients

    w_k = (1/2*pi) \\int w(e^{i theta}) e^{-i k theta} d theta,

computed by the trapezoidal rule on a uniform grid (spectrally accurate for
weights analytic in an annulus around the circle) with adaptive point
doubling.  Toeplitz determinants I^eps_n = det[w_{-eps+j-k}] use dense LU.
They are an oracle only (the toeplitz_ratio_recursion check, the
determinants CSV, the Heine check and the test suite's determinantal
representations):
the bi-orthogonal system is built from Gram solves, and its existence is
decided by the reflection recursion in `bops`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .config import FIT_TOL, QUAD_POINTS
from .errors import NearCircleError, NotSemiClassicalError, QuadratureError, WindowError
from .numerics import polyadd, polyder, polymul, polyval, series_band
from .weight import SemiClassicalWeight, build_vw

# Moment quadrature: the point count doubles until every retained moment
# moves by less than QUAD_TOL, and never beyond QUAD_MAX_POINTS.
QUAD_MAX_POINTS = 2**20
QUAD_TOL = 1e-12
# Series evaluation refuses | |z|-1 | < NEAR_CIRCLE without a forced side.
NEAR_CIRCLE = 1e-3
# The Heine oracle's tensor-product rule doubles from HEINE_START points to
# at most HEINE_MAX, until successive values agree to HEINE_TOL.
HEINE_START = 32
HEINE_MAX = 512
HEINE_TOL = 1e-8


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


def compute_moments(w, window: int, quad_points: int = QUAD_POINTS) -> MomentTable:
    """Moments by adaptive FFT trapezoid: the point count doubles until every
    retained w_k moves by less than QUAD_TOL, starting from ``quad_points``
    (never below 4*(window+1) to keep aliasing out of the retained band)."""
    points = max(quad_points, 4 * (window + 1))
    # round up to a power of two for the FFT
    p = 1
    while p < points:
        p *= 2
    points = p

    def retained(vals: np.ndarray) -> np.ndarray:
        hat = np.fft.fft(vals) / len(vals)
        ks = np.arange(-window, window + 1)
        return hat[ks % len(vals)]

    vals = _grid_values(w, points)
    current = retained(vals)
    while True:
        if points * 2 > QUAD_MAX_POINTS:
            raise QuadratureError(float("nan"), points)
        points *= 2
        vals = _grid_values(w, points)
        nxt = retained(vals)
        change = float(np.max(np.abs(nxt - current)))
        current = nxt
        if change < QUAD_TOL:
            break

    source = {"kind": "quadrature", "points": points, "residual": change}
    return MomentTable(window, current, source)


def closed_form_table(coeffs: dict[int, complex], window: int) -> MomentTable:
    """Table for a Laurent-polynomial weight with known expansion coefficients."""
    values = np.zeros(2 * window + 1, dtype=complex)
    for k, v in coeffs.items():
        values[k + window] = v
    return MomentTable(window, values, {"kind": "closed_form"})


def weight_from_table(tbl: MomentTable):
    """Evaluator of w(z) = sum_k w_k z^k near the unit circle (raw-moment
    pipelines where no closed-form weight is available)."""
    ks = np.arange(-tbl.window, tbl.window + 1)

    def wfun(z):
        zs = np.asarray(z, dtype=complex)
        return (tbl.values * zs[..., None] ** ks).sum(axis=-1)

    return wfun


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
# Caratheodory function
# ---------------------------------------------------------------------------

# Entries (F or F' on one point set) one evaluator keeps.  The busiest
# evaluator of a verify-all run makes 9; the oldest entry goes first.
MEMO_SIZE = 32


class CaratheodoryEvaluator:
    """F(z) = \\oint (zeta+z)/(zeta-z) w(zeta) dzeta/(2 pi i zeta) via the
    moment series: w_0 + 2 sum_{k>=1} w_k z^k inside, -w_0 - 2 sum w_{-k} z^{-k}
    outside.  F' is the derivative of the same series, -z^-2 (d/du series)(1/z)
    outside.  Points with | |z| - 1 | below the near-circle band are refused
    unless a side is forced (the two analytic elements both extend into the
    annulus of the weight, which is what the jump checks rely on)."""

    def __init__(self, tbl: MomentTable):
        self.table = tbl
        k = tbl.window
        vals = tbl.values
        self._inside = np.concatenate(([vals[k]], 2.0 * vals[k + 1 :]))
        self._outside = np.concatenate(([-vals[k]], -2.0 * vals[k - 1 :: -1]))
        self._derivative = (polyder(self._inside), polyder(self._outside))
        self._memo: dict[tuple, np.ndarray] = {}

    def _inside_mask(self, zs: np.ndarray) -> np.ndarray:
        """Mask of the points inside the circle; raises for the first point
        within the near-circle band."""
        r = np.abs(zs)
        near = np.abs(r - 1.0) < NEAR_CIRCLE
        if near.any():
            raise NearCircleError(
                f"|z| = {float(r[near].flat[0])} is within {NEAR_CIRCLE} of "
                "the unit circle; force side='inside' or side='outside'"
            )
        return r < 1.0

    def series(self, count: int, side: str = "inside") -> np.ndarray:
        """The first ``count`` coefficients of F's expansion at z = 0 (inside,
        in powers of z) or at infinity (outside, in powers of 1/z); exact up
        to the moment window."""
        if count > self.table.window + 1:
            raise WindowError(count - 1, self.table.window, f"F series to order {count - 1}")
        return (self._inside if side == "inside" else self._outside)[:count]

    def __call__(self, z, side: str | None = None, derivative: bool = False):
        """F (F' with ``derivative``) over an array z (a scalar is a 0-d
        array).  F does not depend on the level, so the read-only values of
        each point set are kept for the next call; a failed call is not kept
        and raises every time."""
        zs = np.asarray(z, dtype=complex)
        key = (side, derivative, zs.shape, zs.tobytes())
        if key not in self._memo:
            out = np.asarray(self._series_values(zs, side, derivative))
            out.flags.writeable = False
            if len(self._memo) >= MEMO_SIZE:
                del self._memo[next(iter(self._memo))]
            self._memo[key] = out
        return self._memo[key][()]

    def _series_values(self, zs: np.ndarray, side: str | None, derivative: bool):
        """Without a side each series is evaluated only on its own points."""
        inner, outer = self._derivative if derivative else (self._inside, self._outside)

        def outside(z):
            values = polyval(outer, 1.0 / z)
            return -values / z**2 if derivative else values

        if side == "inside":
            return polyval(inner, zs)
        if side == "outside":
            return outside(zs)
        if side is not None:
            raise ValueError("side must be 'inside' or 'outside'")
        inside = self._inside_mask(zs)
        out = np.empty(zs.shape, dtype=complex)
        out[inside] = polyval(inner, zs[inside])
        out[~inside] = outside(zs[~inside])
        return out


# ---------------------------------------------------------------------------
# Inhomogeneity polynomial U:  W F' = 2 V F + U
# ---------------------------------------------------------------------------

def recover_u(
    spec: SemiClassicalWeight,
    F: CaratheodoryEvaluator,
    vw=None,
    tol_scale: float = 1.0,
) -> tuple[np.ndarray, dict[str, Any]]:
    """U = W F' - 2 V F, read off the exact series of F at z = 0 (orders
    0..m-1 of W F' - 2 V F) and, independently, at infinity (from the
    negative moments, in powers of 1/z).  On each side the orders next to the
    band must vanish to within FIT_TOL * tol_scale of the band, which is the
    operational content of the first-order ODE satisfied by F; the inside
    read is returned and the outside one is reported as the agreement."""
    if vw is None:
        vw = build_vw(spec)
    m = spec.m

    def read(pair, f, lo, hi):
        return series_band(polyadd(polymul(pair.W, polyder(f)), -2.0 * polymul(pair.V, f)), lo, hi)

    coeffs, res_in = read(vw, F.series(m + 3), 0, m - 1)
    # at infinity: the same read for the reflected weight w(1/u), whose F is
    # -F outside; W F' - 2 V F is u^-m times its series, so U is reversed
    coeff_out, res_out = read(vw.reflected(), -F.series(m + 3, side="outside"), 1, m)
    worst = max(res_in, res_out)
    if worst > FIT_TOL * tol_scale:
        raise NotSemiClassicalError(
            f"U(z) = W F' - 2 V F is not a polynomial of degree {m - 1}: "
            f"out-of-band ratio {worst:.3e} (weight outside class or quadrature failure)"
        )
    scale = max(float(np.max(np.abs(coeffs))), 1e-30)
    agreement = float(np.max(np.abs(coeffs - coeff_out[::-1]))) / scale
    info = {
        "residual_inside": res_in,
        "residual_outside": res_out,
        "coefficient_agreement": agreement,
    }
    return coeffs, info


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
