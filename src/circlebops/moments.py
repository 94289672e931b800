"""Trigonometric moments, Toeplitz determinants, the Caratheodory transform
and the inhomogeneity polynomial of its first-order ODE.

The moments are Fourier coefficients

    w_k = (1/2*pi) \\int w(e^{i theta}) e^{-i k theta} d theta,

computed by the trapezoidal rule on a uniform grid (spectrally accurate for
weights analytic in an annulus around the circle) with adaptive point
doubling.  Toeplitz determinants I^eps_n = det[w_{-eps+j-k}] use dense LU;
at the target sizes (n <= 32) conditioning, not speed, is the binding
constraint, and the LU value doubles as the oracle for the polynomial
construction routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .config import DEFAULT_QUAD, DEFAULT_TOL, QuadratureConfig, Tolerances
from .errors import NearCircleError, NotSemiClassicalError, QuadratureError, WindowError
from .numerics import central_diff, circle_samples, polyval, vandermonde_fit
from .weight import SemiClassicalWeight, build_vw, eval_weight


def _as_callable(w) -> Callable:
    if isinstance(w, SemiClassicalWeight):
        return lambda z: eval_weight(w, z)
    return w


def _grid_values(wfun: Callable, points: int) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(points) / points
    zs = np.exp(1j * theta)
    try:
        vals = np.asarray(wfun(zs), dtype=complex)
        if vals.shape != zs.shape:
            raise TypeError
    except TypeError:
        vals = np.asarray([wfun(z) for z in zs], dtype=complex)
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

    def moments(self, ks) -> np.ndarray:
        return np.asarray([self.moment(int(k)) for k in np.atleast_1d(ks)], dtype=complex)

    @property
    def w0(self) -> complex:
        return self.moment(0)

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


def compute_moments(
    w,
    window: int,
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> MomentTable:
    """Moments by adaptive FFT trapezoid: the point count doubles until every
    retained w_k moves by less than quad.tol, starting from quad.start_points
    (never below 4*(window+1) to keep aliasing out of the retained band)."""
    wfun = _as_callable(w)
    points = max(quad.start_points, 4 * (window + 1))
    # round up to a power of two for the FFT
    p = 1
    while p < points:
        p *= 2
    points = p

    def retained(vals: np.ndarray) -> np.ndarray:
        hat = np.fft.fft(vals) / len(vals)
        ks = np.arange(-window, window + 1)
        return hat[ks % len(vals)]

    vals = _grid_values(wfun, points)
    current = retained(vals)
    while True:
        if points * 2 > quad.max_points:
            raise QuadratureError(float("nan"), points)
        points *= 2
        vals = _grid_values(wfun, points)
        nxt = retained(vals)
        change = float(np.max(np.abs(nxt - current)))
        current = nxt
        if change < quad.tol:
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

def toeplitz_matrix(tbl: MomentTable, epsilon: int, n: int) -> np.ndarray:
    if n == 0:
        return np.ones((0, 0), dtype=complex)
    needed = abs(-epsilon) + (n - 1)
    if needed > tbl.window:
        raise WindowError(max(n, needed), tbl.window, f"I^{epsilon}_{n}")
    j = np.arange(n)
    return tbl.values[(-epsilon + j[:, None] - j[None, :]) + tbl.window]


def toeplitz_det(tbl: MomentTable, epsilon: int, n: int) -> complex:
    """I^eps_n = det [w_{-eps+j-k}]_{0<=j,k<=n-1}; the empty determinant is 1."""
    if epsilon not in (-1, 0, 1):
        raise ValueError("epsilon must be one of -1, 0, 1")
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1.0 + 0j
    mat = toeplitz_matrix(tbl, epsilon, n)
    return complex(np.linalg.det(mat))


def hadamard_scale(tbl: MomentTable, n: int) -> float:
    """Product of row norms of the I^0_n matrix: natural determinant scale."""
    if n == 0:
        return 1.0
    mat = toeplitz_matrix(tbl, 0, n)
    norms = np.linalg.norm(mat, axis=1)
    return float(np.prod(np.maximum(norms, 1e-300)))


# ---------------------------------------------------------------------------
# Caratheodory function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaratheodoryEval:
    z: complex
    value: complex
    side: str


class CaratheodoryEvaluator:
    """F(z) = \\oint (zeta+z)/(zeta-z) w(zeta) dzeta/(2 pi i zeta) via the
    moment series: w_0 + 2 sum_{k>=1} w_k z^k inside, -w_0 - 2 sum w_{-k} z^{-k}
    outside.  Points with | |z| - 1 | below the near-circle band are refused
    unless a side is forced (the two analytic elements both extend into the
    annulus of the weight, which is what the jump checks rely on)."""

    def __init__(self, tbl: MomentTable, tol: Tolerances = DEFAULT_TOL):
        self.table = tbl
        self.near_circle = tol.near_circle
        k = tbl.window
        vals = tbl.values
        self._inside = np.concatenate(([vals[k]], 2.0 * vals[k + 1 :]))
        self._outside = np.concatenate(([-vals[k]], -2.0 * vals[k - 1 :: -1]))

    def _inside_mask(self, zs: np.ndarray) -> np.ndarray:
        """Mask of the points inside the circle; raises for the first point
        within the near-circle band."""
        r = np.abs(zs)
        near = np.abs(r - 1.0) < self.near_circle
        if near.any():
            raise NearCircleError(
                f"|z| = {float(r[near].flat[0])} is within {self.near_circle} of "
                "the unit circle; force side='inside' or side='outside'"
            )
        return r < 1.0

    def side_of(self, z: complex) -> str:
        return "inside" if self._inside_mask(np.asarray(z, dtype=complex)) else "outside"

    def __call__(self, z, side: str | None = None):
        """F over an array z (a scalar is a 0-d array); without a side each
        series is evaluated only on its own points."""
        zs = np.asarray(z, dtype=complex)
        if side == "inside":
            return polyval(self._inside, zs)[()]
        if side == "outside":
            return polyval(self._outside, 1.0 / zs)[()]
        if side is not None:
            raise ValueError("side must be 'inside' or 'outside'")
        inside = self._inside_mask(zs)
        out = np.empty(zs.shape, dtype=complex)
        out[inside] = polyval(self._inside, zs[inside])
        out[~inside] = polyval(self._outside, 1.0 / zs[~inside])
        return out[()]

    def eval_record(self, z: complex, side: str | None = None) -> CaratheodoryEval:
        chosen = side or self.side_of(z)
        return CaratheodoryEval(z, complex(self(z, side=chosen)), chosen)


def caratheodory_quadrature(
    w,
    z: complex,
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> complex:
    """Direct contour quadrature of F(z); cross-check for the series route."""
    wfun = _as_callable(w)
    points = quad.start_points
    prev = None
    while points <= quad.max_points:
        theta = 2.0 * np.pi * np.arange(points) / points
        zeta = np.exp(1j * theta)
        vals = _grid_values(wfun, points)
        total = complex(np.mean((zeta + z) / (zeta - z) * vals))
        if prev is not None and abs(total - prev) < quad.tol * max(1.0, abs(total)):
            return total
        prev = total
        points *= 2
    raise QuadratureError(abs(total - prev), points // 2)


def caratheodory_eval(source, z: complex, side: str | None = None) -> CaratheodoryEval:
    """Evaluate F at a point from a moment table or a weight (which is first
    converted to a table with a default window)."""
    if isinstance(source, MomentTable):
        tbl = source
    else:
        tbl = compute_moments(source, window=48)
    return CaratheodoryEvaluator(tbl).eval_record(z, side=side)


# ---------------------------------------------------------------------------
# Inhomogeneity polynomial U:  W F' = 2 V F + U
# ---------------------------------------------------------------------------

def recover_u(
    spec: SemiClassicalWeight,
    F: CaratheodoryEvaluator,
    vw=None,
    tol: Tolerances = DEFAULT_TOL,
    seed: int = 20,
) -> tuple[np.ndarray, dict[str, Any]]:
    """Fit U(z) = W(z) F'(z) - 2 V(z) F(z) to a polynomial of degree m-1.

    F' uses central differences with step fd_step * (1 + |z|).  The fit is
    done separately on an inside and an outside circle; both must be
    polynomial to within tol.fit_residual and agree coefficientwise, which is
    the operational content of the first-order ODE satisfied by F.
    """
    if vw is None:
        vw = build_vw(spec)
    m = spec.m
    rng = np.random.default_rng(seed)
    d1, d2 = spec.annulus
    r_in = 0.5 if d1 < 0.45 else (1.0 + d1) / 2.0
    r_out = 2.4 if (not np.isfinite(d2) or d2 > 2.6) else (1.0 + d2) / 2.0
    avoid = list(spec.locations)

    def u_samples(radius: float, side: str):
        pts = circle_samples(rng, m + 4, radius, avoid=avoid, min_distance=0.15)
        fp = np.asarray(
            [central_diff(lambda x: F(x, side=side), z, tol.fd_step) for z in pts]
        )
        fv = F(pts, side=side)
        u_vals = vw.w_eval(pts) * fp - 2.0 * vw.v_eval(pts) * fv
        return pts, u_vals

    pts_in, u_in = u_samples(r_in, "inside")
    pts_out, u_out = u_samples(r_out, "outside")
    coeff_in, res_in = vandermonde_fit(pts_in, u_in, m - 1)
    coeff_out, res_out = vandermonde_fit(pts_out, u_out, m - 1)
    worst = max(res_in, res_out)
    if worst > tol.fit_residual:
        raise NotSemiClassicalError(
            f"U(z) = W F' - 2 V F is not a polynomial of degree {m - 1}: "
            f"fit residual {worst:.3e} (weight outside class or quadrature failure)"
        )
    scale = max(float(np.max(np.abs(coeff_in))), 1e-30)
    agreement = float(np.max(np.abs(coeff_in - coeff_out))) / scale
    coeffs = 0.5 * (coeff_in + coeff_out)
    info = {
        "residual_inside": res_in,
        "residual_outside": res_out,
        "coefficient_agreement": agreement,
        "radii": [r_in, r_out],
    }
    return coeffs, info


# ---------------------------------------------------------------------------
# Heine-identity oracle: multidimensional average over the unit circle
# ---------------------------------------------------------------------------

def heine_oracle(
    w,
    n: int,
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> complex:
    """I^0_n as the n-fold average

        (1/(2 pi)^n n!) \\int prod_l w(e^{i theta_l})
                               prod_{j<k} |z_k - z_j|^2  d theta

    by tensor-product trapezoid with point doubling.  Independent of every
    determinant route; n is capped at 3 (cost grows as P^n)."""
    if n not in (1, 2, 3):
        raise ValueError("heine_oracle supports n in {1, 2, 3}")
    wfun = _as_callable(w)

    def one(points: int) -> complex:
        theta = 2.0 * np.pi * np.arange(points) / points
        zs = np.exp(1j * theta)
        wv = _grid_values(wfun, points)
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

    points = quad.heine_start
    prev = one(points)
    while points * 2 <= quad.heine_max:
        points *= 2
        cur = one(points)
        if abs(cur - prev) < quad.heine_tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    return prev
