"""Shared numerical helpers: polynomial arithmetic on ascending complex
coefficient vectors, band reads of truncated series, relative residuals,
growth-exponent fits and deterministic sample-point draws.

Derivatives and expansion coefficients are never sampled here: they come
from the exact polynomials and moment series of the objects themselves
(`AssocSystem.derivative`, `AssocSystem.eps_taylor`).  A callable handed to
`slope_fit` must accept an array of points of any shape and return values
of that shape, optionally with trailing axes (e.g. a 2x2 matrix per point):
it is called once on whole arrays of points, never one point at a time."""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import GeometryError

ArrayLike = Sequence[complex] | np.ndarray


def as_poly(coeffs: ArrayLike) -> np.ndarray:
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    return c if c.size else np.zeros(1, dtype=complex)


def polyval(coeffs: ArrayLike, z):
    """Evaluate an ascending-coefficient polynomial by Horner's scheme.  A 2-D
    coeffs of shape (degree+1, k) holds k polynomials in its columns and gives
    values of shape (k, *z.shape)."""
    return npoly.polyval(np.asarray(z, dtype=complex), as_poly(coeffs))


def polyder(coeffs: ArrayLike) -> np.ndarray:
    return as_poly(npoly.polyder(as_poly(coeffs)))


def polymul(a: ArrayLike, b: ArrayLike) -> np.ndarray:
    return as_poly(npoly.polymul(as_poly(a), as_poly(b)))


def polyadd(*terms: ArrayLike) -> np.ndarray:
    out = np.zeros(max(len(as_poly(t)) for t in terms), dtype=complex)
    for t in terms:
        t = as_poly(t)
        out[: len(t)] += t
    return out


def polyfromroots(roots: Iterable[complex]) -> np.ndarray:
    roots = list(roots)
    if not roots:
        return np.ones(1, dtype=complex)
    return as_poly(npoly.polyfromroots(np.asarray(roots, dtype=complex)))


def principal_sqrt(value: complex) -> complex:
    """Square root with Re >= 0, tie broken towards Im >= 0."""
    root = complex(np.sqrt(complex(value)))
    if root.real < 0 or (root.real == 0 and root.imag < 0):
        root = -root
    return root


def series_band(series: ArrayLike, lo: int, hi: int):
    """Orders lo..hi of a truncated power series and its out-of-band ratio:
    the largest coefficient below lo or at orders hi+1, hi+2 over the largest
    in the band (absolute when the band is zero), round-off for z^lo times a
    polynomial of degree hi-lo.  Orders missing at the end are zero."""
    s = polyadd(np.zeros(hi + 3), series)
    band = s[lo : hi + 1]
    stray = float(np.max(np.abs(np.concatenate([s[:lo], s[hi + 1 : hi + 3]]))))
    top = float(np.max(np.abs(band)))
    return band, stray / top if top > 0 else stray


def circle_samples(
    rng: np.random.Generator,
    count: int,
    radius: float,
    avoid: Sequence[complex] = (),
    min_distance: float = 0.1,
    max_tries: int = 200,
) -> np.ndarray:
    """Draw ``count`` points on |z| = radius keeping min_distance from the
    points in ``avoid``.  Deterministic for a fixed generator state."""
    out: list[complex] = []
    tries = 0
    while len(out) < count:
        if tries > max_tries * count:
            raise GeometryError(
                f"cannot place {count} samples on |z|={radius} away from {list(avoid)}"
            )
        tries += 1
        z = radius * np.exp(2j * np.pi * rng.random())
        if all(abs(z - a) >= min_distance for a in avoid):
            out.append(complex(z))
    return np.asarray(out, dtype=complex)


def rel_residual(mismatch, *terms) -> float:
    """|mismatch| scaled by the largest constituent term (floor 1).

    Identities are evaluated as displayed, so the natural scale is the size of
    the terms being cancelled; the floor keeps 0 = 0 checks meaningful.
    """
    scale = 1.0
    for t in terms:
        scale = max(scale, float(np.max(np.abs(t))) if np.ndim(t) else abs(t))
    return float(np.max(np.abs(mismatch)) / scale)


def rel_residuals(mismatch, *terms) -> np.ndarray:
    """rel_residual of every row at once: row k of each argument holds one
    level, its points along the trailing axes (none for one scalar a row),
    and the result's entry k equals rel_residual of those rows bit for bit.
    A scalar row is sized by Python's abs, as rel_residual sizes a scalar;
    numpy's complex abs rounds differently."""
    def size(x):
        return np.abs(x).max(axis=tuple(range(1, np.ndim(x))))

    scale = np.ones(len(mismatch))
    for t in terms:
        t = np.asarray(t)
        scale = np.fmax(scale, size(t) if t.ndim > 1 else [abs(v) for v in t.tolist()])
    return size(mismatch) / scale


def slope_fit(f: Callable, r1: float, r2: float, angles: int = 32):
    """Mean-log growth exponent between circles |z| = r1 and |z| = r2.

    Averaging log|f| over each circle removes the O(1/z) harmonic correction
    of a leading-order monomial, giving the order to O((c/r)^2).  f is called
    once, on both circles; trailing axes of its values (e.g. a 2x2 matrix per
    point) give one exponent per entry.  An entry that vanishes at a sample
    point gets -inf.
    """
    theta = 2.0 * np.pi * (np.arange(angles) + 0.5) / angles
    zs = np.array([[r1], [r2]]) * np.exp(1j * theta)
    mags = np.abs(np.asarray(f(zs), dtype=complex))
    with np.errstate(divide="ignore", invalid="ignore"):
        m1, m2 = np.mean(np.log(mags), axis=1)
        slope = (m2 - m1) / np.log(r2 / r1)
    return np.where(np.isfinite(m1) & np.isfinite(m2), slope, -np.inf)[()]
