"""Shared numerical helpers: polynomial arithmetic on ascending complex
coefficient vectors, band reads of truncated series, relative residuals and
deterministic sample-point draws.

Derivatives and expansion coefficients are never sampled here: they come
from the exact polynomials and moment series of the objects themselves
(`AssocSystem.evaluate_with_derivative`, `AssocSystem.eps_taylor`).  The
arithmetic is numpy's throughout; the same inputs give the same bytes."""

from __future__ import annotations

from typing import Iterable, Sequence

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


def rel_residuals(mismatch, *terms) -> np.ndarray:
    """Relative residual of every row: the largest |mismatch| of row k over
    the largest |term| of that row, with a floor of 1.  Identities are
    evaluated as displayed, so the natural scale is the size of the terms
    being cancelled; the floor keeps 0 = 0 checks meaningful.  Row k of each
    argument holds one level or point, its points along the trailing axes
    (none for one scalar a row).  A term is broadcast against the mismatch,
    so a term without the row axis is the same in every row."""
    def size(x):
        x = np.abs(x)
        return x.max(axis=tuple(range(1, x.ndim))) if x.ndim > 1 else x

    scale = 1.0
    for t in terms:
        t = np.asarray(t)
        if t.ndim < np.ndim(mismatch):
            t = t[None]  # without the row axis: the same in every row
        scale = np.fmax(scale, size(t))
    return size(mismatch) / scale
