"""Shared numerical helpers: polynomial arithmetic on ascending complex
coefficient vectors, relative residuals and deterministic sample-point
draws.

Derivatives and expansion coefficients are never sampled here: they come
from the exact polynomials and moment series of the objects themselves
(`AssocSystem.evaluate_with_derivative`, `AssocSystem.eps_taylor`).  The
arithmetic is numpy's throughout; the same inputs give the same bytes.

`polyval` is Horner's rule in blocks of BLOCK orders counted from the
constant term (Estrin 1960; Knuth, TAOCP 2, 4.6.4): one Horner pass over
the orders inside every block at once, then one over the blocks in z^BLOCK,
so a 49-order band takes 7 + 6 array steps, not 48.  Up to BLOCK
coefficients it is numpy's `polynomial.polyval`, step for step.  The blocks
are aligned at order 0, so the zeros above a row of a zero-padded stack
only add exact zeros to its steps, and every step is elementwise.  Bit for
bit, that is claimed only for the shapes the tests pin: numpy's Horner up
to BLOCK coefficients; a zero-padded row as its own value (1 to 59
coefficients at 11 points); a point alone as inside an array (2 to 49
coefficients at 13 points).  In general an element's rounding can depend
on the array's shape, which picks numpy's complex-multiply loop (vector
body, scalar tail, broadcast operand): a sweep of coefficient stacks and
point counts finds shapes whose bits differ, with numpy's Horner too.
`polyder`, `polymul` and `polyfromroots` give the bits of numpy's
`polynomial` functions without importing that package.  `rel_residuals`
equals its definition on rows flattened to one axis, bit for bit, for the
shapes the tests pin: rows of points, of matrices and of one scalar."""

from __future__ import annotations

import random
from typing import Iterable, Sequence

import numpy as np

from .errors import GeometryError

ArrayLike = Sequence[complex] | np.ndarray


def as_poly(coeffs: ArrayLike) -> np.ndarray:
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    return c if c.size else np.zeros(1, dtype=complex)


BLOCK = 8  # orders per Horner block; z^BLOCK is three squarings


def polyval(coeffs: ArrayLike, z):
    """Evaluate an ascending-coefficient polynomial by Horner's rule in
    blocks of BLOCK orders (see the module docstring).  A 2-D or deeper
    coeffs of shape (degree+1, *k) holds polynomials along its first axis
    and gives values of shape (*k, *z.shape)."""
    x = np.asarray(z, dtype=complex)
    c = as_poly(coeffs)
    c = c.reshape(c.shape + (1,) * x.ndim)
    blocks = -(-len(c) // BLOCK)
    if blocks > 1:  # [j, b]: order BLOCK b + j, zero-padded at the top
        padded = np.zeros((BLOCK * blocks,) + c.shape[1:], dtype=complex)
        padded[: len(c)] = c
        c = padded.reshape((blocks, BLOCK) + c.shape[1:]).swapaxes(0, 1).copy()
    value = c[-1] + x * 0
    if blocks == 1:  # numpy's Horner, step for step
        for j in range(len(c) - 2, -1, -1):
            value = c[j] + value * x
        return value
    for j in range(BLOCK - 2, -1, -1):
        value *= x
        value += c[j]
    step = x * x
    step = step * step
    step = step * step
    out = value[-1]
    for b in range(blocks - 2, -1, -1):
        out = out * step
        out += value[b]
    return out


def polyder(coeffs: ArrayLike) -> np.ndarray:
    """Derivative along the first axis: order k - 1 is k times order k,
    after numpy's ``c *= 1``, which fixes the signs of zero as its polyder
    does."""
    c = as_poly(coeffs)
    if len(c) == 1:
        return c * 0
    c = c * 1
    orders = np.arange(1, len(c)).reshape((-1,) + (1,) * (c.ndim - 1))
    return orders * c[1:]


def _trim(c: np.ndarray) -> np.ndarray:
    """c without its trailing zeros, at least its constant term."""
    nonzero = np.flatnonzero(c)
    return c[: nonzero[-1] + 1] if nonzero.size else c[:1]


def polymul(a: ArrayLike, b: ArrayLike) -> np.ndarray:
    return _trim(np.convolve(_trim(as_poly(a)), _trim(as_poly(b))))


def polyadd(*terms: ArrayLike) -> np.ndarray:
    out = np.zeros(max(len(as_poly(t)) for t in terms), dtype=complex)
    for t in terms:
        t = as_poly(t)
        out[: len(t)] += t
    return out


def polyfromroots(roots: Iterable[complex]) -> np.ndarray:
    """prod_j (z - roots_j), multiplied as numpy's polyfromroots does: the
    roots sorted, the factors paired in a product tree."""
    factors = [np.array([-r, 1]) for r in np.sort(np.asarray(list(roots), dtype=complex))]
    if not factors:
        return np.ones(1, dtype=complex)
    while len(factors) > 1:
        half, odd = divmod(len(factors), 2)
        paired = [polymul(factors[i], factors[i + half]) for i in range(half)]
        if odd:
            paired[0] = polymul(paired[0], factors[-1])
        factors = paired
    return factors[0]


def principal_sqrt(value: complex) -> complex:
    """Square root with Re >= 0, tie broken towards Im >= 0."""
    root = complex(np.sqrt(complex(value)))
    if root.real < 0 or (root.real == 0 and root.imag < 0):
        root = -root
    return root


def circle_samples(
    rng: random.Random,
    count: int,
    radius: float,
    avoid: Sequence[complex] = (),
    min_distance: float = 0.1,
    max_tries: int = 200,
) -> np.ndarray:
    """Draw ``count`` points on |z| = radius keeping min_distance from the
    points in ``avoid``, the angle of each a ``rng.random()`` draw.  Any
    generator with ``random()`` works (``random.Random``, which the CLI
    seeds, or a numpy Generator); deterministic for a fixed generator
    state."""
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
    so a term without the row axis is the same in every row.  A NaN in a
    term drops that term from its row's scale (fmax); a NaN in the mismatch
    makes its row's residual NaN."""
    size = np.abs(mismatch)
    axes = tuple(range(1, size.ndim))
    scale = 1.0
    for t in terms:
        t = np.abs(t)
        if t.ndim < size.ndim:
            t = t[None]  # without the row axis: the same in every row
        t_axes = axes if t.ndim == size.ndim else tuple(range(1, t.ndim))
        scale = np.fmax(scale, np.maximum.reduce(t, axis=t_axes) if t_axes else t)
    return (np.maximum.reduce(size, axis=axes) if axes else size) / scale
