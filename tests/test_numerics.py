"""rel_residuals, the row-wise relative residual: row k is the largest
|mismatch| of the row over the largest |term| of the row, floored at 1; and
the polynomial arithmetic against numpy's polynomial package: blocked
Horner's invariants and bound, polyder, polymul and polyfromroots bit for
bit, and times_z as the product by z of zero-padded rows; and
circle_samples' distance from the points it avoids."""

import random

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from circlebops.errors import GeometryError
from circlebops.numerics import (
    BLOCK, MIN_DISTANCE, circle_samples, polyder, polyfromroots, polymul, polyval, rel_residuals, times_z,
)
from circlebops.pipeline import build_bundle
from circlebops.weight import weight_from_json

from conftest import COMPLEX_M4_SPEC, INSIDE_COMPLEX_SPEC, STRICT_SPEC


def complex_rows(rng, shape, spread=6.0):
    mag = np.exp(spread * rng.normal(size=shape))
    return mag * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def by_definition(mismatch, *terms):
    """The definition on rows flattened to one axis each."""
    def size(x):
        return np.abs(np.asarray(x)).reshape(len(mismatch), -1).max(axis=1)

    return size(mismatch) / np.maximum.reduce([np.ones(len(mismatch)), *map(size, terms)])


class TestRelResiduals:
    def test_rows_of_points(self):
        rng = np.random.default_rng(11)
        lhs, rhs = complex_rows(rng, (40, 7)), complex_rows(rng, (40, 7))
        got = rel_residuals(lhs - rhs, lhs, rhs)
        assert got.shape == (40,)
        assert np.array_equal(got, by_definition(lhs - rhs, lhs, rhs))

    def test_rows_with_trailing_matrix_axes(self):
        rng = np.random.default_rng(12)
        lhs, rhs = complex_rows(rng, (9, 5, 2, 2)), complex_rows(rng, (9, 5, 2, 2))
        assert np.array_equal(rel_residuals(lhs - rhs, lhs, rhs), by_definition(lhs - rhs, lhs, rhs))

    def test_rows_of_one_scalar(self):
        rng = np.random.default_rng(13)
        lhs = [complex(v) for v in complex_rows(rng, 500)]
        rhs = [complex(v) for v in complex_rows(rng, 500)]
        got = rel_residuals(np.subtract(lhs, rhs), lhs, rhs)
        assert np.array_equal(got, by_definition(np.subtract(lhs, rhs), lhs, rhs))

    def test_scalar_rows_of_numpy_scalars(self):
        # a scalar row is sized by numpy's abs, as an array row is
        rng = np.random.default_rng(14)
        lhs, rhs = complex_rows(rng, 200), complex_rows(rng, 200)
        by_ufunc = np.abs(lhs - rhs) / np.fmax(1.0, np.fmax(np.abs(lhs), np.abs(rhs)))
        assert np.array_equal(rel_residuals(lhs - rhs, lhs, rhs), by_ufunc)

    def test_floor_of_one(self):
        small = np.array([[1e-3, -2e-3j], [0.5, 0.25]])
        mismatch = np.array([[1e-4, 0.0], [1e-5j, 0.0]])
        assert np.array_equal(rel_residuals(mismatch, small), [1e-4, 1e-5])

    def test_all_zero_row(self):
        rows = np.array([[0j, 0j, 0j], [3.0, -4j, 1.0]])
        assert np.array_equal(rel_residuals(rows - rows, rows, rows), [0.0, 0.0])

    def test_nan_and_inf_rows_follow_rel_residual(self):
        # a NaN mismatch gives NaN; an infinite term scales a finite mismatch to 0
        lhs = np.array([[1.0, np.nan], [np.inf, 2.0], [5.0, 6.0]], dtype=complex)
        rhs = np.array([[1.0, 2.0], [np.inf, 2.0], [5.0, 6.0 + 1e-9j]], dtype=complex)
        with np.errstate(invalid="ignore"):
            mismatch = np.where(np.isinf(lhs), 0.5, lhs - rhs)
        got = rel_residuals(mismatch, lhs, rhs)
        assert np.isnan(got[0]) and got[1] == 0.0 and got[2] == 1e-9 / 6.0

    def test_no_rows(self):
        assert rel_residuals(np.zeros((0, 4)), np.zeros((0, 4))).shape == (0,)
        assert rel_residuals(np.zeros(0), []).shape == (0,)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def with_zeros(rng, shape):
    """Complex entries with some +0, -0 and mixed-sign zero parts."""
    c = complex_rows(rng, shape, spread=1.0)
    pick = rng.random(shape)
    c[pick < 0.15] = 0.0
    c[(pick >= 0.15) & (pick < 0.25)] = complex(-0.0, 0.0)
    c[(pick >= 0.25) & (pick < 0.3)] = complex(-0.0, -0.0)
    return c


class TestBlockedHorner:
    def test_one_block_is_numpys_horner(self):
        # up to BLOCK coefficients, every step is numpy's, sign bits included
        rng = np.random.default_rng(21)
        for size in range(1, BLOCK + 1):
            for columns in ((), (3,), (2, 4)):
                c = with_zeros(rng, (size, *columns))
                for z in (complex_rows(rng, (7,), 0.5), complex_rows(rng, (2, 3), 0.5), np.asarray(0.3 - 0.8j)):
                    assert same_bits(polyval(c, z), npoly.polyval(z, c)), (size, columns, np.shape(z))

    def test_padded_row_is_its_own_value(self):
        # blocks are aligned at order 0, so the zeros above a row of a stack
        # leave its value unchanged, at any length on either side of BLOCK
        rng = np.random.default_rng(22)
        z = complex_rows(rng, (11,), 0.4)
        for size in range(1, 60):
            stack = np.zeros((64, 3), dtype=complex)
            stack[:size, 1] = complex_rows(rng, (size,), 1.0)
            assert same_bits(polyval(stack, z)[1], polyval(stack[:size, 1], z)), size

    def test_point_alone_equals_point_in_array(self):
        rng = np.random.default_rng(23)
        z = complex_rows(rng, (13,), 0.4)
        for size in (2, 5, 8, 9, 17, 49):
            for columns in ((), (2,)):
                c = complex_rows(rng, (size, *columns), 1.0)
                together = polyval(c, z)
                alone = np.stack([polyval(c, z[k : k + 1])[..., 0] for k in range(len(z))], axis=-1)
                assert same_bits(alone, together), (size, columns)

    @pytest.mark.parametrize("spec", [STRICT_SPEC, COMPLEX_M4_SPEC, INSIDE_COMPLEX_SPEC],
                             ids=["flagship", "m4", "inside-complex"])
    def test_eps_bands_against_numpys_horner(self, spec):
        # the 49-order eps bands of every level: within 4e-15 of Horner's
        # error scale sum |c_k| |x|^k (1.7e-15 measured), at |z| = 0.45 and
        # 1 - 1e-4 on the inside bands and |z| = 2.2 and 1 + 1e-4 on the
        # outside ones (in x = 1/z)
        asys = build_bundle(weight_from_json(spec), 22).asys
        angles = np.exp(1j * np.linspace(0.1, 6.2, 9))
        for radius, side in ((0.45, 0), (1 - 1e-4, 0), (2.2, 1), (1 + 1e-4, 1)):
            x = radius * angles if side == 0 else 1.0 / (radius * angles)
            bands = asys._bands[side]
            assert bands.shape[0] == 49
            scale = npoly.polyval(np.abs(x), np.abs(bands))
            assert np.max(np.abs(polyval(bands, x) - npoly.polyval(x, bands)) / scale) < 4e-15


class TestPolynomialArithmetic:
    def test_polyder_is_numpys(self):
        # numpy's c *= 1 before the orders' multiply: the signs of zero match
        rng = np.random.default_rng(24)
        for size in range(1, 40):
            for columns in ((), (3,), (2, 5)):
                c = with_zeros(rng, (size, *columns))
                assert same_bits(polyder(c), npoly.polyder(c)), (size, columns)

    def test_polymul_is_numpys(self):
        # numpy's trailing-zero trim of the factors and of the product
        rng = np.random.default_rng(25)
        for la in range(1, 10):
            for lb in range(1, 10):
                a, b = with_zeros(rng, (la,)), with_zeros(rng, (lb,))
                b[-1] = 0.0
                assert same_bits(polymul(a, b), npoly.polymul(a, b)), (la, lb)
        assert same_bits(polymul([0.0, 0.0], [1.0, 2.0]), npoly.polymul([0j, 0j], [1.0, 2.0]))

    def test_polyfromroots_is_numpys(self):
        # numpy's sorted roots and product tree
        rng = np.random.default_rng(26)
        for count in range(1, 10):
            roots = complex_rows(rng, (count,), 1.0)
            assert same_bits(polyfromroots(roots), npoly.polyfromroots(roots)), count
        assert same_bits(polyfromroots([]), np.ones(1, dtype=complex))

    def test_times_z_is_the_product_by_z_of_padded_rows(self):
        # a zero-padded stack, level n of degree n: every row but the last
        # is its product by z, bit for bit; the last loses its top order
        rng = np.random.default_rng(27)
        stack = np.tril(complex_rows(rng, (6, 6), 1.0))
        shifted = times_z(stack)
        for n, row in enumerate(stack[:-1]):
            assert same_bits(shifted[n, : n + 2], npoly.polymul([0j, 1.0], row[: n + 1]))
            assert not shifted[n, n + 2 :].any()
        assert same_bits(shifted[-1], np.concatenate([[0j], stack[-1, :-1]]))
        assert same_bits(times_z(stack[None])[0], shifted)  # along the last axis


class TestCircleSamples:
    def test_samples_keep_their_distance(self):
        avoid = [0.45, 0.45j, -0.3 - 0.3j]
        zs = circle_samples(random.Random(5), 40, 0.45, avoid=avoid)
        assert np.allclose(np.abs(zs), 0.45)
        assert np.min(np.abs(zs[:, None] - np.asarray(avoid)[None])) >= MIN_DISTANCE

    def test_a_covered_circle_refuses(self):
        # points every 0.1 radians on |z| = 1 leave no arc MIN_DISTANCE away
        avoid = np.exp(0.1j * np.arange(63))
        with pytest.raises(GeometryError, match="cannot place 1 samples"):
            circle_samples(random.Random(5), 1, 1.0, avoid=avoid)
