"""rel_residuals, the row-wise relative residual: row k is the largest
|mismatch| of the row over the largest |term| of the row, floored at 1."""

import numpy as np

from circlebops.numerics import rel_residuals


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
