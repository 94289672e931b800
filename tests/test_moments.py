import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from circlebops import moments
from circlebops.assoc import AssocSystem
from circlebops.errors import NearCircleError, NotSemiClassicalError, WindowError
from circlebops.moments import (
    CaratheodoryEvaluator,
    compute_moments,
    heine_oracle,
    recover_u,
    table_from_moments,
    toeplitz_det,
)
from circlebops.numerics import polyval, series_band
from circlebops.weight import SemiClassicalWeight, Singularity, build_vw

from conftest import complex_m4_weight, laurent_callable, lebesgue_weight_relaxed
from oracles import caratheodory_quadrature, central_diff


def binomial_series_moments(window):
    """Independent oracle: moments of z^{-1}(z-2)^{1/2}(z-3)^{1/3} by
    termwise binomial expansion of the two factors."""

    def binom(a, k):
        out = 1.0
        for i in range(k):
            out *= (a - i) / (i + 1)
        return out

    terms = 2 * window + 4
    c2 = np.array(
        [binom(0.5, k) * (-0.5) ** k for k in range(terms)], dtype=complex
    ) * np.power(complex(-2.0), 0.5)
    c3 = np.array(
        [binom(1.0 / 3.0, k) * (-1.0 / 3.0) ** k for k in range(terms)], dtype=complex
    ) * np.power(complex(-3.0), 1.0 / 3.0)
    h = np.convolve(c2, c3)[:terms]
    # w = z^{-1} h(z), so w_k = h_{k+1}
    return {k: (h[k + 1] if k + 1 >= 0 else 0.0) for k in range(-window, window + 1)}


class TestComputeMoments:
    def test_constant_weight(self):
        tbl = compute_moments(lambda z: np.ones_like(z), 4)
        assert abs(tbl.moment(0) - 1) < 1e-14
        for k in (1, 2, 3, 4, -1, -4):
            assert abs(tbl.moment(k)) < 1e-14

    def test_laurent_weight_exact(self):
        tbl = compute_moments(laurent_callable, 3)
        assert abs(tbl.moment(-1) - 1) < 1e-13
        assert abs(tbl.moment(0) - 2) < 1e-13
        assert abs(tbl.moment(1) - 1) < 1e-13
        for k in (-3, -2, 2, 3):
            assert abs(tbl.moment(k)) < 1e-13

    def test_strict_weight_against_binomial_oracle(self, strict):
        oracle = binomial_series_moments(strict["table"].window)
        err = max(
            abs(strict["table"].moment(k) - oracle[k])
            for k in range(-strict["table"].window, strict["table"].window + 1)
        )
        assert err < 1e-10

    def test_doubling_convergence_recorded(self, strict):
        assert strict["table"].source["kind"] == "quadrature"
        assert strict["table"].source["residual"] < 1e-12

    def test_window_error_names_requirement(self):
        tbl = table_from_moments([(0, 1.0)], window=2)
        with pytest.raises(WindowError) as err:
            tbl.moment(5)
        assert err.value.required == 5


class TestToeplitz:
    def test_identity_weight(self, lebesgue):
        for n in range(7):
            assert abs(toeplitz_det(lebesgue["table"], 0, n) - 1) < 1e-14

    def test_laurent_exact_values(self, laurent):
        tbl = laurent["table"]
        for n in range(9):
            assert abs(toeplitz_det(tbl, 0, n) - (n + 1)) < 1e-10
            assert abs(toeplitz_det(tbl, 1, n) - 1) < 1e-10
            assert abs(toeplitz_det(tbl, -1, n) - 1) < 1e-10

    def test_empty_determinant_is_one(self, laurent):
        assert toeplitz_det(laurent["table"], 0, 0) == 1

    def test_insufficient_window(self):
        tbl = table_from_moments([(0, 1.0)], window=2)
        with pytest.raises(WindowError):
            toeplitz_det(tbl, 1, 3)

    def test_ratio_recursion_against_reflection_data(self, strict):
        # I0_{n+1} I0_{n-1} / I0_n^2 = 1 - r_n rbar_n
        sys = strict["sys"]
        i0 = [toeplitz_det(sys.table, 0, n) for n in range(8)]
        for n in range(1, 7):
            lev = sys.level(n)
            lhs = i0[n + 1] * i0[n - 1] / i0[n] ** 2
            assert abs(lhs - (1 - lev.r * lev.rbar)) < 1e-9


class TestCaratheodory:
    def test_lebesgue_values(self, lebesgue):
        f = CaratheodoryEvaluator(lebesgue["table"])
        assert abs(f(0.3) - 1.0) < 1e-14
        assert abs(f(2.0) + 1.0) < 1e-14

    def test_laurent_value(self, laurent):
        f = CaratheodoryEvaluator(laurent["table"])
        assert abs(f(0.5) - 3.0) < 1e-13

    def test_near_circle_refused_without_side(self, laurent):
        f = CaratheodoryEvaluator(laurent["table"])
        with pytest.raises(NearCircleError):
            f(1.0005)
        # explicit side works inside the band
        assert np.isfinite(f(1.0005, side="outside"))

    def test_series_vs_contour_quadrature(self, strict):
        f = CaratheodoryEvaluator(strict["table"])
        for z in (0.5 + 0.1j, 2.0 + 0.4j):
            direct = caratheodory_quadrature(strict["weight"], z)
            assert abs(f(complex(z)) - direct) < 1e-9

    def test_series_is_the_moment_expansion(self, strict):
        tbl = strict["table"]
        f = CaratheodoryEvaluator(tbl)
        w = {k: tbl.moment(k) for k in range(-tbl.window, tbl.window + 1)}
        inside = [w[0]] + [2.0 * w[k] for k in range(1, tbl.window + 1)]
        outside = [-w[0]] + [-2.0 * w[-k] for k in range(1, tbl.window + 1)]
        assert np.array_equal(f.series(tbl.window + 1), inside)
        assert np.array_equal(f.series(tbl.window + 1, side="outside"), outside)
        with pytest.raises(WindowError):
            f.series(tbl.window + 2)

    @staticmethod
    def reference(f, z, side=None):
        """The series route written out: Horner on each side's own points."""
        zs = np.asarray(z, dtype=complex)
        count = f.table.window + 1
        inside = np.abs(zs) < 1.0 if side is None else np.full(zs.shape, side == "inside")
        out = np.empty(zs.shape, dtype=complex)
        out[inside] = npoly.polyval(zs[inside], f.series(count))
        out[~inside] = npoly.polyval(1.0 / zs[~inside], f.series(count, side="outside"))
        return out

    def test_repeated_calls_match_reference_bitwise(self, strict):
        f = CaratheodoryEvaluator(strict["table"])
        grid = np.array([[0.3 + 0.2j, 2.0 - 0.5j, -0.6j], [1.5j, -0.1 + 0.0j, 4.0 + 4.0j]])
        cases = [
            (0.4 - 0.3j, None),
            (2.5 + 1.0j, None),
            (0.4 - 0.3j, "inside"),
            (1.0005, "outside"),
            (0.9995j, "inside"),
            (grid, None),
            (grid.ravel(), None),
            (grid[0, :1], "inside"),
            (grid[:, 1:], "outside"),
        ]
        for z, side in cases:
            want = self.reference(f, z, side)
            for _ in range(3):
                got = np.asarray(f(z, side=side))
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        assert np.ndim(f(0.4 - 0.3j)) == 0 and isinstance(f(2.5 + 1.0j), complex)

    def test_near_circle_raises_on_every_call(self, strict):
        f = CaratheodoryEvaluator(strict["table"])
        zs = np.array([0.5, 1.0 + 1e-4j, 3.0])
        f(zs, side="outside")
        for _ in range(3):
            with pytest.raises(NearCircleError):
                f(zs)
            with pytest.raises(NearCircleError):
                f(0.9999)

    def test_returned_values_are_read_only(self, strict):
        f = CaratheodoryEvaluator(strict["table"])
        zs = np.array([0.2 + 0.1j, 3.0j])
        first = f(zs)
        kept = first.copy()
        with pytest.raises(ValueError):
            first[0] = 0.0
        with pytest.raises(ValueError):
            f(zs, side="outside")[:] = 1.0
        assert np.array_equal(f(zs), kept)

    def test_levels_share_one_series_pass_per_side(self, strict, monkeypatch):
        asys = AssocSystem(strict["sys"], strict["table"])
        count = strict["table"].window + 1
        calls = {"inside": 0, "outside": 0}

        def counting(coeffs, z):
            if len(coeffs) == count:
                inside = np.array_equal(coeffs, asys.F.series(count))
                calls["inside" if inside else "outside"] += 1
            return polyval(coeffs, z)

        monkeypatch.setattr(moments, "polyval", counting)
        zs = np.array([0.3 + 0.1j, -0.5j, 2.0 + 1.0j, -3.0])
        for n in range(5):
            asys.evaluate(n, zs)
        assert calls == {"inside": 1, "outside": 1}


def test_series_band_reads_and_certifies():
    # z^2 (1 + 2 z): band orders 2..3, orders 0, 1 and 4, 5 vanish
    band, ratio = series_band([0, 0, 1, 2], 2, 3)
    assert np.array_equal(band, [1, 2]) and ratio == 0.0
    _, ratio = series_band([0, 1e-9, 1, 2, 0, 4e-9], 2, 3)
    assert ratio == 2e-9
    _, ratio = series_band([0, 0, 0, 0, 3e-9], 2, 3)
    assert ratio == 3e-9  # absolute when the band is zero


class TestRecoverU:
    def test_constant_weight_gives_zero(self):
        w = lebesgue_weight_relaxed()
        tbl = table_from_moments([(0, 1.0)], window=12)
        u, info = recover_u(w, CaratheodoryEvaluator(tbl), build_vw(w))
        assert np.max(np.abs(u)) < 1e-8
        assert info["residual_inside"] < 1e-8

    def test_laurent_degree_bound(self, laurent):
        u, info = recover_u(
            laurent["weight"], CaratheodoryEvaluator(laurent["table"]), laurent["vw"]
        )
        assert len(u) <= 2  # deg U <= m - 1 = 1
        assert max(info["residual_inside"], info["residual_outside"]) < 1e-8

    def test_strict_two_sided_agreement(self, strict):
        assert len(strict["u_poly"]) <= 3
        assert strict["u_info"]["coefficient_agreement"] < 1e-6

    def test_u_satisfies_ode_pointwise(self, strict):
        # W F' - 2 V F - U = 0 with an independent series derivative
        f = CaratheodoryEvaluator(strict["table"])
        vw = strict["vw"]
        u = strict["u_poly"]
        from circlebops.numerics import polyval

        for z in (0.41 + 0.17j, 0.3 - 0.33j):
            h = 1e-6
            fp = (f(z + h) - f(z - h)) / (2 * h)
            res = vw.w_eval(z) * fp - 2 * vw.v_eval(z) * f(complex(z)) - polyval(u, z)
            assert abs(res) < 1e-6

    def test_complex_m4_weight_both_sides(self):
        # the Taylor read at 0 and the Laurent read at infinity use disjoint
        # moments; U must satisfy the ODE pointwise on both sides
        weight = complex_m4_weight()
        vw = build_vw(weight)
        f = CaratheodoryEvaluator(compute_moments(weight, 48))
        u, info = recover_u(weight, f, vw)
        assert len(u) == 4
        assert max(info["residual_inside"], info["residual_outside"]) < 1e-12
        assert info["coefficient_agreement"] < 1e-10
        zs = np.array([0.4 + 0.2j, -0.3j, 4.0 + 1.0j, -5.0j])
        res = vw.w_eval(zs) * central_diff(f, zs) - 2.0 * vw.v_eval(zs) * f(zs) - polyval(u, zs)
        assert np.max(np.abs(res) / np.maximum(1.0, np.abs(polyval(u, zs)))) < 1e-6

    def test_non_semiclassical_rejection(self):
        # a weight evaluator inconsistent with the declared (V, W) leaves
        # orders outside the band of W F' - 2 V F
        w = lebesgue_weight_relaxed()
        strict_like = SemiClassicalWeight(
            (Singularity(0, -1), Singularity(2, 0.5), Singularity(3, 1 / 3))
        )
        tbl = compute_moments(strict_like, 24)
        with pytest.raises(NotSemiClassicalError):
            recover_u(strict_like, CaratheodoryEvaluator(tbl), build_vw(w))


class TestHeineOracle:
    def test_lebesgue_normalization(self):
        value = heine_oracle(lambda z: np.ones_like(z), 2)
        assert abs(value - 1.0) < 1e-10

    def test_laurent_values(self):
        assert abs(heine_oracle(laurent_callable, 2) - 3.0) < 1e-8
        assert abs(heine_oracle(laurent_callable, 3) - 4.0) < 1e-8

    def test_matches_lu_determinant_on_strict_weight(self, strict):
        for n in (1, 2, 3):
            oracle = heine_oracle(strict["wfun"], n)
            det = toeplitz_det(strict["table"], 0, n)
            assert abs(oracle - det) < 1e-6

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            heine_oracle(laurent_callable, 4)


def test_trapezoid_error_decays_geometrically(strict):
    # aliasing error of the P-point rule drops by orders of magnitude per
    # doubling for a weight analytic in an annulus around the circle
    window = 4
    reference = {k: strict["table"].moment(k) for k in range(-window, window + 1)}

    def at_points(points):
        theta = 2.0 * np.pi * np.arange(points) / points
        vals = strict["weight"](np.exp(1j * theta))
        hat = np.fft.fft(vals) / points
        return max(
            abs(hat[k % points] - reference[k]) for k in range(-window, window + 1)
        )

    errors = [at_points(p) for p in (16, 32, 64)]
    assert errors[1] < errors[0] / 50.0
    assert errors[2] < errors[1] / 50.0
