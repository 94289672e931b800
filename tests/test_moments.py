import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from circlebops import moments
from circlebops.errors import CircleBopsError, NearCircleError, QuadratureError, WindowError
from circlebops.moments import (
    QUAD_TOL,
    SERIES_MAX,
    compute_moments,
    factorised_moments,
    heine_oracle,
    recover_u,
    table_from_moments,
    toeplitz_det,
)
from circlebops.numerics import polyval
from circlebops.pipeline import moment_table
from circlebops.weight import SemiClassicalWeight, Singularity

from conftest import complex_m4_weight, laurent_callable, lebesgue_weight_relaxed
from oracles import caratheodory, caratheodory_quadrature, central_diff, series_band, u_reads


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
        table = compute_moments(strict["weight"], 48)
        assert table.source["kind"] == "quadrature"
        assert table.source["residual"] < 1e-12

    def test_stop_rule_is_relative_to_the_largest_moment(self, monkeypatch):
        # max |w_k| is about 1.2e8: converged by 2,048 points on its scale,
        # and past QUAD_MAX_POINTS the error names the last change
        weight = SemiClassicalWeight((Singularity(0, 9.5), Singularity(0.9, -10.5), Singularity(2, 0.5)))
        table = compute_moments(weight, 48)
        assert table.source["points"] <= 2048 and table.source["residual"] < QUAD_TOL
        assert np.max(np.abs(table.values - factorised_moments(weight, 48).values)) < QUAD_TOL * 1.3e8
        monkeypatch.setattr(moments, "QUAD_MAX_POINTS", 512)
        with pytest.raises(QuadratureError) as err:
            compute_moments(weight, 48)
        assert err.value.points == 512 and QUAD_TOL < err.value.residual < np.inf
        monkeypatch.setattr(moments, "QUAD_MAX_POINTS", 256)
        with pytest.raises(QuadratureError, match="residual inf at 256 points"):
            compute_moments(weight, 48)

    def test_stop_rule_follows_the_grid_scale(self):
        # at window 8 max |w_k| is about 2.9e3 while |w| on the circle
        # reaches 3.2e10 (mean 4.4e8): the trapezoid's round-off follows the
        # grid, so on the retained moments' scale alone it never converged
        weight = SemiClassicalWeight((Singularity(0, 9.5), Singularity(0.9, -10.5), Singularity(2, 0.5)))
        table = compute_moments(weight, 8)
        assert table.source["residual"] < QUAD_TOL
        assert np.max(np.abs(table.values - factorised_moments(weight, 8).values)) < QUAD_TOL * 4.4e8

    def test_weight_of_the_wrong_shape_names_the_grid_shape(self):
        # the weight is called once on the whole grid, never point by point
        for wrong in (lambda z: 1.0, lambda z: np.ones((len(z), 2))):
            with pytest.raises(ValueError, match=r"shape \(256,\)"):
                compute_moments(wrong, 4)
            with pytest.raises(ValueError, match=r"shape \(32,\)"):
                heine_oracle(wrong, 1)

    def test_window_error_names_requirement(self):
        tbl = table_from_moments([(0, 1.0)], window=2)
        with pytest.raises(WindowError) as err:
            tbl.moment(5)
        assert err.value.required == 5


def near_circle_weight(radius: float) -> SemiClassicalWeight:
    """z^-1.5 (z - radius)^0.5 (z - 2)^0.5: one inside singularity at radius."""
    return SemiClassicalWeight(
        (Singularity(0, -1.5), Singularity(radius, 0.5), Singularity(2, 0.5))
    )


class TestFactorisedMoments:
    def test_long_series_near_the_circle(self):
        # at |z_2| = 0.99 the inside series runs about 4,100 orders; the
        # moments still match the trapezoid to its tolerance
        weight = near_circle_weight(0.99)
        table = factorised_moments(weight, 48)
        assert 4000 < table.source["tail"] < SERIES_MAX
        assert np.max(np.abs(table.values - compute_moments(weight, 48).values)) < 1e-12

    def test_series_past_the_cap_refused(self):
        # at |z_2| = 1 - 1e-9 the series would need about 4e10 orders:
        # refused before one is computed
        with pytest.raises(CircleBopsError, match="too close to the circle"):
            factorised_moments(near_circle_weight(1 - 1e-9), 48)


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
        r, rbar = sys.reflections
        for n in range(1, 7):
            lhs = i0[n + 1] * i0[n - 1] / i0[n] ** 2
            assert abs(lhs - (1 - r[n] * rbar[n])) < 1e-9


class TestCaratheodory:
    """F summed at points by the oracle's series route; the package reads F
    only as series, and the near-circle rule belongs to the associated
    functions' evaluator."""

    def test_lebesgue_values(self, lebesgue):
        table = lebesgue["table"]
        assert abs(caratheodory(table, 0.3) - 1.0) < 1e-14
        assert abs(caratheodory(table, 2.0) + 1.0) < 1e-14

    def test_laurent_value(self, laurent):
        assert abs(caratheodory(laurent["table"], 0.5) - 3.0) < 1e-13

    def test_near_circle_refused_without_side(self, laurent):
        asys = laurent["asys"]
        with pytest.raises(NearCircleError):
            asys.evaluate(1.0005)
        # explicit side works inside the band
        assert all(np.isfinite(v).all() for v in asys.evaluate(1.0005, side="outside"))

    def test_series_vs_contour_quadrature(self, strict):
        for z in (0.5 + 0.1j, 2.0 + 0.4j):
            direct = caratheodory_quadrature(strict["weight"], z)
            assert abs(caratheodory(strict["table"], complex(z)) - direct) < 1e-9

    def test_series_is_the_moment_expansion(self, strict):
        tbl = strict["table"]
        w = {k: tbl.moment(k) for k in range(-tbl.window, tbl.window + 1)}
        inside = [w[0]] + [2.0 * w[k] for k in range(1, tbl.window + 1)]
        outside = [-w[0]] + [-2.0 * w[-k] for k in range(1, tbl.window + 1)]
        assert np.array_equal(tbl.caratheodory(tbl.window + 1), inside)
        assert np.array_equal(tbl.caratheodory(tbl.window + 1, side="outside"), outside)
        assert np.array_equal(tbl.caratheodory(1), [w[0]])
        assert np.array_equal(tbl.caratheodory(1, side="outside"), [-w[0]])
        for side in ("inside", "outside"):
            with pytest.raises(WindowError):
                tbl.caratheodory(tbl.window + 2, side)

    @staticmethod
    def reference(table, z, side=None):
        """The series route written out: Horner on each side's own points."""
        zs = np.asarray(z, dtype=complex)
        count = table.window + 1
        inside = np.abs(zs) < 1.0 if side is None else np.full(zs.shape, side == "inside")
        out = np.empty(zs.shape, dtype=complex)
        out[inside] = npoly.polyval(zs[inside], table.caratheodory(count))
        out[~inside] = npoly.polyval(1.0 / zs[~inside], table.caratheodory(count, side="outside"))
        return out

    def test_repeated_calls_match_reference_bitwise(self, strict):
        table = strict["table"]
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
            want = self.reference(table, z, side)
            for _ in range(3):
                got = np.asarray(caratheodory(table, z, side))
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        assert np.ndim(caratheodory(table, 0.4 - 0.3j)) == 0
        assert isinstance(caratheodory(table, 2.5 + 1.0j), complex)

    def test_near_circle_raises_on_every_call(self, strict):
        asys = strict["asys"]
        zs = np.array([0.5, 1.0 + 1e-4j, 3.0])
        asys.evaluate(zs, side="outside")
        for _ in range(3):
            with pytest.raises(NearCircleError):
                asys.evaluate(zs)
            with pytest.raises(NearCircleError):
                asys.evaluate(0.9999)


def test_raw_table_called_is_its_laurent_sum():
    # w = 1 exactly, at a 0-d point and over a 2-D array
    grid = np.exp(1j * np.linspace(0.1, 6.0, 6)).reshape(2, 3) * np.array([[0.99], [1.01]])
    one = table_from_moments([(0, 1.0)])
    assert one(0.3 + 0.4j) == 1.0 and np.array_equal(one(grid), np.ones((2, 3)))
    # the CI raw table: w_k = sum_n p_{n+k} conj(p_n) / |p|^2, plus 1 at k = 0,
    # in a window of 30; on the circle it is |p(z)|^2 / |p|^2 + 1
    rng = np.random.default_rng(21)
    p = rng.normal(size=7) + 1j * rng.normal(size=7)
    w = np.correlate(p, p, "full") / np.vdot(p, p).real
    w[6] += 1.0
    table = table_from_moments(((k, w[k + 6]) for k in range(-6, 7)), window=30)
    for z in (np.asarray(0.8 - 0.6j), grid):
        want = sum(w[k + 6] * z**k for k in range(-6, 7))
        got = table(z)
        assert got.shape == z.shape
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
    on_circle = np.exp(1j * np.linspace(0.0, 6.0, 5))
    closed = np.abs(npoly.polyval(on_circle, p)) ** 2 / np.vdot(p, p).real + 1.0
    assert np.max(np.abs(table(on_circle) - closed)) < 1e-13 * np.max(closed)


def test_series_band_reads_and_certifies():
    # the oracles' band read: z^2 (1 + 2 z), band orders 2..3, orders 0, 1
    # and 4, 5 vanish
    band, ratio = series_band([0, 0, 1, 2], 2, 3)
    assert np.array_equal(band, [1, 2]) and ratio == 0.0
    _, ratio = series_band([0, 1e-9, 1, 2, 0, 4e-9], 2, 3)
    assert ratio == 2e-9
    _, ratio = series_band([0, 0, 0, 0, 3e-9], 2, 3)
    assert ratio == 3e-9  # absolute when the band is zero


class TestRecoverU:
    def test_constant_weight_gives_zero(self):
        w = lebesgue_weight_relaxed()
        table = table_from_moments([(0, 1.0)], window=12)
        u = recover_u(table, w.vw)
        assert np.max(np.abs(u)) < 1e-8
        assert u_reads(w, table, w.vw)["residual_inside"] < 1e-8

    def test_laurent_degree_bound(self, laurent):
        u = recover_u(laurent["table"], laurent["vw"])
        info = u_reads(laurent["weight"], laurent["table"], laurent["vw"])
        assert len(u) <= 2  # deg U <= m - 1 = 1
        assert max(info["residual_inside"], info["residual_outside"]) < 1e-8

    def test_strict_two_sided_agreement(self, strict):
        # the inside read is recover_u's; the outside one uses only the
        # negative moments
        assert len(strict["u_poly"]) <= 3
        assert np.array_equal(strict["u_poly"], strict["u_info"]["inside"])
        assert strict["u_info"]["coefficient_agreement"] < 1e-6

    def test_u_satisfies_ode_pointwise(self, strict):
        # W F' - 2 V F - U = 0 with an independent series derivative
        table, vw, u = strict["table"], strict["vw"], strict["u_poly"]
        for z in (0.41 + 0.17j, 0.3 - 0.33j):
            h = 1e-6
            fp = (caratheodory(table, z + h) - caratheodory(table, z - h)) / (2 * h)
            res = polyval(vw.W, z) * fp - 2 * polyval(vw.V, z) * caratheodory(table, complex(z)) - polyval(u, z)
            assert abs(res) < 1e-6

    def test_complex_m4_weight_both_sides(self):
        # the Taylor read at 0 and the Laurent read at infinity use disjoint
        # moments; U must satisfy the ODE pointwise on both sides
        weight = complex_m4_weight()
        vw = weight.vw
        table = moment_table(weight, 46)
        u, info = recover_u(table, vw), u_reads(weight, table, vw)
        assert len(u) == 4
        assert max(info["residual_inside"], info["residual_outside"]) < 1e-12
        assert info["coefficient_agreement"] < 1e-10
        zs = np.array([0.4 + 0.2j, -0.3j, 4.0 + 1.0j, -5.0j])
        values = lambda z: caratheodory(table, z)
        res = polyval(vw.W, zs) * central_diff(values, zs) - 2.0 * polyval(vw.V, zs) * values(zs) - polyval(u, zs)
        assert np.max(np.abs(res) / np.maximum(1.0, np.abs(polyval(u, zs)))) < 1e-6


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
