import numpy as np
import pytest

from circlebops.bops import build_system
from circlebops.assoc import AssocSystem
from circlebops.coeffs import (
    _product,
    compute_coeff_quad,
    dpainleve_ratio_check,
    expansion_closed_forms,
    spectral_derivative_check,
    verify_bilinear,
    verify_expansion_forms,
    verify_initial_members,
    verify_linear_relations,
)
from circlebops.errors import (
    DegenerateLevelError,
    NotSemiClassicalError,
    SingularResidueError,
    WindowError,
)
from circlebops.moments import compute_moments
from circlebops.numerics import circle_samples, polyadd, polyder, polymul, polyval
from circlebops.pipeline import build_bundle
from circlebops.weight import SemiClassicalWeight, Singularity, build_vw

from conftest import complex_m4_weight
from oracles import central_diff


def samples(seed=9, count=10):
    rng = np.random.default_rng(seed)
    return list(circle_samples(rng, count, 0.45))


class TestConstruction:
    def test_degrees_m3(self, strict):
        # m = 3: deg Theta = deg Theta* = 1, deg Omega = deg Omega* = 2
        for q in strict["quads"].values():
            assert len(q.theta) == 2
            assert len(q.thetastar) == 2
            assert len(q.omega) == 3
            assert len(q.omegastar) == 3

    def test_fit_residuals_tiny(self, strict):
        for q in strict["quads"].values():
            assert max(q.fit_residuals.values()) < 1e-8

    def test_degree_certification(self, strict):
        rep = verify_expansion_forms(
            strict["quads"], strict["sys"], strict["vw"], strict["weight"], [1, 2, 3]
        )
        for e in rep.entries:
            if e.name == "degree_certification":
                assert e.residual == max(strict["quads"][e.n].fit_residuals.values()) < 1e-7

    def test_m2_weight_degrees(self):
        # m = 2: Theta_n constant, Omega_n linear
        weight = SemiClassicalWeight((Singularity(0, -1), Singularity(2, 0.5)))
        from circlebops.moments import compute_moments

        table = compute_moments(weight, 24)
        sys = build_system(table, 4)
        asys = AssocSystem(sys, table)
        quad = compute_coeff_quad(sys, asys, build_vw(weight), 1, weight=weight)
        assert len(quad.theta) == 1
        assert len(quad.omega) == 2

    def test_not_semiclassical_refused(self, laurent):
        with pytest.raises(NotSemiClassicalError):
            compute_coeff_quad(
                laurent["sys"],
                laurent["asys"],
                laurent["vw"],
                1,
                weight=laurent["weight"],
            )

    def test_degenerate_prefactor_rejected(self, lebesgue, strict):
        # Lebesgue levels have phi_{n+1}(0) = 0; pairing them with a
        # semi-classical (V, W) exercises the prefactor guard
        with pytest.raises(DegenerateLevelError):
            compute_coeff_quad(
                lebesgue["sys"], lebesgue["asys"], strict["vw"], 2, weight=None
            )

    def test_matches_sampled_defining_combination(self, strict):
        # the defining combinations evaluated pointwise, eps' by central
        # differences, at points off the circle on both sides
        sys, asys, vw = strict["sys"], strict["asys"], strict["vw"]
        zs = np.array([0.6j, -0.5 + 0.3j, 2.5j, -2.2 - 1.4j, 4.0 * np.exp(2j)])
        w_z, v_z = vw.w_eval(zs), vw.v_eval(zs)
        for n in (0, 1, 3):
            lev_n, lev_p = sys.level(n), sys.level(n + 1)
            phi_n, star_n, eps_n, es_n = asys.evaluate(n, zs)
            phi_p, star_p, eps_p, es_p = asys.evaluate(n + 1, zs)
            dphi_n = polyval(polyder(lev_n.c), zs)
            dstar_n = polyval(polyder(lev_n.cbar[::-1]), zs)
            deps_n = central_diff(lambda x: asys.eps(n, x), zs)
            des_n = central_diff(lambda x: asys.epsstar(n, x), zs)
            pref = 2.0 * lev_p.phi0 / lev_n.kappa * zs**n
            pref_star = 2.0 * lev_p.phibar0 / lev_n.kappa * zs ** (n + 1)
            want = {
                "th": (w_z * (-phi_n * deps_n + eps_n * dphi_n) + 2.0 * v_z * phi_n * eps_n) / pref,
                "om": (w_z * (eps_p * dphi_n - phi_p * deps_n) + v_z * (phi_n * eps_p + eps_n * phi_p))
                / pref,
                "ths": (w_z * (star_n * des_n - es_n * dstar_n) - 2.0 * v_z * star_n * es_n)
                / pref_star,
                "oms": (w_z * (-es_p * dstar_n + star_p * des_n) - v_z * (star_n * es_p + es_n * star_p))
                / pref_star,
            }
            quad = strict["quads"][n]
            for name, values in want.items():
                got = getattr(quad, name)(zs)
                assert np.max(np.abs(got - values) / np.maximum(1.0, np.abs(values))) < 1e-5, (n, name)

    def test_inconsistent_vw_refused_out_of_band(self, strict):
        # (V, W) of another weight than the moments: the defining
        # combinations are not polynomials, so orders outside the band survive
        other = SemiClassicalWeight(
            (Singularity(0, -1), Singularity(2.5, 0.5), Singularity(3, 1.0 / 3.0))
        )
        with pytest.raises(NotSemiClassicalError, match="out-of-band ratio"):
            compute_coeff_quad(strict["sys"], strict["asys"], build_vw(other), 2, weight=None)

    def test_window_error(self, strict):
        # orders up to n + m + 3 of F are needed: 5 + 3 + 3 > 8
        table = compute_moments(strict["weight"], 8)
        sys = build_system(table, 6)
        with pytest.raises(WindowError):
            compute_coeff_quad(sys, AssocSystem(sys, table), strict["vw"], 5, weight=strict["weight"])

    def test_seed_recorded_and_deterministic(self, strict):
        q_again = compute_coeff_quad(
            strict["sys"], strict["asys"], strict["vw"], 2, weight=strict["weight"]
        )
        assert np.array_equal(q_again.theta, strict["quads"][2].theta)


@pytest.fixture(scope="module")
def m4_quads():
    return build_bundle(complex_m4_weight(), 8, quad_ns=range(7)).quads


class TestBitExactKernels:
    """The one-pass kernels of the suites equal the per-member routes bit for
    bit, so the reports do not move by an ulp."""

    @pytest.mark.parametrize("which", ["flagship", "complex_m4"])
    def test_one_pass_quadruple_equals_each_member(self, which, strict, m4_quads):
        quads = strict["quads"] if which == "flagship" else m4_quads
        rng = np.random.default_rng(21)
        points = [
            0.3 - 0.7j,
            np.complex128(-1.6 + 0.4j),
            2.0 * (rng.normal(size=9) + 1j * rng.normal(size=9)),
            2.0 * (rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))),
        ]
        for quad in quads.values():
            for z in points:
                got = quad.evaluate(z)
                assert got.shape == (4,) + np.shape(z)
                for row, member in zip(got, (quad.th, quad.ths, quad.om, quad.oms)):
                    want = np.asarray(member(z))
                    assert np.array_equal(row, want)
                    assert np.array_equal(np.signbit(row.real), np.signbit(want.real))
                    assert np.array_equal(np.signbit(row.imag), np.signbit(want.imag))

    def test_series_product_equals_polymul(self):
        # trailing zeros flip which operand np.convolve takes first; the
        # product trims them as polymul does, and without the trim the sums
        # round differently on these inputs
        rng = np.random.default_rng(22)
        untrimmed_differs = False
        for _ in range(50):
            a = np.concatenate([rng.normal(size=5) + 1j * rng.normal(size=5), np.zeros(10)])
            b = rng.normal(size=8) + 1j * rng.normal(size=8)
            for x, y, size in ((a, b, 9), (b, a, 9), (a, b, 30), (a, np.zeros(4), 6)):
                want = polyadd(np.zeros(size), polymul(x, y)[:size])
                got = _product(x, y, size)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
            untrimmed_differs |= not np.array_equal(np.convolve(a, b)[:9], _product(a, b, 9))
        assert untrimmed_differs


class TestClosedForms:
    def test_all_blocks_all_levels(self, strict):
        rep = verify_expansion_forms(
            strict["quads"], strict["sys"], strict["vw"], strict["weight"], [1, 2, 3]
        )
        assert rep.passed, [(e.name, e.n, e.residual) for e in rep.failures()]

    def test_theta_leading_coefficient(self, strict):
        # leading coefficient of Theta_n is (n+1+sum rho) kappa_n/kappa_{n+1}
        sum_rho = complex(strict["weight"].exponents.sum())
        for n in (1, 2, 3):
            want = (n + 1 + sum_rho) * strict["sys"].kappa(n) / strict["sys"].kappa(n + 1)
            got = strict["quads"][n].theta[-1]
            assert abs(got - want) < 1e-7

    def test_theta_trailing_coefficient(self, strict):
        # Theta_n(0) = [2V(0) - n W'(0)] phi_n(0)/phi_{n+1}(0)
        vw = strict["vw"]
        for n in (1, 2, 3):
            ln, lp = strict["sys"].level(n), strict["sys"].level(n + 1)
            want = (2 * vw.v_eval(0.0) - n * vw.w_deriv(0.0)) * ln.phi0 / lp.phi0
            assert abs(strict["quads"][n].th(0.0) - want) < 1e-7

    def test_omega_at_origin(self, strict):
        vw = strict["vw"]
        for n in range(5):
            want = vw.v_eval(0.0) - n * vw.w_deriv(0.0)
            assert abs(strict["quads"][n].om(0.0) - want) < 1e-8

    def test_m4_complex_weight_all_levels(self):
        # complex locations and exponents, m = 4, through n = 12
        weight = complex_m4_weight()
        bundle = build_bundle(weight, 14, quad_ns=range(13))
        for n, quad in bundle.quads.items():
            degrees = [len(getattr(quad, k)) - 1 for k in ("theta", "thetastar", "omega", "omegastar")]
            assert degrees == [2, 2, 3, 3]
            for name, order, want, block in expansion_closed_forms(bundle.sys, bundle.vw, weight, n):
                coeffs = getattr(quad, name)
                gap = abs(coeffs[order] - want) / max(1.0, float(np.max(np.abs(coeffs))))
                assert gap < 1e-9, (n, name, order, block, gap)

    def test_overlapping_forms_consistent(self, strict):
        # at m = 3 the leading and trailing windows overlap; both closed
        # forms must pin the same coefficient
        forms = expansion_closed_forms(strict["sys"], strict["vw"], strict["weight"], 2)
        by_key = {}
        for name, order, val, block in forms:
            by_key.setdefault((name, order), []).append(val)
        for (name, order), vals in by_key.items():
            if len(vals) == 2:
                assert abs(vals[0] - vals[1]) < 1e-8, (name, order)


class TestLinearRelations:
    def test_all_relations(self, strict):
        rep = verify_linear_relations(
            strict["quads"], strict["vw"], strict["sys"], samples()
        )
        assert rep.passed, [(e.name, e.n, e.residual) for e in rep.failures()]
        names = {e.name for e in rep.entries}
        for tag in "abcdefghijk":
            assert f"linear_{tag}" in names


class TestBilinear:
    def test_full_web(self, strict):
        rep = verify_bilinear(
            strict["quads"],
            strict["vw"],
            strict["sys"],
            strict["asys"],
            strict["weight"],
            u_poly=strict["u_poly"],
            ns=range(5),
        )
        assert rep.passed, [(e.name, e.n, e.where, e.residual) for e in rep.failures()]
        names = {e.name for e in rep.entries}
        for tag in "abcdef":
            assert f"bilinear_{tag}" in names
        for tag in "abcdefghij":
            assert f"bilres_{tag}" in names
        assert "telescoped_constant" in names
        assert "initial_theta_0" in names

    def test_initial_members_alone(self, strict):
        rep = verify_initial_members(
            strict["quads"], strict["vw"], strict["sys"], strict["u_poly"]
        )
        assert rep.passed
        assert len(rep.entries) == 6

    def test_singular_v_raises(self, strict):
        # V(z_j) = rho_j W'(z_j)/2 vanishes exactly when the exponent does,
        # which is the degenerate case the residue formulas divide by
        weight = SemiClassicalWeight(
            (Singularity(0, -0.5), Singularity(2, 0.0)), strict=False
        )
        vw = build_vw(weight)
        assert abs(vw.v_eval(2.0)) < 1e-13
        with pytest.raises(SingularResidueError):
            verify_bilinear(
                strict["quads"], vw, strict["sys"], strict["asys"], weight
            )


class TestSpectralDerivatives:
    def test_relations(self, strict):
        rep = spectral_derivative_check(
            {n: strict["quads"][n] for n in range(5)},
            strict["vw"],
            strict["sys"],
            strict["asys"],
            samples(),
            weight=strict["weight"],
        )
        assert rep.passed, [(e.name, e.n, e.residual) for e in rep.failures()]

    def test_trace_reduction_present(self, strict):
        rep = spectral_derivative_check(
            {2: strict["quads"][2]},
            strict["vw"],
            strict["sys"],
            strict["asys"],
            samples(),
            weight=strict["weight"],
        )
        assert any(e.name == "trace_reduction" for e in rep.entries)


class TestDPainleveRatio:
    def test_holds_across_levels(self, strict):
        for n in range(5):
            rep = dpainleve_ratio_check(strict["quads"], strict["vw"], n, 2.0, 3.0)
            assert rep.passed

    def test_rejects_equal_points(self, strict):
        with pytest.raises(SingularResidueError):
            dpainleve_ratio_check(strict["quads"], strict["vw"], 1, 2.0, 2.0)

    def test_rejects_origin(self, strict):
        with pytest.raises(SingularResidueError):
            dpainleve_ratio_check(strict["quads"], strict["vw"], 1, 0.0, 2.0)

    def test_m2_weight_not_applicable(self):
        # only one non-zero singularity: no second point to compare
        weight = SemiClassicalWeight((Singularity(0, -1), Singularity(2, 0.5)))
        nonzero = [s.location for s in weight.singularities if s.location != 0]
        assert len(nonzero) == 1
