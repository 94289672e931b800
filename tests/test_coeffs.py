import dataclasses
import re

import numpy as np
import pytest

from circlebops.bops import build_system
from circlebops.assoc import AssocSystem
from circlebops.bops import BopsSystem
from circlebops.coeffs import (
    MEMBERS,
    compute_coeff_quads,
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
from circlebops.numerics import circle_samples, polyder, polyval
from circlebops.pipeline import Bundle, build_bundle
from circlebops.weight import SemiClassicalWeight, Singularity, build_vw, weight_from_json

from conftest import COMPLEX_M4_SPEC, INSIDE_COMPLEX_SPEC, STRICT_SPEC, complex_m4_weight
from oracles import central_diff, coeff_quad_by_convolution


def samples(seed=9, count=10):
    rng = np.random.default_rng(seed)
    return list(circle_samples(rng, count, 0.45))


def quad_at(bundle, n):
    """The quadruple of level n alone: `compute_coeff_quads` over [n]."""
    return compute_coeff_quads(bundle, [n])


def member(quads, n, name):
    """The coefficients of one member of level n, the Theta pair without its
    zero top order."""
    return quads.member(MEMBERS.index(name), quads.index([n]))[0]


def degrees(quads):
    """The degree of each member at every level of the store: the highest
    order whose coefficient is not 0."""
    nonzero = quads.members != 0
    return quads.members.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1)


class TestConstruction:
    def test_degrees_m3(self, strict):
        # m = 3: deg Theta = deg Theta* = 1, deg Omega = deg Omega* = 2
        assert strict["quads"].members.shape[1:] == (3, 4)
        assert (degrees(strict["quads"]) == [1, 1, 2, 2]).all()

    def test_fit_residuals_tiny(self, strict):
        assert np.max(strict["quads"].ratios) < 1e-8

    def test_degree_certification(self, strict):
        rep = verify_expansion_forms(strict["bundle"], [1, 2, 3])
        quads = strict["quads"]
        for e in rep.entries:
            if e.name == "degree_certification":
                assert e.residual == np.max(quads.ratios[quads.index([e.n])]) < 1e-7

    def test_m2_weight_degrees(self):
        # m = 2: Theta_n constant, Omega_n linear
        weight = SemiClassicalWeight((Singularity(0, -1), Singularity(2, 0.5)))
        from circlebops.moments import compute_moments

        table = compute_moments(weight, 24)
        sys = build_system(table, 4)
        quad = quad_at(Bundle(sys, AssocSystem(sys), weight, build_vw(weight)), 1)
        assert quad.members.shape == (1, 2, 4)
        assert (degrees(quad) == [0, 0, 1, 1]).all()

    def test_not_semiclassical_refused(self, laurent):
        with pytest.raises(NotSemiClassicalError):
            quad_at(laurent["bundle"], 1)

    def test_degenerate_prefactor_rejected(self, lebesgue, strict):
        # Lebesgue levels have phi_{n+1}(0) = 0; pairing them with a
        # semi-classical (V, W) exercises the prefactor guard
        mixed = dataclasses.replace(lebesgue["bundle"], weight=strict["weight"], vw=strict["vw"])
        with pytest.raises(DegenerateLevelError):
            quad_at(mixed, 2)

    def test_matches_sampled_defining_combination(self, strict):
        # the defining combinations evaluated pointwise, eps' by central
        # differences, at points off the circle on both sides
        sys, asys, vw = strict["sys"], strict["asys"], strict["vw"]
        zs = np.array([0.6j, -0.5 + 0.3j, 2.5j, -2.2 - 1.4j, 4.0 * np.exp(2j)])
        w_z, v_z = vw.w_eval(zs), vw.v_eval(zs)
        phi, star, eps, es = asys.evaluate(zs)
        deps = central_diff(lambda x: asys.evaluate(x)[2], zs)
        des = central_diff(lambda x: asys.evaluate(x)[3], zs)
        for n in (0, 1, 3):
            phi_n, star_n, eps_n, es_n = phi[n], star[n], eps[n], es[n]
            phi_p, star_p, eps_p, es_p = phi[n + 1], star[n + 1], eps[n + 1], es[n + 1]
            dphi_n = polyval(polyder(sys.phi[n, : n + 1]), zs)
            dstar_n = polyval(polyder(sys.phibar[n, n::-1]), zs)
            deps_n, des_n = deps[n], des[n]
            pref = 2.0 * sys.phi[n + 1, 0] / sys.kappas[n] * zs**n
            pref_star = 2.0 * sys.phibar[n + 1, 0] / sys.kappas[n] * zs ** (n + 1)
            want = {
                "th": (w_z * (-phi_n * deps_n + eps_n * dphi_n) + 2.0 * v_z * phi_n * eps_n) / pref,
                "ths": (w_z * (star_n * des_n - es_n * dstar_n) - 2.0 * v_z * star_n * es_n)
                / pref_star,
                "om": (w_z * (eps_p * dphi_n - phi_p * deps_n) + v_z * (phi_n * eps_p + eps_n * phi_p))
                / pref,
                "oms": (w_z * (-es_p * dstar_n + star_p * des_n) - v_z * (star_n * es_p + es_n * star_p))
                / pref_star,
            }
            for got, (name, values) in zip(strict["quads"].values([n], zs)[0], want.items()):
                assert np.max(np.abs(got - values) / np.maximum(1.0, np.abs(values))) < 1e-5, (n, name)

    def test_inconsistent_vw_refused_out_of_band(self, strict):
        # (V, W) of another weight than the moments: the defining
        # combinations are not polynomials, so orders outside the band
        # survive, and the degree certificate fails far above its gate
        other = SemiClassicalWeight(
            (Singularity(0, -1), Singularity(2.5, 0.5), Singularity(3, 1.0 / 3.0))
        )
        bundle = dataclasses.replace(strict["bundle"], vw=build_vw(other))
        quad = quad_at(bundle, 2)
        assert np.max(quad.ratios) > 1e6 * 1e-7
        rep = verify_expansion_forms(dataclasses.replace(bundle, quads=quad), [2])
        (entry,) = [e for e in rep.entries if e.name == "degree_certification"]
        assert entry.n == 2 and entry.tol == 1e-7 and not entry.passed
        assert entry.residual == np.max(quad.ratios)

    def test_window_error(self, strict):
        # orders up to n + m + 3 of F are needed: 5 + 3 + 3 > 8
        table = compute_moments(strict["weight"], 8)
        sys = build_system(table, 6)
        with pytest.raises(WindowError):
            quad_at(Bundle(sys, AssocSystem(sys), strict["weight"], strict["vw"]), 5)

    def test_seed_recorded_and_deterministic(self, strict):
        q_again = quad_at(strict["bundle"], 2)
        assert np.array_equal(member(q_again, 2, "theta"), member(strict["quads"], 2, "theta"))


class TestOnePass:
    """`compute_coeff_quads` reads every level in one pass; the per-level
    np.convolve route (`coeff_quad_by_convolution`) is its oracle."""

    @pytest.mark.parametrize("spec", [STRICT_SPEC, COMPLEX_M4_SPEC, INSIDE_COMPLEX_SPEC],
                             ids=["flagship", "m4", "inside-complex"])
    def test_matches_the_per_level_route_through_level_30(self, spec):
        # the two routes sum the same products in different orders; each
        # member agrees within 1e-14 of its largest coefficient (5.8e-15
        # measured, at level 1 of the inside-complex weight, where each
        # route is about 5e-15 from a long-double evaluation of the same
        # combinations); the largest out-of-band ratios, round-off of the
        # series' vanishing orders, agree within 1% and 1e-12 (3.9e-8 at
        # level 30 on the flagship on both routes)
        bundle = build_bundle(weight_from_json(spec), 32, quad_ns=range(31))
        quads = bundle.quads
        assert quads.levels.tolist() == list(range(31))
        for n, members, ratios in zip(quads.levels.tolist(), quads.members, quads.ratios):
            oracle, oracle_ratios = coeff_quad_by_convolution(bundle.sys, bundle.asys, bundle.vw, n)
            assert members.shape == oracle.shape
            for got, want in zip(members.T, oracle.T):
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), n
            worst, want_worst = np.max(ratios), np.max(oracle_ratios)
            assert abs(worst - want_worst) <= 1e-2 * want_worst + 1e-12, n

    def test_one_level_is_the_bulk_call(self, strict):
        # a level asked for alone reads, off the shorter series of its own
        # top level, the quadruple it has among the fixture's levels 0..5,
        # to round-off
        quads = strict["quads"]
        for n, members, ratios in zip(quads.levels.tolist(), quads.members, quads.ratios):
            alone = compute_coeff_quads(strict["bundle"], [n])
            assert alone.levels.tolist() == [n] and alone.ratios.shape == (1, 4)
            assert np.max(np.abs(alone.members[0] - members)) <= 1e-14 * np.max(np.abs(members))
            for got, want in zip(alone.ratios[0], ratios):
                assert abs(got - want) <= 1e-2 * want + 1e-12, n

    def test_levels_are_a_set(self, strict):
        # repeats and order do not matter: the store of (4, 1, 4) is that of [1, 4]
        quads, want = (compute_coeff_quads(strict["bundle"], ns) for ns in ((4, 1, 4), [1, 4]))
        assert quads.levels.tolist() == [1, 4] and quads.members.shape == (2, 3, 4)
        assert np.array_equal(quads.members, want.members) and np.array_equal(quads.ratios, want.ratios)
        empty = compute_coeff_quads(strict["bundle"], ())
        assert empty.levels.size == 0 and empty.members.shape == (0, 3, 4) and empty.ratios.shape == (0, 4)
        assert empty.values([], 2.0).shape == (0, 4)

    def test_a_level_not_stored_raises(self, strict):
        # the store holds levels 0..5: asking for 7 (above them all) or for
        # level 3 of a store of 1 and 4 (between two) is a KeyError, never
        # a neighbouring level's quadruple
        with pytest.raises(KeyError, match="7"):
            strict["quads"].values([2, 7], 2.0)
        gapped = compute_coeff_quads(strict["bundle"], (1, 4))
        with pytest.raises(KeyError, match="3"):
            gapped.index([3])
        with pytest.raises(KeyError, match="0"):
            gapped.values([0], 2.0)

    @pytest.mark.parametrize("family, message", [("phi", "phi_3(0) = 0"), ("phibar", "phibar_3(0) = 0")])
    def test_lowest_degenerate_level_raises(self, strict, family, message):
        # phi_{n+1}(0) (or phibar_{n+1}(0)) exactly 0 at levels 2 and 4: the
        # error names the lowest, whatever the order of the levels asked for
        sys = strict["sys"]
        store = {"phi": sys.phi.copy(), "phibar": sys.phibar.copy()}
        store[family][[3, 5], 0] = 0.0
        broken = BopsSystem(sys.table, sys.kappas, store["phi"], store["phibar"], [], sys.deviations)
        bundle = dataclasses.replace(strict["bundle"], sys=broken, asys=AssocSystem(broken))
        with pytest.raises(DegenerateLevelError, match=re.escape(message)):
            compute_coeff_quads(bundle, [5, 4, 2, 0])
        compute_coeff_quads(bundle, [0, 1])


@pytest.fixture(scope="module")
def m4_quads():
    return build_bundle(complex_m4_weight(), 8, quad_ns=range(7)).quads


class TestBitExactKernels:
    """At these points, on these stores, each level's row of one Horner pass
    over the members of all the levels equals that level's pass alone and
    each member's own pass, bit for bit (signs of zero included)."""

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

        def same(got, want):
            return (np.array_equal(got, want) and np.array_equal(np.signbit(got.real), np.signbit(want.real))
                    and np.array_equal(np.signbit(got.imag), np.signbit(want.imag)))

        for z in points:
            every = quads.values(quads.levels, z)
            assert every.shape == (len(quads.levels), 4) + np.shape(z)
            for n, row in zip(quads.levels.tolist(), every):
                assert same(row, quads.values([n], z)[0]), (n, z)
                for got, name in zip(row, MEMBERS):
                    assert same(got, np.asarray(polyval(member(quads, n, name), z))), (n, name, z)


class TestClosedForms:
    def test_all_blocks_all_levels(self, strict):
        rep = verify_expansion_forms(strict["bundle"], [1, 2, 3])
        assert rep.passed, [(e.name, e.n, e.residual) for e in rep.failures()]

    def test_theta_leading_coefficient(self, strict):
        # leading coefficient of Theta_n is (n+1+sum rho) kappa_n/kappa_{n+1}
        sum_rho = complex(strict["weight"].exponents.sum())
        for n in (1, 2, 3):
            want = (n + 1 + sum_rho) * strict["sys"].kappas[n] / strict["sys"].kappas[n + 1]
            got = member(strict["quads"], n, "theta")[-1]
            assert abs(got - want) < 1e-7

    def test_theta_trailing_coefficient(self, strict):
        # Theta_n(0) = [2V(0) - n W'(0)] phi_n(0)/phi_{n+1}(0)
        vw, p0 = strict["vw"], strict["sys"].phi[:, 0]
        for n in (1, 2, 3):
            want = (2 * vw.v_eval(0.0) - n * vw.w_deriv(0.0)) * p0[n] / p0[n + 1]
            assert abs(strict["quads"].values([n], 0.0)[0, 0] - want) < 1e-7

    def test_omega_at_origin(self, strict):
        vw = strict["vw"]
        for n in range(5):
            want = vw.v_eval(0.0) - n * vw.w_deriv(0.0)
            assert abs(strict["quads"].values([n], 0.0)[0, 2] - want) < 1e-8

    def test_m4_complex_weight_all_levels(self):
        # complex locations and exponents, m = 4, through n = 12
        weight = complex_m4_weight()
        bundle = build_bundle(weight, 14, quad_ns=range(13))
        assert (degrees(bundle.quads) == [2, 2, 3, 3]).all()
        for n in bundle.quads.levels.tolist():
            for name, order, want, block, lowest in expansion_closed_forms(bundle, n):
                if n < lowest:
                    continue
                coeffs = member(bundle.quads, n, name)
                gap = abs(coeffs[order] - want) / max(1.0, float(np.max(np.abs(coeffs))))
                assert gap < 1e-9, (n, name, order, block, gap)

    def test_overlapping_forms_consistent(self, strict):
        # at m = 3 the leading and trailing windows overlap; both closed
        # forms must pin the same coefficient
        forms = expansion_closed_forms(strict["bundle"], 2)
        by_key = {}
        for name, order, val, block, _ in forms:
            by_key.setdefault((name, order), []).append(val)
        for (name, order), vals in by_key.items():
            if len(vals) == 2:
                assert abs(vals[0] - vals[1]) < 1e-8, (name, order)


class TestLinearRelations:
    def test_all_relations(self, strict):
        rep = verify_linear_relations(strict["bundle"], samples())
        assert rep.passed, [(e.name, e.n, e.residual) for e in rep.failures()]
        names = {e.name for e in rep.entries}
        for tag in "abcdefghijk":
            assert f"linear_{tag}" in names


class TestBilinear:
    def test_full_web(self, strict):
        rep = verify_bilinear(strict["bundle"], range(5), tol_scale=0.1)  # gate 1e-7
        assert rep.passed, [(e.name, e.n, e.where, e.residual) for e in rep.failures()]
        names = {e.name for e in rep.entries}
        for tag in "abcdef":
            assert f"bilinear_{tag}" in names
        for tag in "abcdefghij":
            assert f"bilres_{tag}" in names
        assert "telescoped_constant" in names
        assert "initial_theta_0" in names

    def test_initial_members_alone(self, strict):
        rep = verify_initial_members(strict["bundle"], tol_scale=0.1)  # gate 1e-7
        assert rep.passed
        assert len(rep.entries) == 6

    def test_singular_v_raises(self, strict):
        # V(z_j) = rho_j W'(z_j)/2 vanishes exactly when the exponent does,
        # which is the degenerate case the residue formulas divide by
        weight = SemiClassicalWeight(
            (Singularity(0, -0.5), Singularity(2, 0.0))
        )
        vw = build_vw(weight)
        assert abs(vw.v_eval(2.0)) < 1e-13
        with pytest.raises(SingularResidueError):
            verify_bilinear(dataclasses.replace(strict["bundle"], weight=weight, vw=vw))


class TestLevelAxis:
    """The bilinear and expansion-form suites form each family once over all
    their levels; a range of levels reads as its one-level runs."""

    @staticmethod
    def suites(strict):
        return (
            lambda ns: verify_bilinear(strict["bundle"], ns, tol_scale=0.1),
            lambda ns: verify_expansion_forms(strict["bundle"], ns),
        )

    def test_level_range_residuals_are_single_level_residuals(self, strict):
        # every (name, n, where) of a run over range(6) carries the residual
        # of its one-level run, to the bit; at n = 5 the bilinear suite has
        # no quadruple 6, so only its residue formulas run there
        for suite in self.suites(strict):
            whole = {(e.name, e.n, e.where): e.residual.hex() for e in suite(range(6)).entries}
            parts = {(e.name, e.n, e.where): e.residual.hex()
                     for n in range(6) for e in suite(range(n, n + 1)).entries}
            assert len(whole) == len(suite(range(6)).entries) > 0
            assert whole == parts

    def test_bilinear_entries_point_by_point(self, strict):
        rep = self.suites(strict)[0](range(5))
        levels = range(5)
        want = (
            [(f"bilinear_{c}", n) for n in levels for c in "abcdef"]
            + [(f"bilres_{c}", n) for n in levels for c in "abcdefghij"]
            + [("telescoped_constant", n) for n in levels]
        )
        # then the initial members, from the bundle's U
        initial = [(f"initial_{name}", None) for name in
                   ("theta_0", "theta_1", "thetastar_0", "thetastar_1", "omega_0", "omegastar_0")]
        assert [(e.name, e.n) for e in rep.entries] == want * 2 + initial
        assert [e.where for e in rep.entries] == ["z_2"] * len(want) + ["z_3"] * len(want) + [None] * 6

    def test_expansion_entries_level_by_level(self, strict):
        rep = self.suites(strict)[1](range(5))
        forms = [
            ("theta_leading_z1", 0), ("theta_leading_z0", 0), ("theta_trailing_z0", 0),
            ("theta_trailing_z1", 1), ("thetastar_leading_z1", 0), ("thetastar_leading_z0", 1),
            ("thetastar_trailing_z0", 0), ("thetastar_trailing_z1", 0), ("omega_leading_z2", 0),
            ("omega_leading_z1", 0), ("omega_trailing_z0", 0), ("omega_trailing_z1", 0),
            ("omegastar_leading_z2", 0), ("omegastar_leading_z1", 0), ("omegastar_trailing_z0", 0),
            ("omegastar_trailing_z1", 0),
        ]
        want = [
            row
            for n in range(5)
            for row in [(name, n, f"z^{name[-1]}") for name, lowest in forms if n >= lowest]
            + [("omega_at_origin", n, None), ("degree_certification", n, None)]
        ]
        # every quadruple built is certified: level 5 has no forms here
        assert [(e.name, e.n, e.where) for e in rep.entries] == want + [("degree_certification", 5, None)]


class TestSpectralDerivatives:
    def test_relations(self, strict):
        rep = spectral_derivative_check(strict["bundle"], range(5), samples())
        assert rep.passed, [(e.name, e.n, e.residual) for e in rep.failures()]

    def test_trace_reduction_present(self, strict):
        rep = spectral_derivative_check(strict["bundle"], [2], samples())
        assert any(e.name == "trace_reduction" for e in rep.entries)


class TestDPainleveRatio:
    def test_holds_across_levels(self, strict):
        # between z_2 = 2 and z_3 = 3
        rep = dpainleve_ratio_check(strict["bundle"], range(5))
        assert rep.passed
        assert [e.n for e in rep.entries] == list(range(5))

    def test_m2_weight_not_applicable(self):
        # only one non-zero singularity: no second point to compare
        weight = SemiClassicalWeight((Singularity(0, -1), Singularity(2, 0.5)))
        nonzero = [s.location for s in weight.singularities if s.location != 0]
        assert len(nonzero) == 1
        rep = dpainleve_ratio_check(build_bundle(weight, 4, quad_ns=range(3)), range(2))
        assert rep.entries == ()
