from dataclasses import replace

import numpy as np
import pytest

from circlebops import bops
from circlebops.bops import (
    BopsSystem,
    build_system,
    orthonormality_matrix,
    verify_scalar_identities,
)
from circlebops.errors import ExistenceError, WindowError
from circlebops.moments import compute_moments, table_from_moments, toeplitz_det
from circlebops.numerics import circle_samples, polyval

from conftest import laurent_callable
from oracles import det_rep_oracle, monomial_orthogonality, orthonormality_quadrature


def sample_points(seed=3, count=20):
    """``count`` points inside the circle, then ``count`` outside."""
    rng = np.random.default_rng(seed)
    return np.concatenate([circle_samples(rng, count, 0.45), circle_samples(rng, count, 2.3)])


class TestLebesgue:
    def test_monomials(self, lebesgue):
        sys = lebesgue["sys"]
        r, rbar = sys.reflections
        assert np.max(np.abs(sys.phi - np.eye(9))) < 1e-13
        assert np.max(np.abs(sys.kappas - 1.0)) < 1e-13
        assert np.max(np.abs(r[1:])) < 1e-13
        assert np.max(np.abs(rbar[1:])) < 1e-13

    def test_eval(self, lebesgue):
        assert abs(polyval(lebesgue["sys"].families["phi"][3, :4], 0.5) - 0.125) < 1e-14

    def test_identity_web_exact(self, lebesgue):
        rep = verify_scalar_identities(lebesgue["sys"], sample_points())
        assert rep.max_residual <= 1e-12


class TestLaurent:
    def test_reflection_data(self, laurent):
        sys = laurent["sys"]
        n = np.arange(9)
        for col in sys.reflections:
            assert np.max(np.abs(col - (-1.0) ** n / (n + 1))) < 1e-12
        assert np.max(np.abs(sys.kappas**2 - (n + 1) / (n + 2))) < 1e-12

    def test_level_one_polynomial(self, laurent):
        kappa, r = laurent["sys"].kappas[1], laurent["sys"].reflections[0][1]
        assert abs(kappa - np.sqrt(2.0 / 3.0)) < 1e-13
        assert abs(r + 0.5) < 1e-13
        # phi_1(z) = kappa_1 (z + r_1)
        z = 0.37 - 0.6j
        assert abs(polyval(laurent["sys"].families["phi"][1, :2], z) - kappa * (z - 0.5)) < 1e-13

    def test_kappa_identity_numbers(self, laurent):
        # kappa_2^2 - kappa_1^2 = 3/4 - 2/3 = 1/12 = kappa_2^2 r_2 rbar_2
        sys = laurent["sys"]
        (r, rbar), k = sys.reflections, sys.kappas
        assert abs(k[2] ** 2 - k[1] ** 2 - 1.0 / 12.0) < 1e-12
        assert abs(sys.phi[2, 0] * sys.phibar[2, 0] - 1.0 / 12.0) < 1e-12
        assert abs(1 - r[2] * rbar[2] - 8.0 / 9.0) < 1e-12

    def test_phistar_at_origin_is_kappa(self, laurent):
        sys = laurent["sys"]
        for n in range(9):
            assert abs(polyval(sys.families["phistar"][n, : n + 1], 0.0) - sys.kappas[n]) < 1e-13

    def test_construction_routes_agree(self, laurent):
        assert laurent["sys"].cross_check_deviation < 1e-8

    def test_identity_web(self, laurent):
        rep = verify_scalar_identities(laurent["sys"], sample_points())
        assert rep.max_residual <= 1e-10, rep.failures()

    def test_orthonormality_exact_and_by_quadrature(self, laurent):
        gram = orthonormality_matrix(laurent["sys"])
        assert np.max(np.abs(gram - np.eye(len(gram)))) < 1e-9
        quad = orthonormality_quadrature(laurent["sys"], laurent_callable)
        assert np.max(np.abs(quad - np.eye(len(quad)))) < 1e-9

    def test_monomial_orthogonality_variants(self, laurent):
        for n in range(9):
            res_phi, res_star = monomial_orthogonality(laurent["sys"], n)
            assert res_phi < 1e-9
            assert res_star < 1e-9


class TestCrossCheck:
    def test_a_gap_fails_its_entry_not_the_build(self, laurent, monkeypatch):
        # the build gates nothing: recursion levels moved off the Gram levels
        # build all the same, and the identity web's cross_check_deviation
        # entry fails at 1e-8 times the scale
        recursion = bops._recursion_levels

        def moved(tbl, nmax):
            phi, phibar, log = recursion(tbl, nmax)
            phi = phi.copy()
            phi[2, 0] += 1e-6
            return phi, phibar, log

        monkeypatch.setattr(bops, "_recursion_levels", moved)
        system = build_system(laurent["table"], 8)
        assert system.cross_check_deviation > 1e-7
        for scale in (1.0, 4.0):
            rep = verify_scalar_identities(system, sample_points(), scale)
            (entry,) = [e for e in rep.entries if e.name == "cross_check_deviation"]
            assert entry.residual == system.cross_check_deviation and entry.tol == 1e-8 * scale
            assert not entry.passed and [e.name for e in rep.failures()] == ["cross_check_deviation"]


class TestCoefficientRecurrences:
    def test_a_leading_coefficient_off_by_1e_3_fails_the_recurrences(self, strict):
        # the recurrences weigh every order of the coefficient rows alike; a
        # point at |z| = 0.45 weighs order 12 by 0.45^12, and there the same
        # error read 3.4e-12, inside the 1e-9 gate
        system = build_system(compute_moments(strict["weight"], 17), 16)
        phi = system.phi.copy()
        phi[12, 12] *= 1 + 1e-3
        rep = verify_scalar_identities(replace(system, phi=phi), sample_points())
        failed = {(e.name, e.n) for e in rep.failures()}
        for name in ("coupled_recurrence", "three_term_recurrence"):
            assert rep.max_by_name()[name] > 1e-8
            assert (name, 12) in failed


class TestStrictWeight:
    def test_identity_web(self, strict):
        rep = verify_scalar_identities(strict["sys"], sample_points())
        assert rep.passed, [(e.name, e.residual) for e in rep.failures()]

    def test_routes_agree(self, strict):
        assert strict["sys"].cross_check_deviation < 1e-8

    def test_kappa_squared_matches_determinant_ratio(self, strict):
        sys = strict["sys"]
        i0 = [toeplitz_det(sys.table, 0, n) for n in range(9)]
        for n in range(8):
            assert abs(sys.kappas[n] ** 2 - i0[n] / i0[n + 1]) < 1e-12


class TestDetRepOracle:
    def test_lebesgue_point(self, lebesgue):
        vals = det_rep_oracle(lebesgue["table"], 2, 0.7)
        assert abs(vals.phi - 0.49) < 1e-12
        assert abs(vals.phistar - 1.0) < 1e-12
        assert vals.max_mismatch < 1e-12

    def test_routes_match_eval(self, laurent):
        for n, z in ((2, 1.0), (3, 2.0), (4, 0.3 + 0.4j)):
            vals = det_rep_oracle(laurent["table"], n, z)
            assert vals.max_mismatch < 1e-10
            assert abs(vals.phi - polyval(laurent["sys"].families["phi"][n, : n + 1], z)) < 1e-10
            assert abs(vals.phistar - polyval(laurent["sys"].families["phistar"][n, : n + 1], z)) < 1e-10

    def test_strict_weight_routes(self, strict):
        vals = det_rep_oracle(strict["table"], 3, 0.8 + 0.3j)
        assert vals.max_mismatch < 1e-9
        assert abs(vals.phi - polyval(strict["sys"].families["phi"][3, :4], 0.8 + 0.3j)) < 1e-9


class TestExistence:
    def test_degenerate_table_raises(self):
        # all-ones moments: I^0_n = 0 for n >= 2 (a point mass at z = 1)
        tbl = table_from_moments([(k, 1.0) for k in range(-6, 7)], window=6)
        with pytest.raises(ExistenceError) as err:
            build_system(tbl, 4)
        assert err.value.n == 2

    def test_zero_mean_fails_at_level_one(self):
        tbl = table_from_moments([(-1, 1.0), (0, 0.0), (1, 1.0)], window=4)
        with pytest.raises(ExistenceError) as err:
            build_system(tbl, 2)
        assert err.value.n == 1

    @pytest.mark.parametrize("delta, log", [(1e-7, []), (1e-8, [3])])
    def test_level_near_the_floor_is_logged(self, delta, log):
        # two point masses and delta w_0: |1 - r_2 rbar_2| is about 6.6 delta,
        # logged from 1e6 times EXISTENCE_FLOOR down
        k = np.arange(-6, 7)
        w = np.exp(-1j * np.outer(k, [0.3, 2.0])).sum(axis=1) / 2
        w[6] += delta
        system = build_system(table_from_moments(zip(k.tolist(), w.tolist()), window=6), 4)
        assert system.existence_log == log

    def test_flagship_exists_through_level_64(self, strict):
        # the recursion's |1 - r_n rbar_n| stays above 0.13 through N = 64
        sys = build_system(compute_moments(strict["weight"], 66), 64)
        assert sys.nmax == 64
        assert sys.cross_check_deviation < 1e-8
        assert sys.existence_log == []

    def test_window_too_small(self):
        tbl = table_from_moments([(0, 1.0)], window=3)
        with pytest.raises(WindowError):
            build_system(tbl, 4)


FAMILIES = ("phi", "phistar", "phibar", "phibarstar")


def abs_square_plus_one_table(seed=7, degree=6, window=40):
    """Moments of |p(e^{it})|^2 + 1 for a random p of the given degree."""
    rng = np.random.default_rng(seed)
    p = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    p /= np.linalg.norm(p)
    pairs = [(k, np.sum(p[k:] * np.conj(p[: degree + 1 - k]))) for k in range(degree + 1)]
    pairs += [(-k, np.conj(w)) for k, w in pairs if k > 0]
    return table_from_moments([(k, w + (k == 0)) for k, w in pairs], window=window)


@pytest.fixture(scope="module", params=["flagship", "raw"])
def level32(request, strict):
    table = compute_moments(strict["weight"], 48) if request.param == "flagship" else abs_square_plus_one_table()
    return build_system(table, 32)


class TestLevelStack:
    def test_identity_web_entries_by_level(self, level32):
        # the pair (0.5, 2.0) has z * zetabar = 1 and leaves the Christoffel-Darboux sums
        points = np.concatenate([sample_points(), [0.5, 2.0]])
        rep = verify_scalar_identities(level32, points)
        n = 32

        def pairs(names, ns):
            return [(name, k) for k in ns for name in names]

        expect = (
            pairs(("coupled_recurrence", "coupled_recurrence_star"), range(n))
            + pairs(("three_term_recurrence", "three_term_recurrence_star"), range(1, n))
            + pairs(("christoffel_darboux_n_form", "christoffel_darboux_shifted_form"), range(n))
            + pairs(("kappa_identity", "l_recursion"), range(1, n + 1))
            + pairs(("m_recursion",), range(2, n + 1))
            + pairs(("toeplitz_ratio_recursion",), range(1, n + 1))
            + [("orthonormality", None)]
            + pairs(("monomial_orthogonality",), range(n + 1))
            + [("cross_check_deviation", None)]
        )
        assert [(e.name, e.n) for e in rep.entries] == expect

    def test_monomial_orthogonality_matches_moment_sums(self, level32):
        mom = level32.table.moment
        for n in range(33):
            c = level32.phi[n, : n + 1]
            star = level32.phibar[n, n::-1]
            for res, coeffs, js in zip(
                monomial_orthogonality(level32, n), (c, star), (range(n), range(1, n + 1))
            ):
                terms = [[coeffs[k] * mom(j - k) for k in range(n + 1)] for j in js]
                want = max((abs(sum(t)) for t in terms), default=0.0)
                scale = max((abs(x) for t in terms for x in t), default=1.0)
                assert abs(res - want) <= 1e-13 * scale, (n, res, want)


class TestPrefix:
    """verify-all's build suite reads levels 0..n of a longer build: bit for
    bit the levels, existence log and cross-check of a build to n."""

    @staticmethod
    def record(system: BopsSystem) -> tuple:
        levels = [col.tobytes() for col in (system.kappas, system.phi, system.phibar)]
        return (id(system.table), levels, system.existence_log, system.deviations,
                system.cross_check_deviation.hex())

    def test_prefix_equals_a_shorter_build(self, strict, laurent):
        rng = np.random.default_rng(17)
        p = rng.normal(size=7) + 1j * rng.normal(size=7)
        w = np.correlate(p, p, "full") / np.vdot(p, p)  # w_k for k = -6..6
        w[6] += 1.0
        raw = table_from_moments([(k, w[k + 6]) for k in range(-6, 7)], window=16)
        for table in (strict["table"], laurent["table"], raw):
            full = build_system(table, 11)
            for n in range(10):
                assert self.record(full.prefix(n)) == self.record(build_system(table, n)), n
        with pytest.raises(IndexError):
            full.prefix(12)

    def test_levels_that_are_not_built_raise(self, laurent):
        sys = laurent["sys"]
        for level in (-1, sys.nmax + 1):
            with pytest.raises(IndexError):
                sys.require(level)
            with pytest.raises(IndexError):
                sys.prefix(level)

    def test_prefix_keeps_the_log_of_its_levels(self, laurent):
        # level n's reflection ratio logs n + 1, so levels 0..n log up to n + 1
        full = laurent["sys"]
        system = replace(full, existence_log=[2, 5, 6], deviations=[0.0, 1e-12, 3e-12] + [0.0] * 6)
        assert system.prefix(4).existence_log == [2, 5]
        assert system.prefix(1).cross_check_deviation == 1e-12
        assert system.cross_check_deviation == 3e-12
