from dataclasses import replace

import numpy as np
import pytest

from circlebops.bops import (
    BopsSystem,
    build_system,
    eval_levels,
    eval_poly,
    orthonormality_matrix,
    verify_scalar_identities,
)
from circlebops.errors import ExistenceError, WindowError
from circlebops.moments import compute_moments, table_from_moments, toeplitz_det
from circlebops.numerics import circle_samples

from conftest import laurent_callable
from oracles import det_rep_oracle, monomial_orthogonality, orthonormality_quadrature, rel_residual


def sample_pairs(seed=3, count=20):
    rng = np.random.default_rng(seed)
    return list(zip(circle_samples(rng, count, 0.45), circle_samples(rng, count, 2.3)))


class TestLebesgue:
    def test_monomials(self, lebesgue):
        sys = lebesgue["sys"]
        for n in range(9):
            lev = sys.level(n)
            expect = np.zeros(n + 1, dtype=complex)
            expect[n] = 1.0
            assert np.max(np.abs(lev.c - expect)) < 1e-13
            assert abs(lev.kappa - 1.0) < 1e-13
            if n >= 1:
                assert abs(lev.r) < 1e-13
                assert abs(lev.rbar) < 1e-13

    def test_eval(self, lebesgue):
        assert abs(eval_poly(lebesgue["sys"], 3, 0.5) - 0.125) < 1e-14

    def test_identity_web_exact(self, lebesgue):
        rep = verify_scalar_identities(lebesgue["sys"], sample_pairs(), tol=1e-12)
        assert rep.passed


class TestLaurent:
    def test_reflection_data(self, laurent):
        sys = laurent["sys"]
        for n in range(9):
            lev = sys.level(n)
            assert abs(lev.r - (-1.0) ** n / (n + 1)) < 1e-12
            assert abs(lev.rbar - (-1.0) ** n / (n + 1)) < 1e-12
            assert abs(lev.kappa**2 - (n + 1) / (n + 2)) < 1e-12

    def test_level_one_polynomial(self, laurent):
        lev = laurent["sys"].level(1)
        assert abs(lev.kappa - np.sqrt(2.0 / 3.0)) < 1e-13
        assert abs(lev.r + 0.5) < 1e-13
        # phi_1(z) = kappa_1 (z + r_1)
        z = 0.37 - 0.6j
        assert abs(eval_poly(laurent["sys"], 1, z) - lev.kappa * (z - 0.5)) < 1e-13

    def test_kappa_identity_numbers(self, laurent):
        # kappa_2^2 - kappa_1^2 = 3/4 - 2/3 = 1/12 = kappa_2^2 r_2 rbar_2
        sys = laurent["sys"]
        l1, l2 = sys.level(1), sys.level(2)
        assert abs(l2.kappa**2 - l1.kappa**2 - 1.0 / 12.0) < 1e-12
        assert abs(l2.phi0 * l2.phibar0 - 1.0 / 12.0) < 1e-12
        assert abs(1 - l2.r * l2.rbar - 8.0 / 9.0) < 1e-12

    def test_phistar_at_origin_is_kappa(self, laurent):
        sys = laurent["sys"]
        for n in range(9):
            assert abs(eval_poly(sys, n, 0.0, "phistar") - sys.kappa(n)) < 1e-13

    def test_construction_routes_agree(self, laurent):
        assert laurent["sys"].cross_check_deviation < 1e-8

    def test_identity_web(self, laurent):
        rep = verify_scalar_identities(laurent["sys"], sample_pairs(), tol=1e-10)
        assert rep.passed, rep.failures()

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


class TestStrictWeight:
    def test_identity_web(self, strict):
        rep = verify_scalar_identities(strict["sys"], sample_pairs(), tol=1e-9)
        assert rep.passed, [(e.name, e.residual) for e in rep.failures()]

    def test_routes_agree(self, strict):
        assert strict["sys"].cross_check_deviation < 1e-8

    def test_kappa_squared_matches_determinant_ratio(self, strict):
        sys = strict["sys"]
        i0 = [toeplitz_det(sys.table, 0, n) for n in range(9)]
        for n in range(8):
            assert abs(sys.kappa(n) ** 2 - i0[n] / i0[n + 1]) < 1e-12


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
            assert abs(vals.phi - eval_poly(laurent["sys"], n, z)) < 1e-10
            assert abs(vals.phistar - eval_poly(laurent["sys"], n, z, "phistar")) < 1e-10

    def test_strict_weight_routes(self, strict):
        vals = det_rep_oracle(strict["table"], 3, 0.8 + 0.3j)
        assert vals.max_mismatch < 1e-9
        assert abs(vals.phi - eval_poly(strict["sys"], 3, 0.8 + 0.3j)) < 1e-9


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


def reference_web(sys, samples):
    """The recurrence, Christoffel-Darboux and kappa / l / m residuals of the
    identity web, written out level by level with eval_poly."""
    out = {}
    zs = np.array([z for z, _ in samples], dtype=complex)
    zbs = np.array([zb for _, zb in samples], dtype=complex)

    def ev(n, z, which="phi"):
        return eval_poly(sys, n, z, which)

    def put(name, n, lhs, rhs):
        out[name, n] = rel_residual(lhs - rhs, lhs, rhs)

    nmax = sys.nmax
    for n in range(nmax):
        a, b = sys.level(n), sys.level(n + 1)
        put("coupled_recurrence", n, a.kappa * ev(n + 1, zs),
            b.kappa * zs * ev(n, zs) + b.phi0 * ev(n, zs, "phistar"))
        put("coupled_recurrence_star", n, a.kappa * ev(n + 1, zs, "phistar"),
            b.kappa * ev(n, zs, "phistar") + b.phibar0 * zs * ev(n, zs))
    for n in range(1, nmax):
        a, b, c = sys.level(n - 1), sys.level(n), sys.level(n + 1)
        put("three_term_recurrence", n,
            b.kappa * b.phi0 * ev(n + 1, zs) + a.kappa * c.phi0 * zs * ev(n - 1, zs),
            (b.kappa * c.phi0 + c.kappa * b.phi0 * zs) * ev(n, zs))
        put("three_term_recurrence_star", n,
            b.kappa * b.phibar0 * ev(n + 1, zs, "phistar")
            + a.kappa * c.phibar0 * zs * ev(n - 1, zs, "phistar"),
            (b.kappa * c.phibar0 * zs + c.kappa * b.phibar0) * ev(n, zs, "phistar"))
    keep = np.abs(1.0 - zs * zbs) > 1e-6
    z, zb = zs[keep], zbs[keep]
    for n in range(nmax):
        direct = np.zeros_like(z)
        for j in range(n + 1):
            direct = direct + ev(j, z) * ev(j, zb, "phibar")
        form_n = (ev(n, z, "phistar") * ev(n, zb, "phibarstar")
                  - z * zb * ev(n, z) * ev(n, zb, "phibar")) / (1.0 - z * zb)
        form_np = (ev(n + 1, z, "phistar") * ev(n + 1, zb, "phibarstar")
                   - ev(n + 1, z) * ev(n + 1, zb, "phibar")) / (1.0 - z * zb)
        out["christoffel_darboux_n_form", n] = rel_residual(form_n - direct, direct, form_n)
        out["christoffel_darboux_shifted_form", n] = rel_residual(form_np - direct, direct, form_np)
    for n in range(1, nmax + 1):
        a, b = sys.level(n - 1), sys.level(n)
        put("kappa_identity", n, b.kappa**2, a.kappa**2 + b.phi0 * b.phibar0)
        put("l_recursion", n, b.l / b.kappa, a.l / a.kappa + b.r * a.rbar)
    for n in range(2, nmax + 1):
        c, b, a = sys.level(n), sys.level(n - 1), sys.level(n - 2)
        m_prev = (b.m2 or 0.0) if n - 1 >= 2 else 0.0
        put("m_recursion", n, (c.m2 or 0.0) / c.kappa,
            m_prev / b.kappa + c.r * (a.rbar + b.rbar * a.l / a.kappa))
    return out


class TestLevelStack:
    def test_eval_levels_is_eval_poly_per_level(self, level32):
        z = np.array([[0.45j, -0.3 + 0.2j, 1.0], [2.3, -1.7 - 1.1j, 0.9 + 0.5j]])
        for which in FAMILIES:
            rows = np.array([eval_poly(level32, n, z, which) for n in range(33)])
            assert np.array_equal(eval_levels(level32, z, which), rows), which

    def test_identity_web_matches_per_level_reference(self, level32):
        # the last pair has z * zetabar = 1 and leaves the Christoffel-Darboux sums
        samples = sample_pairs() + [(0.5, 2.0)]
        rep = verify_scalar_identities(level32, samples)
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
        )
        assert [(e.name, e.n) for e in rep.entries] == expect
        ref = reference_web(level32, samples)
        got = {(e.name, e.n): e.residual for e in rep.entries if (e.name, e.n) in ref}
        assert len(got) == len(ref) == 2 * 32 + 2 * 31 + 2 * 32 + 2 * 32 + 31
        assert got == ref

    def test_monomial_orthogonality_matches_moment_sums(self, level32):
        mom = level32.table.moment
        for n in range(33):
            c = level32.level(n).c
            star = level32.level(n).cbar[::-1]
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
        levels = [(lev.n, lev.kappa, lev.c.tobytes(), lev.cbar.tobytes()) for lev in system.levels]
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

    def test_prefix_keeps_the_log_of_its_levels(self, laurent):
        # level n's reflection ratio logs n + 1, so levels 0..n log up to n + 1
        full = laurent["sys"]
        system = replace(full, existence_log=[2, 5, 6], deviations=[0.0, 1e-12, 3e-12] + [0.0] * 6)
        assert system.prefix(4).existence_log == [2, 5]
        assert system.prefix(1).cross_check_deviation == 1e-12
        assert system.cross_check_deviation == 3e-12
