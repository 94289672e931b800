import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from circlebops.assoc import AssocSystem, verify_assoc_identities, verify_expansions
from circlebops.errors import NearCircleError, WindowError
from circlebops.lax import rhp_jump_check
from circlebops.moments import table_from_moments
from circlebops.bops import build_system, eval_poly
from circlebops.numerics import circle_samples, polyval
from circlebops.pipeline import build_bundle
from circlebops.weight import SemiClassicalWeight, Singularity

from conftest import close, complex_m4_weight, laurent_callable
from oracles import central_diff, eps_intrep, eps_quadrature, laurent_coefficients


def sample_points(seed=5, count=10):
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [circle_samples(rng, count, 0.5), circle_samples(rng, count, 2.2)]
    )


def plemelj_jump(asys, wfun, n, thetas):
    """Largest rhp_jump residual of rhp_jump_check: the (1,2) entry of
    Y_+ = Y_- J is the Plemelj jump eps_+ - eps_- = 2 w phi_n."""
    rep = rhp_jump_check(asys.sys, asys, wfun, [n], thetas)
    return max(e.residual for e in rep.entries if e.name == "rhp_jump")


class TestLebesgueValues:
    def test_eps_inside_outside(self, lebesgue):
        asys = lebesgue["asys"]
        z_in, z_out = 0.37 + 0.21j, 3.0 + 1.0j
        _, _, eps_in, star_in = asys.evaluate(z_in)
        _, _, eps_out, star_out = asys.evaluate(z_out)
        for n in range(5):
            assert abs(eps_in[n] - 2.0 * z_in**n) < 1e-13
            assert abs(eps_out[n]) < 1e-13
            assert abs(star_in[n]) < 1e-13
            assert abs(star_out[n] - 2.0) < 1e-13

    def test_psi0_normalization(self, lebesgue, laurent, strict):
        for fix in (lebesgue, laurent, strict):
            asys = fix["asys"]
            assert abs(fix["sys"].kappa(0) * asys.psi(0)[0] - 1.0) < 1e-13

    def test_jump_is_plemelj(self, lebesgue):
        wfun = lambda z: np.ones_like(np.asarray(z, dtype=complex))
        assert plemelj_jump(lebesgue["asys"], wfun, 2, np.linspace(0.1, 6.2, 9)) < 1e-12

    def test_casoratian_c_lebesgue(self, lebesgue):
        # inside: phi_n eps*_n + eps_n phi*_n = 0 + 2 z^n * 1
        asys = lebesgue["asys"]
        z = 0.3 + 0.2j
        _, _, eps, epsstar = asys.evaluate(z)
        for n in range(4):
            lhs = eval_poly(lebesgue["sys"], n, z) * epsstar[n] + eps[n] * eval_poly(
                lebesgue["sys"], n, z, "phistar"
            )
            assert abs(lhs - 2.0 * z**n) < 1e-13


class TestIdentityWeb:
    def test_laurent(self, laurent):
        rep, _ = verify_assoc_identities(
            laurent["asys"], range(0, 7), sample_points(), tol=1e-9
        )
        assert rep.passed, [(e.name, e.n, e.residual) for e in rep.failures()]

    def test_strict(self, strict):
        rep, _ = verify_assoc_identities(
            strict["asys"], range(0, 6), sample_points(), tol=1e-9
        )
        assert rep.passed

    def test_casoratians_at_spec_point(self, laurent):
        rep, _ = verify_assoc_identities(
            laurent["asys"], [2], [0.4 + 0.1j], tol=1e-9
        )
        cas = [e for e in rep.entries if e.name.startswith("casoratian")]
        assert len(cas) == 6
        assert all(e.residual < 1e-9 for e in cas)

    def test_plemelj_jump_both_weights(self, laurent, strict):
        thetas = np.linspace(0.1, 6.2, 17)
        assert plemelj_jump(laurent["asys"], laurent_callable, 2, thetas) < 1e-6
        assert plemelj_jump(strict["asys"], strict["wfun"], 3, thetas) < 1e-6


class TestIntegralRoutes:
    def test_eps_against_defining_quadrature(self, laurent):
        for z in (0.5 + 0.1j, 2.0 + 0.1j):
            eps_q, star_a, star_b = eps_quadrature(
                laurent_callable, laurent["sys"], 2, z
            )
            _, _, eps, epsstar = laurent["asys"].evaluate(z)
            assert abs(eps_q - eps[2]) < 1e-9
            star = epsstar[2]
            assert abs(star_a - star) < 1e-9  # first displayed integral form
            assert abs(star_b - star) < 1e-9  # second displayed integral form

    def test_eps_against_defining_quadrature_strict(self, strict):
        for z in (0.5 + 0.1j, 2.4 + 0.1j):
            eps_q, star_a, star_b = eps_quadrature(strict["wfun"], strict["sys"], 3, z)
            _, _, eps, epsstar = strict["asys"].evaluate(z)
            assert abs(eps_q - eps[3]) < 1e-9
            assert abs(star_a - epsstar[3]) < 1e-9
            assert abs(star_b - epsstar[3]) < 1e-9

    def test_determinant_ratio_representation(self, laurent):
        z = 0.4 + 0.3j
        eps_i, star_i = eps_intrep(
            laurent_callable, laurent["table"], laurent["sys"], 2, z
        )
        _, _, eps, epsstar = laurent["asys"].evaluate(z)
        assert abs(eps_i - eps[2]) < 1e-9
        assert abs(star_i - epsstar[2]) < 1e-9


class TestExpansions:
    def test_lebesgue_outer_coefficient_vanishes(self, lebesgue):
        rep = verify_expansions(lebesgue["asys"], [2])
        entry = {e.name: e for e in rep.entries}["eps_outside_order_-1"]
        assert entry.residual < 1e-12  # phi_{n+1}(0)/kappa_{n+1} = 0

    def test_laurent_n1_subleading(self, laurent):
        rep = verify_expansions(laurent["asys"], [1], tol=1e-8)
        assert rep.passed, [(e.name, e.residual) for e in rep.failures()]
        # coefficient of z^{n+1} inside (kappa_n/2) eps_n is -lbar_2/kappa_2
        entry = {e.name: e for e in rep.entries}["eps_inside_order_1"]
        assert entry.residual < 1e-8

    def test_strict_all_orders(self, strict):
        rep = verify_expansions(strict["asys"], (1, 2, 3), tol=1e-8)
        assert rep.passed, [(e.name, e.residual) for e in rep.failures()]
        assert [e.n for e in rep.entries] == [n for n in (1, 2, 3) for _ in range(12)]


class TestConstruction:
    def test_series_match_fft_coefficients(self, strict):
        # eps_n = O(z^n) at 0 and eps*_n = (2/kappa_n)(1 + O(1/z)) at infinity
        asys = strict["asys"]
        for n in (0, 3, 5):
            taylor = asys.eps_taylor(n, 12)
            fft = laurent_coefficients(lambda z: asys.evaluate(z)[2][n], 0.5, range(12))
            at_inf = asys.eps_taylor(n, 12, star=True, at_infinity=True)
            fft_inf = laurent_coefficients(
                lambda z: z**-n * asys.evaluate(z)[3][n], 2.5, range(0, -12, -1)
            )
            for k in range(12):
                assert abs(taylor[k] - fft[k]) < 1e-12 * 2.0**k
                assert abs(at_inf[k] - fft_inf[-k]) < 1e-12 * 2.5**k
            assert np.max(np.abs(taylor[:n]), initial=0.0) < 1e-13
            assert np.max(np.abs(at_inf[:n]), initial=0.0) < 1e-13
            assert abs(at_inf[n] - 2.0 / strict["sys"].kappa(n)) < 1e-13

    def test_window_error(self):
        tbl = table_from_moments([(0, 1.0)], window=4)
        sys = build_system(tbl, 3)
        asys = AssocSystem(sys)
        with pytest.raises(WindowError) as err:
            asys.psi(4)
        assert err.value.required == 5


def horner_levels(asys, z, side=None, derivative=False):
    """(phi, phi*, eps, eps*) of every level, or their derivatives, written
    out level by level: each polynomial by its own Horner pass over the
    flattened points, F and F' by their own calls, stacked by level."""
    zs = np.asarray(z, dtype=complex)
    flat = zs.reshape(-1)
    f = asys.F(flat, side=side)
    df = asys.F(flat, side=side, derivative=True)
    rows = []
    for n, lev in enumerate(asys.sys.levels):
        coeffs = (lev.c, lev.cbar[::-1], asys.psi(n), asys.psistar(n))
        phi, star, psi, psistar = (npoly.polyval(flat, c) for c in coeffs)
        if not derivative:
            rows.append((phi, star, psi + f * phi, psistar - f * star))
            continue
        dphi, dstar, dpsi, dpsistar = (npoly.polyval(flat, npoly.polyder(c)) for c in coeffs)
        rows.append((dphi, dstar, dpsi + df * phi + f * dphi, dpsistar - df * star - f * dstar))
    return tuple(np.array(col).reshape((len(rows),) + zs.shape) for col in zip(*rows))


def flagship_and_m4(strict):
    return [strict["asys"], build_bundle(complex_m4_weight(), 7).asys]


class TestBatchedEvaluator:
    def test_matches_per_point_loop(self, strict):
        asys = strict["asys"]
        zs = sample_points(seed=9, count=6).reshape(2, 6)  # inside row, outside row
        batch = asys.evaluate(zs)
        for k in range(4):
            loop = np.array([[asys.evaluate(complex(z))[k] for z in row] for row in zs])
            assert close(batch[k], np.moveaxis(loop, -1, 0))

    def test_matches_defining_sums(self, strict):
        asys, sys = strict["asys"], strict["sys"]
        zs = sample_points(seed=11, count=5)
        phi, phistar, eps, epsstar = asys.evaluate(zs)
        for n in range(5):
            want = {"phi": [], "phistar": [], "eps": [], "epsstar": []}
            for z in zs:
                z = complex(z)
                f = asys.F(z)
                want["phi"].append(eval_poly(sys, n, z))
                want["phistar"].append(eval_poly(sys, n, z, "phistar"))
                want["eps"].append(polyval(asys.psi(n), z) + f * eval_poly(sys, n, z))
                want["epsstar"].append(
                    polyval(asys.psistar(n), z) - f * eval_poly(sys, n, z, "phistar")
                )
            for got, key in zip((phi[n], phistar[n], eps[n], epsstar[n]), want):
                assert close(got, want[key])

    def test_forced_side_and_scalar(self, strict):
        asys = strict["asys"]
        zs = (1.0 + 1e-4) * np.exp(1j * np.linspace(0.1, 6.0, 7))
        for side in ("inside", "outside"):
            batch = asys.evaluate(zs, side)
            for k in range(4):
                loop = np.array([asys.evaluate(complex(z), side)[k] for z in zs])
                assert close(batch[k], loop.T)
        values = asys.evaluate(0.3 + 0.2j)
        assert all(v.shape == (strict["sys"].nmax + 1,) for v in values)

    def test_rows_are_per_level_horner_bitwise(self, strict):
        # row n of every level's stacked pass is level n's own Horner value,
        # to the bit, for evaluate and derivative, on either side of the
        # circle, with a forced side, and for 0-d, 1-D and 2-D points
        grid = sample_points(seed=4, count=3).reshape(2, 3)
        ring = (1.0 - 5e-4) * np.exp(1j * np.linspace(0.2, 6.0, 5))
        cases = [
            (complex(grid[0, 0]), None),
            (complex(grid[1, 2]), None),
            (grid.ravel(), None),
            (grid, None),
            (ring, "inside"),
            (ring, "outside"),
            (ring.reshape(5, 1), "outside"),
            (0.9995j, "inside"),
        ]
        for asys in flagship_and_m4(strict):
            for z, side in cases:
                for route, derivative in ((asys.evaluate, False), (asys.derivative, True)):
                    got = route(z, side)
                    want = horner_levels(asys, z, side, derivative)
                    for one, ref in zip(got, want):
                        assert one.shape == (asys.sys.nmax + 1,) + np.shape(z)
                        assert one.tobytes() == ref.tobytes(), (z, side, derivative)

    @pytest.mark.parametrize("which", ["flagship", "complex_m4"])
    def test_point_alone_equals_point_in_array(self, which, strict):
        # bit for bit at the singular points: a 0-d point runs through the
        # same array arithmetic as the matching column of the stacked call
        if which == "flagship":
            asys, weight = strict["asys"], strict["weight"]
        else:
            weight = complex_m4_weight()
            asys = build_bundle(weight, 7).asys
        points = weight.locations[1:]
        for route in (asys.evaluate, asys.derivative):
            stacked = route(points)
            for k, z in enumerate(points):
                alone = route(z)
                for one, column in zip(alone, stacked):
                    assert one.shape == (asys.sys.nmax + 1,)
                    assert one.tobytes() == column[:, k].tobytes()

    def test_near_circle_band_names_first_point(self, strict):
        zs = np.array([0.5, 1.0005, 0.9995, 2.0])
        with pytest.raises(NearCircleError, match=r"\|z\| = 1\.0005 "):
            strict["asys"].evaluate(zs)


class TestExactDerivatives:
    """`AssocSystem.derivative` and F' against a literal central difference
    of `AssocSystem.evaluate` and F.  The difference loses about 1e-16 / h
    of the terms each function is formed from (psi_n and F phi_n for eps_n,
    which cancel at large |z|), so that size scales the tolerance."""

    POINTS = np.array([0.3 + 0.4j, -0.6j, 0.05 - 0.02j, 1.6 + 0.3j, -2.5 + 1.0j, 6.0j])
    BAND = np.exp(1j * np.linspace(0.2, 6.0, 5))

    @pytest.mark.parametrize(
        "weight",
        [
            SemiClassicalWeight(
                (Singularity(0, -1), Singularity(2, 0.5), Singularity(3, 1.0 / 3.0))
            ),
            complex_m4_weight(),
        ],
        ids=["flagship", "complex_m4"],
    )
    def test_against_central_difference(self, weight):
        asys = build_bundle(weight, 8).asys
        cases = [(self.POINTS, None)] + [
            (radius * self.BAND, side)
            for radius in (1.0 - 5e-4, 1.0 + 5e-4)
            for side in ("inside", "outside")
        ]
        for zs, side in cases:
            f = asys.F(zs, side=side)
            want = central_diff(lambda x: asys.F(x, side=side), zs)
            got = asys.F(zs, side=side, derivative=True)
            assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(f))), side
            values, exact = asys.evaluate(zs, side), asys.derivative(zs, side)
            diffs = [central_diff(lambda x: asys.evaluate(x, side)[k], zs) for k in range(4)]
            for n in range(9):
                phi, phistar = values[0][n], values[1][n]
                terms = (
                    np.abs(phi),
                    np.abs(phistar),
                    np.maximum(np.abs(polyval(asys.psi(n), zs)), np.abs(f * phi)),
                    np.maximum(np.abs(polyval(asys.psistar(n), zs)), np.abs(f * phistar)),
                )
                for k in range(4):
                    want = diffs[k][n]
                    scale = np.maximum(1.0, np.maximum(terms[k], np.abs(want)))
                    assert np.all(np.abs(exact[k][n] - want) <= 1e-9 * scale), (side, n, k)

    def test_shapes(self, strict):
        asys = strict["asys"]
        levels = strict["sys"].nmax + 1
        values = asys.derivative(0.3 + 0.2j)
        assert all(v.shape == (levels,) for v in values)
        zs = sample_points(seed=3, count=4).reshape(2, 4)
        assert all(v.shape == (levels, 2, 4) for v in asys.derivative(zs))
