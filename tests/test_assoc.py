import numpy as np
import pytest

from circlebops.assoc import AssocSystem, verify_assoc_identities, verify_expansions
from circlebops.errors import NearCircleError, WindowError
from circlebops.lax import rhp_jump_check
from circlebops.moments import table_from_moments
from circlebops.bops import build_system
from circlebops.numerics import circle_samples, polyder, polyval
from circlebops.pipeline import build_bundle
from circlebops.weight import SemiClassicalWeight, Singularity

from conftest import close, complex_m4_weight, laurent_callable
from oracles import (
    caratheodory,
    central_diff,
    eps_intrep,
    eps_point_route,
    eps_quadrature,
    eps_reference,
    laurent_coefficients,
)


def sample_points(seed=5, count=10):
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [circle_samples(rng, count, 0.5), circle_samples(rng, count, 2.2)]
    )


def plemelj_jump(bundle, n):
    """Largest rhp_jump residual of rhp_jump_check: the (1,2) entry of
    Y_+ = Y_- J is the Plemelj jump eps_+ - eps_- = 2 w phi_n."""
    rep = rhp_jump_check(bundle, [n])
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
            assert abs(fix["sys"].kappas[0] * asys.psi(0)[0] - 1.0) < 1e-13

    def test_jump_is_plemelj(self, lebesgue):
        assert plemelj_jump(lebesgue["bundle"], 2) < 1e-12

    def test_casoratian_c_lebesgue(self, lebesgue):
        # inside: phi_n eps*_n + eps_n phi*_n = 0 + 2 z^n * 1
        asys = lebesgue["asys"]
        z = 0.3 + 0.2j
        _, _, eps, epsstar = asys.evaluate(z)
        phi, phistar = (lebesgue["sys"].families[which] for which in ("phi", "phistar"))
        for n in range(4):
            lhs = polyval(phi[n, : n + 1], z) * epsstar[n] + eps[n] * polyval(phistar[n, : n + 1], z)
            assert abs(lhs - 2.0 * z**n) < 1e-13


class TestIdentityWeb:
    def test_laurent(self, laurent):
        rep, _ = verify_assoc_identities(laurent["asys"], range(0, 7), sample_points())
        assert rep.passed, [(e.name, e.n, e.residual) for e in rep.failures()]

    def test_strict(self, strict):
        rep, _ = verify_assoc_identities(strict["asys"], range(0, 6), sample_points())
        assert rep.passed

    def test_casoratians_at_spec_point(self, laurent):
        rep, _ = verify_assoc_identities(laurent["asys"], [2], [0.4 + 0.1j])
        cas = [e for e in rep.entries if e.name.startswith("casoratian")]
        assert len(cas) == 6
        assert all(e.residual < 1e-9 for e in cas)

    def test_plemelj_jump_both_weights(self, laurent, strict):
        assert plemelj_jump(laurent["bundle"], 2) < 1e-6
        assert plemelj_jump(strict["bundle"], 3) < 1e-6


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
        rep = verify_expansions(laurent["asys"], [1])
        assert rep.passed, [(e.name, e.residual) for e in rep.failures()]
        # coefficient of z^{n+1} inside (kappa_n/2) eps_n is -lbar_2/kappa_2
        entry = {e.name: e for e in rep.entries}["eps_inside_order_1"]
        assert entry.residual < 1e-8

    def test_strict_all_orders(self, strict):
        rep = verify_expansions(strict["asys"], (1, 2, 3))
        assert rep.passed, [(e.name, e.residual) for e in rep.failures()]
        assert [e.n for e in rep.entries] == [n for n in (1, 2, 3) for _ in range(12)]

    def test_level_range_is_its_one_level_runs(self, strict):
        # one series read per (star, side) over all the levels: a run over
        # range(5) carries its one-level runs' entries to the bit, level by
        # level, each level's expansions in their order
        whole = verify_expansions(strict["asys"], range(5)).entries
        parts = [e for n in range(5) for e in verify_expansions(strict["asys"], [n]).entries]
        key = lambda e: (e.name, e.n, e.where, e.residual.hex(), e.tol)
        assert list(map(key, whole)) == list(map(key, parts))
        want = [
            row
            for n in range(5)
            for row in [
                ("eps_inside_order_0", n, f"z^{n} inside"),
                ("eps_inside_order_1", n, f"z^{n + 1} inside"),
                ("eps_inside_low_orders_vanish", n, None),
                ("eps_outside_order_-1", n, "z^-1 outside"),
                ("eps_outside_order_-2", n, "z^-2 outside"),
                ("eps_outside_order_0_vanishes", n, None),
                ("epsstar_inside_order_1", n, f"z^{n + 1} inside"),
                ("epsstar_inside_order_2", n, f"z^{n + 2} inside"),
                ("epsstar_inside_low_orders_vanish", n, None),
                ("epsstar_outside_order_0", n, "z^0 outside"),
                ("epsstar_outside_order_-1", n, "z^-1 outside"),
                ("epsstar_outside_order_-2", n, "z^-2 outside"),
            ]
        ]
        assert [(e.name, e.n, e.where) for e in whole] == want


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
            assert abs(at_inf[n] - 2.0 / strict["sys"].kappas[n]) < 1e-13

    def test_window_error(self):
        tbl = table_from_moments([(0, 1.0)], window=4)
        sys = build_system(tbl, 3)
        asys = AssocSystem(sys)
        with pytest.raises(WindowError) as err:
            asys.psi(4)
        assert err.value.required == 5


def band_levels(asys, z, side=None, derivative=False):
    """(phi, phi*, eps, eps*) of every level, or their derivatives, written
    out level by level: each polynomial by its own `numerics.polyval` pass
    over the flattened points, eps_n and eps*_n by one over each side's
    points of the level's band of its exact series (`eps_taylor`), stacked
    by level."""
    zs = np.asarray(z, dtype=complex)
    flat = zs.reshape(-1)
    inside = np.abs(flat) < 1.0 if side is None else np.full(flat.shape, side == "inside")
    count = asys.sys.table.window + 1
    der = polyder if derivative else (lambda c: c)
    rows = []
    for n in range(asys.sys.nmax + 1):
        row = [polyval(der(c), flat) for c in (asys.sys.phi[n, : n + 1], asys.sys.phibar[n, n::-1])]
        for star in (False, True):
            # inside z^n B(z) (z^(n+1) for eps*); outside u B(u) (B(u) for eps*)
            low = n + 1 if star else n
            inner = np.concatenate([np.zeros(low), asys.eps_taylor(n, count, star)[low:]])
            outer = asys.eps_taylor(n, count, star, at_infinity=True)[n:].copy()
            if not star:
                outer[0] = 0.0
            values = np.empty(flat.shape, dtype=complex)
            values[inside] = polyval(der(inner), flat[inside])
            far = flat[~inside]
            read = polyval(der(outer), 1.0 / far)
            values[~inside] = -read / far**2 if derivative else read
            row.append(values)
        rows.append(row)
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
        # psi + F phi is accurate where it does not cancel: n <= 8, and
        # |z| >= 0.3 inside or any point outside; values and derivatives,
        # on either side of the circle with a forced side
        ring = np.exp(1j * np.linspace(0.2, 6.0, 5))
        cases = [
            (sample_points(seed=11, count=5), None),
            (np.array([0.3 + 0.1j, -0.35j, 0.7 - 0.5j, 1.6 + 0.3j, 6.0j]), None),
            ((1.0 - 5e-4) * ring, "outside"),
            ((1.0 + 5e-4) * ring, "inside"),
        ]
        for asys in flagship_and_m4(strict):
            for zs, side in cases:
                values, derivatives = asys.evaluate_with_derivative(zs, side)
                for got, derivative in ((values, False), (derivatives, True)):
                    want = eps_point_route(asys, zs, side, derivative)
                    for k in range(4):
                        assert close(got[k], want[k], rel=1e-12), (side, derivative, k)

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
        # row n of every level's stacked pass is level n's own Horner value
        # of its polynomial or its band of the exact series (of their polyder
        # for the derivatives), to the bit, on either side of the circle, with
        # a forced side, and for 0-d, 1-D and 2-D points; the values summed
        # beside the derivatives are evaluate's, sign bits included
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
            (complex(ring[2]), "outside"),
        ]
        for asys in flagship_and_m4(strict):
            for z, side in cases:
                values, derivatives = asys.evaluate_with_derivative(z, side)
                alone = asys.evaluate(z, side)
                assert [v.tobytes() for v in values] == [v.tobytes() for v in alone], (z, side)
                for got, derivative in (
                    (alone, False), (values, False), (derivatives, True)
                ):
                    want = band_levels(asys, z, side, derivative)
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
        for route in (asys.evaluate, lambda z: asys.evaluate_with_derivative(z)[1]):
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
    """`AssocSystem.evaluate_with_derivative` and the oracle's F' against a
    literal central difference of `AssocSystem.evaluate` and F.  The
    difference loses about 1e-16 / h of the terms each function is formed
    from (psi_n and F phi_n for eps_n, which cancel at large |z|), so that
    size scales the tolerance."""

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
            f = caratheodory(asys.sys.table, zs, side)
            want = central_diff(lambda x: caratheodory(asys.sys.table, x, side), zs)
            got = caratheodory(asys.sys.table, zs, side, derivative=True)
            assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(f))), side
            values, exact = asys.evaluate_with_derivative(zs, side)
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
        values, derivatives = asys.evaluate_with_derivative(0.3 + 0.2j)
        assert all(v.shape == (levels,) for v in values + derivatives)
        zs = sample_points(seed=3, count=4).reshape(2, 4)
        values, derivatives = asys.evaluate_with_derivative(zs)
        assert all(v.shape == (levels, 2, 4) for v in values + derivatives)


class TestAccuracy:
    """eps_n and eps*_n against the 50-digit route from the exact moments
    (`exact_moments`, `eps_reference`), at inside points where psi_n and
    F phi_n cancel: |psi_n| reaches 5e6 there while |eps*_n| is near 1e-15."""

    ZS = [0.5 + 0.21j, 0.3 - 0.2j]

    def worst(self, table, moments) -> float:
        """Largest relative error of eps_n, eps*_n at n = 20 and 22."""
        _, _, eps, epsstar = AssocSystem(build_system(table, 22)).evaluate(np.array(self.ZS))
        return max(
            abs(got[n, k] - want) / abs(want)
            for n in (20, 22)
            for k, pair in enumerate(eps_reference(moments, n, self.ZS))
            for got, want in zip((eps, epsstar), pair)
        )

    def test_flagship_eps_against_50_digits(self, flagship_exact):
        # on the exact moments rounded to double, each accurate to its own size
        rounded = table_from_moments([(k, complex(w)) for k, w in flagship_exact.items()], window=48)
        assert self.worst(rounded, flagship_exact) <= 1e-12

    def test_flagship_eps_from_production_moments(self, strict, flagship_exact):
        # the factorised moments are accurate to their own size; from the
        # trapezoid's, accurate to about 5e-16 absolute, eps*_22 read 1.3e-6 off
        assert self.worst(strict["table"], flagship_exact) <= 1e-12
