import numpy as np
import pytest

from circlebops.errors import BranchCutError, PoleError, WeightValidationError
from circlebops.numerics import polyder, polyval
from circlebops.weight import SemiClassicalWeight, Singularity

from conftest import lebesgue_weight_relaxed
from oracles import weight_log_derivative


def make(*pairs):
    return SemiClassicalWeight(tuple(Singularity(z, rho) for z, rho in pairs))


class TestValidation:
    def test_strict_weight_passes(self):
        report = make((0, -1), (2, 0.5), (3, 1 / 3)).validation
        assert report.passed
        assert all(c["passed"] for c in report.conditions)

    def test_nonnegative_integer_exponent_fails_strict(self):
        report = make((0, -1), (-1, 2)).validation
        assert not report.passed
        failed = [c["name"] for c in report.conditions if not c["passed"]]
        assert "exponents_not_nonnegative_integers" in failed

    def test_duplicate_locations_hard_error(self):
        with pytest.raises(WeightValidationError):
            make((0, -1), (0, 0.5)).validation

    def test_missing_origin_hard_error(self):
        with pytest.raises(WeightValidationError):
            make((1.5, -1), (2, 0.5)).validation

    def test_single_level_weight_fails_condition_one(self):
        report = make((0, 0.5)).validation
        assert not report.passed

    def test_non_integer_inside_sum_flagged(self):
        report = make((0, -0.5), (2, 0.5)).validation
        failed = [c["name"] for c in report.conditions if not c["passed"]]
        assert "single_valued_on_circle" in failed

    def test_only_conditions_that_can_fail_are_recorded(self):
        # distinct locations are a hard error and V has degree below m by
        # construction, so neither is a condition; a failed condition is
        # named in the conditions alone, with no warning repeating it
        report = make((0, -1), (-1, 2)).validation
        assert [c["name"] for c in report.conditions] == [
            "deg_w_at_least_two", "exponents_not_nonnegative_integers", "single_valued_on_circle"
        ]
        assert not report.passed and report.warnings == []
        assert sorted(report.to_dict()) == ["conditions", "passed", "schema", "warnings"]


class TestEval:
    def test_all_zero_exponents_give_one(self):
        w = lebesgue_weight_relaxed()
        for z in (0.3 + 0.1j, 2.0, -1.7j):
            assert w(z) == 1.0

    def test_laurent_weight_at_one(self):
        w = make((0, -1), (-1, 2))
        assert abs(w(1.0) - 4.0) < 1e-14

    def test_principal_branch_value(self):
        w = make((0, -1), (2, 0.5))
        assert abs(w(1.0) - 1j) < 1e-14

    def test_matches_laurent_expansion_on_circle(self):
        w = make((0, -1), (-1, 2))
        for theta in np.linspace(-3, 3, 11):
            z = np.exp(1j * theta)
            assert abs(w(z) - (z**-1 * (1 + z) ** 2)) < 1e-13

    def test_pole_error(self):
        w = make((0, -1), (2, 0.5))
        with pytest.raises(PoleError):
            w(0.0)

    def test_zero_at_positive_exponent_singularity(self):
        w = make((0, -1), (2, 0.5))
        assert w(2.0 + 0j) == 0.0

    def test_branch_cut_error_on_outward_ray(self):
        w = make((0, -1), (2, 0.5))
        with pytest.raises(BranchCutError):
            w(2.7 + 0j)  # on the ray from 2 radially outward

    def test_non_single_valued_weight_rejected(self):
        w = make((0, -0.5), (2, 0.5))
        with pytest.raises(BranchCutError):
            w(0.5)

    def test_continuity_across_negative_axis(self):
        # the trace around theta = pi must close when inside exponents sum
        # to an integer
        w = make((0, -1), (2, 0.5), (3, 1 / 3))
        gaps = []
        for eps in (1e-3, 1e-5, 1e-7):
            a = w(np.exp(1j * np.pi * (1 - eps)))
            b = w(np.exp(-1j * np.pi * (1 - eps)))
            gaps.append(abs(a - b))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-5

    def test_log_derivative_ode(self, rng):
        w = make((0, -1), (2, 0.5), (3, 1 / 3))
        vw = w.vw
        for theta in rng.uniform(-np.pi, np.pi, 8):
            z = np.exp(1j * theta)
            h = 1e-6
            wd = (w(z + h) - w(z - h)) / (2 * h)
            lhs = polyval(vw.W, z) * wd
            rhs = 2.0 * polyval(vw.V, z) * w(z)
            assert abs(lhs - rhs) / abs(lhs) < 1e-5
        z = 0.7 + 0.2j
        assert abs(
            weight_log_derivative(w, z) - 2 * polyval(vw.V, z) / polyval(vw.W, z)
        ) < 1e-13


class TestMovedWeights:
    @pytest.mark.parametrize(
        "start, target, sheet",
        [
            (2, 2 + 0.1j, 1),  # arg(-z) passes +pi upward
            (2 + 0.05j, 2 - 0.05j, -1),  # and -pi downward
            (2, 2 - 0.1j, 0),
            (complex(2, -0.0), 2 + 0.1j, 1),  # -z = -2+0j, arg +pi
            (2 + 0.1j, 2.1 + 0.2j, 0),
        ],
    )
    def test_sheet_counts_turns_past_the_principal_range(self, start, target, sheet):
        moved = make((0, -1), (start, 0.5), (3, 1 / 3)).with_locations([0, target, 3])
        assert [s.sheet for s in moved.singularities] == [0, sheet, 0]

    def test_integer_exponent_stays_on_sheet_zero(self):
        moved = make((0, -1), (2, 2), (3, 1 / 3)).with_locations([0, 2 + 0.1j, 3])
        assert [s.sheet for s in moved.singularities] == [0, 0, 0]

    def test_sheet_scales_the_principal_constant(self):
        rho = 0.5 + 0.2j
        moved = make((0, -1), (2, rho)).with_locations([0, 2 + 0.1j])
        (z, _, constant), = moved.factorisation[1]
        assert abs(constant - complex(np.power(-z, rho)) * np.exp(2j * np.pi * rho)) < 1e-15 * abs(constant)

    def test_a_move_and_back_returns_to_the_start(self):
        w = make((0, -1), (2, 0.5), (3, 1 / 3))
        back = w.with_locations([0, 2 + 0.1j, 3]).with_locations([0, 2 - 0.1j, 3]).with_locations(w.locations)
        assert back == w

    def test_downward_move_is_the_fresh_weight(self):
        moved = make((0, -1), (2, 0.5), (3, 1 / 3)).with_locations([0, 2 - 0.1j, 3])
        assert moved.factorisation == make((0, -1), (2 - 0.1j, 0.5), (3, 1 / 3)).factorisation

    @pytest.mark.parametrize("step", [1e-3j, -1e-3j, 1e-3 + 1e-3j])
    def test_moved_weight_is_continuous_on_the_circle(self, step):
        # principal constants would jump by |1 - e^{-2 pi i rho_2}| = 2 upward
        w = make((0, -1), (2, 0.5), (3, 1 / 3))
        zs = np.exp(1j * np.linspace(0.1, 2 * np.pi, 64))
        moved = w.with_locations([0, 2 + step, 3])
        assert np.max(np.abs(moved(zs) - w(zs))) < 2e-3


class TestPolyPair:
    def test_laurent_vw_by_hand(self):
        # W = z^2 + z, 2V = -(z+1) + 2z = z - 1
        vw = make((0, -1), (-1, 2)).vw
        assert np.allclose(vw.W, [0, 1, 1])
        assert np.allclose(vw.V, [-0.5, 0.5])

    def test_residue_identity_every_singularity(self):
        w = make((0, -1), (2, 0.5), (3, 1 / 3))
        vw = w.vw
        assert w.vw is vw  # built once per weight
        assert vw.degree == 3
        assert len(vw.V) <= 3
        for s in w.singularities:
            lhs = 2.0 * polyval(vw.V, s.location)
            rhs = s.exponent * polyval(polyder(vw.W), s.location)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))

    def test_origin_residue_value(self):
        w = make((0, -1), (2, 0.5), (3, 1 / 3))
        vw = w.vw
        assert abs(2 * polyval(vw.V, 0.0) / polyval(polyder(vw.W), 0.0) - (-1.0)) < 1e-13

    def test_w_monic(self):
        vw = make((0, -1), (2, 0.5), (3, 1 / 3)).vw
        assert vw.W[-1] == 1.0


def test_strictness_probe():
    assert SemiClassicalWeight((Singularity(0, -1), Singularity(2, 0.5))).strict
    assert not SemiClassicalWeight((Singularity(0, -1), Singularity(-1, 2))).strict
    # a hard validation error reads as not strict, on every read
    duplicate = make((0, -1), (2, 0.5), (2, 1 / 3))
    assert duplicate.strict is False and duplicate.strict is False
