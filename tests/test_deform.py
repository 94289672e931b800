import json

import numpy as np
import pytest

from circlebops import cli
from circlebops.deform import (
    DeformState,
    LinearTrajectory,
    deformation_rates,
    flow_convergence,
    flow_endpoint,
    flow_invariants,
    integrate_flow,
    moment_rebuild,
    schlesinger_rhs,
    state_gap,
)
from circlebops.errors import SingularResidueError, WeightValidationError
from circlebops.lax import assemble_residues
from circlebops.weight import SemiClassicalWeight, Singularity, weight_from_json

from conftest import INSIDE_COMPLEX_SPEC, STRICT_SPEC, close, complex_m4_weight
from oracles import (
    rates_fd_check,
    richardson_top_down,
    schlesinger_component_check,
    transfer_rate_check,
    weight_rate_check,
)


@pytest.fixture(scope="module")
def traj(strict_weight_module):
    return LinearTrajectory(strict_weight_module, moving=1, target=2.1, t0=0.0, t1=0.1)


@pytest.fixture(scope="module")
def strict_weight_module():
    return SemiClassicalWeight(
        (Singularity(0, -1), Singularity(2, 0.5), Singularity(3, 1.0 / 3.0))
    )


@pytest.fixture(scope="module")
def start(traj):
    state, bundle = moment_rebuild(traj, 0.0, 2)
    return state, bundle


def comm(x, y):
    return x @ y - y @ x


class LineTraj:
    """Duck-typed trajectory z_j(t) = z_j + t zdot_j; t is a time or an
    array of times, and each method returns shape t.shape + (m,)."""

    def __init__(self, weight0, vel, locs=None):
        self.weight0 = weight0
        self.vel = np.asarray(vel, dtype=complex)
        self.base = weight0.locations if locs is None else np.asarray(locs, dtype=complex)

    def locations(self, t):
        return self.base + np.asarray(t, dtype=float)[..., None] * self.vel

    def velocities(self, t):
        return np.broadcast_to(self.vel, np.shape(t) + self.vel.shape)


def reference_rhs(state, traj, t):
    """The packed Schlesinger right-hand side and B_inf, as the literal
    per-pair commutator sum on 2x2 numpy matrices."""
    locs, vel, rhos = traj.locations(t), traj.velocities(t), traj.weight0.exponents
    m = len(locs)
    moving = [j for j in range(m) if vel[j] != 0]
    ratio = {j: vel[j] / locs[j] for j in moving}
    sum_rho_zdot = sum(rhos[j] * ratio[j] for j in moving)
    s = sum(ratio[j] * state.a[j] for j in moving)
    kdot = 0.25 * (-sum_rho_zdot - s[0, 0] + s[1, 1])
    b_inf = np.array([[kdot, 0.0], [-s[1, 0], -kdot]])
    da = []
    for j in range(m):
        acc = comm(b_inf, state.a[j])
        for k in range(m):
            if k != j:
                acc = acc + (vel[j] - vel[k]) / (locs[j] - locs[k]) * comm(state.a[k], state.a[j])
        da.append(acc)
    scalars = [
        state.kappa * kdot,
        s[0, 1] - state.r * (2.0 * kdot + sum_rho_zdot),
        -s[1, 0] - 2.0 * state.rbar * kdot,
    ]
    return np.concatenate([np.ravel(da), comm(b_inf, state.a_inf).ravel(), scalars]), b_inf


class TestTrajectory:
    def test_origin_cannot_move(self, strict_weight_module):
        with pytest.raises(WeightValidationError):
            LinearTrajectory(strict_weight_module, moving=0, target=0.5)

    def test_locations_and_velocity(self, traj):
        assert traj.locations(0.05)[1] == pytest.approx(2.05)
        assert traj.velocities(0.03)[1] == pytest.approx(1.0)
        assert traj.velocities(0.03)[0] == 0
        assert traj.weight_at(0.1).singularities[1].location == pytest.approx(2.1)

    def test_collision_detected(self, strict_weight_module):
        bad = LinearTrajectory(strict_weight_module, moving=1, target=3.0, t0=0.0, t1=1.0)
        with pytest.raises(WeightValidationError):
            bad.weight_at(1.0)

    def test_weight_rate_formula(self, traj):
        assert weight_rate_check(traj, 0.03, [0.5 + 0.2j, 1.8 + 0.9j]) < 1e-5

    @pytest.mark.parametrize("kind", ["linear", "duck"])
    def test_array_of_times_stacks_per_time(self, strict_weight_module, kind):
        # the RK4 coefficient table evaluates the trajectory once on all its
        # grid times and midpoints; each row must be that time's own value
        if kind == "linear":
            traj = LinearTrajectory(strict_weight_module, 2, 3.05 - 0.02j, t0=0.0, t1=0.1)
        else:
            traj = LineTraj(strict_weight_module, [0, 1.0 + 0.5j, -0.3 + 0.2j])
        h = 0.1 / 7
        ts = [0.0] + [t for s in range(7) for t in (s * h + 0.5 * h, (s + 1) * h)]
        for method in (traj.locations, traj.velocities):
            per_time = np.stack([method(t) for t in ts])
            assert per_time.shape == (15, 3)
            assert np.array_equal(method(np.array(ts)), per_time)
            assert np.array_equal(method(np.array(ts).reshape(3, 5)), per_time.reshape(3, 5, 3))


class TestRates:
    def test_frozen_trajectory_rates_vanish(self, strict_weight_module, start):
        state, bundle = start
        frozen = LinearTrajectory(
            strict_weight_module, moving=1, target=2.0 + 0j, t0=0.0, t1=1.0
        )
        rates = deformation_rates(
            bundle.sys, bundle.asys, bundle.quads, bundle.vw, frozen, 2, 0.0
        )
        assert rates.kdot_over_k == 0
        assert rates.rdot == 0
        assert rates.rbardot == 0

    def test_two_kappa_routes_agree(self, traj, start):
        state, bundle = start
        rates = deformation_rates(
            bundle.sys, bundle.asys, bundle.quads, bundle.vw, traj, 2, 0.0
        )
        assert rates.route_gap < 1e-7

    def test_fd_oracle(self, traj):
        errs = rates_fd_check(traj, 2, 0.02)
        assert all(v < 1e-4 for v in errs.values()), errs

    def test_reflection_rate_routes_consistent(self, traj, start):
        state, bundle = start
        rates = deformation_rates(
            bundle.sys, bundle.asys, bundle.quads, bundle.vw, traj, 2, 0.0
        )
        alt = state.r * (rates.dlog_phi0 - rates.kdot_over_k)
        assert abs(rates.rdot - alt) < 1e-8


class TestSchlesingerRhs:
    def test_matches_moment_route(self, traj, start):
        state, bundle = start
        rates = deformation_rates(
            bundle.sys, bundle.asys, bundle.quads, bundle.vw, traj, 2, 0.0
        )
        rhs = schlesinger_rhs(state, traj, 0.0)
        assert abs(rhs.kappadot - rates.kdot_over_k * state.kappa) < 1e-8
        assert abs(rhs.rdot - rates.rdot) < 1e-7
        assert abs(rhs.rbardot - rates.rbardot) < 1e-8
        assert np.max(np.abs(rhs.b_inf - rates.b_inf)) < 1e-8

    def test_trace_of_infinity_rate_vanishes(self, traj, start):
        state, _ = start
        rhs = schlesinger_rhs(state, traj, 0.0)
        assert abs(np.trace(rhs.da_inf)) < 1e-12  # commutator RHS

    def test_shared_velocity_pair_drops_from_commutators(self, strict_weight_module, start):
        # rigid shift of z_2 and z_3 with the same velocity: the (2,3)
        # commutator coefficient (zdot_j - zdot_k)/(z_j - z_k) vanishes,
        # leaving only the pairs with the pinned origin
        state, _ = start
        rhs = schlesinger_rhs(state, LineTraj(strict_weight_module, [0.0, 1.0, 1.0]), 0.0)
        locs = strict_weight_module.locations
        manual = comm(rhs.b_inf, state.a[1]) + (1.0 / (locs[1] - locs[0])) * comm(
            state.a[0], state.a[1]
        )
        assert np.max(np.abs(rhs.da[1] - manual)) < 1e-12

    def test_component_forms(self, traj, start):
        state, bundle = start
        rates = deformation_rates(
            bundle.sys, bundle.asys, bundle.quads, bundle.vw, traj, 2, 0.0
        )
        res = assemble_residues(
            bundle.quads[2], bundle.vw, bundle.sys, 2, traj.weight_at(0.0)
        )
        rep = schlesinger_component_check(
            bundle.sys, bundle.quads, bundle.vw, traj, 2, 0.0, rates, res
        )
        assert rep.passed, [(e.name, e.where, e.residual) for e in rep.failures()]


class TestFlow:
    def test_zero_length_span(self, start):
        state, _ = start
        out = integrate_flow(state, None, (0.0, 0.0), 16)
        assert out == [state]

    def test_endpoint_matches_rebuild(self, traj, start):
        state, _ = start
        states = integrate_flow(state, traj, (0.0, 0.1), 64)
        target, _ = moment_rebuild(traj, 0.1, 2)
        assert state_gap(states[-1], target) < 1e-5

    def test_invariants_along_flow(self, traj, start):
        state, _ = start
        states = integrate_flow(state, traj, (0.0, 0.1), 64)
        inv = flow_invariants(states, traj.weight0.exponents)
        assert inv["trace_drift"] < 1e-8
        assert inv["det_max"] < 1e-7
        assert inv["monodromy_gap"] < 1e-8

    def test_richardson_fourth_order(self, traj, start):
        # the check halves its step count below the flow's until the fine
        # error clears round-off: the 64-step flow alone is round-off
        # (6.6e-14 against 128 steps), so its check resolves on a coarser grid
        state, _ = start
        for steps in (16, 64):
            states = integrate_flow(state, traj, (0.0, 0.1), steps)
            conv = flow_convergence(states, traj)
            assert conv["resolved"] is True
            assert conv["steps"] < steps
            assert conv["fine"] < 1e-7
            assert conv["fine"] >= 100.0 * 2.0**-52 * np.max(np.abs(states[-1].pack()))
            assert 12.0 <= conv["ratio"] <= 20.0

    def test_richardson_one_step(self, traj, start):
        # no coarser grid than one step: the one-step flow is compared with
        # a two-step one, never with itself
        state, _ = start
        conv = flow_convergence(integrate_flow(state, traj, (0.0, 0.1), 1), traj)
        assert conv["steps"] == 1
        assert conv["fine"] > 0.0
        assert conv["coarse"] == 0.0

    @pytest.mark.parametrize("target", [2.0 + 0.05j, 2.0 - 0.05j])
    def test_ladder_matches_top_down_rule(self, strict_weight_module, target):
        # climbing the rungs from one step stops on the rung the top-down
        # walk stops on, and reads the same flows, so the dicts are equal
        traj = LinearTrajectory(strict_weight_module, moving=1, target=target, t0=0.0, t1=0.1)
        initial, _ = moment_rebuild(traj, 0.0, 2)
        for steps in (1, 2, 16, 64, 256):
            states = integrate_flow(initial, traj, (0.0, 0.1), steps)
            assert flow_convergence(states, traj) == richardson_top_down(states, traj)

    @pytest.mark.parametrize("target", [2.1, 2.0 - 0.05j])
    @pytest.mark.parametrize("steps", [96, 100, 120, 200])
    def test_richardson_pairs_are_two_to_one(self, strict_weight_module, target, steps):
        # halving 120 or 100 steps by floor division would compare 7 with 15
        # or 12 with 25 steps and misread the order (21.4 and 18.8 here);
        # every rung is a power of two, compared with twice its steps
        traj = LinearTrajectory(strict_weight_module, moving=1, target=target, t0=0.0, t1=0.1)
        initial, _ = moment_rebuild(traj, 0.0, 2)
        conv = flow_convergence(integrate_flow(initial, traj, (0.0, 0.1), steps), traj)
        assert conv["resolved"] is True
        assert conv["steps"] & (conv["steps"] - 1) == 0 and 2 * conv["steps"] <= steps
        assert 12.0 <= conv["ratio"] <= 20.0

    def test_richardson_zero_span(self, start):
        state, _ = start
        conv = flow_convergence(integrate_flow(state, None, (0.0, 0.0), 16), None)
        assert conv == {
            "coarse": 0.0, "fine": 0.0, "ratio": float("inf"), "steps": 0, "resolved": False
        }

    @pytest.mark.parametrize(
        "target",
        [
            2.0 - 0.05j,
            pytest.param(
                2.0 + 0.05j,
                marks=pytest.mark.xfail(
                    strict=True,
                    raises=AssertionError,
                    reason="the rebuilt weight takes the principal value of (-z_2)^rho_2: "
                    "-z_2 = -2 sits on the cut with arg pi, a move into the upper "
                    "half-plane sends the arg to -pi, and the rebuilt weight's "
                    "constant jumps by e^{-2 pi i rho_2}, which the flow does not see",
                ),
            ),
        ],
    )
    def test_off_axis_move_matches_rebuild(self, strict_weight_module, target):
        traj = LinearTrajectory(strict_weight_module, moving=1, target=target, t0=0.0, t1=0.1)
        initial, _ = moment_rebuild(traj, 0.0, 2)
        states = integrate_flow(initial, traj, (0.0, 0.1), 16)
        rebuilt, _ = moment_rebuild(traj, 0.1, 2)
        assert state_gap(states[-1], rebuilt) < 1e-5

    def test_transfer_compatibility(self, traj):
        res = transfer_rate_check(traj, 2, 0.05, [0.4 + 0.2j, 2.6 + 1.0j])
        assert res < 1e-6

    def test_moving_origin_rejected(self, strict_weight_module, start):
        state, _ = start
        with pytest.raises(SingularResidueError):
            schlesinger_rhs(state, LineTraj(strict_weight_module, [1.0, 0.0, 0.0]), 0.0)


class TestFlowKernel:
    @pytest.fixture(scope="class")
    def five(self):
        weight = SemiClassicalWeight(
            (
                Singularity(0, -1),
                Singularity(2, 0.5),
                Singularity(3, 1.0 / 3.0),
                Singularity(-2.5 + 0.5j, 0.25),
                Singularity(0.3 - 0.4j, 0.75 + 0.1j),
            ),
            strict=False,
        )
        # two singularities moving at different velocities, so every pair
        # coefficient (zdot_j - zdot_k)/(z_j - z_k) with j or k moving is
        # nonzero and none cancels
        traj = LineTraj(weight, [0, 1.0 + 0.5j, 0, -0.3 + 0.2j, 0])
        rng = np.random.default_rng(7)
        draw = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
        state = DeformState(0.0, 2, draw(5, 2, 2), draw(2, 2), *draw(3))
        return traj, state

    def test_rhs_matches_per_pair_sum(self, five):
        traj, state = five
        for t in (0.0, 0.07):
            rhs = schlesinger_rhs(state, traj, t)
            packed = np.concatenate(
                [rhs.da.ravel(), rhs.da_inf.ravel(), [rhs.kappadot, rhs.rdot, rhs.rbardot]]
            )
            want, b_inf = reference_rhs(state, traj, t)
            assert close(packed, want)
            assert close(rhs.b_inf, b_inf)

    def test_flow_matches_numpy_rk4(self, five):
        traj, state = five
        steps, h = 16, 0.1 / 16

        def f(t, y):
            return reference_rhs(DeformState.unpack(t, 2, 5, y, "ref"), traj, t)[0]

        y = state.pack()
        want = [y]
        for step in range(steps):
            t = step * h
            k1 = f(t, y)
            k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(t + h, y + h * k3)
            y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            want.append(y)
        states = integrate_flow(state, traj, (0.0, 0.1), steps)
        assert [st.t for st in states] == [step * h for step in range(steps)] + [0.1]
        assert close(np.array([st.pack() for st in states]), np.array(want))

    @pytest.mark.parametrize(
        "case, error, message",
        [
            ("moving_origin", SingularResidueError, "a moving singularity sits at the origin"),
            ("coincident", SingularResidueError, "coincident singularities"),
            ("m_mismatch", ValueError, "disagree on the number of singularities"),
            ("blow_up", SingularResidueError, r"flow blew up at t = 0\.00625 "),
        ],
    )
    def test_error_paths(self, strict_weight_module, start, five, case, error, message):
        state, _ = start
        traj = LineTraj(strict_weight_module, [0, 1.0, 0])
        if case == "moving_origin":
            traj = LineTraj(strict_weight_module, [1.0, 0, 0])
        elif case == "coincident":
            traj = LineTraj(strict_weight_module, [0, 1.0, 0], locs=[0, 2.0, 2.0])
        elif case == "m_mismatch":
            traj = five[0]
        else:
            state = DeformState.unpack(0.0, 2, 3, 1e200 * state.pack(), "scaled")
        for flow in (integrate_flow, flow_endpoint):
            with pytest.raises(error, match=message):
                flow(state, traj, (0.0, 0.1), 16)

    @pytest.mark.parametrize("steps", [1, 2, 16, 64])
    def test_endpoint_is_flow_endpoint(self, five, steps):
        traj, state = five
        end = flow_endpoint(state, traj, (0.0, 0.1), steps)
        assert np.array_equal(end, integrate_flow(state, traj, (0.0, 0.1), steps)[-1].pack())

    def test_invariants_match_per_state_loop(self, traj, start):
        state, _ = start
        states = integrate_flow(state, traj, (0.0, 0.1), 16)
        tr0 = np.trace(states[0].a, axis1=1, axis2=2)
        closed = [2 + 1.0, -0.5, -1.0 / 3.0]  # n - rho_0 at the origin, then -rho_j
        assert flow_invariants(states, traj.weight0.exponents) == {
            "trace_drift": max(
                float(np.max(np.abs(np.trace(st.a, axis1=1, axis2=2) - tr0))) for st in states
            ),
            "det_max": max(float(np.max(np.abs(np.linalg.det(st.a)))) for st in states),
            "monodromy_gap": max(
                max(abs(np.trace(blk) - want), abs(np.linalg.det(blk)))
                for st in states
                for blk, want in zip(st.a, closed)
            ),
        }


# one short move per corpus weight: (weight, moving index, target)
MONODROMY_MOVES = {
    "flagship": (lambda: weight_from_json(STRICT_SPEC), 1, 2.0 - 0.05j),
    "complex_m4": (complex_m4_weight, 1, 1.85 + 0.9j),
    "inside_complex": (lambda: weight_from_json(INSIDE_COMPLEX_SPEC), 2, 2.05),
}


class TestMonodromy:
    """The residue matrices keep tr A_nj = -rho_j (n - rho_0 at the origin)
    and det A_nj = 0 along a flow, which fixes the local monodromy."""

    @pytest.mark.parametrize("n", [1, 3, 5])
    @pytest.mark.parametrize("name", sorted(MONODROMY_MOVES))
    def test_closed_form_along_flow(self, name, n):
        make, moving, target = MONODROMY_MOVES[name]
        weight = make()
        traj = LinearTrajectory(weight, moving=moving, target=target, t0=0.0, t1=0.1)
        initial, _ = moment_rebuild(traj, 0.0, n)
        states = integrate_flow(initial, traj, (0.0, 0.1), 32)
        rhos = [complex(s.exponent) for s in weight.singularities]
        for st in states:
            origin, *rest = st.a
            assert abs(np.trace(origin) - (n - rhos[0])) <= 1e-8
            for blk, rho in zip(rest, rhos[1:]):
                assert abs(np.trace(blk) + rho) <= 1e-8
            assert np.max(np.abs(np.linalg.det(st.a))) <= 1e-8
        assert flow_invariants(states, weight.exponents)["monodromy_gap"] <= 1e-8

    @pytest.mark.parametrize("entry", [(1, 0, 0), (1, 1, 0)], ids=["diagonal", "off_diagonal"])
    def test_perturbed_flowed_state_fails(self, tmp_path, monkeypatch, entry):
        # A_n2 at n = 3 has |a_12| about 52, so a 1e-6 change of a_21 moves
        # its determinant by about 5e-5; a change of a_11 moves its trace
        def perturbed(*args):
            states = integrate_flow(*args)
            states[len(states) // 2].a[entry] += 1e-6
            return states

        monkeypatch.setattr(cli, "integrate_flow", perturbed)
        weight, path = tmp_path / "w.json", tmp_path / "t.json"
        weight.write_text(json.dumps(STRICT_SPEC))
        path.write_text(json.dumps({"j": 2, "to": [2, -0.05], "t0": 0.0, "t1": 0.1}))
        argv = ["deform", "--weight", str(weight), "--trajectory", str(path), "--n", "3",
                "--steps", "32", "--out", str(tmp_path / "d")]
        assert cli.main(argv) == 1
        report = json.loads((tmp_path / "d" / "deform_report.json").read_text())
        [mono] = [e for e in report["entries"] if e["name"] == "monodromy_constancy"]
        assert mono["tol"] == 1e-8
        assert mono["passed"] is False and mono["residual"] > 1e-7
