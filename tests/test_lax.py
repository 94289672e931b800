import dataclasses
import json

import numpy as np
import pytest

from circlebops import pipeline
from circlebops.cli import main
from circlebops.deform import LinearTrajectory, moment_rebuild
from circlebops.errors import SingularResidueError
from circlebops.lax import (
    RHP_THETAS,
    assemble_residues,
    k_matrix,
    normalized_solution,
    residues_bilinear_form,
    rhp_jump_check,
    verify_matrix_system,
)

from conftest import STRICT_SPEC, close
from oracles import laurent_coefficients, y_matrix


def lebesgue_wfun(z):
    return np.ones_like(np.asarray(z, dtype=complex))


class TestYMatrix:
    def test_lebesgue_inside_form(self, lebesgue):
        z = 0.4 + 0.1j
        for n in range(4):
            y = y_matrix(lebesgue["sys"], lebesgue["asys"], lebesgue_wfun, n, z)
            want = np.array([[z**n, 2 * z**n], [1, 0]], dtype=complex)
            assert np.max(np.abs(y - want)) < 1e-13
            assert abs(np.linalg.det(y) + 2 * z**n) < 1e-13

    def test_determinant_contract(self, strict):
        for n in (1, 2, 3):
            for z in (0.5 + 0.1j, 2.3 - 0.8j):
                y = y_matrix(strict["sys"], strict["asys"], strict["wfun"], n, z)
                w = complex(strict["wfun"](z))
                assert abs(np.linalg.det(y) * w + 2 * z**n) < 1e-10

    def test_transfer_recurrence(self, strict):
        # Y_{n+1} = K_n Y_n and det K_n = z
        z = 0.45 - 0.2j
        for n in (1, 2):
            lhs = y_matrix(strict["sys"], strict["asys"], strict["wfun"], n + 1, z)
            rhs = k_matrix(strict["sys"], n, z) @ y_matrix(
                strict["sys"], strict["asys"], strict["wfun"], n, z
            )
            assert np.max(np.abs(lhs - rhs)) < 1e-11
            assert abs(np.linalg.det(k_matrix(strict["sys"], n, z)) - z) < 1e-12


class TestResidues:
    def test_traces(self, strict):
        for n in range(4):
            res = assemble_residues(strict["bundle"], n)
            # Tr A_1 = n - rho_1 = n + 1, Tr A_j = -rho_j otherwise
            assert abs(np.trace(res.a[0]) - (n + 1)) < 1e-8
            assert abs(np.trace(res.a[1]) + 0.5) < 1e-8
            assert abs(np.trace(res.a[2]) + 1.0 / 3.0) < 1e-8

    def test_rank_one(self, strict):
        for n in range(5):
            res = assemble_residues(strict["bundle"], n)
            for mat in res.a:
                assert abs(np.linalg.det(mat)) < 1e-8

    def test_infinity_closed_form(self, strict):
        sum_rho = complex(strict["weight"].exponents.sum())
        for n in range(4):
            res = assemble_residues(strict["bundle"], n)
            rbar = strict["sys"].reflections[1][n]
            want = np.array(
                [[-n, 0.0], [-(n + sum_rho) * rbar, sum_rho]], dtype=complex
            )
            assert np.max(np.abs(res.a_inf - want)) < 1e-7
            assert np.max(np.abs(res.a_inf_closed - want)) < 1e-14
            assert abs(np.trace(res.a_inf) - (-n + sum_rho)) < 1e-7
            assert abs(np.linalg.det(res.a_inf) - (-n * sum_rho)) < 1e-6

    def test_bilinear_form_agrees(self, strict):
        n = 2
        res = assemble_residues(strict["bundle"], n)
        bil = residues_bilinear_form(strict["bundle"], [n])
        assert bil.shape == (1, 2, 2, 2)
        assert np.max(np.abs(res.a[1:] - bil[0])) < 1e-8


def nudge(quads, n, delta):
    """The store with ``delta`` added to the constant term of Omega_n."""
    members = quads.members.copy()
    members[quads.index([n])[0], 0, 2] += delta
    return dataclasses.replace(quads, members=members)


def omega_nudge(strict, n, gap=1.5e-7):
    """The constant added to Omega_n that moves the level-n residue sum off
    its closed form at infinity by ``gap``, and the bundle with the nudged
    quadruple."""
    bundle = strict["bundle"]

    def nudged(delta):
        return dataclasses.replace(bundle, quads=nudge(bundle.quads, n, delta))

    delta = gap * 1e-6 / assemble_residues(nudged(1e-6), n).consistency
    assert 1e-7 < assemble_residues(nudged(delta), n).consistency < 2e-7
    return delta, nudged(delta)


class TestResidueGateScale:
    """residue_at_infinity, the residue-sum gate, is 1e-7 times --tol."""

    def test_matrix_suite(self, strict):
        n = 2
        _, bundle = omega_nudge(strict, n)
        for scale, passed in ((1.0, False), (2.0, True)):
            rep = verify_matrix_system(bundle, [n], tol_scale=scale)
            (entry,) = [e for e in rep.entries if e.name == "residue_at_infinity"]
            assert 1e-7 < entry.residual < 2e-7 and entry.passed == passed

    def test_moment_rebuild(self, strict, monkeypatch, tmp_path):
        # deform reports the worst residue sum of its two rebuilds
        n = 2
        delta, _ = omega_nudge(strict, n)
        build = pipeline.compute_coeff_quads

        monkeypatch.setattr(pipeline, "compute_coeff_quads", lambda *args: nudge(build(*args), n, delta))
        traj = LinearTrajectory(strict["weight"], moving=1, target=2.001, t0=0.0, t1=0.1)
        _, consistency, _ = moment_rebuild(traj, 0.0, n)
        assert 1e-7 < consistency < 2e-7
        (tmp_path / "w.json").write_text(json.dumps(STRICT_SPEC))
        (tmp_path / "t.json").write_text(json.dumps({"j": 2, "to": [2.001, 0], "t1": 0.1}))
        for scale, passed in (("1", False), ("2", True)):
            out = tmp_path / scale
            main(["deform", "--weight", str(tmp_path / "w.json"), "--trajectory", str(tmp_path / "t.json"),
                  "--n", str(n), "--steps", "16", "--tol", scale, "--out", str(out)])
            entries = json.loads((out / "deform_report.json").read_text())["entries"]
            (entry,) = [e for e in entries if e["name"] == "residue_at_infinity"]
            assert 1e-7 < entry["residual"] < 2e-7 and entry["passed"] == passed and entry["n"] == n


class TestMatrixSystems:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_web(self, strict, n):
        rep = verify_matrix_system(strict["bundle"], [n])
        assert rep.passed, [(e.name, e.where, e.residual) for e in rep.failures()]

    def test_summation_identity_values(self, strict):
        rep = verify_matrix_system(strict["bundle"], [2])
        by_name = {e.name: e for e in rep.entries}
        assert by_name["summation_phistar_eps"].residual < 1e-7  # equals -n
        assert by_name["summation_phi_epsstar"].residual < 1e-7  # equals sum rho


class TestRHP:
    def test_lebesgue_jump_exact(self, lebesgue):
        # the raw table is called as its weight, its Laurent sum, here w = 1
        assert np.array_equal(lebesgue["table"](np.exp(1j * RHP_THETAS)), np.ones(24))
        rep = rhp_jump_check(lebesgue["bundle"], (1, 2, 3))
        assert rep.passed, [(e.name, e.where, e.residual) for e in rep.failures()]
        jump = [e for e in rep.entries if e.name == "rhp_jump"]
        assert max(e.residual for e in jump) < 1e-12

    def test_laurent_and_strict(self, laurent, strict):
        for fix in (laurent, strict):
            rep = rhp_jump_check(fix["bundle"], (1, 2, 3))
            assert rep.passed, [
                (e.name, e.where, e.residual) for e in rep.failures()
            ]

    def test_normalized_determinant_value(self, strict):
        for n in (1, 2, 3):
            det = np.linalg.det(normalized_solution(strict["sys"], strict["asys"], n, 0.5))
            assert abs(det + 0.5 ** (n - 1)) < 1e-9

    def test_orders_read_exact_coefficients(self, strict):
        # each order entry is its largest forbidden coefficient over
        # max(1, its largest allowed one); here they are checked against
        # the Laurent coefficients of the normalized solution sampled on
        # circles inside and outside the unit circle
        sys, asys = strict["sys"], strict["asys"]
        for n in (1, 2, 3):
            rep = rhp_jump_check(strict["bundle"], [n])
            by_name = {e.name: e for e in rep.entries}
            for ij in ("11", "21"):  # polynomials of degree n
                assert by_name[f"rhp_order_{ij}_at_zero"].residual == 0.0
                assert by_name[f"rhp_order_{ij}_at_infinity"].residual == 0.0
            for name, side, radius, entry, order, forbidden, allowed in (
                ("rhp_order_12_at_zero", "inside", 0.5, (0, 1), n - 1, range(-1, n - 1), range(n - 1, n + 3)),
                ("rhp_order_22_at_zero", "inside", 0.5, (1, 1), n, range(-1, n), range(n, n + 3)),
                ("rhp_order_12_at_infinity", "outside", 8.0, (0, 1), -2, range(-1, n), range(-4, -1)),
                ("rhp_order_22_at_infinity", "outside", 8.0, (1, 1), -1, range(0, n), range(-4, 0)),
            ):
                f = lambda z: normalized_solution(sys, asys, n, z, side)[(...,) + entry]
                coeffs = laurent_coefficients(f, radius, [*forbidden, *allowed])
                stray = max(abs(coeffs[k]) for k in forbidden)
                top = max(1.0, max(abs(coeffs[k]) for k in allowed))
                got = by_name[name]
                assert got.where == f"z^{order}" and abs(coeffs[order]) > 1e-6, (name, n)
                assert got.tol == 1e-9 and got.passed, (name, n)
                assert abs(got.residual - stray / top) < 1e-12, (name, n, got.residual)

    def test_perturbed_coefficient_fails_its_order(self, strict):
        # a fresh bundle builds its own AssocSystem, with its own psi*
        # cache; one low-order coefficient of psi*_n moves the z^0
        # coefficient of eps*_n, which Y_22 ~ z^n forbids at 0, and leaves
        # every other entry's read alone
        n = 3
        bundle = dataclasses.replace(strict["bundle"])
        bundle.asys.psistar(n)[0] += 1e-6
        assert bundle.asys is not strict["bundle"].asys
        rep = rhp_jump_check(bundle, [n])
        failing = {e.name for e in rep.failures() if e.name.startswith("rhp_order")}
        assert failing == {"rhp_order_22_at_zero"}
        by_name = {e.name: e for e in rep.entries}
        assert by_name["rhp_order_22_at_zero"].residual > 1e-7
        assert by_name["rhp_order_11_at_infinity"].passed

    def test_replaced_levels_bring_their_own_associated_functions(self, strict):
        # asys is built over the bundle's own levels, once, so a bundle on
        # other levels never reads the associated functions of the first
        other = strict["sys"].prefix(5)
        bundle = dataclasses.replace(strict["bundle"], sys=other)
        assert bundle.asys.sys is other and bundle.asys is bundle.asys

    def test_rejects_n_zero(self, strict):
        with pytest.raises(ValueError):
            rhp_jump_check(strict["bundle"], [1, 0])

    def test_zero_weight_point_rejected(self, laurent):
        with pytest.raises(SingularResidueError):
            y_matrix(laurent["sys"], laurent["asys"], laurent["wfun"], 1, -1.0 + 0j)


def one_point(f, z):
    """f at the single point z, called on a one-element array."""
    return f(np.array([z]))[0]


class TestBatched:
    def test_normalized_solution_stack(self, strict):
        sys, asys = strict["sys"], strict["asys"]
        zs = np.array([[0.5 + 0.21j, -1.7 + 1.1j, 2.0 - 0.6j], [0.1j, 0.3 - 0.3j, -4.0]])
        for n in (1, 2, 3):
            stack = normalized_solution(sys, asys, n, zs)
            assert stack.shape == (2, 3, 2, 2)
            loop = np.array(
                [[normalized_solution(sys, asys, n, complex(z)) for z in row] for row in zs]
            )
            assert close(stack, loop)
            ring = (1.0 - 1e-4) * np.exp(1j * np.linspace(0.05, 6.2, 9))
            for side in ("inside", "outside"):
                stack = normalized_solution(sys, asys, n, ring, side)
                loop = np.array([normalized_solution(sys, asys, n, z, side) for z in ring])
                assert close(stack, loop)

    def test_y_matrix_stack(self, strict):
        zs = np.array([0.45 - 0.2j, 2.3 - 0.8j, -0.2 + 0.1j])
        stack = y_matrix(strict["sys"], strict["asys"], strict["wfun"], 2, zs)
        loop = np.array(
            [y_matrix(strict["sys"], strict["asys"], strict["wfun"], 2, z) for z in zs]
        )
        assert stack.shape == (3, 2, 2)
        assert close(stack, loop)

    def test_laurent_coefficients_array_callable(self, strict):
        asys = strict["asys"]
        f = lambda z: asys.evaluate(z, side="outside")[2][2]
        orders = range(-3, 1)
        got = laurent_coefficients(f, 2.0, orders)
        p = 64  # the sample count laurent_coefficients picks for these orders
        zs = 2.0 * np.exp(2j * np.pi * np.arange(p) / p)
        hat = np.fft.fft([one_point(f, z) for z in zs]) / p
        for k in orders:
            want = hat[k % p] * 2.0 ** (-k)
            assert abs(got[k] - want) <= 1e-13 * max(1.0, abs(want))

    def test_rhp_entries_per_level(self, strict):
        rep = rhp_jump_check(strict["bundle"], (1, 2, 3))
        want = ["rhp_jump"] * 48 + ["rhp_determinant"] * 3 + [
            f"rhp_order_{ij}_at_{where}"
            for where in ("infinity", "zero")
            for ij in (("11", "22", "12", "21") if where == "infinity" else ("11", "12", "21", "22"))
        ]
        assert [e.name for e in rep.entries] == want * 3
        assert [e.n for e in rep.entries] == [n for n in (1, 2, 3) for _ in want]
        for start in range(0, 3 * len(want), len(want)):
            wheres = [e.where for e in rep.entries[start : start + 48]]
            assert wheres[0] == "theta=0.050, r=0.9999"
            assert wheres[24] == "theta=0.050, r=1.0001"
            assert rep.entries[start + 48].where == "z=0.5+0.21j"

    def test_level_range_is_concatenation_of_single_levels(self, strict):
        # a suite over range(1, 6) equals its one-level runs back to back,
        # entry for entry, residuals to the bit
        for suite in (verify_matrix_system, rhp_jump_check):
            bundle = strict["bundle"]
            whole = [e.to_dict() for e in suite(bundle, range(1, 6)).entries]
            parts = [e.to_dict() for n in range(1, 6) for e in suite(bundle, range(n, n + 1)).entries]
            assert whole and whole == parts

    def test_levels_without_a_successor_keep_their_place(self, strict):
        # with quadruple 3 missing, level 2 has no transfer or X/Z checks
        # while level 4 has them: each level's entries stay in its place
        quads, keep = strict["quads"], strict["quads"].levels != 3
        quads = dataclasses.replace(quads, levels=quads.levels[keep], members=quads.members[keep],
                                    ratios=quads.ratios[keep])
        bundle = dataclasses.replace(strict["bundle"], quads=quads)
        whole = [e.to_dict() for e in verify_matrix_system(bundle, [1, 2, 4]).entries]
        parts = [e.to_dict() for n in (1, 2, 4) for e in verify_matrix_system(bundle, [n]).entries]
        assert whole == parts
        names = {n: {e["name"] for e in whole if e["n"] == n} for n in (2, 4)}
        assert "transfer_compatibility" in names[4] - names[2]

    def test_normalized_solution_level_stack(self, strict):
        sys, asys = strict["sys"], strict["asys"]
        zs = np.array([0.5 + 0.21j, -1.7 + 1.1j, 2.0 - 0.6j])
        stack = normalized_solution(sys, asys, [1, 2, 3], zs)
        assert stack.shape == (3, 3, 2, 2)
        for row, n in zip(stack, (1, 2, 3)):
            assert row.tobytes() == normalized_solution(sys, asys, n, zs).tobytes()
