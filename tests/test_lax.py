import numpy as np
import pytest

from circlebops.errors import SingularResidueError
from circlebops.numerics import slope_fit
from circlebops.lax import (
    assemble_residues,
    k_matrix,
    normalized_solution,
    residues_bilinear_form,
    rhp_jump_check,
    verify_matrix_system,
    y_matrix,
)

from conftest import close, laurent_callable
from oracles import laurent_coefficients

SAMPLES = [0.4 + 0.2j, -0.3 + 0.35j, 0.5 - 0.1j]


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
            res = assemble_residues(
                strict["quads"][n], strict["vw"], strict["sys"], n, strict["weight"]
            )
            # Tr A_1 = n - rho_1 = n + 1, Tr A_j = -rho_j otherwise
            assert abs(np.trace(res.a[0]) - (n + 1)) < 1e-8
            assert abs(np.trace(res.a[1]) + 0.5) < 1e-8
            assert abs(np.trace(res.a[2]) + 1.0 / 3.0) < 1e-8

    def test_rank_one(self, strict):
        for n in range(5):
            res = assemble_residues(
                strict["quads"][n], strict["vw"], strict["sys"], n, strict["weight"]
            )
            for mat in res.a:
                assert abs(np.linalg.det(mat)) < 1e-8

    def test_infinity_closed_form(self, strict):
        sum_rho = complex(strict["weight"].exponents.sum())
        for n in range(4):
            res = assemble_residues(
                strict["quads"][n], strict["vw"], strict["sys"], n, strict["weight"]
            )
            lev = strict["sys"].level(n)
            want = np.array(
                [[-n, 0.0], [-(n + sum_rho) * lev.rbar, sum_rho]], dtype=complex
            )
            assert np.max(np.abs(res.a_inf - want)) < 1e-7
            assert np.max(np.abs(res.a_inf_closed - want)) < 1e-14
            assert abs(np.trace(res.a_inf) - (-n + sum_rho)) < 1e-7
            assert abs(np.linalg.det(res.a_inf) - (-n * sum_rho)) < 1e-6

    def test_bilinear_form_agrees(self, strict):
        n = 2
        res = assemble_residues(
            strict["quads"][n], strict["vw"], strict["sys"], n, strict["weight"]
        )
        bil = residues_bilinear_form(
            strict["sys"], strict["asys"], strict["weight"], n
        )
        for j, mat in bil.items():
            assert np.max(np.abs(res.a[j] - mat)) < 1e-8


class TestMatrixSystems:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_web(self, strict, n):
        rep = verify_matrix_system(
            strict["sys"],
            strict["asys"],
            strict["quads"],
            strict["vw"],
            strict["weight"],
            n,
            SAMPLES,
        )
        assert rep.passed, [(e.name, e.where, e.residual) for e in rep.failures()]

    def test_summation_identity_values(self, strict):
        rep = verify_matrix_system(
            strict["sys"],
            strict["asys"],
            strict["quads"],
            strict["vw"],
            strict["weight"],
            2,
            SAMPLES[:1],
        )
        by_name = {e.name: e for e in rep.entries}
        assert by_name["summation_phistar_eps"].residual < 1e-7  # equals -n
        assert by_name["summation_phi_epsstar"].residual < 1e-7  # equals sum rho


class TestRHP:
    def test_lebesgue_jump_exact(self, lebesgue):
        thetas = np.linspace(0.05, 2 * np.pi, 24)
        for n in (1, 2, 3):
            rep = rhp_jump_check(lebesgue["sys"], lebesgue["asys"], lebesgue_wfun, n, thetas)
            assert rep.passed, [(e.name, e.where, e.residual) for e in rep.failures()]
            jump = [e for e in rep.entries if e.name == "rhp_jump"]
            assert max(e.residual for e in jump) < 1e-12

    def test_laurent_and_strict(self, laurent, strict):
        thetas = np.linspace(0.05, 2 * np.pi, 24)
        for fix, wf in ((laurent, laurent_callable), (strict, strict["wfun"])):
            for n in (1, 2, 3):
                rep = rhp_jump_check(
                    fix["sys"], fix["asys"], wf, n, thetas,
                    weight=fix.get("weight"),
                )
                assert rep.passed, [
                    (e.name, e.where, e.residual) for e in rep.failures()
                ]

    def test_normalized_determinant_value(self, strict):
        for n in (1, 2, 3):
            det = np.linalg.det(normalized_solution(strict["sys"], strict["asys"], n, 0.5))
            assert abs(det + 0.5 ** (n - 1)) < 1e-9

    def test_order_fit_slope_close_to_n(self, strict):
        thetas = np.linspace(0.05, 2 * np.pi, 8)
        rep = rhp_jump_check(
            strict["sys"], strict["asys"], strict["wfun"], 2, thetas, weight=strict["weight"]
        )
        entry = {e.name: e for e in rep.entries}["rhp_order_11_at_infinity"]
        assert entry.residual < 0.01

    def test_rejects_n_zero(self, strict):
        with pytest.raises(ValueError):
            rhp_jump_check(strict["sys"], strict["asys"], strict["wfun"], 0, [0.3])

    def test_zero_weight_point_rejected(self, laurent):
        with pytest.raises(SingularResidueError):
            y_matrix(laurent["sys"], laurent["asys"], laurent_callable, 1, -1.0 + 0j)


def one_point(f, z):
    """f at the single point z, called on a one-element array."""
    return f(np.array([z]))[0]


def slope_per_point(f, r1, r2, angles=32):
    theta = 2.0 * np.pi * (np.arange(angles) + 0.5) / angles

    def mean_log(r):
        return np.mean([np.log(np.abs(one_point(f, r * np.exp(1j * t)))) for t in theta], axis=0)

    return (mean_log(r2) - mean_log(r1)) / np.log(r2 / r1)


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

    def test_slope_fit_array_callable(self, strict):
        sys, asys = strict["sys"], strict["asys"]
        for side, radii in (("outside", (20.0, 80.0)), ("inside", (0.025, 0.1))):
            f = lambda z: normalized_solution(sys, asys, 2, z, side)
            slopes = slope_fit(f, *radii)
            assert slopes.shape == (2, 2)
            assert close(slopes, slope_per_point(f, *radii))
        cubic = lambda z: z**3 + 0.5 * z
        scalar = slope_fit(cubic, 20.0, 80.0)
        assert np.ndim(scalar) == 0
        assert abs(scalar - slope_per_point(cubic, 20.0, 80.0)) < 1e-13
        assert slope_fit(lambda z: 0.0 * z, 1.0, 2.0) == -np.inf

    def test_laurent_coefficients_array_callable(self, strict):
        asys = strict["asys"]
        f = lambda z: asys.eps(2, z, side="outside")
        orders = range(-3, 1)
        got = laurent_coefficients(f, 2.0, orders)
        p = 64  # the sample count laurent_coefficients picks for these orders
        zs = 2.0 * np.exp(2j * np.pi * np.arange(p) / p)
        hat = np.fft.fft([one_point(f, z) for z in zs]) / p
        for k in orders:
            want = hat[k % p] * 2.0 ** (-k)
            assert abs(got[k] - want) <= 1e-13 * max(1.0, abs(want))

    def test_rhp_entries_per_level(self, strict):
        thetas = np.linspace(0.05, 2.0 * np.pi, 24)
        for n in (1, 2, 3):
            rep = rhp_jump_check(
                strict["sys"], strict["asys"], strict["wfun"], n, thetas,
                weight=strict["weight"],
            )
            want = ["rhp_jump"] * 48 + ["rhp_determinant"] * 3 + [
                f"rhp_order_{ij}_at_{where}"
                for where in ("infinity", "zero")
                for ij in (("11", "22", "12", "21") if where == "infinity" else ("11", "12", "21", "22"))
            ]
            assert [e.name for e in rep.entries] == want
            assert {e.n for e in rep.entries} == {n}
            wheres = [e.where for e in rep.entries[:48]]
            assert wheres[0] == "theta=0.050, r=0.9999"
            assert wheres[24] == "theta=0.050, r=1.0001"
            assert rep.entries[48].where == "z=0.5+0.21j"
