"""The engine against the 50-digit reference of tests/oracles.py: exact
moments of the flagship family z^-1 prod_j (z - z_j)^rho_j (singularities
outside the disc) and their Gram solves.  Each bound is a running round-off
bound, a constant times the unit round-off 2^-52 times the size that
carries the error (Higham 2002, Accuracy and Stability of Numerical
Algorithms, section 3); the constants are about three times the largest
ratio measured on these weights."""

import mpmath
import numpy as np
import pytest

from circlebops.bops import build_system
from circlebops.moments import compute_moments
from circlebops.weight import SemiClassicalWeight, Singularity

from conftest import complex_m4_weight
from oracles import exact_moments, gram_reference

U = 2.0**-52
WINDOW = 48
# |w_k - exact w_k| <= MOMENT_C u max_k |w_k|: 1.10 (flagship) and 1.03 (m = 4) measured
MOMENT_C = 4.0
# level error <= LEVEL_C u max_{k <= n} |r_k|, |rbar_k|: 0.48 (flagship) and 1.23 (m = 4) measured
LEVEL_C = 4.0


def doubles(moments) -> np.ndarray:
    """w_{-K}..w_K of a 50-digit moment dict, rounded to double."""
    return np.array([complex(moments[k]) for k in range(-WINDOW, WINDOW + 1)])


def moment_gap(table, moments) -> float:
    """max_k |w_k - moments_k| in units of u max_k |moments_k|."""
    want = doubles(moments)
    return float(np.max(np.abs(table.values - want)) / (U * np.max(np.abs(want))))


@pytest.fixture(scope="module", params=["flagship", "complex_m4"])
def case(request, strict, flagship_exact):
    """(weight, its double moment table, its exact moments, the top level N)."""
    if request.param == "flagship":
        return strict["weight"], strict["table"], flagship_exact, 21
    weight = complex_m4_weight()
    return weight, compute_moments(weight, WINDOW), exact_moments(weight, WINDOW), 18


def test_moments_within_round_off(case):
    _, table, moments, _ = case
    assert moment_gap(table, moments) <= MOMENT_C


def test_levels_within_round_off(case):
    # kappa_n, c_n and cbar_n of every level through N, each relative to its
    # own size, against the 50-digit Gram solve of the exact moments
    _, table, moments, top = case
    system = build_system(table, top)
    growth = 1.0
    r, rbar = system.reflections
    for n in range(top + 1):
        kappa, c, cbar = gram_reference(moments, n)
        growth = max(growth, abs(r[n]), abs(rbar[n]))
        error = abs(system.kappas[n] - complex(kappa)) / abs(complex(kappa))
        for got, want in ((system.phi[n, : n + 1], c), (system.phibar[n, : n + 1], cbar)):
            want = np.array([complex(v) for v in want])
            error = max(error, np.max(np.abs(got - want)) / np.max(np.abs(want)))
        assert error <= LEVEL_C * U * growth, (n, error / (U * growth))


def test_reference_catches_mutants(strict, flagship_exact):
    # each mutant of the reference leaves the flagship's double moments by
    # far more than the round-off bound, so the reference does not lean on
    # compute_moments: a branch constant off by e^{2 pi i rho_2}, the Taylor
    # order k in place of k + 1, and rho_2 perturbed by 1e-8
    table, rho = strict["table"], strict["weight"].singularities[1].exponent
    assert moment_gap(table, flagship_exact) <= MOMENT_C
    with mpmath.workdps(50):
        turn = mpmath.exp(2j * mpmath.pi * mpmath.mpc(rho))
        branch = {k: turn * v for k, v in flagship_exact.items()}
    order = {k: flagship_exact.get(k - 1, 0) for k in flagship_exact}
    perturbed = SemiClassicalWeight(
        (Singularity(0, -1), Singularity(2, 0.5 + 1e-8), Singularity(3, 1.0 / 3.0))
    )
    exponent = exact_moments(perturbed, WINDOW)
    for mutant in (branch, order, exponent):
        assert moment_gap(table, mutant) > 1e3 * MOMENT_C


def test_refuses_weights_outside_the_family():
    inside = SemiClassicalWeight(
        (Singularity(0, -1.5), Singularity(0.4, 0.5), Singularity(2, 0.5)), strict=False
    )
    with pytest.raises(ValueError, match="outside the disc"):
        exact_moments(inside, 8)
