"""The engine against the 50-digit reference of tests/oracles.py: exact
moments of single-valued weights prod_j (z - z_j)^rho_j, singular inside
and outside the disc, and their Gram solves.  Each bound is a running
round-off bound, a constant times the unit round-off 2^-52 times the size
that carries the error (Higham 2002, Accuracy and Stability of Numerical
Algorithms, section 3); the constants are about three times the largest
ratio measured on these weights."""

import contextlib
import io
import json

import mpmath
import numpy as np
import pytest

from circlebops import pipeline
from circlebops.bops import build_system
from circlebops.cli import main
from circlebops.moments import MomentTable
from circlebops.pipeline import moment_table
from circlebops.weight import SemiClassicalWeight, Singularity, weight_from_json

from conftest import COMPLEX_M4_SPEC, INSIDE_COMPLEX_SPEC, STRICT_SPEC, complex_m4_weight
from oracles import exact_moments, gram_reference

U = 2.0**-52
WINDOW = 48
# |w_k - exact w_k| <= MOMENT_C u max_k |w_k|: 1.10 (flagship) and 1.03 (m = 4) measured
MOMENT_C = 4.0
# level error <= LEVEL_C u max_{k <= n} |r_k|, |rbar_k|: 0.48 (flagship) and 1.23 (m = 4) measured
LEVEL_C = 4.0
# |w_k - exact w_k| <= OWN_SIZE |exact w_k| for |k| <= 90: 8.2e-16 (flagship),
# 5.1e-15 (m = 4), 1.8e-15 (inside-complex) and 1.8e-15 (inside-negative)
# measured
OWN_SIZE = 1e-14
# an inside exponent of real part -20.5 and a singularity on the circle:
# the inside orders grow like b^19.5 before they shrink like 0.9^b, and B's
# orders shrink only like b^-1.5, so a tail sized by 0.9^b alone reads 5e-8
INSIDE_NEGATIVE_SPEC = {"singularities": [
    {"z": [0, 0], "rho": [19.5, 0]}, {"z": [-0.9, 0], "rho": [-20.5, 0]}, {"z": [-1, 0], "rho": [0.5, 0]},
]}
SPECS = {"flagship": STRICT_SPEC, "m4": COMPLEX_M4_SPEC, "inside-complex": INSIDE_COMPLEX_SPEC,
         "inside-negative": INSIDE_NEGATIVE_SPEC}


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
    return weight, moment_table(weight, WINDOW - 2), exact_moments(weight, WINDOW), 18


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
    # the production moments: a branch constant off by e^{2 pi i rho_2}, the Taylor
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


@pytest.mark.parametrize("name", SPECS)
def test_production_moments_to_their_own_size(name):
    # every moment of the production route over |k| <= 90, each relative to
    # its own size (the zeros of an origin-only inside part included)
    weight = weight_from_json(SPECS[name])
    table, exact = moment_table(weight, 88), exact_moments(weight, 90)
    assert table.window == 90
    want = np.array([complex(exact[k]) for k in range(-90, 91)])
    assert np.all(np.abs(table.values - want) <= OWN_SIZE * np.abs(want))


def test_quadrature_entry_catches_a_branch_constant_mutant(tmp_path, monkeypatch):
    # the build suite's trapezoid entry passes on the production moments
    # and fails when their branch constant is off by e^{2 pi i rho_2}
    spec = tmp_path / "w.json"
    spec.write_text(json.dumps(STRICT_SPEC), encoding="utf-8")

    def entry(out):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["build", "--weight", str(spec), "--n", "4", "--out", str(tmp_path / out)])
        report = json.loads((tmp_path / out / "identity_report.json").read_text())
        (found,) = [e for e in report["entries"] if e["name"] == "moments_vs_quadrature"]
        return code, found

    code, found = entry("production")
    assert code == 0 and found["passed"] and found["residual"] <= 1e-14
    rho = weight_from_json(STRICT_SPEC).singularities[1].exponent
    real, turn = pipeline.factorised_moments, np.exp(2j * np.pi * rho)

    def mutant(weight, window):
        table = real(weight, window)
        return MomentTable(window, turn * table.values, table.source)

    monkeypatch.setattr(pipeline, "factorised_moments", mutant)
    code, found = entry("mutant")
    assert code == 1 and not found["passed"]


def test_refuses_weights_outside_the_family():
    # inside exponents summing to -1/2: the weight is not single-valued
    inside = SemiClassicalWeight(
        (Singularity(0, -1), Singularity(0.4, 0.5), Singularity(2, 0.5))
    )
    with pytest.raises(ValueError, match="sum to an integer"):
        exact_moments(inside, 8)
