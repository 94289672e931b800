"""Shared fixtures: the three reference weights and their built systems.

* Lebesgue: w = 1 through the raw-moments route (monomials, everything exact).
* Laurent:  w = z^{-1} (1+z)^2, closed-form moments {1, 2, 1}; relaxed
  (exponent 2 is a non-negative integer) with exact rational Toeplitz data.
* Strict:   w = z^{-1} (z-2)^{1/2} (z-3)^{1/3}, the regular semi-classical
  workhorse for the coefficient-function / Lax / deformation suites.
"""

from __future__ import annotations

import numpy as np
import pytest

from circlebops.assoc import AssocSystem
from circlebops.bops import build_system
from circlebops.coeffs import compute_coeff_quad
from circlebops.moments import (
    CaratheodoryEvaluator,
    closed_form_table,
    compute_moments,
    recover_u,
    table_from_moments,
)
from circlebops.weight import SemiClassicalWeight, Singularity, build_vw


def lebesgue_weight_relaxed() -> SemiClassicalWeight:
    return SemiClassicalWeight(
        (Singularity(0, 0), Singularity(-1, 0)), strict=False
    )


def close(batch, loop, rel=1e-13):
    """Batched values equal a per-point loop to rel, relative to the largest
    magnitude in the loop's values."""
    batch, loop = np.asarray(batch), np.asarray(loop)
    return batch.shape == loop.shape and np.max(np.abs(batch - loop)) <= rel * max(
        1.0, float(np.max(np.abs(loop)))
    )


def complex_m4_weight() -> SemiClassicalWeight:
    """m = 4 with complex locations and exponents, all outside the disc."""
    return SemiClassicalWeight(
        (
            Singularity(0, -1),
            Singularity(1.8 + 0.9j, 0.4 + 0.3j),
            Singularity(-2.2 + 1.1j, -0.3 + 0.2j),
            Singularity(0.5 - 2.6j, 0.7 - 0.1j),
        )
    )


# the strict weight and an inside singularity with complex exponents (the
# inside sum is -1), as CLI weight specs
STRICT_SPEC = {
    "singularities": [
        {"z": [0, 0], "rho": [-1, 0]},
        {"z": [2, 0], "rho": [0.5, 0]},
        {"z": [3, 0], "rho": [1.0 / 3.0, 0]},
    ],
    "strict": True,
}

INSIDE_COMPLEX_SPEC = {
    "singularities": [
        {"z": [0, 0], "rho": [-1.3, -0.2]},
        {"z": [0.4, 0.1], "rho": [0.3, 0.2]},
        {"z": [2, 0], "rho": [0.5, 0]},
    ],
    "strict": True,
}


def laurent_callable(z):
    z = np.asarray(z, dtype=complex)
    return z**-1.0 * (1.0 + z) ** 2


@pytest.fixture(scope="session")
def lebesgue():
    table = table_from_moments([(0, 1.0)], window=12)
    sys = build_system(table, 8)
    return {"table": table, "sys": sys, "asys": AssocSystem(sys)}


@pytest.fixture(scope="session")
def laurent():
    weight = SemiClassicalWeight(
        (Singularity(0, -1), Singularity(-1, 2)), strict=False
    )
    table = closed_form_table({-1: 1.0, 0: 2.0, 1: 1.0}, window=12)
    sys = build_system(table, 8)
    return {
        "weight": weight,
        "table": table,
        "sys": sys,
        "asys": AssocSystem(sys),
        "wfun": laurent_callable,
        "vw": build_vw(weight),
    }


@pytest.fixture(scope="session")
def strict():
    weight = SemiClassicalWeight(
        (Singularity(0, -1), Singularity(2, 0.5), Singularity(3, 1.0 / 3.0))
    )
    vw = build_vw(weight)
    table = compute_moments(weight, 48)
    sys = build_system(table, 7)
    asys = AssocSystem(sys, table)
    quads = {n: compute_coeff_quad(sys, asys, vw, n, weight=weight) for n in range(6)}
    f_eval = CaratheodoryEvaluator(table)
    u_poly, u_info = recover_u(weight, f_eval, vw)
    return {
        "weight": weight,
        "vw": vw,
        "table": table,
        "sys": sys,
        "asys": asys,
        "quads": quads,
        "u_poly": u_poly,
        "u_info": u_info,
        "wfun": lambda z: weight(z),
    }


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
