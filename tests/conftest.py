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
from circlebops.moments import table_from_moments
from circlebops.pipeline import Bundle, build_bundle
from circlebops.weight import SemiClassicalWeight, Singularity, build_vw

from oracles import exact_moments, u_reads


def lebesgue_weight_relaxed() -> SemiClassicalWeight:
    return SemiClassicalWeight((Singularity(0, 0), Singularity(-1, 0)))


def close(batch, loop, rel=1e-13):
    """Batched values equal a per-point loop to rel, relative to the largest
    magnitude in the loop's values."""
    batch, loop = np.asarray(batch), np.asarray(loop)
    return batch.shape == loop.shape and np.max(np.abs(batch - loop)) <= rel * max(
        1.0, float(np.max(np.abs(loop)))
    )


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

# complex_m4_weight as a CLI weight spec
COMPLEX_M4_SPEC = {
    "singularities": [
        {"z": [0, 0], "rho": [-1, 0]},
        {"z": [1.8, 0.9], "rho": [0.4, 0.3]},
        {"z": [-2.2, 1.1], "rho": [-0.3, 0.2]},
        {"z": [0.5, -2.6], "rho": [0.7, -0.1]},
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
    asys = AssocSystem(sys)
    return {"table": table, "sys": sys, "asys": asys, "bundle": Bundle(sys, asys)}


@pytest.fixture(scope="session")
def laurent():
    weight = SemiClassicalWeight((Singularity(0, -1), Singularity(-1, 2)))
    table = table_from_moments([(-1, 1.0), (0, 2.0), (1, 1.0)], window=12)
    sys = build_system(table, 8)
    asys, vw = AssocSystem(sys), build_vw(weight)
    return {
        "weight": weight,
        "table": table,
        "sys": sys,
        "asys": asys,
        "wfun": laurent_callable,
        "vw": vw,
        "bundle": Bundle(sys, asys, weight, vw),
    }


@pytest.fixture(scope="session")
def flagship_exact(strict):
    """The flagship's moments w_k, |k| <= 48, at 50 digits (`exact_moments`)."""
    return exact_moments(strict["weight"], 48)


@pytest.fixture(scope="session")
def strict():
    weight = SemiClassicalWeight(
        (Singularity(0, -1), Singularity(2, 0.5), Singularity(3, 1.0 / 3.0))
    )
    # the production route: window 48, levels 0..7, quadruples 0..5 and U
    bundle = build_bundle(weight, 7, quad_ns=range(6))
    return {
        "weight": weight,
        "vw": bundle.vw,
        "table": bundle.sys.table,
        "sys": bundle.sys,
        "asys": bundle.asys,
        "quads": bundle.quads,
        "u_poly": bundle.u_poly,
        "u_info": u_reads(weight, bundle.sys.table, bundle.vw),
        "wfun": lambda z: weight(z),
        "bundle": bundle,
    }


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
