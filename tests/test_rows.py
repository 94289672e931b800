"""The row-wise suites against their per-level loops: every entry of
verify_assoc_identities, verify_linear_relations and
spectral_derivative_check equals the loop's (tests/oracles.py) in name,
anchor, n, where, gate and residual, the floats compared by float.hex."""

import numpy as np
import pytest

from circlebops.assoc import verify_assoc_identities
from circlebops.coeffs import spectral_derivative_check, verify_linear_relations
from circlebops.numerics import circle_samples
from circlebops.pipeline import build_bundle
from circlebops.weight import SemiClassicalWeight, Singularity

from conftest import complex_m4_weight
from oracles import assoc_identities_loop, linear_relations_loop, spectral_derivative_loop

NMAX = 10


def flagship_weight():
    return SemiClassicalWeight((Singularity(0, -1), Singularity(2, 0.5), Singularity(3, 1.0 / 3.0)))


@pytest.fixture(scope="module", params=["flagship", "complex_m4"])
def bundle(request):
    weight = flagship_weight() if request.param == "flagship" else complex_m4_weight()
    return build_bundle(weight, NMAX, quad_ns=range(NMAX - 1))


def samples(weight, seed=4):
    rng = np.random.default_rng(seed)
    avoid = list(weight.locations)
    return np.concatenate(
        [circle_samples(rng, 5, r, avoid=avoid, min_distance=0.1) for r in (0.45, 2.2)]
    )


def entries(rep):
    return [
        (e.name, e.anchor, e.n, e.where, e.tol.hex(), e.residual.hex()) for e in rep.entries
    ]


@pytest.mark.parametrize("start", [0, 1])
def test_assoc_rows_are_the_loop(bundle, start):
    zs = samples(bundle.weight)
    ns = range(start, NMAX)
    rows, values = verify_assoc_identities(bundle.asys, ns, zs)
    loop, loop_values = assoc_identities_loop(bundle.asys, ns, zs)
    assert len(rows.entries) == 8 * (NMAX - start) + 2 * (NMAX - max(start, 1))
    assert entries(rows) == entries(loop)
    assert all(np.array_equal(a, b) for a, b in zip(values, loop_values))


@pytest.mark.parametrize("start", [0, 1])
def test_linear_relation_rows_are_the_loop(bundle, start):
    zs = samples(bundle.weight)
    quads = {n: q for n, q in bundle.quads.items() if n >= start}
    rows = verify_linear_relations(quads, bundle.vw, bundle.sys, zs)
    loop = linear_relations_loop(quads, bundle.vw, bundle.sys, zs)
    assert {e.name for e in rows.entries} == {f"linear_{c}" for c in "abcdefghijk"}
    assert entries(rows) == entries(loop)


@pytest.mark.parametrize("start", [0, 1])
def test_spectral_rows_are_the_loop(bundle, start):
    zs = samples(bundle.weight)
    quads = {n: q for n, q in bundle.quads.items() if n >= start}
    args = (quads, bundle.vw, bundle.sys, bundle.asys, zs)
    rows = spectral_derivative_check(*args, weight=bundle.weight)
    loop = spectral_derivative_loop(*args, weight=bundle.weight)
    assert len(rows.entries) == 5 * len(quads)
    assert entries(rows) == entries(loop)
