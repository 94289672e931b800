"""The vectorised coefficient table of a Schlesinger flow against the scalar
Python arithmetic it replaces, bit for bit."""

from types import SimpleNamespace

import numpy as np
import pytest

from circlebops.deform import _c_quot, _flow_table
from circlebops.errors import CircleBopsError

from conftest import LineTraj
from oracles import flow_table_scalar

EDGES = [
    0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 0.1, 3.7, -3.7,
    1e308, -1e308, 1.5e300, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    float("inf"), float("-inf"), float("nan"),
]


def bits(z: complex) -> tuple[str, str]:
    """The exact parts of z; float.hex tells -0.0 from 0.0."""
    return float.hex(z.real), float.hex(z.imag)


def test_division_is_pythons_on_edge_inputs():
    # every pair of parts from EDGES: |re| == |im| ties, huge, tiny and
    # subnormal magnitudes, signed zeros, infinities and NaN (b = 0 excluded)
    re, im = (g.ravel() for g in np.meshgrid(EDGES, EDGES, indexing="ij"))
    a = [complex(x, y) for x, y in zip(re, im)]
    b = [z for z in a if z != 0]
    ar, ai = np.repeat(re, len(b)), np.repeat(im, len(b))
    br = np.tile([z.real for z in b], len(a))
    bi = np.tile([z.imag for z in b], len(a))
    with np.errstate(all="ignore"):
        qr, qi = _c_quot(ar, ai, br, bi)
    got = [bits(complex(x, y)) for x, y in zip(qr.tolist(), qi.tolist())]
    want = [bits(x / y) for x in a for y in b]
    assert got == want


hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PART = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
COMPLEX = st.builds(complex, PART, PART)


@st.composite
def flows(draw):
    """A LineTraj with m <= 5 distinct locations, velocities drawn from
    {0, v_1, v_2} (so several move and some share a velocity), complex
    exponents, and a sorted array of times in [0, 1]."""
    m = draw(st.integers(min_value=2, max_value=5))
    locs = draw(st.lists(COMPLEX, min_size=m, max_size=m, unique=True))
    pool = [0j, draw(COMPLEX), draw(COMPLEX)]
    vel = [pool[i] for i in draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))]
    rhos = draw(st.lists(COMPLEX, min_size=m, max_size=m))
    times = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=9)))
    weight0 = SimpleNamespace(exponents=tuple(rhos), locations=np.array(locs))
    return LineTraj(weight0, vel), np.array(times), m


@hypothesis.seed(20261018)
@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(flows())
def test_table_rows_are_scalar_arithmetic_bitwise(case):
    traj, times, m = case
    try:
        want = flow_table_scalar(traj, times, m)
    except CircleBopsError as exc:
        with pytest.raises(type(exc), match=str(exc)):
            _flow_table(traj, times, m)
        return
    (ratios, total, blocks), rows = _flow_table(traj, times, m)
    assert len(rows) == len(want)
    for row, (w_ratios, w_sum, w_pairs) in zip(rows, want):
        assert [(b, bits(row[c])) for b, c in ratios] == [(b, bits(r)) for b, r in w_ratios]
        assert bits(row[total]) == bits(w_sum)
        assert [[(b, bits(row[c])) for b, c in blk] for blk in blocks] == [
            [(b, bits(c)) for b, c in pairs] for pairs in w_pairs
        ]
