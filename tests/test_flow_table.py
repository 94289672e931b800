"""The vectorised coefficient table of a Schlesinger flow against the scalar
Python arithmetic it replaces, the compiled flow kernel against the loop
right-hand side and list-comprehension RK4 it replaces, and the one-table
Richardson ladder against that RK4 climbed one rung and table at a time,
bit for bit."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from circlebops.deform import (
    DeformState,
    _c_quot,
    _flow_table,
    flow_convergence,
    flow_endpoint,
    integrate_flow,
    schlesinger_rhs,
)
from circlebops.errors import CircleBopsError

from conftest import LineTraj
from oracles import flow_table_scalar, rhs_loop, richardson_loop, rk4_loop

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
# parts with frequent signed zeros and units, where a sum started from 0j
# differs from one started from its first term
SIGNED = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), PART)
ENTRY = st.builds(complex, SIGNED, SIGNED)


@st.composite
def trajectories(draw, entry=COMPLEX):
    """A LineTraj with 2 <= m <= 5 distinct locations, velocities drawn from
    {0, v_1, v_2} (so several move and some share a velocity) and complex
    exponents, each drawn from ``entry``; returns it and m."""
    m = draw(st.integers(min_value=2, max_value=5))
    locs = draw(st.lists(entry, min_size=m, max_size=m, unique=True))
    pool = [0j, draw(entry), draw(entry)]
    vel = [pool[i] for i in draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))]
    rhos = draw(st.lists(entry, min_size=m, max_size=m))
    weight0 = SimpleNamespace(exponents=tuple(rhos), locations=np.array(locs))
    return LineTraj(weight0, vel), m


@st.composite
def flows(draw):
    """A trajectory, a sorted array of times in [0, 1], and m."""
    traj, m = draw(trajectories())
    times = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=9)))
    return traj, np.array(times), m


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


@st.composite
def kernel_cases(draw):
    """A trajectory, a packed state of 4m+7 complex entries, a span [0, t1]
    and a step count from {1, 2, 3, 17}; returns them with m."""
    traj, m = draw(trajectories(ENTRY))
    y0 = np.array(draw(st.lists(ENTRY, min_size=4 * m + 7, max_size=4 * m + 7)))
    return traj, m, y0, draw(st.floats(0.01, 1.0)), draw(st.sampled_from([1, 2, 3, 17]))


# no shrinking: each shrink step compiles a kernel for a new plan, so a
# failing case shrank for minutes; the failing example is reported as drawn
@hypothesis.seed(20261019)
@hypothesis.settings(
    max_examples=200, deadline=None, database=None, phases=[hypothesis.Phase.generate]
)
@hypothesis.given(kernel_cases())
def test_compiled_kernel_is_the_loop_bitwise(case):
    traj, m, y0, t1, steps = case
    try:
        want = rk4_loop(y0, traj, (0.0, t1), steps)
    except CircleBopsError as exc:
        for flow in (integrate_flow, flow_endpoint):
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                flow(y0, traj, (0.0, t1), steps)
        return
    _, flow = integrate_flow(y0, traj, (0.0, t1), steps)
    assert [list(map(bits, y)) for y in flow[1:].tolist()] == [list(map(bits, y)) for y in want]
    assert list(map(bits, flow_endpoint(y0, traj, (0.0, t1), steps).tolist())) == list(
        map(bits, want[-1])
    )
    # the right-hand side at t1: derivative, kappa-dot/kappa and B_inf[1, 0]
    plan, (row,) = _flow_table(traj, t1, m)
    dy, kdot, b10 = rhs_loop(y0.tolist(), m, plan, row)
    a, a_inf = y0[: 4 * m].reshape(m, 2, 2), y0[4 * m : 4 * m + 4].reshape(2, 2)
    rhs = schlesinger_rhs(DeformState(t1, 0, a, a_inf, *y0[4 * m + 4 :]), traj, t1)
    got = [*rhs.da.ravel().tolist(), *rhs.da_inf.ravel().tolist()]
    got += [rhs.kappadot, rhs.rdot, rhs.rbardot]
    assert list(map(bits, got)) == list(map(bits, dy))
    assert bits(complex(rhs.b_inf[0, 0])) == bits(kdot)
    assert bits(complex(rhs.b_inf[1, 0])) == bits(b10)


@st.composite
def ladder_cases(draw):
    """A trajectory, a packed state of 4m+7 complex entries, up to three of
    them scaled by 10^e for e up to 150 (so that some flows blow up, and some
    rungs blow up where the flow does not), a span [0, t1] and a step count
    from {1, 2, 3, 17, 96}."""
    traj, m = draw(trajectories(ENTRY))
    y0 = draw(st.lists(ENTRY, min_size=4 * m + 7, max_size=4 * m + 7))
    for i in draw(st.sets(st.integers(0, 4 * m + 6), max_size=3)):
        y0[i] *= 10.0 ** draw(st.integers(0, 150))
    return traj, np.array(y0), draw(st.floats(0.01, 1.0)), draw(st.sampled_from([1, 2, 3, 17, 96]))


def test_one_table_ladder_is_the_per_rung_loop_bitwise():
    # the pinned examples reach all three ends: the ladder returns, a rung
    # raises while the flow does not, or the flow itself raises; an error
    # (a blow-up names its first non-finite step) matches by class and text
    seen = set()

    def outcome(climb):
        try:
            return climb()
        except CircleBopsError as exc:
            return type(exc), str(exc)

    def hexed(conv):
        if isinstance(conv, tuple):
            return conv
        return {k: float.hex(v) if isinstance(v, float) else v for k, v in conv.items()}

    # no shrinking, as for the kernel test: each shrink step compiles a kernel
    @hypothesis.seed(20261020)
    @hypothesis.settings(
        max_examples=100, deadline=None, database=None, phases=[hypothesis.Phase.generate]
    )
    @hypothesis.given(ladder_cases())
    def check(case):
        traj, y0, t1, steps = case
        want = outcome(lambda: richardson_loop(y0, traj, (0.0, t1), steps))
        flow = outcome(lambda: integrate_flow(y0, traj, (0.0, t1), steps))
        got = flow if isinstance(flow[0], type) else outcome(lambda: flow_convergence(*flow, traj))
        assert hexed(got) == hexed(want)
        raised = isinstance(got, tuple)
        seen.add("flow raised" if got is flow else "rung raised" if raised else "ladder returned")

    check()
    assert seen == {"ladder returned", "rung raised", "flow raised"}
