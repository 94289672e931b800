"""The row-filled Szego recursion of build_system against the
list-of-levels loop it replaces (tests/oracles.py): the same coefficients,
existence log, deviations and ExistenceError, bit for bit."""

import numpy as np
import pytest

from circlebops.bops import _gram_levels, _recursion_levels, build_system
from circlebops.errors import ConsistencyError, ExistenceError
from circlebops.moments import compute_moments, table_from_moments

from oracles import recursion_levels_loop


hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def raw_tables(draw):
    """Raw moment tables: generic complex moments at a drawn scale (w_0
    shifted, or zeroed so that level 1 does not exist), or the moments of
    1..6 point masses on the circle, which stop existing at the level past
    their count, perturbed by 10^-e to land near the floor."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    window = draw(st.integers(1, 24))
    k = np.arange(-window, window + 1)
    if draw(st.booleans()):
        values = (rng.normal(size=k.size) + 1j * rng.normal(size=k.size)) * 10.0 ** draw(st.integers(-3, 3))
        shift = draw(st.sampled_from([0.0, 1.0, 10.0, None]))  # None: w_0 = 0
        values[window] = 0.0 if shift is None else values[window] + shift
    else:
        angles = rng.uniform(0, 2 * np.pi, size=draw(st.integers(1, 6)))
        masses = rng.uniform(0.1, 1.0, size=angles.size)
        values = (masses * np.exp(-1j * np.outer(k, angles))).sum(axis=1)
        values += 10.0 ** -draw(st.integers(4, 16)) * rng.normal(size=k.size)
    nmax = draw(st.integers(0, window - 1))
    return table_from_moments(zip(k.tolist(), values.tolist()), window=window), nmax


def recursion_outcome(route, tbl, nmax):
    """The rows, log, deviations or error of one recursion route, as bytes
    where they are numbers: the rows each level's coefficients, the padding
    past them zero, the deviations those build_system takes against the
    Gram store."""
    try:
        rows = route(tbl, nmax)
    except ExistenceError as err:
        return ("ExistenceError", err.n, float(err.value).hex(), str(err))
    *mats, log = rows
    gram = _gram_levels(tbl, nmax)[1:]
    rec = np.stack(mats, axis=1)
    for n in range(nmax + 1):
        assert not rec[n, :, n + 1 :].any()
    scale = np.fmax(1.0, np.abs(np.stack(gram, axis=1)).max(axis=(1, 2)))
    deviations = np.abs(np.stack(gram, axis=1) - rec).max(axis=(1, 2)) / scale
    coeffs = [rec[n, :, : n + 1].tobytes() for n in range(nmax + 1)]
    return coeffs, log, [d.hex() for d in deviations.tolist()]


def loop_route(tbl, nmax):
    levels, log = recursion_levels_loop(tbl, nmax)
    mats = np.zeros((2, nmax + 1, nmax + 1), dtype=complex)
    for lev in levels:
        mats[0, lev.n, : lev.n + 1], mats[1, lev.n, : lev.n + 1] = lev.c, lev.cbar
    return mats[0], mats[1], log


class TestRecursionRows:
    @staticmethod
    def check(tbl, nmax):
        got = recursion_outcome(_recursion_levels, tbl, nmax)
        assert got == recursion_outcome(loop_route, tbl, nmax)
        if not isinstance(got[0], str):
            try:
                deviations = [d.hex() for d in build_system(tbl, nmax).deviations]
            except ConsistencyError as err:  # the build's gate on these deviations
                top = max(map(float.fromhex, got[2]))
                deviations = got[2] if err.deviation == top > 1e-8 else None
            assert deviations == got[2]
        return got

    def test_degenerate_and_zero_mean_tables(self):
        ones = table_from_moments([(k, 1.0) for k in range(-6, 7)], window=6)
        assert self.check(ones, 4)[:2] == ("ExistenceError", 2)
        zero_mean = table_from_moments([(-1, 1.0), (0, 0.0), (1, 1.0)], window=4)
        assert self.check(zero_mean, 2)[:2] == ("ExistenceError", 1)

    def test_flagship_laurent_and_raw(self, strict, laurent):
        rng = np.random.default_rng(7)
        p = rng.normal(size=7) + 1j * rng.normal(size=7)
        w = np.correlate(p, p, "full") / np.vdot(p, p)  # w_k for k = -6..6
        w[6] += 1.0
        raw = table_from_moments([(k, w[k + 6]) for k in range(-6, 7)], window=40)
        for table in (compute_moments(strict["weight"], 48), raw):
            self.check(table, 32)
        self.check(laurent["table"], 8)

    def test_pinned_raw_tables(self):
        seen = set()

        # no shrinking: a failing table is reported as drawn
        @hypothesis.seed(20261019)
        @hypothesis.settings(max_examples=150, deadline=None, database=None,
                             phases=[hypothesis.Phase.generate])
        @hypothesis.given(raw_tables())
        def check(case):
            got = self.check(*case)
            if got[0] == "ExistenceError":
                seen.add("raised at level 1" if got[1] == 1 else "raised above level 1")
            else:
                seen.add("logged" if got[1] else "built")

        check()
        assert seen == {"raised at level 1", "raised above level 1", "logged", "built"}
