"""One-stop construction of everything downstream of a weight or a raw
moment table: moments, bi-orthogonal system and, for a strict weight, the
coefficient-function quadruples.  A bundle holds only what it built; what
follows from those (the associated functions, the weight's (V, W), U) is
read off its owner where it is used.

Raw-moment tables drive the general-weight pipelines only; the coefficient
functions and everything built on them require a strict regular
semi-classical weight."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .assoc import AssocSystem
from .bops import BopsSystem, build_system
from .coeffs import QuadStore, compute_coeff_quads
from .moments import MomentTable, factorised_moments
from .weight import SemiClassicalWeight


@dataclass
class Bundle:
    """What the suites of `coeffs`, `lax` and `deform` read: the levels
    ``sys`` of a weight or a raw table (its moment table ``sys.table``) and,
    for a weight, the ``weight`` (its (V, W) ``weight.vw``) and the
    quadruples ``quads``.  The associated functions ``asys`` are built once,
    on first read, over the bundle's own ``sys``."""

    sys: BopsSystem
    weight: SemiClassicalWeight | None = None
    quads: QuadStore | None = None

    @cached_property
    def asys(self) -> AssocSystem:
        return AssocSystem(self.sys)


def moment_table(source: SemiClassicalWeight | MomentTable, nmax: int) -> MomentTable:
    """The moment table a bundle of levels 0..nmax is built on: a raw table
    as given, or a weight's factorised moments on the window
    max(nmax + 2, 48)."""
    if isinstance(source, MomentTable):
        return source
    return factorised_moments(source, max(nmax + 2, 48))


def build_bundle(
    source: SemiClassicalWeight | MomentTable, nmax: int, quad_ns: Sequence[int] = ()
) -> Bundle:
    """Build levels 0..nmax on the moment table of ``source`` and, for a
    strict weight, the requested coefficient-function quadruples in one
    `compute_coeff_quads` pass.  Nothing is gated here: the reports gate the
    quadruples' out-of-band ratios and the levels' cross-check against the
    recursion."""
    weight = None if isinstance(source, MomentTable) else source
    bundle = Bundle(build_system(moment_table(source, nmax), nmax), weight)
    if weight is not None and weight.strict:
        bundle.quads = compute_coeff_quads(bundle, quad_ns)
    return bundle
