"""One-stop construction of everything downstream of a weight or a raw
moment table: moments, bi-orthogonal system, associated functions,
coefficient-function quadruple and the recovered inhomogeneity polynomial.

Raw-moment tables drive the general-weight pipelines only; the coefficient
functions and everything built on them require a strict regular
semi-classical weight."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assoc import AssocSystem
from .bops import BopsSystem, build_system
from .coeffs import QuadStore, compute_coeff_quads
from .moments import MomentTable, factorised_moments, recover_u
from .weight import PolyPair, SemiClassicalWeight, build_vw, is_strict_semiclassical


@dataclass
class Bundle:
    """What the suites of `coeffs`, `lax` and `deform` read: the levels
    ``sys`` of a weight or a raw table (its moment table ``sys.table``), their
    associated functions ``asys`` and, for a weight, the ``weight``, its
    (V, W) ``vw``, the quadruples ``quads`` and U's coefficients ``u_poly``."""

    sys: BopsSystem
    asys: AssocSystem
    weight: SemiClassicalWeight | None = None
    vw: PolyPair | None = None
    quads: QuadStore | None = None
    u_poly: np.ndarray | None = None


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
    """Build levels 0..nmax (plus the moment table when given a weight) and,
    for strict weights, the requested coefficient-function quadruples, all
    in one `compute_coeff_quads` pass, with U when there are any.  Nothing
    is gated here: the reports gate the quadruples' out-of-band ratios and
    the levels' cross-check against the recursion."""
    table = moment_table(source, nmax)
    weight = None if isinstance(source, MomentTable) else source
    sys = build_system(table, nmax)
    bundle = Bundle(sys=sys, asys=AssocSystem(sys), weight=weight)

    if weight is not None:
        bundle.vw = build_vw(weight)
        if is_strict_semiclassical(weight):
            bundle.quads = compute_coeff_quads(bundle, quad_ns)
            if bundle.quads.levels.size:
                bundle.u_poly = recover_u(table, bundle.vw)
    return bundle
