"""One-stop construction of everything downstream of a weight or a raw
moment table: moments, bi-orthogonal system, associated functions,
coefficient-function quadruple and the recovered inhomogeneity polynomial.

Raw-moment tables drive the general-weight pipelines only; the coefficient
functions and everything built on them require a strict regular
semi-classical weight."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .assoc import AssocSystem
from .bops import BopsSystem, build_system
from .coeffs import CoeffQuad, compute_coeff_quad
from .config import DEFAULT_QUAD, DEFAULT_TOL, QuadratureConfig, Tolerances
from .errors import NotSemiClassicalError
from .moments import MomentTable, compute_moments, recover_u, weight_from_table
from .weight import PolyPair, SemiClassicalWeight, build_vw, is_strict_semiclassical


@dataclass
class Bundle:
    table: MomentTable
    sys: BopsSystem
    asys: AssocSystem
    weight: SemiClassicalWeight | None = None
    vw: PolyPair | None = None
    quads: dict[int, CoeffQuad] = field(default_factory=dict)
    u_poly: np.ndarray | None = None
    u_info: dict | None = None
    tol: Tolerances = DEFAULT_TOL

    def wfun(self):
        if self.weight is not None:
            w = self.weight
            return lambda z: w(z)
        return weight_from_table(self.table)

    def require_quads(self, ns: Sequence[int]) -> None:
        if self.weight is None or self.vw is None:
            raise NotSemiClassicalError(
                "coefficient functions need a strict semi-classical weight, "
                "not a raw moment table"
            )
        for n in sorted(set(int(n) for n in ns)):
            if n not in self.quads:
                self.quads[n] = compute_coeff_quad(
                    self.sys, self.asys, self.vw, n, weight=self.weight, tol=self.tol
                )


def moment_table(
    source: SemiClassicalWeight | MomentTable, nmax: int, quad: QuadratureConfig = DEFAULT_QUAD
) -> MomentTable:
    """The moment table a bundle of levels 0..nmax is built on: a raw table
    as given, or a weight's moments on the window max(nmax + 2, 48)."""
    if isinstance(source, MomentTable):
        return source
    return compute_moments(source, max(nmax + 2, 48), quad)


def build_bundle(
    source: SemiClassicalWeight | MomentTable,
    nmax: int,
    quad_ns: Sequence[int] = (),
    quad: QuadratureConfig = DEFAULT_QUAD,
    tol: Tolerances = DEFAULT_TOL,
    recover_u_poly: bool = False,
) -> Bundle:
    """Build levels 0..nmax (plus the moment table when given a weight) and,
    for strict weights, the requested coefficient-function quadruples."""
    table = moment_table(source, nmax, quad)
    weight = None if isinstance(source, MomentTable) else source
    sys = build_system(table, nmax, tol=tol)
    asys = AssocSystem(sys, table, tol)
    bundle = Bundle(table=table, sys=sys, asys=asys, weight=weight, tol=tol)

    if weight is not None:
        bundle.vw = build_vw(weight)
        if is_strict_semiclassical(weight):
            if quad_ns:
                bundle.require_quads(quad_ns)
            if recover_u_poly:
                bundle.u_poly, bundle.u_info = recover_u(weight, asys.F, bundle.vw, tol=tol)
    return bundle
