"""Bi-orthogonal polynomials on the unit circle for general and regular
semi-classical weights: trigonometric moments and Toeplitz determinants,
associated functions, coefficient-function quadruples, 2x2 Lax/residue
matrices with their Riemann-Hilbert normalization, and isomonodromic
Schlesinger deformation flows, each backed by independent verification
oracles."""

from .assoc import AssocSystem
from .bops import BopsSystem, build_system
from .coeffs import QuadStore, compute_coeff_quads
from .deform import (
    LinearTrajectory,
    deformation_rates,
    integrate_flow,
    moment_rebuild,
)
from .errors import (
    CircleBopsError,
    ExistenceError,
    NearCircleError,
    NotSemiClassicalError,
    WeightValidationError,
    WindowError,
)
from .lax import ResidueSet, assemble_residues, rhp_jump_check
from .moments import (
    MomentTable,
    compute_moments,
    heine_oracle,
    recover_u,
    table_from_moments,
    toeplitz_det,
)
from .pipeline import Bundle, build_bundle
from .weight import PolyPair, SemiClassicalWeight, Singularity

__version__ = "0.1.0"

__all__ = [
    "AssocSystem",
    "BopsSystem",
    "Bundle",
    "CircleBopsError",
    "ExistenceError",
    "LinearTrajectory",
    "MomentTable",
    "NearCircleError",
    "NotSemiClassicalError",
    "PolyPair",
    "QuadStore",
    "ResidueSet",
    "SemiClassicalWeight",
    "Singularity",
    "WeightValidationError",
    "WindowError",
    "assemble_residues",
    "build_bundle",
    "build_system",
    "compute_moments",
    "compute_coeff_quads",
    "deformation_rates",
    "heine_oracle",
    "integrate_flow",
    "moment_rebuild",
    "recover_u",
    "rhp_jump_check",
    "table_from_moments",
    "toeplitz_det",
]
