"""Bi-orthogonal polynomials on the unit circle for general and regular
semi-classical weights: trigonometric moments and Toeplitz determinants,
associated functions, coefficient-function quadruples, 2x2 Lax/residue
matrices with their Riemann-Hilbert normalization, and isomonodromic
Schlesinger deformation flows, each backed by independent verification
oracles."""

from .assoc import AssocSystem
from .bops import BopsLevel, BopsSystem, build_system, eval_poly
from .coeffs import CoeffQuad, compute_coeff_quad
from .config import DEFAULT_QUAD, DEFAULT_TOL, QuadratureConfig, Tolerances
from .deform import (
    DeformState,
    LinearTrajectory,
    deformation_rates,
    integrate_flow,
    moment_rebuild,
    schlesinger_rhs,
)
from .errors import (
    CircleBopsError,
    ExistenceError,
    NearCircleError,
    NotSemiClassicalError,
    WeightValidationError,
    WindowError,
)
from .lax import ResidueSet, assemble_residues, rhp_jump_check, y_matrix
from .moments import (
    CaratheodoryEvaluator,
    MomentTable,
    compute_moments,
    heine_oracle,
    recover_u,
    table_from_moments,
    toeplitz_det,
)
from .pipeline import Bundle, build_bundle
from .weight import (
    PolyPair,
    SemiClassicalWeight,
    Singularity,
    build_vw,
    eval_weight,
    validate_weight,
)

__version__ = "0.1.0"

__all__ = [
    "AssocSystem",
    "BopsLevel",
    "BopsSystem",
    "Bundle",
    "CaratheodoryEvaluator",
    "CircleBopsError",
    "CoeffQuad",
    "DEFAULT_QUAD",
    "DEFAULT_TOL",
    "DeformState",
    "ExistenceError",
    "LinearTrajectory",
    "MomentTable",
    "NearCircleError",
    "NotSemiClassicalError",
    "PolyPair",
    "QuadratureConfig",
    "ResidueSet",
    "SemiClassicalWeight",
    "Singularity",
    "Tolerances",
    "WeightValidationError",
    "WindowError",
    "assemble_residues",
    "build_bundle",
    "build_system",
    "build_vw",
    "compute_moments",
    "compute_coeff_quad",
    "deformation_rates",
    "eval_poly",
    "eval_weight",
    "heine_oracle",
    "integrate_flow",
    "moment_rebuild",
    "recover_u",
    "rhp_jump_check",
    "schlesinger_rhs",
    "table_from_moments",
    "toeplitz_det",
    "validate_weight",
    "y_matrix",
]
