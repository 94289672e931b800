"""Central tolerance and quadrature configuration.

Every tolerance used by the verification suites lives here so that a single
override (CLI flag ``--tol``) rescales the whole identity web consistently.
Defaults are sized for double precision at polynomial degrees n <= 32.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    absolute: float = 1e-12
    relative: float = 1e-10
    # Identity residuals computed from exact (non finite-difference) data.
    identity: float = 1e-9
    # Identity residuals limited by central-difference derivative accuracy.
    fd_identity: float = 1e-5
    # Ceiling on the out-of-band ratio of an exact series read (coefficient
    # functions, U): the orders around the band must vanish to this fraction.
    fit_residual: float = 1e-6
    # |I^0_n| below existence_floor * hadamard_scale is treated as zero.
    existence_floor: float = 1e-13
    # Series evaluation refuses | |z|-1 | < near_circle without a forced side.
    near_circle: float = 1e-3
    # Central-difference step is fd_step * (1 + |z|).
    fd_step: float = 1e-6

    def scaled(self, factor: float) -> "Tolerances":
        """Rescale every residual tolerance by ``factor`` (CLI override)."""
        return replace(
            self,
            absolute=self.absolute * factor,
            relative=self.relative * factor,
            identity=self.identity * factor,
            fd_identity=self.fd_identity * factor,
            fit_residual=self.fit_residual * factor,
        )


@dataclass(frozen=True)
class QuadratureConfig:
    """Adaptive trapezoidal rule controls for contour integrals on |z| = 1."""

    start_points: int = 256
    max_points: int = 2**20
    tol: float = 1e-12
    # Tensor-product (Heine) integrals use their own, smaller cap.
    heine_start: int = 32
    heine_max: int = 512
    heine_tol: float = 1e-8


DEFAULT_TOL = Tolerances()
DEFAULT_QUAD = QuadratureConfig()
