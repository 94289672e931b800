"""Central tolerance and quadrature configuration.

`Tolerances` holds the shared tolerances of the verification suites.
`Tolerances.scaled` rescales its two residual tolerances (identity,
fit_residual) together; the CLI's ``--tol`` factor goes through it into the
construction (the quadruple and U gates) and the matrix system, and
multiplies every other suite's stated tolerance.  Every identity is checked
on exact data (polynomials, moment series and their derivatives), so there
is one identity tier.  Defaults are sized for double precision; the level
at which each suite meets them on the flagship weight is stated in the
README.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    # Identity residuals computed from exact data.
    identity: float = 1e-9
    # Ceiling on the out-of-band ratio of an exact series read (coefficient
    # functions, U): the orders around the band must vanish to this fraction.
    fit_residual: float = 1e-6
    # |1 - r_n rbar_n| = |I0_{n+1} I0_{n-1} / I0_n^2| below this is zero:
    # the system does not exist at level n + 1.  The ratio has no scale.
    existence_floor: float = 1e-13
    # Series evaluation refuses | |z|-1 | < near_circle without a forced side.
    near_circle: float = 1e-3

    def scaled(self, factor: float) -> "Tolerances":
        """Rescale the two residual tolerances by ``factor`` (CLI override);
        the existence floor and the near-circle band are not residuals."""
        return replace(
            self, identity=self.identity * factor, fit_residual=self.fit_residual * factor
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
