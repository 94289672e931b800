"""Exception hierarchy.

Structural failures (validation, missing moments, a system that does not
exist) are kept distinct from identity failures: the CLI maps the
former to exit code 2 and the latter to exit code 1.
"""


class CircleBopsError(Exception):
    """Base class for all structural errors raised by this package."""


class WeightValidationError(CircleBopsError):
    """Weight specification violates a hard invariant (duplicate locations,
    missing origin singularity) or is malformed."""


class BranchCutError(CircleBopsError):
    """Evaluation point sits exactly on a declared branch cut."""


class PoleError(CircleBopsError):
    """Weight evaluated at a singular location with negative real exponent."""


class NearCircleError(CircleBopsError):
    """Series evaluation requested inside the exclusion band around |z| = 1
    without an explicit side."""


class WindowError(CircleBopsError):
    """Moment table window too small for the requested operation."""

    def __init__(self, required: int, available: int, what: str = ""):
        self.required = required
        self.available = available
        suffix = f" for {what}" if what else ""
        super().__init__(
            f"moment window K >= {required} required{suffix}, table has K = {available}"
        )


class QuadratureError(CircleBopsError):
    """Adaptive quadrature failed to converge; carries the last residual."""

    def __init__(self, residual: float, points: int):
        self.residual = residual
        self.points = points
        super().__init__(
            f"quadrature did not converge: residual {residual:.3e} at {points} points"
        )


class ExistenceError(CircleBopsError):
    """The Toeplitz determinant I0_n vanishes, so the bi-orthogonal system
    fails to exist at level n: the reflection recursion finds
    |1 - r rbar| = |I0_n I0_{n-2} / I0_{n-1}^2| (r = r_{n-1}) below the
    existence floor, or w_0 = I0_1 = 0 at level 1."""

    def __init__(self, n: int, value: float, floor: float):
        self.n = n
        self.value = value
        self.floor = floor
        super().__init__(
            f"bi-orthogonal system does not exist at level {n}: "
            f"|1 - r rbar| = {value:.3e} below existence floor {floor:.3e}"
        )


class NotSemiClassicalError(CircleBopsError):
    """Operation requires a strict (regular semi-classical) weight."""


class DegenerateLevelError(CircleBopsError):
    """A reflection coefficient needed as a prefactor vanishes at this level."""


class SingularResidueError(CircleBopsError):
    """V(z_j) = 0 (or z_j = 0 where forbidden) in a residue formula."""


class FlowPatternError(CircleBopsError):
    """The singularities that move, or the pairs of them with different
    velocities, change along a flow, so the terms of the Schlesinger
    right-hand side read at its first time do not hold at every time."""


class GeometryError(CircleBopsError):
    """A sampling ring or circle intersects the unit circle or a singularity."""
