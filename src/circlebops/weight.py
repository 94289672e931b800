"""Regular semi-classical weights on the unit circle.

A weight is a finite product w(z) = prod_j (z - z_j)^{rho_j} with distinct
singular locations z_j, the first of which is pinned at the origin.  The
log-derivative is rational, W w' = 2 V w, with W(z) = prod_j (z - z_j) monic
and 2V/W = sum_j rho_j / (z - z_j); the pair (V, W) is what every downstream
module consumes.

Branch convention
-----------------
Each factor is evaluated so that w is analytic in an annulus around |z| = 1
and continuous on the circle whenever the exponents of the singularities
inside the disc sum to an integer:

* inside factors (0 < |z_j| < 1):   (z - z_j)^rho = z^rho * (1 - z_j/z)^rho
  with the principal power, whose cut is the radial segment from z_j to 0;
* the origin factor contributes z^{S} with S the (integer) sum of all inside
  exponents, evaluated as an exact integer power;
* outside factors (|z_j| >= 1):     (z - z_j)^rho = (-z_j)^rho (1 - z/z_j)^rho
  with principal powers, whose cut is the ray from z_j radially outward.

Integer exponents are evaluated as exact powers with no cut.  So w factors
as w(z) = C z^S A(1/z) B(z), with A(u) = prod_inside (1 - z_j u)^rho_j,
B(z) = prod_outside (1 - z/z_j)^rho_j and C = prod_outside (-z_j)^rho_j,
the form `moments.factorised_moments` expands into the moments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from .errors import BranchCutError, PoleError, WeightValidationError
from .numerics import as_poly, polyadd, polyder, polyfromroots, polyval

#: exponent closer than this to a non-negative integer counts as one
_INT_TOL = 1e-9


def _is_nonneg_int(rho: complex) -> bool:
    return (
        abs(rho.imag) < _INT_TOL
        and rho.real > -_INT_TOL
        and abs(rho.real - round(rho.real)) < _INT_TOL
    )


def _is_int(value: complex) -> bool:
    return abs(value.imag) < _INT_TOL and abs(value.real - round(value.real)) < _INT_TOL


@dataclass(frozen=True)
class Singularity:
    location: complex
    exponent: complex

    def __post_init__(self):
        object.__setattr__(self, "location", complex(self.location))
        object.__setattr__(self, "exponent", complex(self.exponent))


@dataclass(frozen=True)
class PolyPair:
    """The monic node polynomial W and the half log-derivative numerator V."""

    W: np.ndarray
    V: np.ndarray

    @property
    def degree(self) -> int:
        return len(self.W) - 1

    def w_eval(self, z):
        return polyval(self.W, z)

    def v_eval(self, z):
        return polyval(self.V, z)

    def w_deriv(self, z):
        return polyval(polyder(self.W), z)

    def reflected(self) -> "PolyPair":
        """The pair of the reflected weight w(1/u): u^2 W^(u) and -V^(u), with
        W^, V^ the coefficients of W, V reversed at degree m (W is not monic)."""
        v_hat = polyadd(np.zeros(self.degree + 1), self.V)[::-1]
        return PolyPair(np.concatenate(([0.0, 0.0], self.W[::-1])), -v_hat)


@dataclass(frozen=True)
class SemiClassicalWeight:
    """Singularity data (z_j, rho_j) with the origin singularity first."""

    singularities: tuple[Singularity, ...]
    annulus: tuple[float, float] = (0.0, float("inf"))
    strict: bool = True

    def __post_init__(self):
        object.__setattr__(self, "singularities", tuple(self.singularities))

    @property
    def m(self) -> int:
        return len(self.singularities)

    @property
    def locations(self) -> np.ndarray:
        return np.array([s.location for s in self.singularities], dtype=complex)

    @property
    def exponents(self) -> np.ndarray:
        return np.array([s.exponent for s in self.singularities], dtype=complex)

    @property
    def exponent_sum(self) -> complex:
        return complex(self.exponents.sum())

    @property
    def inside_exponent_sum(self) -> complex:
        return complex(
            sum(s.exponent for s in self.singularities if abs(s.location) < 1.0)
        )

    def with_locations(self, locations: Sequence[complex]) -> "SemiClassicalWeight":
        """Same exponents at new locations (deformation snapshots)."""
        sings = tuple(
            Singularity(loc, s.exponent)
            for loc, s in zip(locations, self.singularities)
        )
        return SemiClassicalWeight(sings, self.annulus, self.strict)

    def default_annulus(self) -> tuple[float, float]:
        inner = max(
            (abs(s.location) for s in self.singularities if 0 < abs(s.location) < 1),
            default=0.0,
        )
        outer = min(
            (abs(s.location) for s in self.singularities if abs(s.location) > 1),
            default=float("inf"),
        )
        return (inner, outer)

    @cached_property
    def validation(self) -> ValidationReport:
        """The relaxed `validate_weight` report, computed once per weight
        object; WeightValidationError on the hard errors, on every read."""
        return validate_weight(self, strict=False)

    def __call__(self, z):
        return eval_weight(self, z)


@dataclass
class ValidationReport:
    conditions: list[dict[str, Any]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    strict_mode: bool = True

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.conditions.append({"name": name, "passed": bool(ok), "detail": detail})

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.conditions)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": "v1",
            "strict_mode": self.strict_mode,
            "passed": self.passed,
            "conditions": self.conditions,
            "warnings": self.warnings,
        }


def validate_weight(spec: SemiClassicalWeight, strict: bool | None = None) -> ValidationReport:
    """Check the defining conditions of a regular semi-classical weight.

    Duplicate locations and a missing origin singularity are hard errors in
    every mode.  In strict mode any failed condition raises; in relaxed mode
    failures are recorded as warnings (needed for closed-form test weights
    such as z^{-1}(1+z)^2 whose exponent 2 is a non-negative integer).
    """
    if strict is None:
        strict = spec.strict
    report = ValidationReport(strict_mode=strict)

    locs = spec.locations
    for i in range(len(locs)):
        for j in range(i + 1, len(locs)):
            if locs[i] == locs[j]:
                raise WeightValidationError(
                    f"duplicate singularity locations: z_{i + 1} = z_{j + 1} = {locs[i]}"
                )
    if spec.m == 0 or spec.singularities[0].location != 0:
        raise WeightValidationError("first singularity must sit exactly at the origin")

    report.record("deg_w_at_least_two", spec.m >= 2, f"m = {spec.m}")
    report.record("deg_v_below_deg_w", True, "V built by partial fractions has degree < m")
    report.record("locations_distinct", True, "checked above")

    bad = [
        (i, s.exponent)
        for i, s in enumerate(spec.singularities)
        if _is_nonneg_int(s.exponent)
    ]
    report.record(
        "exponents_not_nonnegative_integers",
        not bad,
        "; ".join(f"rho_{i + 1} = {rho}" for i, rho in bad) if bad else "",
    )

    s_in = spec.inside_exponent_sum
    single_valued = _is_int(s_in)
    report.record(
        "single_valued_on_circle",
        single_valued,
        f"sum of exponents inside the disc = {s_in}",
    )

    d1, d2 = spec.annulus
    annulus_ok = 0.0 <= d1 < 1.0 < d2
    report.record("annulus_brackets_circle", annulus_ok, f"({d1}, {d2})")

    on_circle = [i for i, s in enumerate(spec.singularities) if abs(abs(s.location) - 1) < 1e-12]
    for i in on_circle:
        s = spec.singularities[i]
        if not _is_nonneg_int(s.exponent) and s.exponent.real <= 0:
            report.warnings.append(
                f"singularity z_{i + 1} on the unit circle with Re rho <= 0: "
                "moments may not exist"
            )

    if strict and not report.passed:
        failed = [c["name"] for c in report.conditions if not c["passed"]]
        raise WeightValidationError(f"strict validation failed: {', '.join(failed)}")
    if not report.passed:
        report.warnings.extend(
            f"relaxed mode: condition {c['name']} failed"
            for c in report.conditions
            if not c["passed"]
        )
    return report


def is_strict_semiclassical(spec: SemiClassicalWeight) -> bool:
    try:
        return spec.validation.passed
    except WeightValidationError:
        return False


def _principal_power(base: complex, rho: complex) -> complex:
    # normalize -0.0 imaginary parts so negative reals use arg = +pi
    base = complex(base)
    if base.imag == 0.0:
        base = complex(base.real, 0.0)
    return complex(np.power(base, rho))


def origin_power(spec: SemiClassicalWeight) -> int:
    """S, the integer sum of the inside exponents (the origin's included):
    the power of z the inside factors contribute; BranchCutError when the
    sum is not an integer, so the weight is not single-valued on the circle."""
    s_in = spec.inside_exponent_sum
    if not _is_int(s_in):
        raise BranchCutError(
            "weight is not single-valued on the circle: inside exponents sum "
            f"to {s_in}, not an integer"
        )
    return int(round(s_in.real))


def eval_weight(spec: SemiClassicalWeight, z):
    """Evaluate w(z) under the branch convention described in the module
    docstring.  Accepts scalars or arrays; raises PoleError at a singular
    location with negative real exponent and BranchCutError for points
    sitting exactly on a declared cut.

    The grouped form is valid for |z| larger than the inner annulus radius
    (the largest non-origin inside singularity modulus); the unit circle and
    both test corridors |z| in [0.1, 100] of singularity-free weights lie in
    this domain.
    """
    zs = np.asarray(z, dtype=complex)
    scalar = zs.ndim == 0
    zs = np.atleast_1d(zs)
    out = np.ones(zs.shape, dtype=complex)
    k_in = origin_power(spec)

    # exact hits on singular locations: pole or zero of the weight
    zero_mask = np.zeros(zs.shape, dtype=bool)
    for s in spec.singularities:
        at = zs == s.location
        if np.any(at):
            if s.exponent.real < 0:
                raise PoleError(f"w(z) has a pole at z = {s.location}")
            if s.exponent != 0:
                zero_mask |= at

    at0 = zs == 0.0
    if np.any(at0) and k_in < 0:
        raise PoleError("w(z) has a pole at the origin")
    safe = np.where(at0, 1.0, zs)

    out = out * safe**k_in

    for s in spec.singularities:
        zj, rho = s.location, s.exponent
        if rho == 0 or zj == 0:
            continue
        if abs(zj) < 1.0:
            u = 1.0 - zj / safe  # cut: radial segment from z_j to the origin
            constant = 1.0 + 0j
        else:
            u = 1.0 - zs / zj  # cut: ray from z_j radially outward
            constant = _principal_power(-zj, rho)
        if _is_int(rho):
            factor = u ** int(round(rho.real))
        else:
            on_cut = (u.imag == 0.0) & (u.real < 0.0) & ~zero_mask
            if np.any(on_cut):
                raise BranchCutError(
                    f"evaluation point on the branch cut of the factor at z_j = {zj}"
                )
            factor = np.power(u, rho)
        out = out * constant * factor

    if np.any(zero_mask):
        out = np.where(zero_mask, 0.0, out)
    return complex(out[0]) if scalar else out


def build_vw(spec: SemiClassicalWeight) -> PolyPair:
    """Construct W(z) = prod (z - z_j) and V from partial fractions
    2V/W = sum rho_j / (z - z_j); then 2 V(z_j) = rho_j W'(z_j) for every j."""
    locs = spec.locations
    w_poly = polyfromroots(locs)
    v_terms = []
    for j, s in enumerate(spec.singularities):
        others = np.delete(locs, j)
        v_terms.append(0.5 * s.exponent * polyfromroots(others))
    v_poly = polyadd(*v_terms)
    # trim trailing zeros but keep at least the constant term
    deg = max(
        (i for i, c in enumerate(v_poly) if abs(c) > 1e-15 * max(1.0, np.abs(v_poly).max())),
        default=0,
    )
    return PolyPair(W=as_poly(w_poly), V=as_poly(v_poly[: deg + 1]))


# ---------------------------------------------------------------------------
# JSON schema:  {"singularities": [{"z": [re, im], "rho": [re, im]}, ...],
#                "strict": bool, "annulus": [d1, d2], "branch": {...}}
# ---------------------------------------------------------------------------

def json_pair(value, member: str) -> tuple[float, float]:
    """A JSON pair of numbers; WeightValidationError naming ``member`` otherwise."""
    if isinstance(value, list) and len(value) == 2 and all(isinstance(v, (int, float)) for v in value):
        return value[0], value[1]
    raise WeightValidationError(f"{member} must be a pair of numbers, got {value!r}")


def weight_from_json(payload: dict[str, Any]) -> SemiClassicalWeight:
    items, sings = payload["singularities"], []
    if not (isinstance(items, list) and all(isinstance(item, dict) for item in items)):
        raise WeightValidationError("'singularities' must be a list of objects")
    for i, item in enumerate(items, start=1):
        for key in ("z", "rho"):
            if key not in item:
                raise WeightValidationError(f"singularity {i} needs the member {key!r}")
        z, rho = (complex(*json_pair(item[key], f"singularity {i} {key!r}")) for key in ("z", "rho"))
        sings.append(Singularity(z, rho))
    annulus = payload.get("annulus")
    branch = payload.get("branch", {}) or {}
    if not isinstance(branch, dict):
        raise WeightValidationError(f"'branch' must be an object, got {branch!r}")
    convention = branch.get("convention", "radial")
    if convention != "radial":
        raise WeightValidationError(f"unknown branch convention: {convention!r}")
    spec = SemiClassicalWeight(
        tuple(sings),
        annulus=json_pair(annulus, "'annulus'") if annulus else (0.0, float("inf")),
        strict=bool(payload.get("strict", True)),
    )
    if annulus is None:
        spec = SemiClassicalWeight(spec.singularities, spec.default_annulus(), spec.strict)
    return spec
