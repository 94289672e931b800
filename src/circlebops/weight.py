"""Regular semi-classical weights on the unit circle.

A weight is a finite product w(z) = prod_j (z - z_j)^{rho_j} with distinct
singular locations z_j, the first of which is pinned at the origin.  The
log-derivative is rational, W w' = 2 V w, with W(z) = prod_j (z - z_j) monic
and 2V/W = sum_j rho_j / (z - z_j).  Everything a weight is follows from
its singularity data, and `SemiClassicalWeight` owns each of it: its value
(calling it), its pair (V, W) (``vw``), its conditions (``validation``) and
whether it is in the strict class (``strict``).

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
B(z) = prod_outside (1 - z/z_j)^rho_j and C = prod_outside C_j, the form
`moments.factorised_moments` expands into the moments; every reader takes
S, the sides and the C_j from `SemiClassicalWeight.factorisation`.
C_j is (-z_j)^rho_j on the factor's sheet k_j: the principal value times
e^{2 pi i k_j rho_j}, with k_j = 0 in every weight a spec or the library
builds.  `with_locations` continues each factor along the straight segment
to its new location, so a moved weight keeps its branch.
"""

from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from .errors import BranchCutError, PoleError, WeightValidationError
from .numerics import as_poly, polyadd, polyfromroots

#: exponent closer than this to a non-negative integer counts as one
_INT_TOL = 1e-9


def _is_nonneg_int(rho: complex) -> bool:
    return _is_int(rho) and rho.real > -_INT_TOL


def _is_int(value: complex) -> bool:
    return abs(value.imag) < _INT_TOL and abs(value.real - round(value.real)) < _INT_TOL


@dataclass(frozen=True)
class Singularity:
    location: complex
    exponent: complex
    sheet: int = 0  # the branch of (-z_j)^rho_j (module docstring)

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

    def reflected(self) -> "PolyPair":
        """The pair of the reflected weight w(1/u): u^2 W^(u) and -V^(u), with
        W^, V^ the coefficients of W, V reversed at degree m (W is not monic)."""
        v_hat = polyadd(np.zeros(self.degree + 1), self.V)[::-1]
        return PolyPair(np.concatenate(([0.0, 0.0], self.W[::-1])), -v_hat)


@dataclass(frozen=True)
class SemiClassicalWeight:
    """Singularity data (z_j, rho_j) with the origin singularity first."""

    singularities: tuple[Singularity, ...]

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

    @cached_property
    def factorisation(self) -> tuple[complex, tuple[tuple[complex, complex, complex | None], ...]]:
        """(S, factors): S sums the exponents inside the disc, the origin's
        included (an integer when w is single-valued on the circle), and
        factors holds (z_j, rho_j, C_j) for each other z_j with rho_j != 0,
        in order: C_j is None inside the disc, (-z_j)^rho_j on its sheet outside."""
        total, factors = 0, []
        for s in self.singularities:
            zj, rho, inside = s.location, s.exponent, abs(s.location) < 1.0
            if inside:
                total += rho
            if rho == 0 or zj == 0:
                continue
            constant = None if inside else _principal_power(-zj, rho)
            if not inside and s.sheet:
                constant *= cmath.exp(2j * cmath.pi * s.sheet * rho)
            factors.append((zj, rho, constant))
        return complex(total), tuple(factors)

    def with_locations(self, locations: Sequence[complex]) -> "SemiClassicalWeight":
        """Same exponents at new locations, each factor continued along the
        straight segment from its location here: its sheet gains the turns
        arg(-z_j) makes past (-pi, pi].  An integer exponent stays on 0."""
        sings = []
        for loc, s in zip(locations, self.singularities):
            loc, sheet = complex(loc), s.sheet
            if s.location != 0 and loc != 0 and not _is_int(s.exponent):
                swept = cmath.phase(_on_principal_range(-s.location)) + cmath.phase(loc / s.location)
                sheet += round((swept - cmath.phase(_on_principal_range(-loc))) / (2 * cmath.pi))
            sings.append(Singularity(loc, s.exponent, sheet))
        return SemiClassicalWeight(tuple(sings))

    @cached_property
    def validation(self) -> ValidationReport:
        """The defining conditions of a regular semi-classical weight, checked
        once per weight object.

        Duplicate locations and a missing origin singularity are hard errors,
        WeightValidationError on every read.  Any other failed condition is
        recorded and the report does not pass (closed-form test weights such
        as z^{-1}(1+z)^2, whose exponent 2 is a non-negative integer, are
        built all the same).  Only conditions that can fail are recorded:
        distinct locations are a hard error, and V, built by partial
        fractions, has degree below m.
        """
        report = ValidationReport()

        locs = self.locations
        for i in range(len(locs)):
            for j in range(i + 1, len(locs)):
                if locs[i] == locs[j]:
                    raise WeightValidationError(
                        f"duplicate singularity locations: z_{i + 1} = z_{j + 1} = {locs[i]}"
                    )
        if self.m == 0 or self.singularities[0].location != 0:
            raise WeightValidationError("first singularity must sit exactly at the origin")

        report.record("deg_w_at_least_two", self.m >= 2, f"m = {self.m}")

        bad = [
            (i, s.exponent)
            for i, s in enumerate(self.singularities)
            if _is_nonneg_int(s.exponent)
        ]
        report.record(
            "exponents_not_nonnegative_integers",
            not bad,
            "; ".join(f"rho_{i + 1} = {rho}" for i, rho in bad) if bad else "",
        )

        s_in = self.factorisation[0]
        report.record(
            "single_valued_on_circle",
            _is_int(s_in),
            f"sum of exponents inside the disc = {s_in}",
        )

        on_circle = [i for i, s in enumerate(self.singularities) if abs(abs(s.location) - 1) < 1e-12]
        for i in on_circle:
            s = self.singularities[i]
            if not _is_nonneg_int(s.exponent) and s.exponent.real <= 0:
                report.warnings.append(
                    f"singularity z_{i + 1} on the unit circle with Re rho <= 0: "
                    "moments may not exist"
                )
        return report

    @property
    def strict(self) -> bool:
        """Whether this is a strict regular semi-classical weight: its
        validation passes (False on a hard error)."""
        try:
            return self.validation.passed
        except WeightValidationError:
            return False

    @cached_property
    def vw(self) -> PolyPair:
        """The pair (V, W), built once per weight object: W(z) = prod (z - z_j)
        and V from partial fractions 2V/W = sum rho_j / (z - z_j); then
        2 V(z_j) = rho_j W'(z_j) for every j."""
        locs = self.locations
        w_poly = polyfromroots(locs)
        v_terms = []
        for j, s in enumerate(self.singularities):
            others = np.delete(locs, j)
            v_terms.append(0.5 * s.exponent * polyfromroots(others))
        v_poly = polyadd(*v_terms)
        # trim trailing zeros but keep at least the constant term
        deg = max(
            (i for i, c in enumerate(v_poly) if abs(c) > 1e-15 * max(1.0, np.abs(v_poly).max())),
            default=0,
        )
        return PolyPair(W=as_poly(w_poly), V=as_poly(v_poly[: deg + 1]))

    def __call__(self, z):
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
        k_in = origin_power(self)

        # exact hits on singular locations: pole or zero of the weight
        zero_mask = np.zeros(zs.shape, dtype=bool)
        for s in self.singularities:
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

        for zj, rho, constant in self.factorisation[1]:
            if constant is None:
                u = 1.0 - zj / safe  # cut: radial segment from z_j to the origin
                constant = 1.0 + 0j
            else:
                u = 1.0 - zs / zj  # cut: ray from z_j radially outward
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


@dataclass
class ValidationReport:
    conditions: list[dict[str, Any]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.conditions.append({"name": name, "passed": bool(ok), "detail": detail})

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.conditions)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": "v1",
            "passed": self.passed,
            "conditions": self.conditions,
            "warnings": self.warnings,
        }


def _on_principal_range(base: complex) -> complex:
    # a -0.0 imaginary part made +0.0, so a negative real has arg +pi
    base = complex(base)
    return complex(base.real, 0.0) if base.imag == 0.0 else base


def _principal_power(base: complex, rho: complex) -> complex:
    return complex(np.power(_on_principal_range(base), rho))


def origin_power(spec: SemiClassicalWeight) -> int:
    """S, the integer sum of the inside exponents (the origin's included):
    the power of z the inside factors contribute; BranchCutError when the
    sum is not an integer, so the weight is not single-valued on the circle."""
    s_in = spec.factorisation[0]
    if not _is_int(s_in):
        raise BranchCutError(
            "weight is not single-valued on the circle: inside exponents sum "
            f"to {s_in}, not an integer"
        )
    return int(round(s_in.real))


# ---------------------------------------------------------------------------
# JSON schema:  {"singularities": [{"z": [re, im], "rho": [re, im]}, ...],
#                "branch": {...}}; other members are ignored
# ---------------------------------------------------------------------------

def finite_number(value) -> bool:
    """Whether a parsed JSON value is a number, finite in double precision."""
    return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max


def json_pair(value, member: str) -> tuple[float, float]:
    """A JSON pair of finite numbers; WeightValidationError naming ``member`` otherwise."""
    numbers = isinstance(value, list) and len(value) == 2 and all(isinstance(v, (int, float)) for v in value)
    if numbers and all(map(finite_number, value)):
        return value[0], value[1]
    raise WeightValidationError(f"{member} must be {'finite' if numbers else 'a pair of numbers'}, got {value!r}")


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
    branch = payload.get("branch", {}) or {}
    if not isinstance(branch, dict):
        raise WeightValidationError(f"'branch' must be an object, got {branch!r}")
    convention = branch.get("convention", "radial")
    if convention != "radial":
        raise WeightValidationError(f"unknown branch convention: {convention!r}")
    return SemiClassicalWeight(tuple(sings))
