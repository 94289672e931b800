"""Identity reports: named residual entries with pass/fail flags and JSON
serialization.  Every entry carries a short ``anchor`` phrase naming the
identity family it checks, so a failing report line can be traced back to the
relation it exercises."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

SCHEMA = "v1"


@dataclass
class IdentityEntry:
    name: str
    anchor: str
    residual: float
    tol: float
    n: int | None = None
    where: str | None = None

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "anchor": self.anchor,
            "residual": float(self.residual),
            "tol": float(self.tol),
            "passed": bool(self.passed),
        }
        if self.n is not None:
            out["n"] = int(self.n)
        if self.where is not None:
            out["where"] = self.where
        return out


@dataclass
class IdentityReport:
    title: str
    entries: list[IdentityEntry] = field(default_factory=list)
    notes: dict[str, Any] = field(default_factory=dict)

    def add(
        self,
        name: str,
        anchor: str,
        residual: float,
        tol: float,
        n: int | None = None,
        where: str | None = None,
    ) -> IdentityEntry:
        entry = IdentityEntry(name, anchor, float(residual), float(tol), n, where)
        self.entries.append(entry)
        return entry

    def extend(self, other: "IdentityReport") -> None:
        self.entries.extend(other.entries)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def max_residual(self) -> float:
        return max((e.residual for e in self.entries), default=0.0)

    def failures(self) -> list[IdentityEntry]:
        return [e for e in self.entries if not e.passed]

    def max_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for e in self.entries:
            out[e.name] = max(out.get(e.name, 0.0), e.residual)
        return out

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "title": self.title,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "entries": [e.to_dict() for e in self.entries],
            "notes": self.notes,
        }


def dump_json(payload: dict[str, Any], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
