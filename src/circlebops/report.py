"""Identity reports: named residual entries with pass/fail flags and JSON
serialization.  Every entry carries a short ``anchor`` phrase naming the
identity family it checks, so a failing report line can be traced back to the
relation it exercises."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .numerics import rel_residuals

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

    def add_rows(self, families, tol, ns, wheres=None) -> None:
        """Entries of row families, row by row and in each row family by
        family.  A family is (name, anchor, mismatch, *scale terms), one row
        per level or per point along the first axis, and gives its residuals
        in one rel_residuals call.  Row k is labelled n = ns[k] and
        where = wheres[k] (no where without ``wheres``); ``tol`` is the gate
        of every family or a sequence of one gate per family."""
        res = [rel_residuals(mismatch, *terms) for _, _, mismatch, *terms in families]
        tols = np.broadcast_to(tol, len(families)).tolist()
        for k, n in enumerate(ns):
            where = None if wheres is None else wheres[k]
            for (name, anchor, *_), r, gate in zip(families, res, tols):
                self.add(name, anchor, r[k], gate, n=n, where=where)

    def extend(self, other: "IdentityReport") -> None:
        self.entries.extend(other.entries)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def max_residual(self) -> float:
        """Largest residual (0 with no entries), NaN when any residual is NaN."""
        residuals = [e.residual for e in self.entries]
        return float(np.max(residuals)) if residuals else 0.0

    def failures(self) -> list[IdentityEntry]:
        return [e for e in self.entries if not e.passed]

    def max_by_name(self) -> dict[str, float]:
        """Largest residual of each identity name, NaN propagating."""
        groups: dict[str, list[float]] = {}
        for e in self.entries:
            groups.setdefault(e.name, []).append(e.residual)
        return {name: float(np.max(res, initial=0.0)) for name, res in groups.items()}

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "title": self.title,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "entries": [e.to_dict() for e in self.entries],
            "notes": self.notes,
        }


def equation(name: str, anchor: str, lhs, rhs) -> tuple:
    """The row family of lhs = rhs for IdentityReport.add_rows: mismatch
    lhs - rhs, scaled by both sides."""
    return (name, anchor, np.subtract(lhs, rhs), lhs, rhs)


def dump_json(payload: dict[str, Any], path) -> None:
    """Sorted-key JSON, one member per line at the top two levels: each key
    of the top object, then each element or key of a list or object under
    it (``entries``, ``levels``, ``suites``, ``notes``), so every identity
    entry is one line.  Each line is one call of json's C encoder, which
    json gives up for the pure-Python one whenever ``indent`` is set."""
    encode = json.JSONEncoder(sort_keys=True).encode

    def block(value, depth: int) -> str:
        if depth == 2 or not isinstance(value, (dict, list, tuple)) or not value:
            return encode(value)
        pad = "\n" + "  " * (depth + 1)
        if not isinstance(value, dict):
            return "[" + ",".join(pad + block(v, depth + 1) for v in value) + pad[:-2] + "]"
        # a key as json writes it: a number, bool or None key becomes a string
        members = (encode({k: 0})[1:-4] + ": " + block(v, depth + 1)
                   for k, v in sorted(value.items()))
        return "{" + ",".join(pad + m for m in members) + pad[:-2] + "}"

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(block(payload, 0) + "\n")
