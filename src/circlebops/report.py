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


class PerFamily(tuple):
    """Where labels of an `IdentityReport.add_groups` group, one label set
    per family, each broadcast against the group's ns."""


@dataclass
class IdentityReport:
    """Entries stored as six columns, one per IdentityEntry field in its
    order (name, anchor, residual, tol, n, where): row k is entry k."""

    title: str
    notes: dict[str, Any] = field(default_factory=dict)
    _cols: tuple[list, ...] = field(
        default_factory=lambda: ([], [], [], [], [], []), init=False, repr=False
    )

    def add(
        self,
        name: str,
        anchor: str,
        residual: float,
        tol: float,
        n: int | None = None,
        where: str | None = None,
    ) -> None:
        for col, value in zip(self._cols, (name, anchor, float(residual), float(tol), n, where)):
            col.append(value)

    def add_rows(self, families, tol, ns, wheres=None) -> None:
        """One group of `add_groups`: row k of every family is labelled
        n = ns[k] and where = wheres[k] (no where without ``wheres``; with
        `PerFamily` wheres, family j's are wheres[j])."""
        self.add_groups([(families, tol, ns, wheres)])

    def add_groups(self, groups) -> None:
        """Entries of groups of row families along one leading axis (a level
        or a point a position), position by position: at each position the
        rows of every group there, group by group, each row family by
        family.  A group is (families, tol, ns, wheres[, at]).  ns and wheres
        label its rows (None for no where) and broadcast together to its row
        shape: the leading axis, or the leading axis by the rows at one
        position; `PerFamily` wheres hold one label set per family.  A family
        is (name, anchor, mismatch, *scale terms) with that shape on its
        first axes, and gives its residuals in one rel_residuals call; with
        two axes its terms broadcast against the mismatch.  ``at`` holds the
        positions of the group's leading axis (0, 1, ... by default); ``tol``
        is the gate of every family or a sequence of one gate per family."""
        parts, spans = [], []
        for families, tol, ns, wheres, *at in groups:
            label_sets = wheres if isinstance(wheres, PerFamily) else (wheres,)
            labels = np.broadcast(np.asarray(ns, dtype=object),
                                  *(np.asarray(w, dtype=object) for w in label_sets))
            names, anchors, *_ = zip(*families)
            width, rows = len(names), labels.size
            res = zip(*(_residuals(family, labels.shape).tolist() for family in families))
            row_ns, *row_wheres = zip(*labels) if rows else ((),) * (1 + len(label_sets))
            if len(row_wheres) == 1:  # one where for every family of a row
                row_wheres = [w for w in row_wheres[0] for _ in names]
            else:
                row_wheres = [w for row in zip(*row_wheres) for w in row]
            parts.append((names * rows, anchors * rows, [r for row in res for r in row],
                          np.full(width, tol, dtype=float).tolist() * rows,
                          [n for n in row_ns for _ in names], row_wheres))
            positions = np.asarray(at[0]).tolist() if at else range(labels.shape[0])
            spans.append((positions, range(width * rows // max(len(positions), 1))))
        columns = [[x for part in column for x in part] for column in zip(*parts)]
        if len(parts) > 1:  # each entry at its row's position, groups in order at each
            keys = [p for positions, per in spans for p in positions for _ in per]
            order = sorted(range(len(keys)), key=keys.__getitem__)
            columns = [list(map(column.__getitem__, order)) for column in columns]
        for col, more in zip(self._cols, columns):
            col.extend(more)

    def extend(self, other: "IdentityReport") -> None:
        for col, more in zip(self._cols, other._cols):
            col.extend(more)

    @property
    def entries(self) -> tuple[IdentityEntry, ...]:
        """The entries as records, built on each read."""
        return tuple(map(IdentityEntry, *self._cols))

    def _ok(self) -> np.ndarray:
        """Whether each row passes; a NaN residual fails."""
        return np.less_equal(self._cols[2], self._cols[3])

    @property
    def passed(self) -> bool:
        return bool(self._ok().all())

    @property
    def max_residual(self) -> float:
        """Largest residual (0 with no entries), NaN when any residual is NaN."""
        residuals = self._cols[2]
        return float(np.max(residuals)) if residuals else 0.0

    def failures(self) -> list[IdentityEntry]:
        return [IdentityEntry(*(col[k] for col in self._cols))
                for k in np.flatnonzero(~self._ok()).tolist()]

    def max_by_name(self) -> dict[str, float]:
        """Largest residual of each identity name, NaN propagating."""
        names, residuals = self._cols[0], self._cols[2]
        index = {name: k for k, name in enumerate(dict.fromkeys(names))}
        rows = np.equal.outer([index[name] for name in names], range(len(index)))
        out = np.where(rows, np.array(residuals)[:, None], 0.0).max(axis=0, initial=0.0)
        return dict(zip(index, out.tolist()))

    def _members(self, entries, ok: np.ndarray) -> dict[str, Any]:
        """The report's members around ``entries``, passed read off ``ok``."""
        return {"schema": SCHEMA, "title": self.title, "passed": bool(ok.all()),
                "max_residual": self.max_residual, "entries": entries, "notes": self.notes}

    def to_dict(self) -> dict[str, Any]:
        return self._members([e.to_dict() for e in self.entries], self._ok())


def _residuals(family, rows: tuple) -> np.ndarray:
    """rel_residuals of a row family, one a row of its leading shape
    ``rows``: with two axes, the arrays broadcast against the mismatch and
    both axes are read as one."""
    name, _, mismatch, *terms = family
    shape = np.shape(mismatch)
    if shape[: len(rows)] != rows:
        raise ValueError(f"{name}: leading shape {shape} does not match the rows {rows}")
    if len(rows) > 1:
        mismatch, *terms = (np.reshape(a if np.shape(a) == shape else np.broadcast_to(a, shape),
                                       (-1,) + shape[2:]) for a in (mismatch, *terms))
    return rel_residuals(mismatch, *terms)


def equation(name: str, anchor: str, lhs, rhs) -> tuple:
    """The row family of lhs = rhs for IdentityReport.add_rows: mismatch
    lhs - rhs, scaled by both sides."""
    return (name, anchor, np.subtract(lhs, rhs), lhs, rhs)


class _Text(str):
    """A member already written as JSON."""


def dump_json(payload: dict[str, Any] | IdentityReport, path) -> None:
    """Sorted-key JSON, one member per line at the top two levels: each key
    of the top object, then each element or key of a list or object under
    it (``entries``, ``levels``, ``suites``, ``notes``), so every identity
    entry is one line.  Each line is one call of json's C encoder, which
    json gives up for the pure-Python one whenever ``indent`` is set; an
    IdentityReport's entry lines are written from its columns in bulk, as
    its to_dict() would be."""
    encode = json.JSONEncoder(sort_keys=True).encode

    def block(value, depth: int) -> str:
        if isinstance(value, _Text):
            return value
        if depth == 2 or not isinstance(value, (dict, list, tuple)) or not value:
            return encode(value)
        pad = "\n" + "  " * (depth + 1)
        if not isinstance(value, dict):
            return "[" + ",".join(pad + block(v, depth + 1) for v in value) + pad[:-2] + "]"
        # a key as json writes it: a number, bool or None key becomes a string
        members = (encode({k: 0})[1:-4] + ": " + block(v, depth + 1)
                   for k, v in sorted(value.items()))
        return "{" + ",".join(pad + m for m in members) + pad[:-2] + "}"

    if isinstance(payload, IdentityReport):
        # one encoder call per column of numbers, split on its ", " (NaN and
        # Infinity as json writes them), one tol per distinct bit pattern
        # (0.0 and -0.0 apart); each distinct string, (anchor, n, name) head
        # and where tail of an entry's line is written once
        names, anchors, residuals, tols, ns, wheres = payload._cols
        quote = json.encoder.encode_basestring_ascii  # json's writer of a str
        quoted = {text: quote(text) for text in {*anchors, *names}}
        keys = list(zip(anchors, ns, names))
        heads = {(anchor, n, name): '{"anchor": %s, %s"name": %s, "passed": ' % (
                     quoted[anchor], "" if n is None else '"n": %d, ' % n, quoted[name])
                 for anchor, n, name in set(keys)}
        tails = {w: "}" if w is None else ', "where": %s}' % quote(w) for w in set(wheres)}
        ok = payload._ok()
        flags = [("false", "true")[passed] for passed in ok.tolist()]
        bits, which = np.unique(np.array(tols, dtype=float).view(np.int64), return_inverse=True)
        res, tol = (json.dumps(col)[1:-1].split(", ") for col in (residuals, bits.view(float).tolist()))
        lines = ['%s%s, "residual": %s, "tol": %s%s' % (heads[key], flag, r, tol[t], tails[w])
                 for key, flag, r, t, w in zip(keys, flags, res, which.tolist(), wheres)]
        entries = "[\n    " + ",\n    ".join(lines) + "\n  ]"
        payload = payload._members(_Text(entries) if lines else [], ok)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(block(payload, 0) + "\n")
