"""Identity reports: named residual entries with pass/fail flags and JSON
serialization.  Every entry carries a short ``anchor`` phrase naming the
identity family it checks, so a failing report line can be traced back to the
relation it exercises.

A report keeps its entries as arrays (residual, tol, n, and codes into tables
of its distinct (name, anchor) pairs and where labels), one part appended per
`add_groups` call; each entry's verdict (``residual <= tol``, NaN failing) is
computed once per state and read by `passed`, `failures`, `to_dict` and
`dump_json`.  `PerFamily` gives where labels and row masks family by family."""

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
        out: dict[str, Any] = {"name": self.name, "anchor": self.anchor, "residual": float(self.residual),
                               "tol": float(self.tol), "passed": bool(self.passed)}
        if self.n is not None:
            out["n"] = int(self.n)
        if self.where is not None:
            out["where"] = self.where
        return out


class PerFamily(tuple):
    """An `IdentityReport.add_groups` group's where labels or row masks, one set a family."""


NO_N = np.iinfo(np.int64).min  # the n of an entry without a level
_EMPTY = tuple(np.zeros(0, dtype=dtype) for dtype in (np.int64, float, float, np.int64, np.int64))


@dataclass
class IdentityReport:
    """Entries as arrays (fam, residual, tol, n, where); fam and where index ``_families``, ``_wheres``."""

    title: str
    notes: dict[str, Any] = field(default_factory=dict)
    _families: dict = field(default_factory=dict, init=False, repr=False)
    _wheres: dict = field(default_factory=dict, init=False, repr=False)
    _parts: list = field(default_factory=list, init=False, repr=False)
    _verdict: np.ndarray | None = field(default=None, init=False, repr=False)

    def _append(self, families, wheres, fam, residual, tol, n, where) -> None:
        """Append entries whose fam and where index ``families`` and ``wheres``."""
        codes = [np.array([table.setdefault(key, len(table)) for key in keys], dtype=np.int64)
                 for table, keys in ((self._families, families), (self._wheres, wheres))]
        self._parts.append((codes[0][fam], residual, tol, n, codes[1][where]))
        self._verdict = None

    @property
    def _cols(self) -> tuple:
        """The entries' arrays, the parts appended so far joined on the first read."""
        if len(self._parts) != 1:
            self._parts = [tuple(map(np.concatenate, zip(*self._parts or [_EMPTY])))]
        return self._parts[0]

    def add(self, name: str, anchor: str, residual: float, tol: float, n: int | None = None,
            where: str | None = None) -> None:
        self._append([(name, anchor)], [where], [0], *np.array([[residual], [tol]], dtype=float),
                     np.array([NO_N if n is None else n], dtype=np.int64), [0])

    def add_rows(self, families, tol, ns, wheres=None) -> None:
        """One group of `add_groups`: row k of every family is labelled
        n = ns[k] and where = wheres[k] (no where without ``wheres``)."""
        self.add_groups([(families, tol, ns, wheres)])

    def add_groups(self, groups) -> None:
        """Entries of groups of row families along one leading axis (a level
        or a point a position), position by position: at each position the
        rows of every group there, group by group, in a group row by row,
        each family by family.  A group is (families, tol, ns, wheres[, at[,
        held]]): ns and wheres (None for none; `PerFamily` wheres one set a
        family) broadcast to its row shape, the leading axis or the leading
        axis by the rows at one position; a family is (name, anchor,
        mismatch, *scale terms) of that leading shape (`_residuals`); ``at``
        holds the leading axis' ascending positions (0, 1, ... for None);
        ``held``, a `PerFamily` of masks over the rows of a one-axis group
        (None for all), the rows each family holds at and has arrays for;
        ``tol`` is one gate, or a sequence of one a family."""
        families, gates, wheres, labels, residuals = [], [], [], [], []
        for fams, tol, ns, where, *more in groups:
            at, held = (*more, None, None)[:2]
            width, per = len(fams), isinstance(where, PerFamily)
            ns = np.asarray(ns)
            if ns.dtype == object:  # None for rows without a level
                ns = np.where(np.equal(ns, None), NO_N, ns).astype(np.int64)
            codes = []
            for w in where if per else (where,):
                w = np.asarray(w, dtype=object)
                codes.append(np.arange(len(wheres), len(wheres) + w.size).reshape(w.shape))
                wheres += w.ravel().tolist()
            grid = np.broadcast(ns, *codes)
            shape, size = grid.shape, grid.size
            # the fam, n, where and (with more than one group) position of each entry
            label = np.empty((3 + (len(groups) > 1),) + shape + (width,), dtype=np.int64)
            label[0] = np.arange(len(families), len(families) + width)
            label[1] = ns[..., None]
            for k, code in enumerate(codes):
                label[(2, ..., k) if per else 2] = code if per else code[..., None]
            if len(groups) > 1:
                label[3] = (np.arange(shape[0]) if at is None else np.asarray(at)).reshape((-1,) + (1,) * len(shape))
            residual = np.empty((size, width))
            for k, (family, mask) in enumerate(zip(fams, held or (None,) * width)):
                rows = shape if mask is None else (np.count_nonzero(mask),)
                residual[slice(None) if mask is None else mask, k] = _residuals(family, rows)
            label, residual = label.reshape(len(label), size * width), residual.ravel()
            if held is not None:
                keep = np.stack([np.ones(size, dtype=bool) if m is None else m for m in held], axis=1).ravel()
                label, residual = label[:, keep], residual[keep]
            families += [family[:2] for family in fams]
            gates += [float(g) for g in tol] if np.ndim(tol) else [float(tol)] * width
            labels.append(label)
            residuals.append(residual)
        if labels:
            label, residual = np.concatenate(labels, axis=1), np.concatenate(residuals)
            if len(labels) > 1:  # group by group so far: stable by position
                order = np.argsort(label[3], kind="stable")
                label, residual = label[:, order], residual[order]
            self._append(families, wheres, label[0], residual, np.array(gates)[label[0]], label[1], label[2])

    def extend(self, other: "IdentityReport") -> None:
        self._append(list(other._families), list(other._wheres), *other._cols)

    @property
    def entries(self) -> tuple[IdentityEntry, ...]:
        """The entries as records, built on each read."""
        return self._records(slice(None))

    def _records(self, rows) -> tuple[IdentityEntry, ...]:
        families, wheres = list(self._families), list(self._wheres)
        return tuple(IdentityEntry(*families[f], r, t, None if k == NO_N else k, wheres[w])
                     for f, r, t, k, w in zip(*(col[rows].tolist() for col in self._cols)))

    def _ok(self) -> np.ndarray:
        """Whether each row passes; a NaN residual fails."""
        return np.less_equal(self._cols[1], self._cols[2])

    def _verdicts(self) -> np.ndarray:
        """_ok, computed once per state of the report."""
        self._verdict = self._ok() if self._verdict is None else self._verdict
        return self._verdict

    @property
    def passed(self) -> bool:
        return bool(self._verdicts().all())

    @property
    def max_residual(self) -> float:
        """Largest residual (0 with no entries), NaN when any residual is NaN."""
        return float(np.max(self._cols[1])) if self._cols[1].size else 0.0

    def failures(self) -> list[IdentityEntry]:
        return list(self._records(np.flatnonzero(~self._verdicts())))

    def max_by_name(self) -> dict[str, float]:
        """Largest residual of each identity name, NaN propagating, in the
        order the names first appear among the entries."""
        names = {}
        codes = np.array([names.setdefault(name, len(names)) for name, _ in self._families], dtype=np.int64)
        codes = codes[self._cols[0]]
        out = np.zeros(len(names))
        with np.errstate(invalid="ignore"):  # a NaN residual propagates
            np.maximum.at(out, codes, self._cols[1])
        present, first = np.unique(codes, return_index=True)
        keys, values = list(names), out.tolist()
        return {keys[k]: values[k] for k in present[np.argsort(first)].tolist()}

    def _members(self, entries, ok: np.ndarray) -> dict[str, Any]:
        """The report's members around ``entries``, passed read off ``ok``."""
        return {"schema": SCHEMA, "title": self.title, "passed": bool(ok.all()),
                "max_residual": self.max_residual, "entries": entries, "notes": self.notes}

    def to_dict(self) -> dict[str, Any]:
        return self._members([e.to_dict() for e in self.entries], self._verdicts())


def _residuals(family, rows: tuple) -> np.ndarray:
    """rel_residuals of a row family, one a row of its leading shape
    ``rows``: with two axes, the arrays broadcast against the mismatch and
    both axes are read as one."""
    name, _, mismatch, *terms = family
    shape = np.shape(mismatch)
    if shape[: len(rows)] != rows:
        raise ValueError(f"{name}: leading shape {shape} does not match the rows {rows}")
    if len(rows) > 1:
        mismatch, *terms = ((a if np.shape(a) == shape else np.broadcast_to(a, shape)).reshape((-1,) + shape[2:])
                            for a in (mismatch, *terms))
    return rel_residuals(mismatch, *terms)


def equation(name: str, anchor: str, lhs, rhs) -> tuple:
    """The row family of lhs = rhs for IdentityReport.add_rows: mismatch
    lhs - rhs, scaled by both sides."""
    return (name, anchor, np.subtract(lhs, rhs), lhs, rhs)


class _Text(str):
    """A member already written as JSON."""


def _entry_lines(report: IdentityReport, ok: np.ndarray) -> str:
    """The entry lines of a report, as its to_dict() would be written: each
    joined from texts formed once per family (anchor; name with each
    verdict), level, tol bit pattern (0.0 and -0.0 apart) and where label,
    and its residual; the residuals in one encoder call (NaN and Infinity
    as json writes them)."""
    fam, residual, tol, n, where = report._cols
    quote = json.encoder.encode_basestring_ascii  # json's writer of a str
    families, has_n = [[quote(text) for text in pair] for pair in report._families], n != NO_N
    lo = int(n.min(initial=0, where=has_n))
    bits, gate = np.unique(tol.view(np.int64), return_inverse=True)
    texts = [
        (['{"anchor": %s, ' % anchor for _, anchor in families], fam),
        (['"n": %d, ' % k for k in range(lo, int(n.max(initial=0)) + 1)] + [""], np.where(has_n, n - lo, -1)),
        (['"name": %s, "passed": %s, "residual": ' % (name, flag) for name, _ in families
          for flag in ("false", "true")], 2 * fam + ok),
        (json.dumps(residual.tolist())[1:-1].split(", "), None),
        ([', "tol": ' + text for text in json.dumps(bits.view(float).tolist())[1:-1].split(", ")], gate),
        (["},\n    " if w is None else ', "where": %s},\n    ' % quote(w) for w in report._wheres], where),
    ]
    pieces = np.empty((len(ok), len(texts)), dtype=object)
    for k, (table, code) in enumerate(texts):
        pieces[:, k] = table if code is None else np.array(table, dtype=object)[code]
    return "[\n    " + "".join(pieces.ravel().tolist())[:-6] + "\n  ]"


def dump_json(payload: dict[str, Any] | IdentityReport, path) -> None:
    """Sorted-key JSON, one member per line at the top two levels: each key
    of the top object, then each element or key of a list or object under
    it (``entries``, ``levels``, ``suites``, ``notes``), so every identity
    entry is one line.  Each line is one call of json's C encoder, which
    json gives up for the pure-Python one whenever ``indent`` is set; an
    IdentityReport's entry lines are written from its arrays in bulk, as
    its to_dict() would be."""
    encode = json.JSONEncoder(sort_keys=True).encode
    quote = json.encoder.encode_basestring_ascii  # json's writer of a str
    leaves = {type(None): lambda _: "null", bool: lambda v: ("false", "true")[v], str: quote, int: int.__repr__}

    def block(value, depth: int) -> str:
        if isinstance(value, _Text):
            return value
        if type(value) in leaves:
            return leaves[type(value)](value)
        if depth == 2 or not isinstance(value, (dict, list, tuple)) or not value:
            return encode(value)
        pad = "\n" + "  " * (depth + 1)
        if not isinstance(value, dict):
            return "[" + ",".join(pad + block(v, depth + 1) for v in value) + pad[:-2] + "]"
        # a key as json writes it: a number, bool or None key becomes a string
        members = ((quote(k) if type(k) is str else encode({k: 0})[1:-4]) + ": " + block(v, depth + 1)
                   for k, v in sorted(value.items()))
        return "{" + ",".join(pad + m for m in members) + pad[:-2] + "}"

    if isinstance(payload, IdentityReport):
        ok = payload._verdicts()
        payload = payload._members(_Text(_entry_lines(payload, ok)) if ok.size else [], ok)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(block(payload, 0) + "\n")
