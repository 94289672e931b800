"""Spans around the public functions and methods of every circlebops layer.

The tracer is installed from the benchmark, not from the program: it wraps
each public module-level function and each public method (plus ``__call__``)
of the classes defined in the layer modules, and rebinds every reference the
package holds to the wrapped function, including values of module-level
dicts such as the CLI's handler table.  Properties are left alone; they are
attribute reads, not calls into a layer.  ``uninstall`` restores every
binding it changed.

Spans live in flat arrays while the program runs: name, parent, start, end,
error flag and an argument size (``np.size`` of the evaluation points for
the evaluators listed in SIZE_ARG, the level for ``build_system``).  A few
results are kept as well (RESULT_VALUE).  Op boundaries are index ranges
into the arrays, so each span belongs to exactly one op.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "circlebops"
LAYERS = (
    "weight",
    "moments",
    "bops",
    "assoc",
    "coeffs",
    "lax",
    "deform",
    "pipeline",
    "numerics",
    "report",
    "cli",
)

# span name -> (positional index, keyword, measure) of the argument kept as
# the span's size: the number of evaluation points, or the level itself
SIZE_ARG = {
    "numerics.polyval": (1, "z", np.size),
    "assoc.AssocSystem.eps": (2, "z", np.size),
    "assoc.AssocSystem.epsstar": (2, "z", np.size),
    "moments.CaratheodoryEvaluator.__call__": (1, "z", np.size),
    "lax.normalized_solution": (3, "z", np.size),
    "weight.eval_weight": (1, "z", np.size),
    "weight.SemiClassicalWeight.__call__": (1, "z", np.size),
    "bops.build_system": (1, "nmax", int),
}


def _max_fit_residual(quad) -> float:
    return max((float(v) for v in quad.fit_residuals.values()), default=0.0)


# span name -> function of the return value whose result is kept
RESULT_VALUE = {
    "moments.compute_moments": lambda table: float(table.source.get("points", 0)),
    "coeffs.compute_coeff_quad": _max_fit_residual,
}


def _arg_size(index: int, keyword: str, measure):
    def size(args, kwargs) -> int:
        value = args[index] if len(args) > index else kwargs.get(keyword)
        return int(measure(value)) if value is not None else 0

    return size


class Tracer:
    """Collects spans for every call into the circlebops layers while installed."""

    def __init__(self):
        self.modules = [importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS]
        self.names: list[str] = []
        self.parents = array("l")
        self.name_ids = array("l")
        self.sizes = array("l")
        self.errors = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.results: dict[int, float] = {}
        self.ops: list[tuple[int, int, int]] = []  # (op id, first span, end span)
        self._stack = [-1]
        self._patches: list[tuple[object, object, object]] = []
        self._wrapped: list[tuple[object, str, object, object]] | None = None
        self._op_start: tuple[int, int] | None = None

    # -- installation -------------------------------------------------------

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        stack, parents, name_ids = self._stack, self.parents, self.name_ids
        sizes, errors, starts, ends = self.sizes, self.errors, self.starts, self.ends
        results = self.results
        size_of = _arg_size(*SIZE_ARG[name]) if name in SIZE_ARG else None
        result_of = RESULT_VALUE.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = len(starts)
            parents.append(stack[-1])
            name_ids.append(name_id)
            sizes.append(size_of(args, kwargs) if size_of is not None else 0)
            errors.append(0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errors[sid] = 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if result_of is not None:
                results[sid] = result_of(out)
            return out

        return span

    def _targets(self):
        """Yield (owner, attribute, raw value, span name) for every public
        function and method defined in the layer modules."""
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    yield mod, attr, obj, f"{layer}.{attr}"
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_") and meth != "__call__":
                            continue
                        if isinstance(raw, (staticmethod, classmethod)) or (
                            inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw)
                        ):
                            yield obj, meth, raw, f"{layer}.{attr}.{meth}"

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        if self._wrapped is None:
            self._wrapped = []
            for owner, attr, raw, name in self._targets():
                if isinstance(raw, (staticmethod, classmethod)):
                    new = type(raw)(self._wrap(raw.__func__, name))
                else:
                    new = self._wrap(raw, name)
                self._wrapped.append((owner, attr, raw, new))
        functions = {}
        for owner, attr, raw, new in self._wrapped:
            if inspect.isclass(owner):
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)
            else:
                functions[raw] = new
        # rebind every reference the package holds: imports by name in other
        # modules and dict values such as the CLI handler table
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in functions:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, functions[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in functions:
                            self._patches.append((value, key, item))
                            value[key] = functions[item]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op_start = (op_id, len(self.starts))

    def end_op(self) -> tuple[int, int]:
        op_id, first = self._op_start
        self.ops.append((op_id, first, len(self.starts)))
        self._op_start = None
        return first, len(self.starts)

    def op_summary(self, first: int, end: int) -> dict:
        """Per-layer calls, self time and errors, per-name call counts and
        argument sizes, and the summed duration of the root spans, over the
        spans in [first, end)."""
        starts, ends, parents = self.starts, self.ends, self.parents
        covered = defaultdict(float)
        for i in range(first, end):
            p = parents[i]
            if p >= first:
                covered[p] += ends[i] - starts[i]
        layer_calls = defaultdict(int)
        layer_self = defaultdict(float)
        layer_errors = defaultdict(int)
        calls = defaultdict(int)
        sizes = defaultdict(int)
        root_s = 0.0
        for i in range(first, end):
            name = self.names[self.name_ids[i]]
            layer = name.split(".", 1)[0]
            dur = ends[i] - starts[i]
            layer_calls[layer] += 1
            layer_self[layer] += dur - covered.get(i, 0.0)
            layer_errors[layer] += self.errors[i]
            calls[name] += 1
            sizes[name] += self.sizes[i]
            if parents[i] < first:
                root_s += dur
        return {
            "layer_calls": dict(layer_calls),
            "layer_self_s": dict(layer_self),
            "layer_errors": dict(layer_errors),
            "calls": dict(calls),
            "sizes": dict(sizes),
            "root_s": root_s,
        }

    def spans_named(self, name: str, first: int, end: int):
        """Yield (index, duration, size, parent name) of the spans called ``name``."""
        target = self.names.index(name) if name in self.names else -1
        for i in range(first, end):
            if self.name_ids[i] == target:
                p = self.parents[i]
                parent = self.names[self.name_ids[p]] if p >= first else None
                yield i, self.ends[i] - self.starts[i], self.sizes[i], parent

    def write_jsonl(self, path) -> int:
        """Write one JSON line per span, gzip-compressed; times are seconds
        on the run's ``perf_counter`` clock.  Returns the number of spans."""
        count = 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for op_id, first, end in self.ops:
                for i in range(first, end):
                    parent = self.parents[i] if self.parents[i] >= first else "null"
                    fh.write(
                        f'{{"op":{op_id},"id":{i},"parent":{parent},'
                        f'"name":"{self.names[self.name_ids[i]]}",'
                        f'"start":{self.starts[i]:.7f},"end":{self.ends[i]:.7f},'
                        f'"size":{self.sizes[i]},"error":{"true" if self.errors[i] else "false"}}}\n'
                    )
                    count += 1
        return count
