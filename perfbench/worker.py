"""Workload process: one client running a plan's ops in a closed loop.

Each op is an in-process ``circlebops.cli.main(argv + ["--out", dir])`` call
into a fresh directory.  Only the call itself is timed; the output checks,
the garbage collection before each op and the directory clean-up are not.
The loop stops at the first whole cycle of the plan after ``--seconds``.
Between untraced ops it times the host-speed reference kernel, and the
end-to-end times are rescaled to the reference speed (see ``hostspeed.py``).

With ``--trace 1`` every other cycle runs under the span tracer and the
result holds the per-layer metrics; otherwise it holds the end-to-end
metrics (all but ``setup_s``, which the parent measures).  Start it with
``src`` on PYTHONPATH and BLAS pinned to one thread, as ``run.py`` does.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

from circlebops import cli
from circlebops.errors import CircleBopsError
from circlebops.pipeline import build_bundle
from hostspeed import HostSpeed
from tracing import LAYERS, Tracer
from workloads import BUILD_LEVELS

E2E_UNITS = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "pass_share": "share",
    "peak_rss_mb": "MB",
}
CEILING_TOP = 64


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    units.update(
        {
            "numerics.polyval_calls": "count",
            "numerics.polyval_points_per_call": "points/call",
            "numerics.central_diff_calls": "count",
            "assoc.eps_points": "count",
            "lax.rhp_points": "count",
            "deform.rhs_calls": "count",
            "deform.rebuilds": "count",
            "moments.toeplitz_dets": "count",
            "moments.quad_points": "count",
            "moments.grid_evals": "count",
            "moments.caratheodory_points": "count",
            "report.bytes_written": "B",
            "report.worst_ratio_passed": "ratio",
            "coeffs.quads_fitted": "count",
            "coeffs.max_fit_residual": "rel",
            "pipeline.bundles_built": "count",
            "bops.level_ceiling.flagship": "level",
            "bops.level_ceiling.raw": "level",
            "trace.overhead_ratio": "ratio",
        }
    )
    for n in BUILD_LEVELS:
        units[f"bops.build_system_s.n{n}"] = "s"
    return units


def tail(times: list[float]) -> tuple[float, int]:
    """The highest whole percentile p with at least ten samples above its
    nearest-rank value, and that value; p = 0 (the minimum) below 11 samples."""
    ordered = sorted(times)
    n = len(ordered)
    p = max(0, math.floor(100 * (n - 10) / n))
    rank = max(1, math.ceil(p * n / 100))
    return ordered[rank - 1], p


class OutputError(Exception):
    """An op's report files disagree with its exit code or the schema."""


def check_outputs(out: Path, rc: int) -> tuple[int, float]:
    """Check an op's report files; return (bytes written, worst residual/tol).

    Every JSON file must parse and carry ``"schema": "v1"``; the ``passed``
    flags must all be true when the op exited 0 and at least one must be
    false when it exited 1."""
    files = sorted(p for p in out.iterdir() if p.is_file())
    reports = [p for p in files if p.suffix == ".json"]
    if not reports:
        raise OutputError(f"{out.name}: no JSON report written")
    flags, worst = [], 0.0
    for path in reports:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise OutputError(f"{path.name}: {exc}") from exc
        if payload.get("schema") != "v1":
            raise OutputError(f"{path.name}: schema {payload.get('schema')!r}")
        if "passed" in payload:
            flags.append(bool(payload["passed"]))
        for entry in payload.get("entries", ()):
            if entry["tol"] > 0:
                worst = max(worst, entry["residual"] / entry["tol"])
    if rc == 0 and not all(flags):
        raise OutputError(f"{out.name}: exit 0 with a failed report")
    if rc == 1 and (not flags or all(flags)):
        raise OutputError(f"{out.name}: exit 1 but every report passed")
    return sum(p.stat().st_size for p in files), worst


def same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def level_ceiling(spec_path: str) -> int:
    """Highest N <= CEILING_TOP at which the bundle the CLI builds for ``--n N``
    exists, or 0.  Probed downwards, since success need not be monotone."""
    weight, table = cli.parse_weight_spec(spec_path)
    for n in range(CEILING_TOP, 0, -1):
        try:
            build_bundle(weight if weight is not None else table, n)
        except CircleBopsError:
            continue
        return n
    return 0


def run_op(argv: list[str], out: Path, problems: list[str]) -> tuple[int | None, float]:
    """Time one CLI call into ``out``; rc is None when it raised.  An op that
    exits 2 or raises is noted in ``problems`` and counted as failed."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv + ["--out", str(out)])
    except Exception:  # the loop goes on; the traceback is kept
        rc = None
        sink.write(traceback.format_exc())
    elapsed = time.perf_counter() - t0
    if rc not in (0, 1):
        problems.append(f"op {argv} exited {rc}: {sink.getvalue()[-2000:]}")
    return rc, elapsed


def run(plan: dict, seconds: float, trace: bool, work: Path, trace_out: Path | None) -> dict:
    ops, cycle = plan["ops"], plan["cycle"]
    tracer = Tracer() if trace else None
    problems: list[str] = []  # ops that exited 2 or raised
    wrong: list[str] = []  # output checks that failed

    def checked(out: Path, rc: int | None) -> tuple[int, float]:
        if rc not in (0, 1):
            return 0, 0.0
        try:
            return check_outputs(out, rc)
        except OutputError as exc:
            wrong.append(str(exc))
            return 0, 0.0

    warm = work / "warmup"
    rc0, _ = run_op(ops[0], warm, problems)
    checked(warm, rc0)

    times: list[float] = []  # wall times of the untraced ops
    spans: list[tuple[float, float]] = []  # their perf_counter start and end
    host = HostSpeed()  # reference kernel before each untraced op, and after the last
    traced_times: list[float] = []
    rcs: list[int | None] = []
    summaries: list[dict] = []
    worst_passed = 0.0
    start = time.perf_counter()
    i = 0
    first_cycles = cycle * (2 if tracer else 1)  # a traced run traces at least one cycle
    while i < first_cycles or i % cycle or time.perf_counter() - start < seconds:
        traced = tracer is not None and (i // cycle) % 2 == 1
        out = work / f"op{i:05d}"
        gc.collect()
        if tracer is None:
            host.sample()
        if traced:
            tracer.install()
            tracer.begin_op(i)
        began = time.perf_counter()
        rc, dt = run_op(ops[i % len(ops)], out, problems)
        if traced:
            first, end = tracer.end_op()
            tracer.uninstall()
        nbytes, worst = checked(out, rc)
        if rc == 0:
            worst_passed = max(worst_passed, worst)
        if traced:
            summary = tracer.op_summary(first, end)
            summary.update(range=(first, end), bytes=nbytes)
            summaries.append(summary)
            traced_times.append(dt)
        else:
            times.append(dt)
            spans.append((began, time.perf_counter()))
        rcs.append(rc)
        shutil.rmtree(out, ignore_errors=True)
        i += 1

    if tracer is None:
        host.sample()

    again = work / "repeat"
    rc1, _ = run_op(ops[0], again, problems)
    if rc1 != rc0 or not same_files(warm, again):
        wrong.append(f"repeating {ops[0]} changed the exit code or the report bytes")

    attempted = len(rcs)
    result = {
        "attempted": attempted,
        "failed": sum(rc not in (0, 1) for rc in rcs),
        "failed_share": sum(rc != 0 for rc in rcs) / attempted,
        "correct": not wrong,
        "problems": wrong + problems[:20],
    }
    if tracer is None:
        scaled = [host.rescale(t, *span) for t, span in zip(times, spans)]
        value, pct = tail(scaled)
        result["tail_percentile"] = pct
        result["samples"] = len(times)
        result["wall_s"] = times
        result["kernel_samples"] = host.samples
        # A plan cycle mixes ops of different sizes (build_sweep's levels), so
        # the median of single ops would jump between size clusters; the
        # median over cycles of the mean op time in each cycle does not.
        cycle_means = [statistics.fmean(scaled[k : k + cycle]) for k in range(0, len(scaled), cycle)]
        metrics = {
            "op_p50_s": statistics.median(cycle_means),
            "op_tail_s": value,
            "ops_per_s": len(scaled) / sum(scaled),
            "pass_share": sum(rc == 0 for rc in rcs) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
    else:
        metrics = layer_metrics(tracer, summaries, times, traced_times, worst_passed, plan)
        result["traced_ops"] = len(summaries)
        if trace_out is not None:
            result["spans_written"] = tracer.write_jsonl(trace_out)
        units = per_layer_units()
    result["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    return result


def layer_metrics(tracer, summaries, times, traced_times, worst_passed, plan) -> dict:
    def med(values) -> float:
        values = list(values)
        return float(statistics.median(values)) if values else 0.0

    def calls(name):
        return med(s["calls"].get(name, 0) for s in summaries)

    def size(*names):
        return med(sum(s["sizes"].get(n, 0) for n in names) for s in summaries)

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = med(s["layer_calls"].get(layer, 0) for s in summaries)
        m[f"{layer}.self_s"] = med(s["layer_self_s"].get(layer, 0.0) for s in summaries)
        m[f"{layer}.errors"] = med(s["layer_errors"].get(layer, 0) for s in summaries)
    m["numerics.polyval_calls"] = calls("numerics.polyval")
    m["numerics.polyval_points_per_call"] = med(
        s["sizes"].get("numerics.polyval", 0) / s["calls"]["numerics.polyval"]
        for s in summaries
        if s["calls"].get("numerics.polyval")
    )
    m["numerics.central_diff_calls"] = calls("numerics.central_diff")
    m["assoc.eps_points"] = size("assoc.AssocSystem.eps", "assoc.AssocSystem.epsstar")
    m["lax.rhp_points"] = size("lax.normalized_solution")
    m["deform.rhs_calls"] = calls("deform.schlesinger_rhs")
    m["deform.rebuilds"] = calls("deform.moment_rebuild")
    m["moments.toeplitz_dets"] = calls("moments.toeplitz_det")
    m["moments.caratheodory_points"] = size("moments.CaratheodoryEvaluator.__call__")
    m["pipeline.bundles_built"] = calls("pipeline.build_bundle")
    m["report.bytes_written"] = med(s["bytes"] for s in summaries)
    m["report.worst_ratio_passed"] = worst_passed

    build_s = {n: [] for n in BUILD_LEVELS}
    quad_points, grid_evals, fitted, fit_max = [], [], [], 0.0
    for s in summaries:
        first, end = s["range"]
        for _, dur, level, _ in tracer.spans_named("bops.build_system", first, end):
            if level in build_s:
                build_s[level].append(dur)
        quad_points.append(
            sum(tracer.results.get(i, 0.0) for i, *_ in tracer.spans_named("moments.compute_moments", first, end))
        )
        grid_evals.append(
            sum(
                n
                for name in ("weight.eval_weight", "weight.SemiClassicalWeight.__call__")
                for _, _, n, parent in tracer.spans_named(name, first, end)
                if parent == "moments.compute_moments"
            )
        )
        fits = [
            tracer.results[i]
            for i, *_ in tracer.spans_named("coeffs.compute_coeff_quad", first, end)
            if i in tracer.results
        ]
        fitted.append(len(fits))
        fit_max = max([fit_max, *fits])
    for n, durations in build_s.items():
        m[f"bops.build_system_s.n{n}"] = med(durations)
    m["moments.quad_points"] = med(quad_points)
    m["moments.grid_evals"] = med(grid_evals)
    m["coeffs.quads_fitted"] = med(fitted)
    m["coeffs.max_fit_residual"] = fit_max
    m["trace.overhead_ratio"] = med(traced_times) / med(times) if times else 0.0
    m["bops.level_ceiling.flagship"] = float(level_ceiling(plan["flagship"]))
    m["bops.level_ceiling.raw"] = float(level_ceiling(plan["raw"]))
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    plan_path = Path(args.plan)
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    work = plan_path.parent / "ops"
    work.mkdir(exist_ok=True)
    result = run(
        plan,
        args.seconds,
        bool(args.trace),
        work,
        Path(args.trace_out) if args.trace_out else None,
    )
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
