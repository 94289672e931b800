"""Tests of the benchmark itself: short smoke runs of every workload, metric
names against BENCHMARK.json, the input generator, and the span tracer's
self-time accounting.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

from hostspeed import REF_S, WINDOW_S, HostSpeed, kernel_s  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from worker import tail  # noqa: E402
from workloads import FLAGSHIP, WHY, generate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout


def final_record(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == WHY


@pytest.mark.parametrize("workload", sorted(WHY))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    rc, out = run_bench(workload, trace=0)
    rec = final_record(out)
    assert rc == 0, out
    assert rec["correct"] is True and rec["failed"] == 0 and rec["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in rec["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in rec["metrics"].values())
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and unit in line for line in out.splitlines())


def test_traced_run_prints_every_per_layer_metric():
    rc, out = run_bench("build_sweep", trace=1)
    rec = final_record(out)
    assert rc == 0, out
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in rec["metrics"].items()} == expected
    assert rec["metrics"]["bops.calls"]["value"] > 0
    assert rec["metrics"]["bops.build_system_s.n32"]["value"] > 0
    assert (ROOT / ".perfbench_work" / "trace-build_sweep.jsonl.gz").is_file()


def test_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    rc, out = run_bench("build_sweep", trace=0, cwd=tmp_path)
    assert rc != 0
    assert '"correct"' not in out


@pytest.mark.parametrize("workload", sorted(WHY))
def test_inputs_follow_the_seed(workload, tmp_path):
    plans = {}
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        plan = generate(workload, seed, tmp_path / name)
        assert len(plan["ops"]) % plan["cycle"] == 0
        plans[name] = json.dumps(plan["ops"]).replace(str(tmp_path / name), "")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files)
    assert plans["a"] == plans["b"]
    raw = "raw_moments.json"
    assert (tmp_path / "a" / raw).read_bytes() != (tmp_path / "c" / raw).read_bytes()
    if workload != "deform_flow":  # deform ops differ only inside the trajectory files
        assert plans["a"] != plans["c"]


def test_deform_moves_half_upward_in_every_cycle(tmp_path):
    plan = generate("deform_flow", 9, tmp_path)
    ups = []
    for argv in plan["ops"]:
        traj = json.loads(Path(argv[argv.index("--trajectory") + 1]).read_text())
        move = complex(*traj["to"]) - complex(*traj["from"])
        assert 0.02 <= abs(move) <= 0.1 and traj["j"] in (2, 3)
        ups.append((traj["j"], move.imag > 0))
    for k in range(0, len(ups), plan["cycle"]):
        assert sorted(ups[k : k + plan["cycle"]]) == [(2, False), (2, True), (3, False), (3, True)]


def test_tail_keeps_ten_samples_beyond():
    for n in (11, 12, 30, 57, 200):
        value, p = tail([float(x) for x in range(n)])
        assert n - (value + 1) >= 10 and 0 <= p < 100
        if p < 99:
            assert n - n * (p + 1) / 100 < 10
    assert tail([3.0, 1.0])[1] == 0


def test_rescale_by_the_kernel_timings_near_the_measurement():
    host = HostSpeed()
    host.samples = [(0.0, 9 * REF_S), (10.0, REF_S), (11.0, 3 * REF_S), (20.0, 9 * REF_S)]
    assert host.rescale(0.5, 10.0, 11.0) == pytest.approx(0.25)
    assert host.rescale(0.5, 10.0 + WINDOW_S, 10.0 + WINDOW_S) == pytest.approx(0.25)
    assert host.rescale(0.5, 19.0, 19.9) == pytest.approx(0.5 / 9)
    assert 0.0 < kernel_s() < 100 * REF_S


def test_layer_self_times_add_up_to_the_op_wall_time(tmp_path):
    from circlebops import cli, numerics

    weight = tmp_path / "w.json"
    weight.write_text(json.dumps(FLAGSHIP))
    argv = ["build", "--weight", str(weight), "--n", "16"]
    original_build, original_polyval = cli.HANDLERS["build"], numerics.polyval

    def op(out, tracer=None):
        if tracer is not None:
            tracer.install()
            tracer.begin_op(0)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + ["--out", str(tmp_path / out)]) == 0
        wall = time.perf_counter() - t0
        if tracer is not None:
            span_range = tracer.end_op()
            tracer.uninstall()
            return wall, tracer.op_summary(*span_range)
        return wall, None

    op("warm")
    untraced, _ = op("plain")
    tracer = Tracer()
    traced, summary = op("traced", tracer)

    assert cli.HANDLERS["build"] is original_build and numerics.polyval is original_polyval
    assert set(summary["layer_calls"]) <= set(LAYERS)
    assert summary["calls"]["cli.main"] == 1 and summary["calls"]["bops.build_system"] == 1
    total_self = sum(summary["layer_self_s"].values())
    assert total_self == pytest.approx(summary["root_s"], rel=1e-9)
    assert 0.0 <= traced - total_self <= max(traced - untraced, 0.0) + 1e-3
