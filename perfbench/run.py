"""Benchmark of the circlebops CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload verify_strict --seed 0 --seconds 25 --trace 0

Workloads (see ``workloads.py`` and BENCHMARK.json): ``verify_strict``,
``deform_flow`` and ``build_sweep``.  Each is one client in one child
process with BLAS pinned to one thread, calling ``circlebops.cli.main`` in a
closed loop on inputs generated from ``--seed``.

``--trace 0`` prints the end-to-end metrics; ``setup_s`` is the median time
of several fresh interpreters that import ``circlebops.cli`` and parse the
workload's inputs.  The op times are rescaled to a fixed host speed by a
reference kernel timed between the ops (``hostspeed.py``); the wall-time
median and the host's speed are printed beside them.  ``--trace 1`` prints
the per-layer metrics from a run in which every other cycle of ops is
traced; the spans go to
``.perfbench_work/trace-<workload>.jsonl.gz``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when an output check failed and 2 when the
benchmark could not run.  Generated inputs, op directories and the full
result record live under ``.perfbench_work/`` in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(BLAS_ENV)  # before numpy is imported, here and in every child

import numpy  # noqa: E402
from hostspeed import REF_S  # noqa: E402
from workloads import WHY, generate  # noqa: E402

HERE = Path(__file__).resolve().parent

SETUP_RUNS = 7
DEADLINE_S = 170.0


def measure_setup(plan: dict, env: dict[str, str]) -> list[float]:
    """Wall times from starting a fresh interpreter until it has imported
    circlebops.cli and parsed one op's inputs.  The probe reports when it is
    done on the system-wide monotonic clock, since waiting on a child with a
    timeout polls in steps of up to 50 ms.  One untimed run first writes the
    bytecode caches."""
    argv = [sys.executable, str(HERE / "setup_probe.py")]
    for path in plan["setup_inputs"]["weights"]:
        argv += ["--weight", path]
    for path in plan["setup_inputs"]["trajectories"]:
        argv += ["--trajectory", path]
    times = []
    for k in range(SETUP_RUNS + 1):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(argv, env=env, check=True, timeout=60, capture_output=True, text=True)
        if k:
            times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def machine_record(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": BLAS_ENV,
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="circlebops CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    began = time.perf_counter()

    root = Path.cwd()
    src = root / "src"
    if not (src / "circlebops" / "cli.py").is_file():
        print(f"error: no circlebops source tree at {src}", file=sys.stderr)
        return 2
    work = root / ".perfbench_work"
    run_dir = work / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    plan = generate(args.workload, args.seed, run_dir / "inputs")
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1) + "\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(src)}

    try:
        setup_wall = [] if args.trace else measure_setup(plan, env)
        result_path = run_dir / "worker.json"
        argv = [
            sys.executable,
            str(HERE / "worker.py"),
            "--plan", str(plan_path),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--result", str(result_path),
        ]
        if args.trace:
            argv += ["--trace-out", str(work / f"trace-{args.workload}.jsonl.gz")]
        remaining = DEADLINE_S - (time.perf_counter() - began)
        subprocess.run(argv, env=env, check=True, timeout=remaining, stdout=sys.stderr)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = json.loads(result_path.read_text(encoding="utf-8"))
    shutil.rmtree(run_dir, ignore_errors=True)

    metrics = result["metrics"]
    if setup_wall:
        metrics = {"setup_s": {"value": statistics.median(setup_wall), "unit": "s"}, **metrics}
        result["setup_wall_s"] = setup_wall
    result["metrics"] = metrics
    result["machine"] = machine_record(args.seed)
    result["workload"] = args.workload
    (work / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8"
    )

    print(
        f"{args.workload} seed {args.seed} trace {args.trace}: {result['attempted']} ops, "
        f"{result['failed']} failed, failed_share {result['failed_share']:.4f}"
    )
    for name, rec in metrics.items():
        note = ""
        if name == "op_tail_s":
            note = f"  (p{result['tail_percentile']} of {result['samples']} samples)"
        print(f"  {name:<36} {rec['value']:.6g} {rec['unit']}{note}")
    if "wall_s" in result:
        kernels = [k for _, k in result["kernel_samples"]]
        print(
            f"  op wall time median {statistics.median(result['wall_s']):.6g} s; "
            f"host speed {REF_S / statistics.fmean(kernels):.3f} of the reference"
        )
    print(f"  machine {json.dumps(result['machine'], sort_keys=True)}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    final = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
