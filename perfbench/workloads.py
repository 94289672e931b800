"""Seeded input generator for the benchmark workloads.

Every workload is a closed loop of in-process ``circlebops.cli.main(argv)``
calls.  This module turns ``(workload, seed)`` into the files the program
reads (weight specs, trajectories, raw moment tables) and a plan: the list
of per-op argv lists, without ``--out``, plus the cycle length the timed
loop runs in whole multiples of.  The same seed always gives the same files
and the same plan.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# z^-1 (z-2)^(1/2) (z-3)^(1/3): the strict semi-classical weight the
# acceptance suite and the CLI examples use.
FLAGSHIP = {
    "singularities": [
        {"z": [0, 0], "rho": [-1, 0]},
        {"z": [2, 0], "rho": [0.5, 0]},
        {"z": [3, 0], "rho": [0.3333333333333333, 0]},
    ],
    "strict": True,
}

WHY = {
    "verify_strict": "verify-all --n 4 on the flagship weight, per-op seeds: "
    "the evaluation path (lax, assoc, numerics, coeffs)",
    "deform_flow": "deform --n 3 --steps 256 along seeded linear moves of z_2 or z_3: "
    "the Schlesinger right-hand side in deform",
    "build_sweep": "build --n 8/16/24/32 on the flagship spec and a seeded raw table: "
    "level scaling of bops, moments and report",
}

# Ops per plan; the timed loop cycles through the plan if it runs longer.
PLAN_OPS = {"verify_strict": 64, "deform_flow": 64, "build_sweep": 256}
BUILD_LEVELS = (8, 16, 24, 32)
RAW_DEGREE = 6
RAW_WINDOW = 40


def _op_seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 10_000, size=count)]


def raw_moments(rng: np.random.Generator) -> list[list[float]]:
    """Moments of |p(e^{it})|^2 + 1 for p of degree RAW_DEGREE with a random
    unit coefficient vector: w_k = sum_a p_{a+k} conj(p_a) + [k == 0].  The
    weight lies in [1, RAW_DEGREE + 2] on the circle, so the system exists
    at every level.  Unnormalized normal coefficients give weights with a
    range of 100 and more, and about 4% of those tables already hit the
    false ExistenceError at N = 31-32.  The sweep keeps that defect out of
    the timed ops, as it does for the flagship at N >= 38; the traced run
    measures it as ``bops.level_ceiling.flagship``.  Entries out to
    |k| <= RAW_WINDOW are written, zeros included, so the raw ceiling is at
    most RAW_WINDOW - 1."""
    p = rng.normal(size=RAW_DEGREE + 1) + 1j * rng.normal(size=RAW_DEGREE + 1)
    p /= np.linalg.norm(p)
    rows = []
    for k in range(-RAW_WINDOW, RAW_WINDOW + 1):
        if abs(k) <= RAW_DEGREE:
            a = np.arange(max(0, -k), RAW_DEGREE + 1 - max(0, k))
            w = complex(np.sum(p[a + k] * np.conj(p[a])))
        else:
            w = 0j
        if k == 0:
            w += 1.0
        rows.append([k, w.real, w.imag])
    return rows


def trajectory(i: int, rng: np.random.Generator, flips: tuple[int, int]) -> dict:
    """Linear move of z_2 or z_3 over t in [0, 0.1] by 0.02-0.1 in a uniformly
    random direction.  Within every 4-op cycle each of j = 2, 3 moves once into
    the upper half-plane and once into the lower one (which op of the pair goes
    up is drawn from the seed), so the share of upward moves is exactly one
    half per cycle and does not vary with the seed."""
    up = (i + flips[0]) % 2 == 0
    j = 2 + (i // 2 + flips[1]) % 2
    angle = math.pi * (float(rng.random()) + (0.0 if up else 1.0))
    dist = float(rng.uniform(0.02, 0.1))
    z0 = complex(*FLAGSHIP["singularities"][j - 1]["z"])
    to = z0 + dist * complex(math.cos(angle), math.sin(angle))
    return {
        "j": j,
        "path": "linear",
        "from": [z0.real, z0.imag],
        "to": [to.real, to.imag],
        "t0": 0.0,
        "t1": 0.1,
    }


def _write(path: Path, payload) -> str:
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return str(path)


def generate(workload: str, seed: int, inputs: Path) -> dict:
    """Write the workload's input files under ``inputs`` and return its plan:
    ``{"workload", "seed", "cycle", "ops": [argv, ...], "setup_inputs",
    "flagship", "raw"}``.  ``setup_inputs`` names the files one CLI
    invocation parses, for the set-up probe; ``flagship`` and ``raw`` are the
    two specs whose level ceilings the traced run probes."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")
    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(WHY).index(workload)])
    flag = _write(inputs / "flagship.json", FLAGSHIP)
    raw = _write(inputs / "raw_moments.json", {"moments": raw_moments(rng)})
    count = PLAN_OPS[workload]
    ops: list[list[str]] = []
    if workload == "verify_strict":
        cycle = 1
        for s in _op_seeds(rng, count):
            ops.append(["verify-all", "--weight", flag, "--n", "4", "--seed", str(s)])
        setup = {"weights": [flag], "trajectories": []}
    elif workload == "deform_flow":
        cycle = 4
        flips = (int(rng.integers(2)), int(rng.integers(2)))
        for i in range(count):
            traj = _write(inputs / f"traj_{i:03d}.json", trajectory(i, rng, flips))
            ops.append(
                ["deform", "--weight", flag, "--trajectory", traj, "--n", "3", "--steps", "256"]
            )
        setup = {"weights": [flag], "trajectories": [ops[0][4]]}
    else:
        specs = (flag, raw)
        cycle = len(BUILD_LEVELS) * len(specs)
        seeds = _op_seeds(rng, count)
        for i in range(count):
            n = BUILD_LEVELS[(i % cycle) // len(specs)]
            spec = specs[i % len(specs)]
            ops.append(["build", "--weight", spec, "--n", str(n), "--seed", str(seeds[i])])
        setup = {"weights": [flag, raw], "trajectories": []}
    return {
        "workload": workload,
        "seed": seed,
        "cycle": cycle,
        "ops": ops,
        "setup_inputs": setup,
        "flagship": flag,
        "raw": raw,
    }
