"""Acceptance suite: seven criteria, each a self-contained test that prints
one pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see
them inline).  Tolerances and runtime budgets are asserted, not advisory.

All acceptance is property- and oracle-based at desk scale: the reference
values are exact rationals (Lebesgue and Laurent weights), independent
quadrature oracles (Heine averages, binomial moment series, moment
rebuilds) and internal cross-route agreement.
"""

from __future__ import annotations

import json
import time

import numpy as np

from circlebops.assoc import AssocSystem, verify_assoc_identities
from circlebops.bops import build_system, verify_scalar_identities
from circlebops.cli import main
from circlebops.coeffs import (
    dpainleve_ratio_check,
    spectral_derivative_check,
    verify_bilinear,
    verify_expansion_forms,
    verify_linear_relations,
)
from circlebops.deform import (
    LinearTrajectory,
    flow_convergence,
    flow_invariants,
    integrate_flow,
    moment_rebuild,
    state_gap,
)
from circlebops.lax import rhp_jump_check, verify_matrix_system
from circlebops.moments import (
    closed_form_table,
    compute_moments,
    heine_oracle,
    table_from_moments,
    toeplitz_det,
)
from circlebops.numerics import circle_samples
from circlebops.pipeline import build_bundle
from circlebops.weight import SemiClassicalWeight, Singularity

def announce(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def strict_weight():
    return SemiClassicalWeight(
        (Singularity(0, -1), Singularity(2, 0.5), Singularity(3, 1.0 / 3.0))
    )


def laurent_callable(z):
    z = np.asarray(z, dtype=complex)
    return z**-1.0 * (1.0 + z) ** 2


def test_criterion_1_lebesgue_suite():
    start = time.perf_counter()
    table = table_from_moments([(0, 1.0)], window=12)
    sys = build_system(table, 8)
    asys = AssocSystem(sys, table)

    worst = 0.0
    for n in range(9):
        lev = sys.level(n)
        expect = np.zeros(n + 1, dtype=complex)
        expect[n] = 1.0
        worst = max(worst, float(np.max(np.abs(lev.c - expect))), abs(lev.kappa - 1.0))
        if n >= 1:
            worst = max(worst, abs(lev.r), abs(lev.rbar))
    z_in, z_out = 0.37 + 0.19j, 2.4 - 1.1j
    for n in range(6):
        worst = max(worst, abs(asys.eps(n, z_in) - 2.0 * z_in**n))
        worst = max(worst, abs(asys.eps(n, z_out)))
        worst = max(worst, abs(asys.epsstar(n, z_in)))
        worst = max(worst, abs(asys.epsstar(n, z_out) - 2.0))

    rng = np.random.default_rng(17)
    pairs = list(zip(circle_samples(rng, 20, 0.4), circle_samples(rng, 20, 2.5)))
    scalar = verify_scalar_identities(sys, pairs, tol=1e-12)
    assoc = verify_assoc_identities(asys, range(0, 7), [z for z, _ in pairs], tol=1e-12)
    worst = max(worst, scalar.max_residual, assoc.max_residual)

    elapsed = time.perf_counter() - start
    announce(
        "criterion 1: Lebesgue suite (phi_n = z^n, eps_n, Casoratians, CD <= 1e-12)",
        worst <= 1e-12 and elapsed < 1.0,
        f"max residual {worst:.3e}, runtime {elapsed:.2f}s",
    )


def test_criterion_2_laurent_oracle_suite():
    start = time.perf_counter()
    table = closed_form_table({-1: 1.0, 0: 2.0, 1: 1.0}, window=12)
    sys = build_system(table, 8)
    worst = 0.0
    for n in range(9):
        worst = max(worst, abs(toeplitz_det(table, 0, n) - (n + 1)))
        worst = max(worst, abs(toeplitz_det(table, 1, n) - 1.0))
        worst = max(worst, abs(toeplitz_det(table, -1, n) - 1.0))
        lev = sys.level(n)
        worst = max(worst, abs(lev.r - (-1.0) ** n / (n + 1)))
        worst = max(worst, abs(lev.rbar - (-1.0) ** n / (n + 1)))
        worst = max(worst, abs(lev.kappa**2 - (n + 1.0) / (n + 2.0)))
    elapsed = time.perf_counter() - start
    announce(
        "criterion 2: Laurent oracle suite (I^eps_n, r_n, kappa_n^2 <= 1e-10)",
        worst <= 1e-10 and elapsed < 1.0,
        f"max residual {worst:.3e}, runtime {elapsed:.2f}s",
    )


def test_criterion_3_heine_identity():
    start = time.perf_counter()
    weight = strict_weight()
    table_l = compute_moments(laurent_callable, 6)
    table_s = compute_moments(weight, 6)
    worst = 0.0
    for wfun, table in ((laurent_callable, table_l), (lambda z: weight(z), table_s)):
        for n in (2, 3):
            oracle = heine_oracle(wfun, n)
            det = toeplitz_det(table, 0, n)
            worst = max(worst, abs(oracle - det))
    elapsed = time.perf_counter() - start
    announce(
        "criterion 3: Heine identity (n-fold average vs LU determinant <= 1e-6)",
        worst <= 1e-6 and elapsed < 30.0,
        f"max residual {worst:.3e}, runtime {elapsed:.2f}s",
    )


def test_criterion_4_strict_semiclassical_suite():
    start = time.perf_counter()
    weight = strict_weight()
    bundle = build_bundle(weight, 7, quad_ns=range(6), recover_u_poly=True)
    rng = np.random.default_rng(9)
    samples = list(circle_samples(rng, 10, 0.45, avoid=list(weight.locations), min_distance=0.1))

    reports = [
        verify_linear_relations(bundle.quads, bundle.vw, bundle.sys, samples),
        verify_bilinear(
            bundle.quads, bundle.vw, bundle.sys, bundle.asys, weight,
            u_poly=bundle.u_poly, ns=range(5),
        ),
        verify_expansion_forms(bundle.quads, bundle.sys, bundle.vw, weight, [1, 2, 3]),
        spectral_derivative_check(
            {n: bundle.quads[n] for n in range(5)}, bundle.vw, bundle.sys,
            bundle.asys, samples, weight=weight,
        ),
    ]
    for n in range(1, 5):
        reports.append(
            verify_matrix_system(
                bundle.sys, bundle.asys, bundle.quads, bundle.vw, weight, n,
                [0.4 + 0.2j, -0.3 + 0.35j, 0.5 - 0.1j],
            )
        )
    for n in range(4):
        reports.append(dpainleve_ratio_check(bundle.quads, bundle.vw, n, 2.0, 3.0))

    worst_exact = 0.0
    count = 0
    for rep in reports:
        for entry in rep.entries:
            count += 1
            worst_exact = max(worst_exact, entry.residual)
    elapsed = time.perf_counter() - start
    announce(
        "criterion 4: strict semi-classical identity web (exact <= 1e-6)",
        worst_exact <= 1e-6 and elapsed < 20.0,
        f"{count} identities, exact {worst_exact:.3e}, runtime {elapsed:.2f}s",
    )


def test_criterion_5_riemann_hilbert_suite():
    start = time.perf_counter()
    weight = strict_weight()
    thetas = np.linspace(0.05, 2.0 * np.pi, 24)

    table_l = closed_form_table({-1: 1.0, 0: 2.0, 1: 1.0}, window=12)
    sys_l = build_system(table_l, 6)
    asys_l = AssocSystem(sys_l, table_l)
    bundle_s = build_bundle(weight, 6)

    worst_value = 0.0
    worst_order = 0.0
    for sys, asys, wfun, wt in (
        (sys_l, asys_l, laurent_callable, None),
        (bundle_s.sys, bundle_s.asys, lambda z: weight(z), weight),
    ):
        for n in (1, 2, 3):
            rep = rhp_jump_check(sys, asys, wfun, n, thetas, weight=wt)
            for entry in rep.entries:
                if entry.name.startswith("rhp_order"):
                    worst_order = max(worst_order, entry.residual)
                else:
                    worst_value = max(worst_value, entry.residual)
    elapsed = time.perf_counter() - start
    announce(
        "criterion 5: Riemann-Hilbert suite (jump/det <= 1e-5, order fits +-0.01)",
        worst_value <= 1e-5 and worst_order <= 0.01 and elapsed < 10.0,
        f"jump/det {worst_value:.3e}, order gap {worst_order:.3e}, runtime {elapsed:.2f}s",
    )


def test_criterion_6_deformation_suite():
    start = time.perf_counter()
    weight = strict_weight()
    traj = LinearTrajectory(weight, moving=1, target=2.1, t0=0.0, t1=0.1)

    worst_gap = 0.0
    worst_trace = 0.0
    worst_det = 0.0
    worst_mono = 0.0
    ratios = []
    above_roundoff = True
    for n in (1, 2, 3):
        initial, _ = moment_rebuild(traj, 0.0, n)
        states = integrate_flow(initial, traj, (0.0, 0.1), 64)
        target, _ = moment_rebuild(traj, 0.1, n)
        worst_gap = max(worst_gap, state_gap(states[-1], target))
        inv = flow_invariants(states, weight.exponents)
        worst_trace = max(worst_trace, inv["trace_drift"])
        worst_det = max(worst_det, inv["det_max"])
        worst_mono = max(worst_mono, inv["monodromy_gap"])
        # a 64-step flow's own error is round-off (1e-14 at n=1); the check
        # measures the order on the coarser grid where its fine error is not
        conv = flow_convergence(states, traj)
        ratios.append(conv["ratio"])
        roundoff = 2.0**-52 * float(np.max(np.abs(states[-1].pack())))
        above_roundoff = above_roundoff and conv["fine"] >= 100.0 * roundoff
    ratio_ok = all(12.0 <= r <= 20.0 for r in ratios)
    elapsed = time.perf_counter() - start
    announce(
        "criterion 6: Schlesinger flow (endpoint <= 1e-5, order-4, tr/det monodromy <= 1e-8)",
        worst_gap <= 1e-5
        and ratio_ok
        and above_roundoff
        and worst_trace <= 1e-8
        and worst_det <= 1e-7
        and worst_mono <= 1e-8
        and elapsed < 60.0,
        f"endpoint {worst_gap:.3e}, ratios {[f'{r:.1f}' for r in ratios]} "
        f"(fine errors above round-off: {above_roundoff}), "
        f"trace {worst_trace:.3e}, det {worst_det:.3e}, tr/det monodromy {worst_mono:.3e}, "
        f"runtime {elapsed:.2f}s",
    )


def test_criterion_7_determinism(tmp_path):
    weight_path = tmp_path / "w.json"
    weight_path.write_text(
        json.dumps(
            {
                "singularities": [
                    {"z": [0, 0], "rho": [-1, 0]},
                    {"z": [2, 0], "rho": [0.5, 0]},
                    {"z": [3, 0], "rho": [1.0 / 3.0, 0]},
                ],
                "strict": True,
            }
        ),
        encoding="utf-8",
    )
    traj_path = tmp_path / "t.json"
    traj_path.write_text(
        json.dumps({"j": 2, "path": "linear", "to": [2.1, 0], "t0": 0.0, "t1": 0.1}),
        encoding="utf-8",
    )
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main(
            ["verify-all", "--weight", str(weight_path), "--n", "2", "--seed", "11",
             "--out", str(out)]
        )
        assert code == 0
        code = main(
            ["deform", "--weight", str(weight_path), "--trajectory", str(traj_path),
             "--n", "2", "--steps", "32", "--seed", "11", "--out", str(out)]
        )
        assert code == 0
        outputs.append(out)
    identical = True
    names = [p.name for p in outputs[0].iterdir() if p.suffix in (".json", ".csv")]
    for name in sorted(names):
        if (outputs[0] / name).read_bytes() != (outputs[1] / name).read_bytes():
            identical = False
    announce(
        "criterion 7: determinism (fixed seed reproduces report bytes)",
        identical and len(names) >= 8,
        f"{len(names)} artifacts compared",
    )
