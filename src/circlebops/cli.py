"""Command-line front end.

Subcommands: moments, build, assoc, coeffs, verify-all, rhp-check, deform,
heine-check.  The flag form ``--cmd NAME`` is accepted as an alias for the
subcommand.  Exit codes: 0 = all identity suites pass, 1 = an identity
failed (the report names it), 2 = structural error (validation, existence,
quadrature, malformed input).

All randomness is drawn from --seed, and reports carry no timestamps, so a
fixed configuration produces byte-identical report files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assoc import verify_assoc_identities, verify_expansions
from .bops import build_system, verify_scalar_identities
from .coeffs import (
    dpainleve_ratio_check,
    spectral_derivative_check,
    verify_bilinear,
    verify_expansion_forms,
    verify_linear_relations,
)
from .config import DEFAULT_QUAD, DEFAULT_TOL
from .deform import (
    LinearTrajectory,
    deformation_rates,
    flow_convergence,
    flow_invariants,
    integrate_flow,
    isomonodromy_check,
    moment_rebuild,
    state_gap,
)
from .errors import CircleBopsError
from .lax import rhp_jump_check, verify_matrix_system
from .moments import heine_oracle, table_from_moments, toeplitz_det, weight_from_table
from .numerics import circle_samples
from .pipeline import build_bundle, moment_table
from .report import SCHEMA, IdentityReport, dump_json
from .weight import is_strict_semiclassical, validate_weight, weight_from_json

COMMANDS = (
    "moments",
    "build",
    "assoc",
    "coeffs",
    "verify-all",
    "rhp-check",
    "deform",
    "heine-check",
)


@dataclass
class RunConfig:
    weight_path: str
    command: str
    n: int = 4
    seed: int = 7
    tol_scale: float = 1.0
    out_dir: str = "."
    steps: int = 64
    quad_points: int = 256
    trajectory_path: str | None = None

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def quad(self):
        from dataclasses import replace

        return replace(DEFAULT_QUAD, start_points=self.quad_points)

    def tol(self):
        return DEFAULT_TOL.scaled(self.tol_scale)


def parse_weight_spec(path):
    """Accept a singularity-list weight or a raw-moments table.  Returns
    (weight | None, table | None); exactly one is set.  Having both forms in
    one file is ambiguous and rejected."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    has_sing = "singularities" in payload
    has_moments = "moments" in payload
    if has_sing and has_moments:
        raise CircleBopsError(
            "ambiguous weight spec: both 'singularities' and 'moments' present"
        )
    if has_moments:
        pairs = [(int(k), complex(re, im)) for k, re, im in payload["moments"]]
        return None, table_from_moments(pairs)
    if has_sing:
        weight = weight_from_json(payload)
        validate_weight(weight, strict=False)
        return weight, None
    raise CircleBopsError("weight spec needs 'singularities' or 'moments'")


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _sample_pairs(cfg: RunConfig, count: int = 20):
    rng = cfg.rng()
    pts_in = circle_samples(rng, count, 0.45)
    pts_out = circle_samples(rng, count, 2.2)
    return list(zip(pts_in, pts_out))


def _sample_points(cfg: RunConfig, weight, count: int = 12):
    rng = cfg.rng()
    avoid = list(weight.locations) if weight is not None else []
    inner = circle_samples(rng, count // 2, 0.45, avoid=avoid, min_distance=0.1)
    outer = circle_samples(rng, count // 2, 2.2, avoid=avoid, min_distance=0.1)
    return np.concatenate([inner, outer])


def _bundle(cfg: RunConfig, weight, table, strict: bool = False):
    """The one bundle of a run, built with the run's quadrature and
    tolerances: levels 0..n+2, or for a strict weight levels 0..n+3 with the
    quadruples 0..n+1 and U (what coeffs and the matrix suite read)."""
    if not strict:
        source = weight if weight is not None else table
        return build_bundle(source, cfg.n + 2, quad=cfg.quad(), tol=cfg.tol())
    if weight is None or not is_strict_semiclassical(weight):
        raise CircleBopsError("this pipeline needs a strict regular semi-classical weight")
    return build_bundle(
        weight, cfg.n + 3, quad_ns=range(cfg.n + 2), quad=cfg.quad(), tol=cfg.tol(),
        recover_u_poly=True,
    )


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns a list of IdentityReports
# ---------------------------------------------------------------------------

def cmd_moments(cfg: RunConfig, weight, table, out: Path):
    tbl = moment_table(weight if weight is not None else table, cfg.n + 1, cfg.quad())
    _write_csv(
        out / "moments.csv",
        ["k", "re", "im"],
        [
            [k, tbl.moment(k).real, tbl.moment(k).imag]
            for k in range(-tbl.window, tbl.window + 1)
        ],
    )
    rows = []
    for eps in (-1, 0, 1):
        for n in range(cfg.n + 1):
            value = toeplitz_det(tbl, eps, n)
            rows.append([eps, n, value.real, value.imag])
    _write_csv(out / "determinants.csv", ["epsilon", "n", "re", "im"], rows)
    return []


def cmd_build(cfg: RunConfig, weight, table, out: Path):
    """Levels 0..n on ``table``, or on the weight's moments without one."""
    if table is None:
        table = moment_table(weight, cfg.n, cfg.quad())
    system = build_system(table, cfg.n, tol=cfg.tol())
    if weight is not None:
        dump_json(
            validate_weight(weight, strict=False).to_dict(),
            out / "validation_report.json",
        )
    report = verify_scalar_identities(system, _sample_pairs(cfg), tol=cfg.tol().identity)
    payload = {
        "schema": SCHEMA,
        "method": "both",
        "cross_check_deviation": system.cross_check_deviation,
        "existence_log": system.existence_log,
        "levels": [
            {
                "n": lev.n,
                "kappa": [lev.kappa.real, lev.kappa.imag],
                "r": [lev.r.real, lev.r.imag],
                "rbar": [lev.rbar.real, lev.rbar.imag],
                "c": [[c.real, c.imag] for c in lev.c],
                "cbar": [[c.real, c.imag] for c in lev.cbar],
            }
            for lev in system.levels
        ],
    }
    dump_json(payload, out / "system.json")
    dump_json(report.to_dict(), out / "identity_report.json")
    return [report]


def cmd_assoc(cfg: RunConfig, weight, bundle, out: Path):
    ns = range(min(cfg.n, bundle.sys.nmax - 1))
    samples = _sample_points(cfg, weight)
    report = verify_assoc_identities(bundle.asys, ns, samples, tol=cfg.tol().identity)
    exp = IdentityReport("associated-function expansions")
    for n in range(min(cfg.n, bundle.sys.nmax - 2) + 1):
        exp.extend(verify_expansions(bundle.asys, n, tol=1e-8 * cfg.tol_scale))
    rows = []
    for n in range(cfg.n + 1):
        for k, c in enumerate(bundle.asys.psi(n)):
            rows.append([n, k, c.real, c.imag])
    _write_csv(out / "psi_coefficients.csv", ["n", "k", "re", "im"], rows)
    rows = []
    for n in range(cfg.n + 1):
        _, _, eps, epsstar = bundle.asys.evaluate(n, samples)
        for z, e, es in zip(samples, eps, epsstar):
            rows.append([n, z.real, z.imag, e.real, e.imag, es.real, es.imag])
    _write_csv(
        out / "eps_samples.csv",
        ["n", "z_re", "z_im", "eps_re", "eps_im", "epsstar_re", "epsstar_im"],
        rows,
    )
    dump_json(report.to_dict(), out / "assoc_report.json")
    dump_json(exp.to_dict(), out / "assoc_expansions.json")
    return [report, exp]


def cmd_coeffs(cfg: RunConfig, weight, bundle, out: Path):
    tol = cfg.tol_scale
    samples = _sample_points(cfg, weight)
    ns = range(cfg.n + 1)
    reports = [
        verify_expansion_forms(
            bundle.quads, bundle.sys, bundle.vw, weight, [n for n in ns if n >= 1], tol=1e-6 * tol
        ),
        verify_linear_relations(bundle.quads, bundle.vw, bundle.sys, samples, tol=1e-7 * tol),
        # the bilinear rows keep the 1e-6 budget the acceptance suite gives
        # exact identities; they set the level ceiling of `coeffs` (see the
        # coeffs module docstring)
        verify_bilinear(
            bundle.quads, bundle.vw, bundle.sys, bundle.asys, weight,
            u_poly=bundle.u_poly, ns=ns, tol=1e-6 * tol,
        ),
        spectral_derivative_check(
            {n: bundle.quads[n] for n in ns}, bundle.vw, bundle.sys, bundle.asys,
            samples, weight=weight, tol=DEFAULT_TOL.identity * tol,
        ),
    ]
    nonzero = [s.location for s in weight.singularities if s.location != 0]
    if len(nonzero) >= 2:
        for n in range(cfg.n):
            reports.append(
                dpainleve_ratio_check(
                    bundle.quads, bundle.vw, n, nonzero[0], nonzero[1], tol=1e-7 * tol
                )
            )
    coeff_payload = {
        "schema": SCHEMA,
        "quads": {
            str(n): {
                name: [[c.real, c.imag] for c in getattr(q, name)]
                for name in ("theta", "thetastar", "omega", "omegastar")
            }
            for n, q in sorted(bundle.quads.items())
        },
        "fit_residuals": {
            str(n): q.fit_residuals for n, q in sorted(bundle.quads.items())
        },
        "seed": cfg.seed,
    }
    dump_json(coeff_payload, out / "coeff_functions.json")
    merged = IdentityReport("coefficient-function identity web")
    for r in reports:
        merged.extend(r)
    dump_json(merged.to_dict(), out / "coeffs_report.json")
    return [merged]


def cmd_rhp(cfg: RunConfig, weight, bundle, out: Path):
    thetas = np.linspace(0.05, 2.0 * np.pi, 24)
    merged = IdentityReport("Riemann-Hilbert suite")
    for n in range(1, min(cfg.n, bundle.sys.nmax - 2) + 1):
        merged.extend(
            rhp_jump_check(
                bundle.sys, bundle.asys, bundle.wfun(), n, thetas,
                weight=weight, tol=1e-5 * cfg.tol_scale,
            )
        )
    dump_json(merged.to_dict(), out / "rhp_report.json")
    return [merged]


def parse_trajectory(path, weight) -> LinearTrajectory:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("path", "linear") != "linear":
        raise CircleBopsError(f"unsupported trajectory path {payload.get('path')!r}")
    j = int(payload["j"]) - 1  # singularities are 1-indexed in the JSON
    target = complex(*payload["to"])
    t0 = float(payload.get("t0", 0.0))
    t1 = float(payload.get("t1", 1.0))
    if "from" in payload:
        start = complex(*payload["from"])
        if start != weight.singularities[j].location:
            locs = list(weight.locations)
            locs[j] = start
            weight = weight.with_locations(locs)
    return LinearTrajectory(weight, moving=j, target=target, t0=t0, t1=t1)


def cmd_deform(cfg: RunConfig, weight, table, out: Path):
    if weight is None or not is_strict_semiclassical(weight):
        raise CircleBopsError("deformation flows need a strict semi-classical weight")
    if cfg.trajectory_path is None:
        raise CircleBopsError("deform needs --trajectory PATH")
    traj = parse_trajectory(cfg.trajectory_path, weight)
    n = cfg.n
    report = IdentityReport(f"Schlesinger flow at n={n}")

    initial, bundle0 = moment_rebuild(traj, traj.t0, n, cfg.quad(), cfg.tol())
    states = integrate_flow(initial, traj, (traj.t0, traj.t1), cfg.steps)
    final_rebuild, _ = moment_rebuild(traj, traj.t1, n, cfg.quad(), cfg.tol())
    gap = state_gap(states[-1], final_rebuild)
    report.add(
        "flow_vs_moment_rebuild",
        "the deformation derivatives are equivalent to the matrix equation",
        gap,
        1e-5 * cfg.tol_scale,
        n=n,
    )
    inv = flow_invariants(states)
    report.add("trace_conservation", "leads us to the Schlesinger equations", inv["trace_drift"], 1e-8 * cfg.tol_scale, n=n)
    report.add("rank_one_persistence", "we find that det A_nj = 0", inv["det_max"], 1e-7 * cfg.tol_scale, n=n)
    conv = flow_convergence(states, traj)
    report.add(
        "richardson_halving",
        "fixed-step integration with step-halving error estimate",
        conv["fine"],
        1e-7 * cfg.tol_scale,
        n=n,
    )
    # below 100 ulps of the largest endpoint entry the errors are round-off and
    # their ratio says nothing about the order
    conv["resolved"] = conv["fine"] >= 100 * 2.0**-52 * float(np.max(np.abs(states[-1].pack())))
    report.notes["richardson"] = conv

    mono = isomonodromy_check(states, traj, quad=cfg.quad())
    for rec in mono:
        if rec.asserted:
            report.add(
                "monodromy_constancy",
                "is constant with respect to the deformation variable",
                rec.drift,
                1e-5 * cfg.tol_scale,
                n=n,
                where=f"z_{rec.j + 1}",
            )
        else:
            report.notes[f"c_drift_best_effort_z{rec.j + 1}"] = rec.drift

    rates0 = deformation_rates(
        bundle0.sys, bundle0.asys, bundle0.quads, bundle0.vw, traj, n, traj.t0
    )
    report.add(
        "kappa_rate_route_agreement",
        "sums of the bilinear residues over the finite singular points",
        rates0.route_gap,
        1e-7 * cfg.tol_scale,
        n=n,
    )

    rows = []
    c_by_t = {
        rec.j: dict(zip(rec.ts, rec.c_series)) for rec in mono
    }
    for st in states:
        row = [st.t, st.kappa.real, st.kappa.imag, st.r.real, st.r.imag, st.rbar.real, st.rbar.imag]
        for aj in st.a:
            for entry in aj.ravel():
                row.extend([entry.real, entry.imag])
        for rec in mono:
            c = c_by_t[rec.j].get(st.t)
            row.extend(["" if c is None else c.real, "" if c is None else c.imag])
        rows.append(row)
    header = ["t", "kappa_re", "kappa_im", "r_re", "r_im", "rbar_re", "rbar_im"]
    for j in range(weight.m):
        for entry in ("11", "12", "21", "22"):
            header.extend([f"a{j + 1}_{entry}_re", f"a{j + 1}_{entry}_im"])
    for rec in mono:
        header.extend([f"c{rec.j + 1}_re", f"c{rec.j + 1}_im"])
    _write_csv(out / "flow.csv", header, rows)
    dump_json(report.to_dict(), out / "deform_report.json")
    return [report]


def cmd_heine(cfg: RunConfig, weight, table, out: Path):
    tbl = moment_table(weight if weight is not None else table, 4, cfg.quad())
    wfun = weight if weight is not None else weight_from_table(tbl)
    report = IdentityReport("Heine-identity oracle")
    for n in (1, 2, 3):
        oracle = heine_oracle(wfun, n, cfg.quad())
        det = toeplitz_det(tbl, 0, n)
        report.add(
            "heine_vs_toeplitz",
            "due to the well known identity",
            abs(oracle - det) / max(1.0, abs(det)),
            1e-6 * cfg.tol_scale,
            n=n,
        )
    dump_json(report.to_dict(), out / "heine_report.json")
    return [report]


def cmd_verify_all(cfg: RunConfig, weight, table, out: Path):
    """Every suite on one bundle; the build suite builds levels 0..n afresh
    on its moment table, so each report equals its subcommand's own."""
    strict = weight is not None and is_strict_semiclassical(weight)
    bundle = _bundle(cfg, weight, table, strict)
    reports = cmd_build(cfg, weight, bundle.table, out)
    reports += cmd_assoc(cfg, weight, bundle, out)
    if strict:
        reports += cmd_coeffs(cfg, weight, bundle, out)
        samples = [0.4 + 0.2j, -0.3 + 0.35j, 0.5 - 0.1j]
        matrix = IdentityReport("matrix systems")
        for n in range(1, cfg.n + 1):
            matrix.extend(
                verify_matrix_system(
                    bundle.sys, bundle.asys, bundle.quads, bundle.vw, weight, n, samples,
                    tol=cfg.tol(),
                )
            )
        dump_json(matrix.to_dict(), out / "matrix_report.json")
        reports.append(matrix)
    reports += cmd_rhp(cfg, weight, bundle, out)
    summary = {
        "schema": SCHEMA,
        "passed": all(r.passed for r in reports),
        "suites": [
            {
                "title": r.title,
                "passed": r.passed,
                "max_residual": r.max_residual,
                "identities": r.max_by_name(),
            }
            for r in reports
        ],
    }
    dump_json(summary, out / "verify_report.json")
    return reports


HANDLERS = {
    "moments": cmd_moments,
    "build": cmd_build,
    "assoc": lambda cfg, w, tbl, out: cmd_assoc(cfg, w, _bundle(cfg, w, tbl), out),
    "coeffs": lambda cfg, w, tbl, out: cmd_coeffs(cfg, w, _bundle(cfg, w, tbl, strict=True), out),
    "verify-all": cmd_verify_all,
    "rhp-check": lambda cfg, w, tbl, out: cmd_rhp(cfg, w, _bundle(cfg, w, tbl), out),
    "deform": cmd_deform,
    "heine-check": cmd_heine,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circlebops",
        description="Bi-orthogonal polynomials on the unit circle: "
        "construction, identity verification and deformation flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--weight", required=True, help="weight spec JSON")
        p.add_argument("--n", type=int, default=4, help="maximum level")
        p.add_argument("--seed", type=int, default=7, help="sample-point seed")
        p.add_argument(
            "--tol", type=float, default=1.0, help="tolerance scale factor (1.0 = defaults)"
        )
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--steps", type=int, default=64, help="flow integration steps")
        p.add_argument("--quad-points", type=int, default=256, help="starting quadrature points")
        p.add_argument("--trajectory", "--traj", dest="trajectory", default=None)
    return parser


def _normalize_argv(argv):
    """Support the flag form --cmd NAME by rewriting it into the subcommand."""
    argv = list(argv)
    if "--cmd" in argv:
        idx = argv.index("--cmd")
        if idx + 1 >= len(argv):
            return argv
        command = argv[idx + 1]
        del argv[idx : idx + 2]
        argv.insert(0, command)
    return argv


def main(argv=None) -> int:
    argv = _normalize_argv(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    cfg = RunConfig(
        weight_path=args.weight,
        command=args.command,
        n=args.n,
        seed=args.seed,
        tol_scale=args.tol,
        out_dir=args.out,
        steps=args.steps,
        quad_points=args.quad_points,
        trajectory_path=args.trajectory,
    )
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        weight, table = parse_weight_spec(cfg.weight_path)
        reports = HANDLERS[cfg.command](cfg, weight, table, out)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 2
    except (CircleBopsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = [r for r in reports if not r.passed]
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        print(f"[{status}] {rep.title}: max residual {rep.max_residual:.3e}")
        for entry in rep.failures()[:10]:
            print(
                f"    {entry.name} (n={entry.n}, {entry.where}): "
                f"{entry.residual:.3e} > {entry.tol:.1e}"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
