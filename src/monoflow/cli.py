"""Command-line surface: run configured experiments, check invariant
suites, and fit observed convergence rates against the theoretical
exponents.

Subcommands
-----------
run    execute the experiment in --config, write a CSV trace and a JSON
       summary (final metrics, fitted slopes, certificate pass counts).
check  run randomized property suites (--suite, default ALL) and print
       one pass/fail line per invariant with its worst margin.
rates  execute like run, then fit the ergodic-gap and residue slopes
       and compare them against -(p+1)/2 and -p/2 with +0.2 tolerance.

Exit codes: 0 success, 1 runtime failure (a solver error is surfaced),
2 invalid configuration or usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import checks, flow, hpe, metrics, tensor
from . import operators as ops
from .config import load_config
from .errors import (
    ConfigError,
    DomainUnbounded,
    InsufficientPoints,
    MonoflowError,
    UnknownSolutionSet,
    UnsupportedMetric,
)

RATE_TOL = 0.2

_EPILOG = """\
CSV schemas (column order is fixed; floats use 17 significant digits,
unavailable entries are written as nan):

  FLOW      t, x0..x{d-1}, lambda, speed, gap_ergodic, residue_pointwise,
            dist, E
            speed is ||x - y|| for the control-law pair y; gap_ergodic is
            the restricted gap at the running lambda-weighted average of y;
            dist is the distance to the declared solution set; E is
            0.5 ||x - z||^2 for a fixed anchor z in the solution set.

  HPE_EXACT k, lambda, v_norm, eps, step_norm, gap_ergodic,
  / TENSOR  residue_min_so_far, dist
            step_norm is ||y_k - x_{k-1}||; residue_min_so_far is the
            running minimum of the pointwise residue at y_1..y_k; dist is
            measured at x_k after the update.

Identical (config, seed) pairs produce bit-identical CSV files.  The
environment variable MONOFLOW_THREADS caps how many check suites run in
parallel.
"""


def _fmt(v):
    return f"{float(v):.17g}"


def _jsonsafe(obj):
    # json.dumps would emit bare NaN, which strict parsers reject
    if isinstance(obj, dict):
        return {k: _jsonsafe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonsafe(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def _fit_or_none(values, positions):
    try:
        fit = metrics.fit_rate(values, positions=positions)
    except (InsufficientPoints, ValueError):
        return None
    return {"slope": fit.slope, "r_squared": fit.r_squared, "dropped": fit.dropped}


class _GapProbe:
    """Evaluate the gap where supported, nan everywhere once it is not."""

    def __init__(self, problem):
        self.problem = problem
        self.supported = True

    def __call__(self, x):
        if not self.supported or x is None:
            return float("nan")
        try:
            return metrics.gap(self.problem, x)
        except (UnsupportedMetric, DomainUnbounded):
            self.supported = False
            return float("nan")


def _dist_or_nan(problem, x):
    try:
        return metrics.dist_to_solutions(problem, x)
    except UnknownSolutionSet:
        return float("nan")


def _run_flow(cfg, problem):
    params = cfg.mode_params()
    x0 = cfg.initial_point(problem)
    traj = flow.integrate(
        problem,
        x0,
        params,
        cfg.horizon["T"],
        cfg.horizon["h"],
        cfg.horizon.get("sample_stride", 1),
    )
    d = problem.operator.dim
    header = (
        ["t"]
        + [f"x{i}" for i in range(d)]
        + ["lambda", "speed", "gap_ergodic", "residue_pointwise", "dist", "E"]
    )
    gap_at = _GapProbe(problem)
    sol = problem.solution_set
    anchor = sol.point if sol.kind == "SINGLETON" else None

    rows, ts, gaps, residues = [], [], [], []
    ae_ok = 0
    for s, num, den in zip(traj.states, traj.erg_num, traj.erg_den):
        g = gap_at(num / den if den > 0 else None)
        res = metrics.residue(problem, s.y)
        dist = _dist_or_nan(problem, s.x)
        energy = (
            0.5 * float(np.linalg.norm(s.x - anchor)) ** 2 if anchor is not None else float("nan")
        )
        if flow.law_margin(s.lam, s.speed, s.rho, params) >= 0.0:
            ae_ok += 1
        rows.append(
            [_fmt(s.t)]
            + [_fmt(c) for c in s.x]
            + [_fmt(s.lam), _fmt(s.speed), _fmt(g), _fmt(res), _fmt(dist), _fmt(energy)]
        )
        ts.append(s.t)
        gaps.append(g)
        residues.append(res)

    last = traj.states[-1]
    summary = {
        "mode": cfg.mode,
        "problem": cfg.problem_name,
        "status": traj.status,
        "samples": len(traj.states),
        "final": {
            "t": last.t,
            "gap_ergodic": gaps[-1],
            "residue_pointwise": residues[-1],
            "dist": _dist_or_nan(problem, last.x),
        },
        "slopes": {
            "gap_ergodic": _fit_or_none(gaps, ts),
            "residue_pointwise": _fit_or_none(residues, ts),
        },
        "certificates": {"control_law_within_tol": ae_ok, "total": len(traj.states)},
    }
    series = {"p": params.p, "positions": ts, "gap": gaps, "residue": residues}
    return header, rows, summary, series


def _run_iterative(cfg, problem):
    mode_params = cfg.mode_params()
    if cfg.mode == "HPE_EXACT":
        drive = mode_params
        oracle = hpe.ExactProxOracle(problem, drive)
    else:
        drive = cfg.drive_config(mode_params)
        oracle = tensor.TensorOracle(problem, mode_params)
    x0 = cfg.initial_point(problem)
    result = hpe.run(problem, oracle, drive, x0)

    header = [
        "k",
        "lambda",
        "v_norm",
        "eps",
        "step_norm",
        "gap_ergodic",
        "residue_min_so_far",
        "dist",
    ]
    gap_at = _GapProbe(problem)
    rows, ks, gaps, residues = [], [], [], []
    num = np.zeros(problem.operator.dim)
    den = 0.0
    res_min = float("inf")
    cert_ok = 0
    for r in result.records:
        num += r.lam * r.y
        den += r.lam
        g = gap_at(num / den if den > 0 else None)
        res_min = min(res_min, metrics.residue(problem, r.y))
        dist = _dist_or_nan(problem, r.x_next)
        if r.cert.ok:
            cert_ok += 1
        rows.append(
            [
                str(r.k),
                _fmt(r.lam),
                _fmt(float(np.linalg.norm(r.v))),
                _fmt(r.eps),
                _fmt(float(np.linalg.norm(r.y - r.x_prev))),
                _fmt(g),
                _fmt(res_min),
                _fmt(dist),
            ]
        )
        ks.append(float(r.k))
        gaps.append(g)
        residues.append(res_min)

    final_x = result.records[-1].x_next if result.records else cfg.initial_point(problem)
    summary = {
        "mode": cfg.mode,
        "problem": cfg.problem_name,
        "status": result.status,
        "iterations": len(result.records),
        "final": {
            "gap_ergodic": gaps[-1] if gaps else float("nan"),
            "residue_min_so_far": residues[-1] if residues else float("nan"),
            "dist": _dist_or_nan(problem, final_x),
            "residual": ops.min_norm_residual(problem.operator, final_x),
        },
        "slopes": {
            "gap_ergodic": _fit_or_none(gaps, ks),
            "residue_min_so_far": _fit_or_none(residues, ks),
        },
        "certificates": {"passed": cert_ok, "total": len(result.records)},
    }
    series = {"p": drive.p, "positions": ks, "gap": gaps, "residue": residues}
    return header, rows, summary, series


def _execute(cfg):
    problem = cfg.problem_instance()
    if cfg.mode == "FLOW":
        return _run_flow(cfg, problem)
    return _run_iterative(cfg, problem)


def _summary_path(out):
    stem, ext = os.path.splitext(out)
    return (stem if ext.lower() == ".csv" else out) + ".summary.json"


def _write_outputs(out, header, rows, summary):
    if out is None:
        return
    text = ",".join(header) + "\n" + "".join(",".join(r) + "\n" for r in rows)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    with open(_summary_path(out), "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(_jsonsafe(summary), indent=2, sort_keys=True) + "\n")


def _seed(text):
    """Type of --seed: numpy takes non-negative seeds only."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _load_with_overrides(args):
    cfg = load_config(args.config)
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["out"] = args.out
    if updates:
        from dataclasses import replace

        cfg = replace(cfg, **updates)
    return cfg


def cmd_run(args):
    cfg = _load_with_overrides(args)
    header, rows, summary, _ = _execute(cfg)
    _write_outputs(cfg.out, header, rows, summary)
    print(json.dumps(_jsonsafe(summary), indent=2, sort_keys=True))
    return 0


def cmd_rates(args):
    cfg = _load_with_overrides(args)
    header, rows, summary, series = _execute(cfg)
    _write_outputs(cfg.out, header, rows, summary)
    p = series["p"]
    targets = [
        ("gap_ergodic", series["gap"], -(p + 1) / 2.0 + RATE_TOL),
        ("residue", series["residue"], -p / 2.0 + RATE_TOL),
    ]
    ok = True
    for name, values, target in targets:
        fit = _fit_or_none(values, series["positions"])
        if fit is None:
            print(f"{name}: no usable series (need >= 10 positive tail points) target <= {target:g} FAIL")
            ok = False
            continue
        passed = fit["slope"] <= target
        ok = ok and passed
        print(
            f"{name}: slope {fit['slope']:.4f} (r2 {fit['r_squared']:.4f}) "
            f"target <= {target:g} {'PASS' if passed else 'FAIL'}"
        )
    return 0 if ok else 1


def cmd_check(args):
    names = list(checks.SUITE_NAMES) if args.suite == "ALL" else [args.suite]
    max_workers = None
    env = os.environ.get("MONOFLOW_THREADS")
    if env:
        try:
            max_workers = int(env)
        except ValueError:
            raise ConfigError("MONOFLOW_THREADS must be an integer") from None
        if max_workers < 1:
            raise ConfigError("MONOFLOW_THREADS must be >= 1")
    reports = checks.run_suites(names, seed=args.seed, max_workers=max_workers)
    ok = True
    for name in names:
        rep = reports[name]
        for line in rep.lines():
            print(f"[{name}] {line}")
        ok = ok and rep.all_passed
    print("check result:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="monoflow",
        description="Monotone-inclusion solver laboratory.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one configured experiment")
    run.add_argument("--config", required=True, help="path to a JSON experiment config")
    run.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    run.add_argument("--out", default=None, help="CSV trace path (overrides config)")
    run.set_defaults(func=cmd_run)

    check = sub.add_parser("check", help="run randomized invariant suites")
    check.add_argument(
        "--suite",
        default="ALL",
        choices=["ALL"] + list(checks.SUITE_NAMES),
        help="which suite to run (default ALL)",
    )
    check.add_argument("--seed", type=_seed, default=0, help="suite seed (default 0)")
    check.set_defaults(func=cmd_check)

    rates = sub.add_parser("rates", help="fit rate exponents for one experiment")
    rates.add_argument("--config", required=True, help="path to a JSON experiment config")
    rates.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    rates.add_argument("--out", default=None, help="CSV trace path (overrides config)")
    rates.set_defaults(func=cmd_rates)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MonoflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
