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
import math
import os
import sys
from functools import partial

import numpy as np

from . import checks, flow, hpe, metrics, tensor
from . import operators as ops
from .config import load_config
from .errors import ConfigError, InsufficientPoints, MonoflowError, StationaryPoint, UnknownSolutionSet
from .report import running_worst

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

Identical (config, seed) pairs produce bit-identical CSV files.
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


def _dists_or_nan(problem, points):
    """metrics.dist_to_solutions at each row of points, as a list of
    floats; all NaN when the problem declares no solution set."""
    try:
        return metrics.dist_to_solutions(problem, points).tolist()
    except UnknownSolutionSet:
        return [math.nan] * len(points)


def _run_flow(cfg):
    problem, params = cfg.problem, cfg.params
    x0 = cfg.initial_point()
    try:
        traj = flow.integrate(
            problem,
            x0,
            params,
            cfg.horizon["T"],
            cfg.horizon["h"],
            cfg.horizon.get("sample_stride", 1),
        )
    except StationaryPoint:
        # x0 solves the inclusion to tolerance: no state is kept.
        traj = flow.Trajectory(status="STATIONARY", stop="law_solve")
    d = problem.operator.dim
    header = (
        ["t"]
        + [f"x{i}" for i in range(d)]
        + ["lambda", "speed", "gap_ergodic", "residue_pointwise", "dist", "E"]
    )
    gaps, gap_off = metrics.ergodic_gaps(problem, np.array(traj.erg_num), np.array(traj.erg_den))
    # Without a state, residues and dists hold their value at x0 alone.
    residues = metrics.residue(problem, np.array([s.y for s in traj.states] or [x0])).tolist()
    dists = _dists_or_nan(problem, np.array([s.x for s in traj.states] or [x0]))

    rows = []
    ae_ok = 0
    for s, g, res, dist in zip(traj.states, gaps, residues, dists):
        energy = 0.5 * dist**2  # NaN without a declared solution point
        if flow.law_margin(s.lam, s.speed, s.band, params) >= 0.0:
            ae_ok += 1
        rows.append(
            [_fmt(s.t)]
            + [_fmt(c) for c in s.x]
            + [_fmt(s.lam), _fmt(s.speed), _fmt(g), _fmt(res), _fmt(dist), _fmt(energy)]
        )
    ts = [s.t for s in traj.states]

    last = traj.states[-1] if traj.states else None
    summary = {
        "mode": cfg.mode,
        "problem": cfg.problem_name,
        "status": traj.status,
        "stop": traj.stop,
        "lam_rate_fallbacks": traj.lam_rate_fallbacks,
        "samples": len(traj.states),
        "final": {
            "t": last.t if last else 0.0,
            "gap_ergodic": gaps[-1] if last else math.nan,
            "residue_pointwise": residues[-1],
            "dist": dists[-1],
        },
        "slopes": {
            "gap_ergodic": _fit_or_none(gaps, ts),
            "residue_pointwise": _fit_or_none(residues, ts),
        },
        "certificates": {"control_law_within_tol": ae_ok, "total": len(traj.states)},
    }
    return header, rows, summary, gap_off


def _record_columns(problem, records, x0):
    """(gaps, gap_off, res_mins, dists): an iterative run's metric columns
    as lists, in one pass over the stacked records.

    gaps is the gap at the lam-weighted average of y_1..y_k (gap_off as in
    metrics.ergodic_gaps), res_mins the running worst residue at y_1..y_k and
    dists the distance at x0, then at each x_k.  The stacks live only here,
    so they are freed before the CSV rows are built.
    """
    d = problem.operator.dim
    lam = np.array([r.lam for r in records], dtype=float)
    ys = np.array([r.y for r in records], dtype=float).reshape(len(records), d)
    gaps, gap_off = metrics.ergodic_gaps(problem, *metrics.running_sums(lam, ys))
    res_mins = list(running_worst(metrics.residue(problem, ys).tolist()))
    dists = _dists_or_nan(problem, np.array([x0] + [r.x_next for r in records], dtype=float))
    return gaps, gap_off, res_mins, dists


def _run_iterative(cfg):
    problem, drive = cfg.problem, cfg.drive
    if cfg.mode == "HPE_EXACT":
        oracle = partial(hpe.exact_oracle, problem, cfg=drive)
    else:
        oracle = partial(tensor.lambda_window_search, problem, cfg=cfg.params)
    x0 = cfg.initial_point()
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
    records = result.records
    gaps, gap_off, res_mins, dists = _record_columns(problem, records, x0)

    rows = []
    for r, g, res_min, dist in zip(records, gaps, res_mins, dists[1:]):
        rows.append(
            [
                str(r.k),
                _fmt(r.lam),
                _fmt(ops.norm(r.v)),
                _fmt(r.eps),
                _fmt(ops.norm(r.y - r.x_prev)),
                _fmt(g),
                _fmt(res_min),
                _fmt(dist),
            ]
        )
    ks = [float(r.k) for r in records]

    final_x = records[-1].x_next if records else x0
    summary = {
        "mode": cfg.mode,
        "problem": cfg.problem_name,
        "status": result.status,
        "iterations": len(records),
        "final": {
            "gap_ergodic": gaps[-1] if gaps else float("nan"),
            "residue_min_so_far": res_mins[-1] if res_mins else float("nan"),
            "dist": dists[-1],
            "residual": ops.min_norm_residual(problem.operator, final_x),
        },
        "slopes": {
            "gap_ergodic": _fit_or_none(gaps, ks),
            "residue_min_so_far": _fit_or_none(res_mins, ks),
        },
        "certificates": {"passed": sum(r.cert.ok for r in records), "total": len(records)},
    }
    return header, rows, summary, gap_off


def _execute(cfg):
    """(header, rows, summary, gap_off) of the run cfg describes."""
    return (_run_flow if cfg.mode == "FLOW" else _run_iterative)(cfg)


def _summary_path(out):
    stem, ext = os.path.splitext(out)
    return (stem if ext.lower() == ".csv" else out) + ".summary.json"


def _write_outputs(out, header, rows, summary):
    if out is None:
        return
    text = ",".join(header) + "\n" + "".join(",".join(r) + "\n" for r in rows)
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with open(_summary_path(out), "w", encoding="utf-8", newline="") as fh:
            fh.write(json.dumps(_jsonsafe(summary), indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None


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
    if cfg.out is not None:
        # Refuse an out that cannot be opened before any step runs, not after.
        folder = os.path.dirname(cfg.out) or "."
        if os.path.isdir(cfg.out):
            raise ConfigError(f"cannot write output: {cfg.out!r} is a directory")
        if not os.path.isdir(folder):
            raise ConfigError(f"cannot write output: no directory {folder!r}")
    return cfg


def cmd_run(args):
    cfg = _load_with_overrides(args)
    header, rows, summary, _ = _execute(cfg)
    _write_outputs(cfg.out, header, rows, summary)
    print(json.dumps(_jsonsafe(summary), indent=2, sort_keys=True))
    return 0


def cmd_rates(args):
    cfg = _load_with_overrides(args)
    header, rows, summary, gap_off = _execute(cfg)
    _write_outputs(cfg.out, header, rows, summary)
    p = cfg.params.p
    slopes = summary["slopes"]
    residue = "residue_pointwise" if cfg.mode == "FLOW" else "residue_min_so_far"
    targets = [
        ("gap_ergodic", slopes["gap_ergodic"], -(p + 1) / 2.0 + RATE_TOL),
        ("residue", slopes[residue], -p / 2.0 + RATE_TOL),
    ]
    ok = True
    for name, fit, target in targets:
        if fit is None:
            why = "no usable series (need >= 10 positive tail points)"
            if name == "gap_ergodic" and gap_off is not None:
                why = f"undefined on this problem ({gap_off})"
            print(f"{name}: {why} target <= {target:g} FAIL")
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
    """Run the chosen suites on one worker process per usable processor
    (checks.run_suites caps the count at the number of suites), then print
    every report in SUITE_NAMES order: the same bytes as a serial run."""
    names = list(checks.SUITE_NAMES) if args.suite == "ALL" else [args.suite]
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    reports = checks.run_suites(names, seed=args.seed, max_workers=workers)
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
