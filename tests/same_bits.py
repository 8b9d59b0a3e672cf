"""Write every output whose bits a refactor must keep, for a `diff -r`.

    python tests/same_bits.py OUTDIR

For each reference() call of the benchmark workloads (benchmarks/workloads.py,
imported as it is) it writes the call's CSV, .summary.json and stdout, and
for each seed in CHECK_SEEDS the stdout of `monoflow check --suite ALL`.
Each CONFIG_RUNS entry, which reaches a corner of the config layer (a random
x0 under a --seed override, a sample stride, sigma, stop_res), is run with
`run` and with `rates`, and its CSV, summary, stdout and stderr are written;
for each REJECTED config, the exit code and stderr.
Every call is made twice in this process, and the script exits 1, naming
the call, when the second call's exit code, stdout, CSV or summary differs
from the first's: a state that one cli.main call leaves behind for the
next shows there.  The program is imported from the src/ next to this
file.  Run it on two checkouts and compare: `diff -r OUTDIR_A OUTDIR_B`
lists every output that changed.  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECK_SEEDS = [0, 3, 1385176604, 1819789398, 1141051470, 493018052]
_TENSOR_P3 = {"sigma_hat": 0.1, "sigma_l": 0.2, "sigma_u": 0.8, "L": 6.0, "p": 3}
# name: (config, extra argv)
CONFIG_RUNS = {
    "random_x0": (
        {
            "problem": {"name": "bilinear_saddle", "params": {"d": 4}},
            "mode": "HPE_EXACT",
            "params": {"theta": 0.01, "p": 2},
            "horizon": {"max_iters": 200},
            "x0": {"random_scale": 2.0},
            "seed": 3,
        },
        ["--seed", "7"],
    ),
    "flow_stride": (
        {
            "problem": {"name": "bilinear_saddle", "params": {"d": 2}},
            "mode": "FLOW",
            "params": {"theta": 0.012, "p": 2},
            "horizon": {"T": 5.0, "h": 0.01, "sample_stride": 7},
            "x0": [0.7, -0.4],
        },
        [],
    ),
    "hpe_sigma_stop": (
        {
            "problem": {"name": "strongly_monotone_affine", "params": {"d": 3, "mu": 0.5}},
            "mode": "HPE_EXACT",
            "params": {"sigma": 0.3, "theta": 0.05, "p": 2, "stop_res": 1e-6},
            "horizon": {"max_iters": 300},
            "x0": [0.5, -1.0, 2.0],
        },
        [],
    ),
    "tensor_stop": (
        {
            "problem": {"name": "cubic_1d"},
            "mode": "TENSOR",
            "params": dict(_TENSOR_P3, stop_res=1e-7),
            "horizon": {"max_iters": 60},
            "x0": [2.0],
        },
        [],
    ),
}
_HPE = CONFIG_RUNS["hpe_sigma_stop"][0]
REJECTED = {
    "missing_key": dict(_HPE, params={"sigma": 0.3, "p": 2}),
    "tensor_p3_d5": {
        "problem": {"name": "convex_gradient", "params": {"d": 5}},
        "mode": "TENSOR",
        "params": _TENSOR_P3,
        "horizon": {"max_iters": 5},
        "x0": [0.5] * 5,
    },
    "x0_length": dict(_HPE, x0=[0.5, -1.0]),
    "problem_param": dict(_HPE, problem={"name": "bilinear_saddle", "params": {"d": 3}}),
}


def _call(cli, argv, differs):
    """(exit code, stdout, stderr) of cli.main(argv), called twice.

    argv is appended to differs when the second call's exit code, stdout or
    written files (the --out CSV and its summary) differ from the first's.
    stderr is not compared: a numpy warning prints once per process.
    """
    files = [Path(argv[argv.index("--out") + 1])] if "--out" in argv else []
    files += [f.with_suffix(".summary.json") for f in files]
    calls = []
    for _ in range(2):
        for f in files:
            f.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        written = [f.read_bytes() if f.exists() else None for f in files]
        calls.append(((rc, out.getvalue(), written), err.getvalue()))
    (first, err), (again, _) = calls
    if again != first:
        differs.append(" ".join(argv))
    rc, out, _ = first
    return rc, out, err


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    outdir = Path(sys.argv[1])
    outdir.mkdir(parents=True, exist_ok=True)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    from monoflow import cli
    from workloads import WORKLOADS

    differs = []
    for workload in WORKLOADS.values():
        for i, call in enumerate(workload.reference()):
            stem = str(outdir / f"{workload.name}.{i}")
            Path(stem + ".json").write_text(json.dumps(call.config), encoding="utf-8")
            rc, out, _ = _call(cli, [call.cmd, "--config", stem + ".json", "--out", stem + ".csv"], differs)
            Path(stem + ".stdout").write_text(f"exit {rc}\n{out}", encoding="utf-8")
    for seed in CHECK_SEEDS:
        rc, out, _ = _call(cli, ["check", "--suite", "ALL", "--seed", str(seed)], differs)
        (outdir / f"check_ALL.{seed}.stdout").write_text(f"exit {rc}\n{out}", encoding="utf-8")
    for name, (config, extra) in CONFIG_RUNS.items():
        for cmd in ("run", "rates"):
            stem = str(outdir / f"config.{name}.{cmd}")
            Path(stem + ".json").write_text(json.dumps(config), encoding="utf-8")
            rc, out, err = _call(cli, [cmd, "--config", stem + ".json", "--out", stem + ".csv", *extra], differs)
            Path(stem + ".stdout").write_text(f"exit {rc}\n{out}", encoding="utf-8")
            Path(stem + ".stderr").write_text(err, encoding="utf-8")
    for name, config in REJECTED.items():
        stem = str(outdir / f"rejected.{name}")
        Path(stem + ".json").write_text(json.dumps(config), encoding="utf-8")
        rc, out, err = _call(cli, ["run", "--config", stem + ".json"], differs)
        Path(stem + ".stderr").write_text(f"exit {rc}\n{out}{err}", encoding="utf-8")
    for argv in differs:
        print(f"second in-process call differs from the first: {argv}", file=sys.stderr)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
