"""Benchmark the monoflow CLI on one seeded workload and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --write-spec          # regenerate BENCHMARK.json
    python3 benchmarks/run.py --record-references   # re-record references.json

The program is imported from the src/ directory next to benchmarks/ and
driven in this process through monoflow.cli.main, one call at a time.
With --trace 0 the run measures rounds of calls for about S seconds and
reports the end-to-end metrics, each call time adjusted to a reference
host speed by a kernel timed around and during it, and every time less
the host's steal (see host.py); the raw wall figures are printed beside
them.  With --trace 1 it runs a fixed number of rounds untraced and then
traced, and reports the per-layer metrics.  Every run also checks the
program's outputs.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 only when every check passed.
Scratch files, results and span dumps go to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import host
import spec
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, Call

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCES = HERE / "references.json"

SETUP_PROBES = 5
TAIL_BEYOND = 10
# Final dist and lambda of the canonical calls must match the recorded
# references this closely; the slack covers last-bit differences between
# BLAS builds, which a long run can lift to about 1e-7 on a tiny dist.
REF_RTOL = 1e-6


def tail(samples, beyond=TAIL_BEYOND):
    """(value, percentile) of the highest order statistic with `beyond`
    samples above it, or None below 2*beyond samples, where that statistic
    would sit under the median."""
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * beyond:
        return None
    i = n - 1 - beyond
    return xs[i], 100.0 * (i + 1) / n


def solve_latency(samples):
    """(p50, tail, note) of per-call latency in ms from (label, seconds) pairs.

    The p50 is each kind of call's median, averaged over the kinds: pooled
    over the zoo, the median falls in the gap between the fast p=2 and the
    slow p=3 problems and jumps across it from run to run.  The tail pools
    all calls; with fewer than 20 calls it is the slowest kind's median.
    """
    kinds = {}
    for label, seconds in samples:
        kinds.setdefault(label, []).append(seconds * 1e3)
    medians = [statistics.median(v) for v in kinds.values()]
    n = sum(len(v) for v in kinds.values())
    pooled = tail([ms for v in kinds.values() for ms in v])
    if pooled is None:
        return statistics.fmean(medians), max(medians), f"the slowest kind's median ({n} calls)"
    return statistics.fmean(medians), pooled[0], f"p{pooled[1]:.1f} of {n} calls"


@dataclass
class Outcome:
    call: Call
    rc: int | None
    wall_s: float
    ref_s: float  # wall_s adjusted to the reference host speed (host.py)
    stdout: str
    csv: bytes | None
    summary: str | None
    problems: list
    steps: int = 0
    dist: float = math.nan
    lam: float = math.nan


class Runner:
    """Sends one CLI call at a time and checks what it returned."""

    def __init__(self, cli, workdir):
        self.cli = cli
        self.workdir = workdir
        # Off for traced calls, whose spans would count the kernel runs.
        self.sample_speed = True
        workdir.mkdir(parents=True, exist_ok=True)

    def call(self, call):
        cfg_path = self.workdir / "call.json"
        csv_path = self.workdir / "call.csv"
        summary_path = self.workdir / "call.summary.json"
        if call.cmd == "check":
            argv = ["check", "--suite", "ALL", "--seed", str(call.seed)]
        else:
            cfg_path.write_text(json.dumps(call.config), encoding="utf-8")
            for p in (csv_path, summary_path):
                p.unlink(missing_ok=True)
            argv = [call.cmd, "--config", str(cfg_path), "--out", str(csv_path)]
        out, err = io.StringIO(), io.StringIO()
        crash = None

        def send():
            nonlocal crash
            try:
                return self.cli.main(argv)
            except Exception:
                # An error the CLI let escape is a failed call; keep going.
                crash = traceback.format_exc()
                return None

        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc, wall, speed = host.timed(send, self.sample_speed)
        csv = csv_path.read_bytes() if call.cmd != "check" and csv_path.exists() else None
        summary = summary_path.read_text(encoding="utf-8") if csv is not None and summary_path.exists() else None
        o = Outcome(call, rc, wall, wall * speed, out.getvalue(), csv, summary, [])
        self._evaluate(o, err.getvalue(), crash)
        return o

    @staticmethod
    def _evaluate(o, stderr, crash):
        call = o.call
        lines = o.stdout.splitlines()
        if crash is not None:
            o.problems.append("uncaught " + crash.strip().splitlines()[-1])
        elif o.rc != 0:
            detail = (stderr.strip() or " | ".join(line for line in lines if "FAIL" in line))[-300:]
            o.problems.append(f"exit {o.rc}: {detail}")
        if call.cmd == "check":
            o.steps = sum(line.startswith("[") for line in lines)
            if not lines or lines[-1] != "check result: PASS":
                o.problems.append("check did not print 'check result: PASS'")
            return
        if call.cmd == "rates" and sum(line.endswith(" PASS") for line in lines) != 2:
            o.problems.append("rates did not print PASS for both slopes")
        if o.summary is None or o.csv is None:
            if o.rc == 0:
                o.problems.append("no CSV or summary written")
            return
        summary = json.loads(o.summary)
        cert = summary["certificates"]
        passed = cert["passed"] if "passed" in cert else cert["control_law_within_tol"]
        if passed != cert["total"]:
            o.problems.append(f"certificates {passed}/{cert['total']}")
        if summary["mode"] == "FLOW":
            o.steps = math.ceil(summary["final"]["t"] / call.config["horizon"]["h"] - 1e-9)
        else:
            o.steps = summary["iterations"]
        o.dist = summary["final"]["dist"]
        rows = o.csv.decode("utf-8").splitlines()
        if len(rows) > 1:
            o.lam = float(rows[-1].split(",")[rows[0].split(",").index("lambda")])


def load_program():
    """Import monoflow from src/ next to the benchmark, or exit 2."""
    if not (SRC / "monoflow" / "__init__.py").is_file():
        print(f"benchmark: no monoflow sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import monoflow
    from monoflow import cli

    if Path(monoflow.__file__).resolve().parent != SRC / "monoflow":
        print(f"benchmark: monoflow imported from {monoflow.__file__}", file=sys.stderr)
        sys.exit(2)
    return cli


def environment(threads_env):
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "MONOFLOW_THREADS": "unset" if threads_env is None else f"unset (removed {threads_env!r})",
    }


def setup_seconds(config, workdir):
    """Median over fresh processes of import + config parse + problem build,
    raw and less the host's steal.  The speed kernel is not applied: it runs
    in this process and cannot sample the probe's processor."""
    path = workdir / "setup.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    times = []
    with host.StolenShare() as stolen:
        for _ in range(SETUP_PROBES):
            done = subprocess.run(
                [sys.executable, str(HERE / "probe_setup.py"), str(SRC), str(path)],
                capture_output=True, text=True, timeout=120,
            )
            if done.returncode != 0:
                raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-300:]}")
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times), statistics.median(times) * (1.0 - stolen.share)


def measure(runner, workload, rng, seconds):
    """Closed loop of rounds; stop before a further round would overrun.
    Returns the rounds and the share of the loop's time that was steal."""
    rounds = []
    t0 = perf_counter()
    with host.StolenShare(workload.busy_cpus) as stolen:
        while True:
            rounds.append([runner.call(c) for c in workload.round(rng)])
            elapsed = perf_counter() - t0
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
    return rounds, stolen.share


def check_references(runner, workload, problems):
    """Run the canonical calls and compare with the recorded references."""
    refs = json.loads(REFERENCES.read_text(encoding="utf-8")).get(workload.name, [])
    calls = workload.reference()
    if len(refs) != len(calls):
        problems.append(f"references.json has {len(refs)} entries for {len(calls)} canonical calls")
        return
    for call, ref in zip(calls, refs):
        o = runner.call(call)
        problems.extend(f"reference {call.label}: {p}" for p in o.problems)
        for key, got in (("dist", o.dist), ("lambda", o.lam), ("steps", o.steps)):
            want = ref[key]
            if not abs(got - want) <= REF_RTOL * max(abs(want), abs(got)):
                problems.append(f"reference {call.label}: {key} {got!r} != recorded {want!r}")


def run_workload(args, cli, env):
    workload = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    runner = Runner(cli, OUT / workload.name)
    problems = []
    lines = []
    for c in workload.warmup():
        runner.call(c)

    if args.trace == 0:
        setup_wall, setup = setup_seconds(workload.setup_config(), runner.workdir)
        rounds, stolen = measure(runner, workload, rng, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        timed = [o for r in rounds for o in r]
        first = timed[0]
        if first.call.cmd != "check":
            again = runner.call(first.call)
            if (again.csv, again.summary) != (first.csv, first.summary):
                problems.append(f"CSV or summary of {first.call.label} differs on a rerun")

        def timings(seconds):
            p50_ms, tail_ms, note = solve_latency((o.call.label, seconds(o)) for o in timed)
            return {
                "run_s": statistics.fmean(sum(seconds(o) for o in r) for r in rounds),
                "steps_per_s": sum(o.steps for o in timed) / sum(seconds(o) for o in timed),
                "solve_p50_ms": p50_ms,
                "solve_tail_ms": tail_ms,
            }, note

        # Every timing is adjusted to the reference host speed (host.py);
        # the raw wall figures are printed beside them.
        metrics, tail_note = timings(lambda o: o.ref_s * (1.0 - stolen))
        metrics.update(setup_s=setup, peak_rss_mb=peak_mb)
        wall, _ = timings(lambda o: o.wall_s)
        wall["setup_s"] = setup_wall
        units = spec.END_TO_END_UNITS
        lines.append(f"rounds {len(rounds)}, calls {len(timed)}, steal {stolen:.4f} of the time;"
                     f" solve_tail_ms is {tail_note}")
        lines.append("raw wall time: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    else:
        calls = [c for _ in range(workload.trace_rounds) for c in workload.round(rng)]
        runner.sample_speed = False
        base = [runner.call(c) for c in calls]
        tracer = Tracer()
        with tracer:
            traced = [runner.call(c) for c in calls]
        for b, t in zip(base, traced):
            if (b.csv, b.summary, b.stdout) != (t.csv, t.summary, t.stdout):
                problems.append(f"traced output of {t.call.label} differs from untraced")
        timed = base + traced
        metrics = layer_metrics(tracer.threads)
        untraced_s = sum(o.wall_s for o in base)
        metrics["trace.untraced_s"] = untraced_s
        metrics["trace.overhead_s"] = sum(o.wall_s for o in traced) - untraced_s
        units = spec.PER_LAYER_UNITS
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        lines.append(f"calls {len(calls)} untraced then traced; spans in {spans_path.relative_to(ROOT)}")

    check_references(runner, workload, problems)
    failed = [o for o in timed if o.problems]
    for o in failed:
        problems.extend(f"{o.call.cmd} {o.call.label}: {p}" for p in o.problems)
    attempted = len(timed)
    lines.append(f"failed_frac {len(failed) / attempted:.6g} ({len(failed)}/{attempted})")
    for name in units:
        lines.append(f"{name} {metrics[name]:.6g} {units[name]}")
    for p in problems:
        lines.append("CHECK FAILED: " + p)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "notes": lines, "problems": problems, "result": result,
              "calls": [[o.call.cmd, o.call.label, o.wall_s, o.ref_s, o.steps] for o in timed]}
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(env))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Each workload in its own process, then one table of every metric."""
    results = {}
    code = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        code = code or done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout.strip() else None
    print("\nworkload            metric                               value  unit")
    for name, res in results.items():
        for metric, m in (res or {}).get("metrics", {}).items():
            print(f"{name:<19} {metric:<34} {m['value']:>9.4g}  {m['unit']}")
    print(json.dumps(results))
    return code


def record_references(cli):
    runner = Runner(cli, OUT / "references")
    refs = {}
    for w in WORKLOADS.values():
        refs[w.name] = []
        for call in w.reference():
            o = runner.call(call)
            if o.problems:
                raise SystemExit(f"{w.name} {call.label}: {o.problems}")
            refs[w.name].append({"label": call.label, "dist": o.dist, "lambda": o.lam, "steps": o.steps})
    REFERENCES.write_text(json.dumps(refs, indent=2) + "\n", encoding="utf-8")


def main():
    threads_env = os.environ.pop("MONOFLOW_THREADS", None)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    parser.add_argument("--record-references", action="store_true", help="re-record references.json and exit")
    args = parser.parse_args()

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.workload is None and not args.record_references:
        parser.error("--workload is required")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    cli = load_program()
    OUT.mkdir(exist_ok=True)
    if args.record_references:
        record_references(cli)
        return 0
    return run_workload(args, cli, environment(threads_env))


if __name__ == "__main__":
    sys.exit(main())
