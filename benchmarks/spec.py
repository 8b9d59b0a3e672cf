"""The benchmark's declared metrics; BENCHMARK.json is generated from here.

`python3 benchmarks/run.py --write-spec` is the only writer of
BENCHMARK.json, so the file and the code that measures it cannot drift.
"""

from __future__ import annotations

from workloads import WORKLOADS

RUN_SECONDS = 25

# (name, unit, better, bound).  bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END = [
    # Fresh process: import monoflow, parse the config, build the problem;
    # the median of several processes, less the host's steal.
    ("setup_s", "s", "lower", 0.25),
    # Mean time of one round of CLI calls (see workloads.py) over the run.
    ("run_s", "s", "lower", 0.25),
    # RK4 steps, HPE/tensor iterations, or (check_all) invariant lines
    # printed, per second of CLI call time, over the whole run.
    ("steps_per_s", "1/s", "higher", 0.25),
    # Latency of one CLI call.  p50: the median per kind of call (zoo
    # problem, pool start), averaged over kinds.  Tail: the highest order
    # statistic with ten calls beyond it, or with under 20 calls in a run,
    # the slowest kind's median.
    ("solve_p50_ms", "ms", "lower", 0.25),
    ("solve_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]
# Every call time above is a wall time adjusted to the reference host
# speed and less the host's steal (host.py): the reference machine is a
# shared 2-core VM whose speed swings by up to 1.6x, and over ten runs of
# the same work raw wall times spread by up to 0.3 of their median,
# adjusted ones by under 0.08.

# Per-layer metrics from a traced run (spans.layer_metrics).  Self time is
# a span's duration minus what its child spans cover; on check_all the
# suites run on the program's pool, so per-thread self times include waits
# for the interpreter lock and add up to more than the wall time.  Each
# group names the end-to-end metric it should move, and on which workload.
_SELF = "s"
PER_LAYER = [
    # -> run_s on flow_saddle_p2 and hpe_saddle_p2; no change on tensor_batch.
    ("operators.resolvent.calls", "count"),
    ("operators.resolvent.self_s", _SELF),
    ("operators.newton_its_per_resolvent", "its/resolvent"),
    ("operators.min_norm_residual.calls", "count"),
    ("operators.min_norm_residual.self_s", _SELF),
    # -> steps_per_s on flow_saddle_p2 and hpe_saddle_p2.  One resolvent
    # per solve is kept; the rest are bracketing and root-finding work.
    ("feedback.solve_lambda.calls", "count"),
    ("feedback.solve_lambda.self_s", _SELF),
    ("feedback.resolvents_per_solve", "resolvents/solve"),
    # -> steps_per_s on flow_saddle_p2.
    ("flow.integrate.self_s", _SELF),
    ("flow.rk4_steps", "count"),
    ("flow.resolvents_per_step", "resolvents/step"),
    # -> steps_per_s on hpe_saddle_p2.
    ("hpe.run.self_s", _SELF),
    ("hpe.iterations", "count"),
    ("hpe.exact_oracle.calls", "count"),
    ("hpe.exact_oracle.self_s", _SELF),
    ("hpe.resolvents_per_iter", "resolvents/iter"),
    ("hpe.verify_step.self_s", _SELF),
    # -> run_s on check_all.
    ("hpe.check_discrete_lemmas.self_s", _SELF),
    # -> solve_p50_ms and solve_tail_ms on tensor_batch.  Inner failures are
    # InnerSolverDiverged raised out of surrogate_resolvent, which the window
    # search treats as product = +inf.
    ("tensor.lambda_window_search.calls", "count"),
    ("tensor.lambda_window_search.self_s", _SELF),
    ("tensor.surrogate_resolvent.calls", "count"),
    ("tensor.surrogate_resolvent.self_s", _SELF),
    ("tensor.surrogate_per_step", "solves/step"),
    ("tensor.inner_failures", "count"),
    # -> run_s on every run/rates workload.
    ("metrics.gap.self_s", _SELF),
    ("metrics.residue.self_s", _SELF),
    ("metrics.dist_to_solutions.self_s", _SELF),
    ("metrics.fit_rate.self_s", _SELF),
    # -> run_s on check_all.
    ("metrics.gap_grid_oracle.self_s", _SELF),
    ("checks.FEEDBACK.self_s", _SELF),
    ("checks.FLOW.self_s", _SELF),
    ("checks.HPE.self_s", _SELF),
    ("checks.TENSOR.self_s", _SELF),
    ("checks.METRICS.self_s", _SELF),
    # -> run_s on hpe_saddle_p2 and tensor_batch: formatting rows, writing
    # the CSV and summary.  Suites on the pool count as its children.
    ("cli.self_s", _SELF),
    # -> setup_s.
    ("config.load_config.self_s", _SELF),
    ("problems.build_problem.self_s", _SELF),
    # The same calls untraced, then traced: the tracer's cost and its base.
    ("trace.untraced_s", _SELF),
    ("trace.overhead_s", _SELF),
]

END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = dict(PER_LAYER)


def benchmark_json():
    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER],
    }
