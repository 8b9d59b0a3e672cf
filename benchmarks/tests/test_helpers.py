"""Tests for the benchmark's own helpers.

    python3 -m pytest benchmarks/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import monoflow  # noqa: E402
from monoflow import checks, cli, config, feedback, flow, hpe, metrics, operators, tensor  # noqa: E402

import host  # noqa: E402
import spec  # noqa: E402
from host import scale, timed  # noqa: E402
from run import solve_latency, tail  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_covered_child_intervals():
    # root [0, 10] with children [1, 3] and [2, 6] (overlapping) and
    # [8, 9]; the first child has a grandchild [1.5, 2.5].
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("a.x", 1.5, 2.5, 1),
        Span("b", 2.0, 6.0, 0),
        Span("c", 8.0, 9.0, 0),
    ]
    got = self_times(spans)
    # root: 10 - |[1, 6] u [8, 9]| = 10 - 6; a: 2 - 1; leaves keep all.
    assert got == pytest.approx([4.0, 1.0, 1.0, 4.0, 1.0])


def test_self_time_clips_children_to_the_parent():
    spans = [Span("root", 0.0, 2.0, -1), Span("late", 1.5, 3.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_self_time_counts_parallel_adopted_children_once():
    # A pool runs two suites from a call on the tracing thread; while they
    # overlap, the call is waiting, not working.
    spans = [Span("cli", 0.0, 10.0, -1)]
    assert self_times(spans, adopted=[(0, 1.0, 7.0), (0, 2.0, 8.0)]) == pytest.approx([3.0])


def test_tail_is_the_order_statistic_with_ten_samples_beyond():
    samples = list(range(1, 101))  # 1..100
    value, pct = tail(samples)
    assert value == 90 and sum(s > value for s in samples) == 10
    assert pct == pytest.approx(90.0)


def test_tail_needs_twice_the_samples_beyond_it():
    assert tail(list(range(19))) is None
    value, pct = tail(list(range(20)))
    assert value == 9 and pct == pytest.approx(50.0)


def _samples(kinds):
    return [(k, ms / 1e3) for k, v in kinds.items() for ms in v]


def test_solve_latency_averages_per_kind_medians():
    # Two well separated kinds: the pooled median would sit in the gap.
    fast, slow = list(range(1, 12)), list(range(100, 111))
    p50, tail_ms, note = solve_latency(_samples({"fast": fast, "slow": slow}))
    assert p50 == pytest.approx((6 + 105) / 2)
    assert tail_ms == pytest.approx(100) and note == "p54.5 of 22 calls"


def test_solve_latency_tail_on_few_calls_is_the_slowest_median():
    p50, tail_ms, _ = solve_latency(_samples({"a": [1.0, 2.0, 9.0], "b": [4.0, 5.0, 6.0]}))
    assert p50 == pytest.approx(3.5) and tail_ms == pytest.approx(5.0)


def test_scale_averages_the_sampled_host_speed():
    ref = host.KERNEL_REF_S
    assert scale([ref, ref]) == pytest.approx(1.0)
    # A host at half speed doubles the kernel and the call alike.
    assert 4.0 * scale([2 * ref, 2 * ref, 2 * ref]) == pytest.approx(2.0)
    # Half the call at full speed, half at half speed: the work done is
    # what 1.5 of its 2 seconds would do at full speed.
    assert 2.0 * scale([ref, 2 * ref]) == pytest.approx(1.5)


def test_timed_samples_the_speed_during_a_call_and_leaves_no_timer():
    ticks = []
    previous = host.signal.getsignal(host.signal.SIGALRM)

    def busy():
        t0 = host.perf_counter()
        while host.perf_counter() - t0 < 3.5 * host.TICK_S:
            ticks.append(host.signal.getitimer(host.signal.ITIMER_REAL)[1])
        return 7

    out, wall, factor = timed(busy)
    assert out == 7 and 0 < wall < 3.5 * host.TICK_S and factor > 0
    assert ticks and all(t == pytest.approx(host.TICK_S) for t in ticks)
    assert host.signal.getitimer(host.signal.ITIMER_REAL) == (0.0, 0.0)
    assert host.signal.getsignal(host.signal.SIGALRM) is previous


def test_stolen_share_divides_steal_by_the_busy_processors(monkeypatch):
    clock = iter([10.0, 30.0])  # 20 s of wall time
    steal = iter([100.0, 108.0])  # 8 s of steal summed over processors
    monkeypatch.setattr(host, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(host, "steal_seconds", lambda: next(steal))
    with host.StolenShare(busy_cpus=2) as stolen:
        pass
    assert stolen.share == pytest.approx(0.2)


def _monoflow_names():
    mods = [monoflow, checks, cli, config, feedback, flow, hpe, metrics, operators, tensor]
    names = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    names.update({("SUITES", k): v for k, v in checks.SUITES.items()})
    return names


def test_tracer_patches_every_imported_name_and_restores_it():
    before = _monoflow_names()
    with Tracer() as tracer:
        # The defining module and the modules that imported the name.
        for mod in (feedback, flow, hpe, checks):
            assert mod.solve_lambda is not before[(feedback.__name__, "solve_lambda")]
        assert checks.integrate is flow.integrate
        assert checks.run is hpe.run
        assert checks.gap is metrics.gap and checks.gap_grid_oracle is metrics.gap_grid_oracle
        assert checks.check_discrete_lemmas is hpe.check_discrete_lemmas
        assert cli.load_config is config.load_config
        assert all(fn.__wrapped__ is before[("SUITES", k)] for k, fn in checks.SUITES.items())
        patched = {(id(ns), key) for ns, key, _ in tracer.patched}
        assert len(patched) == len(tracer.patched)
    assert tracer.patched == []
    after = _monoflow_names()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_restores_names_when_the_traced_code_raises():
    before = _monoflow_names()
    with pytest.raises(ValueError):
        with Tracer():
            operators.resolvent(operators.make_affine([[1.0]]), -1.0, [0.0])
    assert all(_monoflow_names()[k] is before[k] for k in before)


def test_traced_calls_nest_and_count():
    problem = monoflow.problems.make_bilinear_saddle(d=2)
    params = feedback.FeedbackParams(0.012, 2)
    with Tracer() as tracer:
        flow.integrate(problem, [0.7, 0.7], params, T=0.05, h=0.01)
    (spans,) = tracer.threads
    assert spans[0].name == "flow.integrate" and spans[0].parent == -1 and spans[0].info == 5
    out = layer_metrics(tracer.threads)
    assert out["flow.rk4_steps"] == 5
    assert out["operators.resolvent.calls"] == sum(s.name == "operators.resolvent" for s in spans)
    assert out["flow.resolvents_per_step"] == pytest.approx(out["operators.resolvent.calls"] / 5)
    assert out["feedback.solve_lambda.calls"] == 4 * 5 + 1


def test_tracer_keeps_one_span_stack_per_thread():
    with Tracer() as tracer:
        checks.run_suites(["METRICS", "FEEDBACK"], seed=0, max_workers=2)
    roots = sorted(s.name for spans in tracer.threads for s in spans if s.parent == -1)
    assert roots == ["checks.FEEDBACK", "checks.METRICS"]
    # Nothing was open on the tracing thread, so nothing caused them.
    assert all(s.cause == -1 for spans in tracer.threads for s in spans)
    for spans in tracer.threads:
        assert all(s.parent < i for i, s in enumerate(spans))
        assert all(spans[s.parent].end >= s.end for s in spans if s.parent >= 0)


def test_worker_roots_are_adopted_by_the_open_call():
    with Tracer() as tracer:
        outer = tracer.wrap(checks.run_suites, "outer")
        outer(["METRICS", "FEEDBACK"], seed=0, max_workers=2)
    origin = tracer.threads[0]
    assert [s.name for s in origin] == ["outer"]
    workers = [s for spans in tracer.threads[1:] for s in spans if s.parent == -1]
    assert sorted(s.name for s in workers) == ["checks.FEEDBACK", "checks.METRICS"]
    assert all(s.cause == 0 for s in workers)
    (own,) = self_times(origin, [(s.cause, s.start, s.end) for s in workers])
    assert 0.0 <= own <= origin[0].end - origin[0].start - max(s.end - s.start for s in workers)


def test_benchmark_json_is_generated_from_spec():
    on_disk = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == spec.benchmark_json()
    assert set(spec.PER_LAYER_UNITS) == set(layer_metrics([])) | {"trace.untraced_s", "trace.overhead_s"}
