"""Outside-in span tracer for the monoflow layers.

The tracer replaces public functions of the program with timing wrappers,
both in the module that defines each function and in every monoflow module
that imported it by name, so a call is caught whichever name it goes
through.  Spans stay in memory, one list per thread, and are written out
once when the benchmark ends.  Leaving the tracer restores every name it
replaced.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
import threading
from time import perf_counter

# (module, attribute, span name, result hook).  The hook turns the return
# value into a per-span count; it runs only when the call returns.
TARGETS = [
    ("monoflow.operators", "resolvent", "operators.resolvent", lambda a, k, out: out.iterations),
    ("monoflow.operators", "min_norm_residual", "operators.min_norm_residual", None),
    ("monoflow.feedback", "solve_lambda", "feedback.solve_lambda", None),
    ("monoflow.flow", "integrate", "flow.integrate", lambda a, k, out: _rk4_steps(a, k, out)),
    ("monoflow.hpe", "run", "hpe.run", lambda a, k, out: len(out.records)),
    ("monoflow.hpe", "exact_oracle", "hpe.exact_oracle", None),
    ("monoflow.hpe", "verify_step", "hpe.verify_step", None),
    ("monoflow.hpe", "check_discrete_lemmas", "hpe.check_discrete_lemmas", None),
    ("monoflow.tensor", "lambda_window_search", "tensor.lambda_window_search", None),
    ("monoflow.tensor", "surrogate_resolvent", "tensor.surrogate_resolvent", None),
    ("monoflow.metrics", "gap", "metrics.gap", None),
    ("monoflow.metrics", "residue", "metrics.residue", None),
    ("monoflow.metrics", "dist_to_solutions", "metrics.dist_to_solutions", None),
    ("monoflow.metrics", "fit_rate", "metrics.fit_rate", None),
    ("monoflow.metrics", "gap_grid_oracle", "metrics.gap_grid_oracle", None),
    ("monoflow.config", "load_config", "config.load_config", None),
    ("monoflow.problems", "build_problem", "problems.build_problem", None),
    ("monoflow.cli", "main", "cli", None),
]

# The property suites are reached through this registry, not by name.
SUITE_REGISTRY = ("monoflow.checks", "SUITES", "checks.")


def _rk4_steps(args, kwargs, traj):
    # integrate(problem, x0, params, T, h, ...): every step but the last
    # ends on the grid k*h, and the last one ends on T.
    h = kwargs["h"] if "h" in kwargs else args[4]
    return math.ceil(traj.states[-1].t / h - 1e-9)


class Span:
    __slots__ = ("name", "start", "end", "parent", "info", "cause")

    def __init__(self, name, start, end=0.0, parent=-1, info=None, cause=-1):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index in the same thread's list, -1 for a root
        self.info = info  # hook count, or the exception type name on failure
        # For a root span on a worker thread: the index of the span that was
        # open on the tracing thread when it started (the benchmark is the
        # only client, so that span caused it), else -1.
        self.cause = cause


class Tracer:
    """Context manager that patches the targets and records spans.

    `threads` holds one span list per thread that ran a traced call, the
    thread that entered the tracer first; parents always sit in the same
    thread's list.
    """

    def __init__(self):
        self.threads = []
        self.patched = []  # (namespace, key, original)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = ([], [])
            self._local.state = st
            with self._lock:
                self.threads.append(st[0])
        return st

    def wrap(self, fn, name, hook=None):
        state = self._state

        def traced(*args, **kwargs):
            spans, stack = state()
            if stack:
                span = Span(name, perf_counter(), parent=stack[-1])
            else:
                origin_spans, origin_stack = self._origin
                top = origin_stack[-1:] if spans is not origin_spans else []
                span = Span(name, perf_counter(), cause=top[0] if top else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.info = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if hook is not None:
                span.info = hook(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        self._origin = self._state()
        package = [m for n, m in sorted(sys.modules.items()) if n == "monoflow" or n.startswith("monoflow.")]
        try:
            for modname, attr, name, hook in TARGETS:
                original = getattr(sys.modules[modname], attr)
                wrapper = self.wrap(original, name, hook)
                for mod in package:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._patch(vars(mod), key, wrapper)
            modname, attr, prefix = SUITE_REGISTRY
            table = getattr(sys.modules[modname], attr)
            for key, fn in list(table.items()):
                self._patch(table, key, self.wrap(fn, prefix + key))
        except BaseException:
            self._restore()
            raise
        return self

    def _patch(self, namespace, key, wrapper):
        self.patched.append((namespace, key, namespace[key]))
        namespace[key] = wrapper

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self.patched:
            namespace, key, original = self.patched.pop()
            namespace[key] = original

    def write(self, path):
        """Write all spans as gzipped JSON lines: thread, index, name, start, end, parent, info, cause."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for t, spans in enumerate(self.threads):
                for i, s in enumerate(spans):
                    fh.write(json.dumps([t, i, s.name, s.start, s.end, s.parent, s.info, s.cause]) + "\n")


def self_times(spans, adopted=()):
    """Self time of each span in one thread's list.

    A span's self time is its duration minus the part of its interval that
    its child spans cover; overlapping children are counted once.
    `adopted` adds children from other threads as (parent, start, end).
    """
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    for parent, start, end in adopted:
        children[parent].append((start, end))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(a, s.start), min(b, s.end)) for a, b in kids):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def has_ancestor(spans, index, name):
    p = spans[index].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(threads):
    """Per-layer counts, self times and work ratios from recorded spans.

    A ratio whose base is zero (the layer did not run) is reported as 0.
    """
    calls, self_s, info_sum, errors = {}, {}, {}, {}
    under = {"feedback.solve_lambda": 0, "flow.integrate": 0, "hpe.run": 0}
    adopted = [(s.cause, s.start, s.end) for spans in threads[1:] for s in spans if s.cause >= 0]
    for t, spans in enumerate(threads):
        for i, (s, own) in enumerate(zip(spans, self_times(spans, adopted if t == 0 else ()))):
            calls[s.name] = calls.get(s.name, 0) + 1
            self_s[s.name] = self_s.get(s.name, 0.0) + own
            if isinstance(s.info, str):
                errors[(s.name, s.info)] = errors.get((s.name, s.info), 0) + 1
            elif s.info is not None:
                info_sum[s.name] = info_sum.get(s.name, 0) + s.info
            if s.name == "operators.resolvent":
                for outer in under:
                    if has_ancestor(spans, i, outer):
                        under[outer] += 1

    def ratio(num, den):
        return num / den if den else 0.0

    def count(name):
        return calls.get(name, 0)

    out = {}
    for name in ("operators.resolvent", "operators.min_norm_residual", "feedback.solve_lambda",
                 "hpe.exact_oracle", "tensor.lambda_window_search", "tensor.surrogate_resolvent"):
        out[name + ".calls"] = count(name)
    for _, _, name, _ in TARGETS:
        out[name + ".self_s"] = self_s.get(name, 0.0)
    for key in ("FEEDBACK", "FLOW", "HPE", "TENSOR", "METRICS"):
        out[f"checks.{key}.self_s"] = self_s.get("checks." + key, 0.0)
    steps = info_sum.get("flow.integrate", 0)
    iters = info_sum.get("hpe.run", 0)
    out["operators.newton_its_per_resolvent"] = ratio(info_sum.get("operators.resolvent", 0), count("operators.resolvent"))
    out["feedback.resolvents_per_solve"] = ratio(under["feedback.solve_lambda"], count("feedback.solve_lambda"))
    out["flow.rk4_steps"] = steps
    out["flow.resolvents_per_step"] = ratio(under["flow.integrate"], steps)
    out["hpe.iterations"] = iters
    out["hpe.resolvents_per_iter"] = ratio(under["hpe.run"], iters)
    out["tensor.surrogate_per_step"] = ratio(count("tensor.surrogate_resolvent"), count("tensor.lambda_window_search"))
    out["tensor.inner_failures"] = errors.get(("tensor.surrogate_resolvent", "InnerSolverDiverged"), 0)
    return out
