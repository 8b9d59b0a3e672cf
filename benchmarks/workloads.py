"""Seeded workloads: what each benchmark round asks the monoflow CLI to do.

Every workload is closed-loop with one client: the benchmark sends one CLI
call, waits for it to return, and only then sends the next.  Inputs come
from the run's seed alone; the program sees only explicit x0 vectors in a
config file, or a --seed for `check`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

TWO_P2 = {"sigma_hat": 0.05, "sigma_l": 0.3, "sigma_u": 0.7, "L": 1.0, "p": 2}
THREE_P3 = {"sigma_hat": 0.1, "sigma_l": 0.2, "sigma_u": 0.8, "L": 6.0, "p": 3}


@dataclass(frozen=True)
class Call:
    """One CLI call: `run`/`rates` with an experiment config, or `check`.

    Calls with the same label are the same kind of work; latency medians
    are taken per label.
    """

    cmd: str
    config: dict | None = None
    seed: int | None = None
    label: str = ""


def _vec(x):
    return [float(v) for v in x]


def flow_config(x0, T):
    return {
        "problem": {"name": "bilinear_saddle", "params": {"d": 2}},
        "mode": "FLOW",
        "params": {"theta": 0.012, "p": 2},
        "horizon": {"T": T, "h": 0.01},
        "x0": _vec(x0),
    }


def hpe_config(x0, max_iters=3000):
    return {
        "problem": {"name": "bilinear_saddle", "params": {"d": 10}},
        "mode": "HPE_EXACT",
        "params": {"sigma": 0.0, "theta": 1.5e-3, "p": 2},
        "horizon": {"max_iters": max_iters},
        "x0": _vec(x0),
    }


def tensor_configs(start, max_iters=60):
    """The acceptance TensorConfigs on the zoo; each problem takes the
    leading coordinates of one start vector."""
    zoo = [
        ("bilinear_saddle", {"d": 10}, TWO_P2, 10),
        ("strongly_monotone_affine", {"d": 10}, TWO_P2, 10),
        ("cubic_1d", {}, THREE_P3, 1),
        ("convex_gradient", {"d": 4}, THREE_P3, 4),
    ]
    return [
        (name, {
            "problem": {"name": name, "params": dict(params)},
            "mode": "TENSOR",
            "params": dict(tparams),
            "horizon": {"max_iters": max_iters},
            "x0": _vec(start[:d]),
        })
        for name, params, tparams, d in zoo
    ]


class Workload:
    name = ""
    why = ""
    trace_rounds = 1  # fixed work of a traced run, so its counts repeat exactly
    busy_cpus = 1  # processors a call keeps busy (host.StolenShare)

    def round(self, rng):
        """The calls of one measured round, drawn from rng."""
        raise NotImplementedError

    def reference(self):
        """Canonical calls whose final dist and lambda are recorded."""
        return []

    def warmup(self):
        """A short call that runs the same code paths before timing."""
        return []

    def setup_config(self):
        """The config a fresh process parses when set-up time is measured."""
        return self.reference()[0].config


class FlowSaddle(Workload):
    # The acceptance flow gate (p=2, theta=0.012, h=0.01) at a desk horizon.
    # The law solve dominates it: about 41 resolvents per RK4 step.  Each
    # start is the gate's x0 = (0.7, 0.7) rotated by a seeded angle.  The
    # trajectory stays inside the box, where the skew field commutes with
    # rotations, so every call does the same work and the per-seed spread
    # is machine noise.  The horizon is short (100 steps, about 0.4 s a
    # call) so that a run holds many calls.
    name = "flow_saddle_p2"
    why = "flow gate on the 2-d saddle, p=2: the law solve and resolvent dominate; rotated gate starts"
    T = 1.0
    trace_rounds = 5
    RADIUS = 0.7 * math.sqrt(2.0)

    def round(self, rng):
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        x0 = [self.RADIUS * math.cos(phi), self.RADIUS * math.sin(phi)]
        return [Call("run", flow_config(x0, self.T), label="rotated gate start")]

    def reference(self):
        return [Call("run", flow_config([0.7, 0.7], self.T), label="gate start")]

    def warmup(self):
        return [Call("run", flow_config([0.7, 0.7], 0.05))]


class HpeSaddle(Workload):
    # The exact-HPE rate gate at p=2 on the 10-d saddle, through `rates`:
    # hpe.run, the unwarmed re-solve in exact_oracle, verify_step, and the
    # per-record gap/residue/CSV work in cli.  About 12 resolvents per
    # iteration.  Starts are uniform in [-0.9, 0.9]^10, where the box is
    # active on some steps.  Run length varies a lot between such starts,
    # so a round is a fixed pool of three uniform draws (POOL_SEED, drawn
    # once, never redrawn), each moved by a seeded symmetry of the saddle
    # (a permutation of the (u_i, w_i) pairs and quarter turns inside each
    # pair, which preserve the box and the skew field), in seeded order.
    # Every round is then the same work on different coordinates.
    name = "hpe_saddle_p2"
    why = "exact-HPE rate gate, p=2, 10-d saddle over the box: hpe.run, law re-solve, verify_step, cli gap work"
    POOL_SEED = 2111
    POOL_SIZE = 3

    def __init__(self):
        self.pool = np.random.default_rng(self.POOL_SEED).uniform(-0.9, 0.9, (self.POOL_SIZE, 10))

    @staticmethod
    def symmetry(rng, x):
        h = x.size // 2
        perm = rng.permutation(h)
        u, w = x[:h][perm].copy(), x[h:][perm].copy()
        for i, turns in enumerate(rng.integers(0, 4, h)):
            for _ in range(int(turns)):
                u[i], w[i] = -w[i], u[i]
        return np.concatenate([u, w])

    def round(self, rng):
        calls = []
        for i in rng.permutation(self.POOL_SIZE):
            calls.append(Call("rates", hpe_config(self.symmetry(rng, self.pool[i])), label=f"pool[{i}]"))
        return calls

    def reference(self):
        return [Call("rates", hpe_config(np.full(10, 0.7)), label="gate start")]

    def warmup(self):
        return [Call("run", hpe_config(np.full(10, 0.7), max_iters=5))]


class TensorBatch(Workload):
    # Short TENSOR-mode runs on all four zoo problems with the acceptance
    # TensorConfigs: saddle and strongly monotone affine at d=10, p=2;
    # cubic_1d and convex_gradient (d=4) at p=3.  It never calls
    # operators.resolvent or feedback.solve_lambda, so it is the bypass for
    # changes to those, and it exercises the window search and the
    # surrogate Newton.  Solves are short (5-165 ms), so a run holds
    # hundreds of them and fresh uniform starts per round stay steady.
    name = "tensor_batch"
    why = "TENSOR runs on all four zoo problems: window search and surrogate Newton, bypassing resolvent and law solve"
    trace_rounds = 20

    def round(self, rng):
        start = rng.uniform(-0.9, 0.9, 10)
        return [Call("run", cfg, label=name) for name, cfg in tensor_configs(start)]

    def reference(self):
        return [Call("run", cfg, label=name) for name, cfg in tensor_configs(np.full(10, 0.7))]

    def warmup(self):
        return [Call("run", cfg) for _, cfg in tensor_configs(np.full(10, 0.7), max_iters=2)]


class CheckAll(Workload):
    # `monoflow check --suite ALL` as users run it: MONOFLOW_THREADS unset,
    # so the suites run on the program's default thread pool.  The only
    # workload that reaches the checks layer, the pool, gap_grid_oracle
    # and check_discrete_lemmas.
    name = "check_all"
    why = "check --suite ALL on the default thread pool: property suites, gap grid oracle, discrete lemma audit"
    # The pool has more threads than the host has processors, and its
    # waiting threads wake every few milliseconds, so all are kept busy.
    busy_cpus = os.cpu_count() or 1

    def round(self, rng):
        return [Call("check", seed=int(rng.integers(0, 2**31)), label="ALL")]

    def setup_config(self):
        return flow_config([0.7, 0.7], FlowSaddle.T)


WORKLOADS = {w.name: w for w in (FlowSaddle(), HpeSaddle(), TensorBatch(), CheckAll())}
