"""Large-step relative-error proximal iteration and its certificates.

Each iteration produces (lam, y, v, eps) with v an eps-enlarged value of
the operator at y, subject to the two machine-checked conditions

    ||lam*v + y - x||^2 + 2*lam*eps <= sigma^2 ||y - x||^2
    lam * ||y - x||^(p-1)          >= theta

followed by the update x+ = x - lam*v.  The exact oracle solves the
control law and a resolvent, which satisfies both with sigma = 0, eps = 0
and large-step equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import operators as ops
from .errors import CertificateViolation, MonoflowError, OracleFailure, StationaryPoint, UnknownSolutionSet
from .feedback import FeedbackParams, law_band, solve_lambda
from .report import CheckReport, worst

__all__ = [
    "CERT_TOL",
    "HpeConfig",
    "StepCertificate",
    "IterateRecord",
    "RunResult",
    "verify_step",
    "exact_oracle",
    "ExactProxOracle",
    "run",
    "ergodic_iterate",
    "check_discrete_lemmas",
]

CERT_TOL = 1e-8


@dataclass(frozen=True)
class HpeConfig:
    sigma: float
    theta: float
    p: int
    max_iters: int
    stop_res: float = 1e-9

    def __post_init__(self):
        if not 0.0 <= self.sigma < 1.0:
            raise ValueError("sigma must lie in [0, 1)")
        if not self.theta > 0:
            raise ValueError("theta must be positive")
        if int(self.p) != self.p or self.p < 1:
            raise ValueError("order p must be an integer >= 1")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if not self.stop_res >= 0:
            raise ValueError("stop_res must be >= 0")
        object.__setattr__(self, "p", int(self.p))


@dataclass(frozen=True)
class StepCertificate:
    relative_error_ok: bool
    large_step_ok: bool
    relative_error_slack: float = 0.0
    large_step_slack: float = 0.0

    @property
    def ok(self):
        return self.relative_error_ok and self.large_step_ok


@dataclass(frozen=True)
class IterateRecord:
    k: int
    x_prev: np.ndarray
    lam: float
    y: np.ndarray
    v: np.ndarray
    eps: float
    x_next: np.ndarray
    cert: StepCertificate


@dataclass(frozen=True)
class RunResult:
    records: list[IterateRecord]
    status: str  # SOLVED | MAX_ITERS


def verify_step(cfg, x_prev, lam, y, v, eps):
    """Machine-check the two step conditions with CERT_TOL relative slack.

    The slack scale max(1, ||y - x||^2) absorbs the resolvent tolerance of
    the exact oracle (residual <= 1e-10 * max(1, ||y - x||), squared).
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if not lam > 0:
        raise ValueError("lam must be positive")
    x_prev = np.asarray(x_prev, dtype=float)
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    step = ops.norm(y - x_prev)
    lhs = ops.norm(lam * v + y - x_prev) ** 2 + 2.0 * lam * eps
    rhs = cfg.sigma**2 * step**2
    rel_slack = rhs - lhs + CERT_TOL * max(1.0, step**2)
    ls_slack = lam * step ** (cfg.p - 1) - cfg.theta * (1.0 - CERT_TOL)
    return StepCertificate(
        relative_error_ok=rel_slack >= 0.0,
        large_step_ok=ls_slack >= 0.0,
        relative_error_slack=rel_slack,
        large_step_slack=ls_slack,
    )


def exact_oracle(problem, x, cfg, hint=None):
    """Resolvent oracle: lam solves the control law, then (y, v) = prox pair.

    Satisfies the step conditions with sigma = 0 and eps = 0.  The large-
    step inequality is enforced one-sidedly on the returned pair: a root
    accepted within the law's residual tolerance can land a hair below
    theta, so lam is nudged up until lam * ||y - x||^(p-1) >= theta holds
    for the exact pair handed back.  Scaling lam by f >= 1 scales the law
    value by at least f, so the loop terminates in a step or two and the
    overshoot stays within the solver's acceptance band.
    """
    op = problem.operator
    if cfg.p == 1:
        lam = cfg.theta
        r = ops.resolvent(op, lam, x)
        return lam, r.y, r.v, 0.0
    lam = solve_lambda(op, x, FeedbackParams(cfg.theta, cfg.p, relax_theta=True), hint=hint)
    r = ops.resolvent(op, lam, x)
    for _ in range(60):
        d = ops.norm(r.y - x)
        val = lam * d ** (cfg.p - 1)
        if val >= cfg.theta:
            break
        band = law_band(lam, d, r.residual, cfg.p)
        lam *= max((cfg.theta + band) / max(val, 1e-300), 1.0 + 1e-12)
        r = ops.resolvent(op, lam, x)
    return lam, r.y, r.v, 0.0


class ExactProxOracle:
    """Stateful wrapper around exact_oracle that warm-starts the law solve."""

    def __init__(self, problem, cfg):
        self.problem = problem
        self.cfg = cfg
        self.hint = None

    def __call__(self, x):
        lam, y, v, eps = exact_oracle(self.problem, x, self.cfg, hint=self.hint)
        self.hint = lam
        return lam, y, v, eps


def run(problem, oracle, cfg, x0):
    """Drive the iteration from x0 until solved or the budget is used.

    Parameters
    ----------
    problem : ProblemInstance
    oracle : callable x -> (lam, y, v, eps)
    cfg : HpeConfig (verification constants sigma, theta, p)
    x0 : array

    Returns RunResult; raises CertificateViolation / OracleFailure with the
    offending iteration index k and the records of steps 1..k-1.
    """
    op = problem.operator
    x = np.asarray(x0, dtype=float).copy()
    records = []
    status = "MAX_ITERS"
    for k in range(1, cfg.max_iters + 1):
        if ops.min_norm_residual(op, x) <= cfg.stop_res:
            status = "SOLVED"
            break
        try:
            lam, y, v, eps = oracle(x)
        except StationaryPoint:
            status = "SOLVED"
            break
        except MonoflowError as exc:
            raise OracleFailure(f"oracle failed at k={k}: {exc}", k=k, records=records) from exc
        v = np.asarray(v, dtype=float)
        cert = verify_step(cfg, x, lam, y, v, eps)
        if not cert.ok:
            raise CertificateViolation(
                f"step certificate failed at k={k}: "
                f"relative_error_slack={cert.relative_error_slack:.3e} "
                f"large_step_slack={cert.large_step_slack:.3e}",
                k=k,
                certificate=cert,
                records=records,
            )
        x_next = x - lam * v
        records.append(IterateRecord(k, x, lam, np.asarray(y, dtype=float), v, eps, x_next, cert))
        x = x_next
    else:
        if ops.min_norm_residual(op, x) <= cfg.stop_res:
            status = "SOLVED"
    return RunResult(records=records, status=status)


def ergodic_iterate(records, k=None):
    """Step-size weighted average of y_1..y_k."""
    if k is None:
        k = len(records)
    if k < 1 or not records:
        raise ValueError("ergodic iterate needs at least one record")
    num = np.zeros_like(records[0].y)
    den = 0.0
    for r in records[:k]:
        num += r.lam * r.y
        den += r.lam
    return num / den


def check_discrete_lemmas(records, problem, cfg):
    """Audit a run against the discrete descent, error and step-size lemmas.

    Uses the declared solution set as ground truth; raises
    UnknownSolutionSet when the problem does not carry one.  The step-size
    lower bound is the proof-side form

        sum lam_i >= theta ((1-sigma^2)/d0^2)^{(p-1)/2} k^{(p+1)/2}.
    """
    if problem.solution_set.kind == "UNKNOWN":
        raise UnknownSolutionSet("discrete lemma audit needs a declared solution set")
    rep = CheckReport()
    if not records:
        rep.add("run nonempty", -1.0)
        return rep

    from .metrics import dist_to_solutions

    sigma, theta, p = cfg.sigma, cfg.theta, cfg.p
    x_seq = [records[0].x_prev] + [r.x_next for r in records]
    d_seq = [dist_to_solutions(problem, x) for x in x_seq]
    d0 = d_seq[0]
    e_seq = [0.5 * d * d for d in d_seq]
    e0 = e_seq[0]
    scale = max(e0, 1e-300)
    step_sq = [ops.norm(r.x_prev - r.y) ** 2 for r in records]
    acc = list(accumulate(step_sq))
    lam_sum = list(accumulate(r.lam for r in records))

    rep.add("Lyapunov distance nonincreasing", *worst((a - b) / scale + 1e-9 for a, b in zip(e_seq, e_seq[1:])))
    rep.add(
        "descent sum <= E0 - Ek",
        *worst((e0 - e - 0.5 * (1.0 - sigma**2) * a) / scale + 1e-9 for e, a in zip(e_seq[1:], acc)),
    )
    cap = d0**2 / (1.0 - sigma**2)
    rep.add("sum ||x_{i-1} - y_i||^2 <= d0^2/(1-sigma^2)", (cap * (1.0 + 1e-8) + 1e-12 - acc[-1]) / max(cap, 1e-300))
    rep.add(
        "per-step squared-distance drop",
        *worst(
            (a**2 - b**2 + 2.0 * r.lam * r.eps - (1.0 - sigma**2) * sq) / max(d0**2, 1e-300) + 1e-9
            for a, b, r, sq in zip(d_seq, d_seq[1:], records, step_sq)
        ),
    )

    # Running minima fold by the same rule as the margins, so a NaN stays in them.
    def running_worst(values):
        return accumulate(values, lambda a, b: worst((a, b))[0])

    err_fac = math.sqrt((1.0 + sigma) / (1.0 - sigma))
    eps_fac = sigma**2 / (2.0 * (1.0 - sigma**2))
    best_vel = running_worst(math.sqrt(r.lam) * ops.norm(r.v) for r in records)
    best_eps = running_worst(r.eps for r in records)
    cap_vel = [err_fac * d0 / math.sqrt(ls) for ls in lam_sum]
    rep.add(
        "residual bound min sqrt(lam)||v||",
        *worst((c - b) / max(c, 1e-300) + 1e-8 for c, b in zip(cap_vel, best_vel)),
    )
    rep.add("enlargement bound min eps", *worst(eps_fac * d0**2 / ls - b + 1e-12 for ls, b in zip(lam_sum, best_eps)))

    coef = theta * ((1.0 - sigma**2) / max(d0**2, 1e-300)) ** ((p - 1) / 2.0)
    floors = [coef * (k + 1.0) ** ((p + 1) / 2.0) for k in range(len(records))]
    rep.add(
        "sum lam_i >= theta ((1-s^2)/d0^2)^{(p-1)/2} k^{(p+1)/2}",
        *worst((ls - f) / max(f, 1e-300) + 1e-8 for ls, f in zip(lam_sum, floors)),
    )

    if problem.domain_bounded:
        from .metrics import gap

        try:
            sup_sq = ops.domain_sup_dist_sq(problem.operator, records[0].x_prev)
            margins = []
            num = np.zeros_like(records[0].y)
            for r, ls in zip(records, lam_sum):
                num += r.lam * r.y
                cap_g = 0.5 * sup_sq / ls
                margins.append((cap_g - gap(problem, num / ls)) / max(cap_g, 1e-300) + 1e-8)
            rep.add("ergodic gap <= sup ||z-x0||^2 / (2 sum lam)", *worst(margins))
        except MonoflowError:
            pass
    return rep
