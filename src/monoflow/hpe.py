"""Large-step relative-error proximal iteration and its certificates.

Each iteration produces (lam, y, v, eps) with v an eps-enlarged value of
the operator at y, subject to the two machine-checked conditions

    ||lam*v + y - x||^2 + 2*lam*eps <= sigma^2 ||y - x||^2
    lam * ||y - x||^(p-1)          >= theta

followed by the update x+ = x - lam*v.  The exact oracle solves the
control law and a resolvent, which satisfies both with sigma = 0, eps = 0
and large-step equality; tensor.lambda_window_search is the other oracle.
Both are plain functions; run hands each call the last step's lam and warm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import metrics
from . import operators as ops
from .errors import (
    CertificateViolation, InnerSolverDiverged, MonoflowError, OracleFailure, StationaryPoint, UnknownSolutionSet
)
from .feedback import FeedbackParams, law_band, solve_lambda
from .report import CheckReport, running_worst, worst

__all__ = [
    "CERT_TOL",
    "HpeConfig",
    "StepCertificate",
    "IterateRecord",
    "RunResult",
    "verify_step",
    "exact_oracle",
    "run",
    "check_discrete_lemmas",
]

CERT_TOL = 1e-8


@dataclass(frozen=True)
class HpeConfig:
    """Step-verification constants and budget; theta and p are checked once,
    by building the FeedbackParams that the exact oracle solves the law with.

    sigma only widens verify_step's relative-error allowance: the exact
    oracle returns resolvent pairs, whose relative error is zero (sigma = 0),
    so sigma changes no iterate."""

    sigma: float
    theta: float
    p: int
    max_iters: int
    stop_res: float = 1e-9
    law: FeedbackParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.sigma < 1.0:
            raise ValueError("sigma must lie in [0, 1)")
        law = FeedbackParams(self.theta, self.p)
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if not self.stop_res >= 0:
            raise ValueError("stop_res must be >= 0")
        object.__setattr__(self, "p", law.p)
        object.__setattr__(self, "law", law)


@dataclass(frozen=True)
class StepCertificate:
    """The two step conditions' slacks; each holds when its slack is >= 0, so NaN fails."""

    relative_error_slack: float
    large_step_slack: float

    @property
    def relative_error_ok(self):
        return self.relative_error_slack >= 0.0

    @property
    def large_step_ok(self):
        return self.large_step_slack >= 0.0

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
    """The records of a run and the rule that ended it.

    stop is "residual" (ops.min_norm_residual <= stop_res at the point a
    step would start from), "oracle_stationary" (the oracle raised
    StationaryPoint), "final_residual" (the point after the last budgeted
    step meets stop_res) or "max_iters" (the budget ran out).  status is
    MAX_ITERS for the last rule and SOLVED for the other three.
    """

    records: list[IterateRecord]
    stop: str

    @property
    def status(self):
        return "MAX_ITERS" if self.stop == "max_iters" else "SOLVED"


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
    return StepCertificate(relative_error_slack=rel_slack, large_step_slack=ls_slack)


def exact_oracle(problem, x, cfg, hint=None, residual=None, warm=None):
    """Resolvent oracle: lam solves the control law (lam = theta at p = 1, where
    the nudge loop below exits at once), then (y, v) = prox pair.

    Satisfies the step conditions with sigma = 0 and eps = 0.  The large-
    step inequality is enforced one-sidedly on the returned pair: a root
    accepted within the law's residual tolerance can land a hair below
    theta, so lam is nudged up until lam * ||y - x||^(p-1) >= theta holds
    for the exact pair handed back.  Scaling lam by f >= 1 scales the law
    value by at least f, so while that value is positive the loop ends in a
    step or two and the overshoot stays within the solver's acceptance
    band.  A value that is not positive (a step that rounds to zero) gives
    no scale to nudge by, and InnerSolverDiverged is raised.  hint is the law
    solve's first trial.  residual, when given, is ops.min_norm_residual(op,
    x), and the law's stationarity test reads it instead of evaluating it
    again.  The law solve's first trial and every re-solve of x start cold;
    they share one start state (ops.cold_state), formed once, with the bits
    of a cold start.  warm is not read, and the warm returned is None.
    """
    op = problem.operator
    start = ops.cold_state(op, x)
    lam = cfg.theta if cfg.p == 1 else solve_lambda(op, x, cfg.law, hint=hint, residual=residual, warm=start)
    r = ops.resolvent(op, lam, x, warm=start)
    for _ in range(60):
        val = lam * r.step ** (cfg.p - 1)
        if val >= cfg.theta:
            break
        if not val > 0:
            raise InnerSolverDiverged(f"law value {val:.3e} at lam={lam:.3e} cannot be nudged to theta={cfg.theta:.3e}")
        band = law_band(lam, r.step, r.residual, cfg.p)
        lam *= max((cfg.theta + band) / max(val, 1e-300), 1.0 + 1e-12)
        r = ops.resolvent(op, lam, x, warm=start)
    return lam, r.y, r.v, 0.0, None


def run(problem, oracle, cfg, x0):
    """Drive the iteration from x0 until solved or the budget is used.

    Parameters
    ----------
    problem : ProblemInstance
    oracle : callable (x, residual=, hint=, warm=) -> (lam, y, v, eps, warm),
        e.g. functools.partial(exact_oracle, problem, cfg=cfg); residual is
        ops.min_norm_residual at x, which run has just tested, and hint and
        warm are the last step's lam and returned warm (None at k = 1)
    cfg : HpeConfig (verification constants sigma, theta, p)
    x0 : array

    Returns RunResult; raises CertificateViolation / OracleFailure with the
    offending iteration index k and the records of steps 1..k-1.
    """
    op = problem.operator
    x = np.asarray(x0, dtype=float).copy()
    records = []
    stop = "max_iters"
    lam = warm = None
    for k in range(1, cfg.max_iters + 1):
        res = ops.min_norm_residual(op, x)
        if res <= cfg.stop_res:
            stop = "residual"
            break
        try:
            lam, y, v, eps, warm = oracle(x, residual=res, hint=lam, warm=warm)
        except StationaryPoint:
            stop = "oracle_stationary"
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
            stop = "final_residual"
    return RunResult(records=records, stop=stop)


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

    sigma, theta, p = cfg.sigma, cfg.theta, cfg.p
    x_seq = np.array([records[0].x_prev] + [r.x_next for r in records])
    d_seq = metrics.dist_to_solutions(problem, x_seq).tolist()
    d0 = d_seq[0]
    e_seq = [0.5 * d * d for d in d_seq]
    e0 = e_seq[0]
    scale = max(e0, 1e-300)
    step_sq = [ops.norm(r.x_prev - r.y) ** 2 for r in records]
    acc = list(accumulate(step_sq))
    num, den = metrics.running_sums([r.lam for r in records], np.array([r.y for r in records]))
    lam_sum = den.tolist()

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
        gaps, off = metrics.ergodic_gaps(problem, num, den)
        if off is None:
            sup_sq = problem.operator.domain.sup_dist_sq(records[0].x_prev)
            caps = [0.5 * sup_sq / ls for ls in lam_sum]
            rep.add(
                "ergodic gap <= sup ||z-x0||^2 / (2 sum lam)",
                *worst((c - g) / max(c, 1e-300) + 1e-8 for c, g in zip(caps, gaps)),
            )
    return rep
