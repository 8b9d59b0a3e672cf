"""Fixed-step integration of the closed-loop resolvent flow.

The trajectory solves dx/dt = J_{lam(x)}(x) - x where lam(x) is the root
of the control law at the current point (lam = theta identically when
p = 1).  Integration is classical RK4 with the law solved at every stage.
Its bracket starts from a first-order prediction of lam, taken from the
previous stage's solved pair and the law's gradient there (law_gradient);
the solve certifies the root as before, so the prediction only saves
resolvents.  The stage takes y from the resolvent the law accepted lam on,
so each state carries the pair the law was certified on.  Ergodic averages
of (lam, y) are accumulated with the trapezoid rule at step resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError

from . import operators as ops
from .errors import StationaryPoint, StepRejected
from .feedback import STATIONARITY_TOL, law_band, law_gradient, rules_out_stationarity, solve_law
# solve_lambda is re-exported for benchmarks/tests/test_helpers.py, which reads flow.solve_lambda.
from .feedback import solve_lambda  # noqa: F401
from .report import CheckReport, worst

__all__ = [
    "FLOW_AE_TOL",
    "FlowState",
    "Trajectory",
    "integrate",
    "law_margin",
    "check_flow_invariants",
]

FLOW_AE_TOL = 1e-8


@dataclass(frozen=True)
class FlowState:
    t: float
    x: np.ndarray
    lam: float
    y: np.ndarray
    rho: float = 0.0  # certified residual of the resolvent solve behind y

    @property
    def speed(self):
        return ops.norm(self.x - self.y)


@dataclass
class Trajectory:
    states: list[FlowState] = field(default_factory=list)
    erg_num: list[np.ndarray] = field(default_factory=list)
    erg_den: list[float] = field(default_factory=list)
    status: str = "OK"

    def __len__(self):
        return len(self.states)


class _Stage:
    """Per-trajectory stage evaluator.

    For p >= 2 each stage solves the law at its point x' and returns the
    resolvent the law accepted.  The bracket hint is lam - g_x . (x' - x) /
    g_lam, from the last stage's solved pair (x, lam) and the law's
    gradient (g_lam, g_x) there; it is lam itself when g_lam <= 0 or the
    predicted change exceeds lam / 2.  The Newton exit state is not handed
    across stages: a warm exit with no iteration keeps a residual up to the
    resolvent's absolute floor, which near the solution set is a visible
    share of the speed.  For p = 1, lam = theta and the resolvent starts
    from the previous stage's exit state, valid across stages because lam
    and the operator are fixed.  rho is the certified residual of the last
    stage's resolvent.
    """

    def __init__(self, op, params):
        self.op = op
        self.params = params
        self.last = None  # (x, lam, g_lam, g_x) of the last law solve
        self.warm = None
        self.rho = 0.0

    def eval(self, x):
        p = self.params.p
        if p == 1:
            lam = self.params.theta
            r = ops.resolvent(self.op, lam, x, warm=self.warm)
            if r.state is not None:
                self.warm = r.state
        else:
            hint = None
            if self.last is not None:
                x_prev, hint, g_lam, g_x = self.last
                if g_lam > 0:
                    change = float(g_x @ (x - x_prev)) / g_lam
                    if abs(change) <= 0.5 * hint:
                        hint -= change
            lam, r = solve_law(self.op, x, self.params, hint=hint)
            try:
                self.last = (x, lam, *law_gradient(self.op, lam, x, r.y, p))
            except LinAlgError:
                self.last = (x, lam, 0.0, None)
        self.rho = r.residual
        return r.y - x, lam, r.y


def law_margin(lam, d, rho, params):
    """Slack of the control law at a state with speed d = ||x - y||, relative to theta.

    FLOW_AE_TOL less the part of |lam d^(p-1) - theta| that lies outside the
    band law_band(lam, d, rho, p) certified by the resolvent residual rho.
    A state satisfies the law exactly when this is >= 0 (NaN never does):
    integrate commits a step, the audit passes a state and the run summary
    counts one by this rule.
    """
    ae = abs(lam * d ** (params.p - 1) - params.theta)
    return FLOW_AE_TOL - max(ae - law_band(lam, d, rho, params.p), 0.0) / params.theta


def integrate(problem, x0, params, T, h, sample_stride=1):
    """Integrate the flow from x0 over [0, T] with fixed step h.

    Parameters
    ----------
    problem : ProblemInstance
    x0 : array, must not already solve the inclusion.
    params : FeedbackParams
    T, h : horizon and step; the last partial step is shortened to hit T.
    sample_stride : keep every n-th step in the trajectory (first and last
        states are always kept).  Ergodic accumulators advance every step
        regardless of the stride.

    Returns a Trajectory; status is STATIONARY when the flow reached the
    solution set early (benign).  A completed step that fails law_margin
    raises StepRejected; the stage solves are two orders tighter, so this
    guards integrator misuse only.
    """
    op = problem.operator
    x = np.asarray(x0, dtype=float).copy()
    if ops.min_norm_residual(op, x) <= STATIONARITY_TOL:
        raise StationaryPoint("x0 already solves the inclusion", x=x)
    if not (T >= 0 and h > 0):
        raise ValueError("need T >= 0 and h > 0")

    stage = _Stage(op, params)
    traj = Trajectory()
    f1, lam, y = stage.eval(x)
    t = 0.0
    num = np.zeros(op.dim)
    den = 0.0

    def record():
        traj.states.append(FlowState(t, x.copy(), lam, y.copy(), stage.rho))
        traj.erg_num.append(num.copy())
        traj.erg_den.append(den)

    record()
    nsteps = max(0, math.ceil((T - 1e-12 * max(1.0, T)) / h))
    for step_idx in range(1, nsteps + 1):
        # Grid-exact times: no accumulated drift, and the last step lands
        # exactly on T.
        t_next = T if step_idx == nsteps else step_idx * h
        hs = t_next - t
        try:
            k2 = stage.eval(x + 0.5 * hs * f1)[0]
            k3 = stage.eval(x + 0.5 * hs * k2)[0]
            k4 = stage.eval(x + hs * k3)[0]
            x_new = x + (hs / 6.0) * (f1 + 2.0 * k2 + 2.0 * k3 + k4)
            f1_new, lam_new, y_new = stage.eval(x_new)
        except StationaryPoint:
            # The step landed on (numerically) the solution set; keep the
            # last consistent state as the endpoint.
            traj.status = "STATIONARY"
            break
        # The law value is only measurable to the certified resolvent band.
        # Once that band swamps theta the state is within resolvent noise
        # of the solution set: stop with the last clean state rather than
        # commit steps whose control value cannot be certified.
        d_new = ops.norm(x_new - y_new)
        band = law_band(lam_new, d_new, stage.rho, params.p)
        if band > 0.1 * params.theta:
            traj.status = "STATIONARY"
            break
        margin = law_margin(lam_new, d_new, stage.rho, params)
        if not margin >= 0.0:
            excess = FLOW_AE_TOL - margin
            raise StepRejected(
                f"control law residual {excess:.3e} rel beyond its certified band at t={t_next:.6g}",
                t=t_next,
                residual=excess * params.theta,
            )
        x, t = x_new, t_next
        prev_lam, prev_y = lam, y
        f1, lam, y = f1_new, lam_new, y_new
        num = num + 0.5 * hs * (prev_lam * prev_y + lam * y)
        den = den + 0.5 * hs * (prev_lam + lam)
        if step_idx % sample_stride == 0 or t >= T - 1e-12 * max(1.0, T):
            record()
        # For p >= 2, stage.eval(x_new) already ran this test in solve_law;
        # for p = 1 its resolvent may rule stationarity out in the same way.
        if (
            params.p == 1
            and not rules_out_stationarity(op, lam, x, y, stage.rho)
            and ops.min_norm_residual(op, x) <= STATIONARITY_TOL
        ):
            traj.status = "STATIONARY"
            break
    if traj.states[-1].t < t:
        record()
    return traj


def check_flow_invariants(traj, problem, params):
    """Audit a trajectory against the continuous-time lemmas.

    Checks the algebraic equation at every sample, monotone and growth-
    bounded lam, Lyapunov descent toward each declared solution, the
    speed bound ||x - y||^2 <= E(0)/t, the induced lower bound on lam,
    and (p >= 2) the exponential non-stabilization floor on the speed.
    """
    rep = CheckReport()
    theta, p = params.theta, params.p
    states = traj.states
    if not states:
        rep.add("trajectory nonempty", -1.0)
        return rep
    pairs = list(zip(states, states[1:]))
    speed = [s.speed for s in states]
    s0 = speed[0]
    # (state, speed) after the start, at positive times
    later = [(s, v) for s, v in zip(states[1:], speed[1:]) if not s.t <= 0]

    rep.add(
        "algebraic equation residual <= 1e-8 rel",
        *worst(law_margin(s.lam, v, s.rho, params) for s, v in zip(states, speed)),
    )
    rep.add("lam nondecreasing", *worst((b.lam - a.lam) / a.lam + 1e-9 for a, b in pairs))
    rep.add(
        "lam growth <= e^{(p-1) dt}",
        *worst((a.lam * math.exp((p - 1) * (b.t - a.t)) * (1.0 + 1e-6) - b.lam) / a.lam for a, b in pairs),
    )

    sol = problem.solution_set
    if sol.kind == "SINGLETON":
        z = np.asarray(sol.point)
        e = [0.5 * ops.norm(s.x - z) ** 2 for s in states]
        e0 = e[0]
        rep.add(
            "Lyapunov energy nonincreasing",
            *worst((a - b) / max(e0, 1e-300) + 1e-9 for a, b in zip(e, e[1:])),
        )
        rep.add("speed^2 <= E(0)/t", *worst(e0 / s.t * (1.0 + 1e-6) - v**2 for s, v in later))
        if p >= 2:
            floors = [(s.lam, theta * (s.t / e0) ** ((p - 1) / 2.0) * (1.0 - 1e-6)) for s, _ in later]
            rep.add(
                "lam >= theta (t/E0)^{(p-1)/2}",
                *worst((lam - floor) / max(floor, 1e-300) for lam, floor in floors),
            )

    rep.add(
        "speed nonincreasing",
        *worst((a - b) / max(s0, 1e-300) + 1e-9 for a, b in zip(speed, speed[1:])),
    )
    if p >= 2:
        rep.add(
            "speed >= e^{-t} speed(0) (non-stabilization)",
            *worst(
                (v - s0 * math.exp(-s.t) * (1.0 - 1e-3)) / max(s0, 1e-300)
                for s, v in zip(states[1:], speed[1:])
            ),
        )

    return rep
