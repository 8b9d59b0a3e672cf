"""Fixed-step integration of the closed-loop resolvent flow.

The trajectory solves dx/dt = J_{lam(x)}(x) - x where lam(x) is the root
of the control law at the current point (lam = theta identically when
p = 1).  Integration is classical RK4 in (x, lam): differentiating the law
g(lam, x) = theta along the trajectory gives lam' = -g_x . x' / g_lam,
read as a scalar from feedback.law_slope at the stage's own resolvent (0
for p = 1), so each stage makes one resolvent at its RK4-advanced
(x, lam) and one adjoint solve.  For every p, each committed step
is projected back onto the law (Hairer, Lubich & Wanner, Geometric
Numerical Integration, IV.4): solve_law at the new x, from the RK4 lam as
its hint, certifies the root, tests stationarity and gives the next
step's first stage.  Each state carries the resolvent point its lam was
accepted on, with the speed ||x - y|| and the certified band that solve
formed, so the band stop, law_margin, the audit and the run summary read
them and form neither again.  Ergodic averages of (lam, y) are
accumulated with the trapezoid rule at step resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError

from . import operators as ops
from .errors import StationaryPoint, StepRejected
from .feedback import law_slope, solve_law
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
    """A committed point x at time t, its law root lam, y = J_lam(x), the
    certified residual rho of the solve behind y, the speed ||x - y|| and
    the band feedback.law_band(lam, speed, rho, p) around the law value."""

    t: float
    x: np.ndarray
    lam: float
    y: np.ndarray
    rho: float
    speed: float
    band: float


@dataclass
class Trajectory:
    """The kept states and the ergodic sums (of lam*y and of lam) at each.

    status is OK, or STATIONARY when the run ended before T; stop names
    the rule that ended it: "horizon" (T reached), "law_solve" (the law
    solve at a step's end point raised StationaryPoint) or "band" (that
    point's certified band exceeded 0.1 * theta).  lam_rate_fallbacks
    counts the evaluations of lam' that fell back to 0 (see integrate).
    """

    states: list[FlowState] = field(default_factory=list)
    erg_num: list[np.ndarray] = field(default_factory=list)
    erg_den: list[float] = field(default_factory=list)
    status: str = "OK"
    stop: str = "horizon"
    lam_rate_fallbacks: int = 0

    def __len__(self):
        return len(self.states)


def law_margin(lam, d, band, params):
    """Slack of the control law at a state with speed d = ||x - y||, relative to theta.

    FLOW_AE_TOL less the part of |lam d^(p-1) - theta| that lies outside the
    band, feedback.law_band(lam, d, rho, p) for the resolvent residual rho.
    A state satisfies the law exactly when this is >= 0 (NaN never does):
    integrate commits a step, the audit passes a state and the run summary
    counts one by this rule.
    """
    ae = abs(lam * d ** (params.p - 1) - params.theta)
    return FLOW_AE_TOL - max(ae - band, 0.0) / params.theta


def integrate(problem, x0, params, T, h, sample_stride=1):
    """Integrate the flow from x0 over [0, T] with fixed step h.

    Parameters
    ----------
    problem : ProblemInstance
    x0 : array, must not already solve the inclusion (StationaryPoint).
    params : FeedbackParams
    T, h : horizon and step; the last partial step is shortened to hit T.
    sample_stride : integer >= 1, keep every n-th step in the trajectory
        (first and last states are always kept).  Ergodic accumulators
        advance every step regardless of the stride.

    Returns a Trajectory; status is STATIONARY when the flow reached the
    solution set early (benign): the law solve at a step's end point found
    it stationary, or its certified band swamps theta, and the step is not
    committed; stop says which.  Each step ends with one law solve at the
    new x (the projection), which accepts lam only within AE_TOL plus the
    certified band; a committed step that still fails law_margin raises
    StepRejected, so this guards integrator misuse only.

    Each RK4 evaluation reads lam' = -g_x . f / g_lam at its resolvent r,
    with f = r.y - x the field it has formed, from feedback.law_slope: one
    adjoint solve on the exit state r carries, no gradient vector.  It is 0
    for p = 1, where g = lam, without that work.  It is 0 also where the
    slope fails (a singular Newton matrix) or g_lam is not positive and
    finite, as at y = x (NaN for p = 2, 0 above): the stage then holds lam,
    the committed step's law solve still certifies it, and the trajectory
    counts the fallback.  A state's arrays are the step's own, not copies:
    every step forms x, y and the ergodic sum afresh.
    """
    if not (T >= 0 and h > 0):
        raise ValueError("need T >= 0 and h > 0")
    if not (isinstance(sample_stride, (int, np.integer)) and sample_stride >= 1):
        raise ValueError(f"sample_stride must be an integer >= 1, got {sample_stride!r}")
    op = problem.operator
    theta, p = params.theta, params.p
    x = np.asarray(x0, dtype=float).copy()
    warm = None
    traj = Trajectory()

    def lam_rate(lam_s, x_s, r, f):
        if p == 1:
            return 0.0
        try:
            g_lam, g_xf = law_slope(op, lam_s, x_s, r, p, f)
        except LinAlgError:
            g_lam = math.nan
        if not 0.0 < g_lam < math.inf:
            traj.lam_rate_fallbacks += 1
            return 0.0
        return -g_xf / g_lam

    def stage(x_s, lam_s):
        # For p = 1, lam = theta and the operator are fixed, so each stage
        # and each law solve starts from the last one's exit state.  For
        # p >= 2 they start cold: a warm exit with no iteration keeps a
        # residual up to the resolvent's absolute floor, near the solution
        # set a visible share of the speed.
        nonlocal warm
        r = ops.resolvent(op, lam_s, x_s, warm=warm)
        if p == 1 and r.state is not None:
            warm = r.state
        f = r.y - x_s
        return f, lam_rate(lam_s, x_s, r, f)

    def project(x_s, hint):
        # The law root at x_s, its resolvent and band; warm is None for p >= 2.
        nonlocal warm
        lam_s, r, band_s = solve_law(op, x_s, params, hint=hint, warm=warm)
        if p == 1 and r.state is not None:
            warm = r.state
        return lam_s, r, band_s

    lam, r, band = project(x, None)
    y, rho, speed = r.y, r.residual, r.step
    t = 0.0
    num = np.zeros(op.dim)
    den = 0.0

    def record():
        traj.states.append(FlowState(t, x, lam, y, rho, speed, band))
        traj.erg_num.append(num)
        traj.erg_den.append(den)

    record()
    nsteps = max(0, math.ceil((T - 1e-12 * max(1.0, T)) / h))
    for step_idx in range(1, nsteps + 1):
        # Grid-exact times: no accumulated drift, and the last step lands
        # exactly on T.
        t_next = T if step_idx == nsteps else step_idx * h
        hs = t_next - t
        f1 = y - x
        l1 = lam_rate(lam, x, r, f1)
        try:
            f2, l2 = stage(x + 0.5 * hs * f1, lam + 0.5 * hs * l1)
            f3, l3 = stage(x + 0.5 * hs * f2, lam + 0.5 * hs * l2)
            f4, l4 = stage(x + hs * f3, lam + hs * l3)
            x_new = x + (hs / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
            lam_rk = lam + (hs / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
            lam_new, r_new, band_new = project(x_new, lam_rk)
        except StationaryPoint:
            # The step landed on (numerically) the solution set; keep the
            # last consistent state as the endpoint.
            traj.status, traj.stop = "STATIONARY", "law_solve"
            break
        # The law value is only measurable to the certified resolvent band.
        # Once that band swamps theta the state is within resolvent noise
        # of the solution set: stop with the last clean state rather than
        # commit steps whose control value cannot be certified.
        y_new, rho_new, speed_new = r_new.y, r_new.residual, r_new.step
        if band_new > 0.1 * theta:
            traj.status, traj.stop = "STATIONARY", "band"
            break
        margin = law_margin(lam_new, speed_new, band_new, params)
        if not margin >= 0.0:
            excess = FLOW_AE_TOL - margin
            raise StepRejected(
                f"control law residual {excess:.3e} rel beyond its certified band at t={t_next:.6g}",
                t=t_next,
                residual=excess * theta,
            )
        num = num + 0.5 * hs * (lam * y + lam_new * y_new)
        den = den + 0.5 * hs * (lam + lam_new)
        x, t, lam, r, band = x_new, t_next, lam_new, r_new, band_new
        y, rho, speed = y_new, rho_new, speed_new
        if step_idx % sample_stride == 0 or t >= T - 1e-12 * max(1.0, T):
            record()
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
        *worst(law_margin(s.lam, v, s.band, params) for s, v in zip(states, speed)),
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
