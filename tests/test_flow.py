import math
import types

import numpy as np
import pytest

from monoflow import operators as ops
from monoflow import problems
from monoflow import feedback, flow
from monoflow.errors import StationaryPoint, StepRejected
from monoflow.feedback import AE_TOL, STATIONARITY_TOL, FeedbackParams, law_band, solve_law
from monoflow.flow import (
    FLOW_AE_TOL,
    FlowState,
    Trajectory,
    check_flow_invariants,
    integrate,
    law_margin,
)
from test_feedback import law_gradient  # the gradient law_slope evaluates, as a vector

IDENTITY_PROBLEM = problems.make_strongly_monotone_affine(d=1, mu=1.0)
SADDLE = problems.make_bilinear_saddle(d=2)


class TestVectorField:
    # The field J_{lam(x)}(x) - x at the start is y - x of the first state.
    def test_identity_value(self):
        s = integrate(IDENTITY_PROBLEM, [2.0], FeedbackParams(0.5, 1), T=0.0, h=0.1).states[0]
        # J_0.5(2) - 2 = 4/3 - 2.
        assert s.y[0] - s.x[0] == pytest.approx(-2.0 / 3.0, abs=1e-12)

    def test_second_order_uses_the_law_pair(self):
        params = FeedbackParams(0.05, 2)
        x = np.array([0.7, -0.3])
        lam, r, _ = solve_law(SADDLE.operator, x, params)
        s = integrate(SADDLE, x, params, T=0.0, h=0.1).states[0]
        assert s.lam == lam
        assert np.array_equal(s.y, r.y)


class TestIntegrate:
    def test_identity_matches_closed_form(self):
        # On F = I with p = 1 the flow is x' = -theta/(1+theta) x.
        theta = 0.5
        traj = integrate(IDENTITY_PROBLEM, [1.0], FeedbackParams(theta, 1), T=1.0, h=1e-3)
        rate = theta / (1.0 + theta)
        for s in traj.states[:: len(traj.states) // 7]:
            assert s.x[0] == pytest.approx(math.exp(-rate * s.t), abs=1e-9)
        assert traj.states[-1].t == 1.0

    def test_zero_horizon_single_state(self):
        traj = integrate(SADDLE, [0.5, 0.5], FeedbackParams(0.1, 1), T=0.0, h=0.01)
        assert len(traj) == 1
        assert traj.status == "OK"
        assert traj.states[0].t == 0.0

    def test_times_land_on_grid_exactly(self):
        traj = integrate(SADDLE, [0.5, 0.5], FeedbackParams(0.1, 1), T=0.55, h=0.1)
        ts = [s.t for s in traj.states]
        assert ts == [0.0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5, 0.55]
        assert traj.states[-1].t == 0.55

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            integrate(SADDLE, [0.5, 0.5], FeedbackParams(0.1, 1), T=-1.0, h=0.1)
        with pytest.raises(ValueError):
            integrate(SADDLE, [0.5, 0.5], FeedbackParams(0.1, 1), T=1.0, h=0.0)

    @pytest.mark.parametrize("p", [1, 2])
    def test_bad_horizon_at_a_stationary_start_is_a_value_error(self, p):
        # The arguments are checked before x0 is tested for stationarity.
        with pytest.raises(ValueError):
            integrate(SADDLE, [0.0, 0.0], FeedbackParams(0.1, p), T=1.0, h=0.0)

    def test_stationary_start_raises(self):
        with pytest.raises(StationaryPoint):
            integrate(SADDLE, [0.0, 0.0], FeedbackParams(0.1, 1), T=1.0, h=0.1)

    def test_strongly_monotone_reaches_stationary_status(self):
        prob = problems.make_strongly_monotone_affine(d=2, mu=1.0)
        traj = integrate(prob, [1.0, 1.0], FeedbackParams(0.5, 1), T=120.0, h=0.05)
        assert traj.status == "STATIONARY"
        assert traj.states[-1].t < 120.0
        assert ops.min_norm_residual(prob.operator, traj.states[-1].x) < 1e-10

    def test_sampling_stride_keeps_ergodic_exact(self):
        dense = integrate(SADDLE, [0.6, -0.3], FeedbackParams(0.1, 1), T=2.0, h=0.01)
        sparse = integrate(
            SADDLE, [0.6, -0.3], FeedbackParams(0.1, 1), T=2.0, h=0.01, sample_stride=7
        )
        assert len(sparse) < len(dense)
        assert sparse.states[0].t == 0.0
        assert sparse.states[-1].t == 2.0
        # Accumulators advance every step regardless of the stride.
        for a, b in zip(dense.erg_num[-1] / dense.erg_den[-1], sparse.erg_num[-1] / sparse.erg_den[-1]):
            assert a == b

    def test_ergodic_point_matches_manual_quadrature(self):
        traj = integrate(SADDLE, [0.6, -0.3], FeedbackParams(0.1, 1), T=1.0, h=0.05)
        num = np.zeros(2)
        den = 0.0
        for a, b in zip(traj.states, traj.states[1:]):
            hs = b.t - a.t
            num += 0.5 * hs * (a.lam * a.y + b.lam * b.y)
            den += 0.5 * hs * (a.lam + b.lam)
        assert np.allclose(traj.erg_num[-1] / traj.erg_den[-1], num / den, atol=1e-12)

    def test_second_order_run_passes_invariants(self):
        traj = integrate(SADDLE, [0.7, 0.7], FeedbackParams(0.05, 2), T=3.0, h=0.01)
        rep = check_flow_invariants(traj, SADDLE, FeedbackParams(0.05, 2))
        assert rep.all_passed, "\n".join(rep.lines())

    def test_lambda_constant_at_first_order(self):
        traj = integrate(SADDLE, [0.7, 0.7], FeedbackParams(0.25, 1), T=1.0, h=0.01)
        assert all(s.lam == 0.25 for s in traj.states)

    def test_lambda_nondecreasing_at_second_order(self):
        traj = integrate(SADDLE, [0.7, 0.7], FeedbackParams(0.05, 2), T=3.0, h=0.01)
        lams = [s.lam for s in traj.states]
        assert all(b >= a * (1.0 - 1e-9) for a, b in zip(lams, lams[1:]))

    def test_law_holds_along_trajectory(self):
        theta = 0.05
        traj = integrate(SADDLE, [0.7, 0.7], FeedbackParams(theta, 2), T=2.0, h=0.01)
        for s in traj.states:
            assert s.lam * s.speed == pytest.approx(theta, rel=1e-7)

    def test_states_meet_the_law_at_the_solve_tolerance(self):
        # AE_TOL, not FLOW_AE_TOL: each state holds the pair the law
        # accepted, not a resolvent solved again at the accepted lam.
        theta = 0.05
        traj = integrate(SADDLE, [0.7, 0.7], FeedbackParams(theta, 2), T=3.0, h=0.01)
        assert len(traj) == 301
        for s in traj.states:
            band = s.lam * ((s.speed + s.rho) - max(s.speed - s.rho, 0.0))
            assert abs(s.lam * s.speed - theta) <= AE_TOL * theta + band
            assert s.band == band

    @pytest.mark.parametrize("p", [1, 2])
    def test_stationarity_tested_once_per_state(self, monkeypatch, p):
        # Every state, x0 included, is tested by the first resolvent of its
        # law solve, which far from the solution set rules stationarity out
        # alone: min_norm_residual never runs.
        calls = []
        real = ops.min_norm_residual
        monkeypatch.setattr(ops, "min_norm_residual", lambda op, x: calls.append(1) or real(op, x))
        traj = integrate(SADDLE, [0.7, 0.7], FeedbackParams(0.05, p), T=0.1, h=0.01)
        assert traj.status == "OK" and len(traj) == 11
        assert calls == []

    @pytest.mark.parametrize("p", [1, 2])
    def test_stops_before_the_first_stationary_state(self, monkeypatch, p):
        # One rule for every order: the step whose end point the law solve
        # finds stationary is not committed, and every committed state lies
        # off the solution set.
        ends, real = [], flow.solve_law
        monkeypatch.setattr(flow, "solve_law", lambda op, x, params, **kw: ends.append(x) or real(op, x, params, **kw))
        prob = problems.make_strongly_monotone_affine(d=2, mu=1.0)
        traj = integrate(prob, [1.0, 1.0], FeedbackParams(0.5, p), T=120.0, h=0.05)
        assert (traj.status, traj.stop) == ("STATIONARY", "law_solve")
        res = [ops.min_norm_residual(prob.operator, s.x) for s in traj.states]
        assert min(res) > STATIONARITY_TOL
        assert ops.min_norm_residual(prob.operator, ends[-1]) <= STATIONARITY_TOL
        assert np.array_equal(ends[-2], traj.states[-1].x)

    @pytest.mark.parametrize("stride", [0, -3, 2.5, "2", None])
    def test_rejects_bad_sample_stride(self, stride):
        # Checked with the horizon, before any work: 0 would divide by zero
        # after the first law solve, 2.5 keep every 5th step, -3 every 3rd.
        with pytest.raises(ValueError, match="sample_stride"):
            integrate(SADDLE, [0.0, 0.0], FeedbackParams(0.1, 2), T=1.0, h=0.1, sample_stride=stride)


def _stage_solve_rk4(prob, x0, params, T, h):
    """End (x, lam) of RK4 with the law solved at every stage, each solve
    bracketed from the previous stage's lam: the stage-solve integrator
    without its sampling, ergodic sums and stops."""
    op, theta, p = prob.operator, params.theta, params.p
    hint = None

    def field(x):
        nonlocal hint
        if p == 1:
            return ops.resolvent(op, theta, x).y - x, theta
        lam, r, _ = solve_law(op, x, params, hint=hint)
        hint = lam
        return r.y - x, lam

    x = np.array(x0, dtype=float)
    f1, lam = field(x)
    t, nsteps = 0.0, math.ceil((T - 1e-12 * max(1.0, T)) / h)
    for i in range(1, nsteps + 1):
        t_next = T if i == nsteps else i * h
        hs = t_next - t
        k2 = field(x + 0.5 * hs * f1)[0]
        k3 = field(x + 0.5 * hs * k2)[0]
        k4 = field(x + hs * k3)[0]
        x, t = x + (hs / 6.0) * (f1 + 2.0 * k2 + 2.0 * k3 + k4), t_next
        f1, lam = field(x)
    return x, lam


GATE = (SADDLE, FeedbackParams(0.012, 2), [0.7, 0.7])
FLOW_SUITE_RUNS = {
    "saddle p=1": (SADDLE, FeedbackParams(0.5, 1), [0.7, 0.4]),
    "saddle p=2": (SADDLE, FeedbackParams(0.1, 2), [0.7, 0.4]),
    "monotone p=2": (problems.make_strongly_monotone_affine(2, 1.0, seed=2), FeedbackParams(0.25, 2), [1.0, -0.5]),
    "cubic p=2": (problems.make_cubic_1d(), FeedbackParams(0.2, 2), [1.5]),
    "radial p=3": (problems.make_convex_gradient(2), FeedbackParams(0.2, 3), [1.0, 0.8]),
}


class TestPredictedLaw:
    """RK4 in (x, lam), whose lam predicts the law's root and is projected
    onto the law once per step, against RK4 that solves the law at every
    stage from the previous stage's lam: the same certified trajectory,
    at about a third of the resolvents."""

    @pytest.mark.parametrize("run", ["gate"] + list(FLOW_SUITE_RUNS))
    def test_matches_previous_lam_hints(self, monkeypatch, run):
        prob, params, x0 = GATE if run == "gate" else FLOW_SUITE_RUNS[run]
        calls, real = [], ops.resolvent
        monkeypatch.setattr(ops, "resolvent", lambda *a, **k: calls.append(1) or real(*a, **k))
        new = integrate(prob, x0, params, T=20.0, h=0.01)
        per_step = len(calls) / (len(new) - 1)
        monkeypatch.setattr(ops, "resolvent", real)
        x_ref, lam_ref = _stage_solve_rk4(prob, x0, params, T=20.0, h=0.01)
        assert new.status == "OK" and len(new) == 2001
        end = new.states[-1]
        assert ops.norm(end.x - x_ref) <= 1e-8 * ops.norm(x_ref)
        assert abs(end.lam - lam_ref) <= 1e-8 * lam_ref
        assert all(law_margin(s.lam, s.speed, s.band, params) >= 0.0 for s in new.states)
        if run == "gate":
            assert per_step <= 4.5

    @pytest.mark.parametrize("gradient", ["singular", "zero", "negative", "nan", "inf"])
    def test_stage_without_a_gradient_holds_the_previous_lam(self, monkeypatch, gradient):
        # Where law_slope raises or gives no positive finite g_lam, the
        # stage takes lam' = 0: every stage of a step solves at the lam the
        # step started from, and only the projection moves lam.  The
        # trajectory counts each such fallback.
        seen = []

        def broken(op, lam, x, r, p, f):
            seen.append(lam)
            if gradient == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return {"zero": 0.0, "negative": -1.0, "nan": math.nan, "inf": math.inf}[gradient], 1.0

        params = FeedbackParams(0.1, 2)
        monkeypatch.setattr(flow, "law_slope", broken)
        traj = integrate(SADDLE, [0.7, 0.4], params, T=0.1, h=0.01)
        assert traj.status == "OK" and len(traj) == 11
        assert all(law_margin(s.lam, s.speed, s.band, params) >= 0.0 for s in traj.states)
        lams = [s.lam for s in traj.states]
        assert seen == [lam for lam in lams[:-1] for _ in range(4)]
        assert lams[-1] > lams[0]
        assert (traj.stop, traj.lam_rate_fallbacks) == ("horizon", 4 * 10)


class TestLawGradientReadsTheStage:
    def test_four_fewer_evaluations_of_f_per_step(self, monkeypatch):
        # Each p = 2 RK4 step takes four law slopes, at its start and at
        # three stages.  Each reads F(y) from its resolvent's Newton exit
        # state: handed the same resolvent without a state, law_slope
        # evaluates F(y) itself, four more calls of the operator's bound F
        # per step, on the same floats.
        op = SADDLE.operator
        real_value, real_slope = op.value, flow.law_slope

        def stateless(op, lam, x, r, p, f):
            assert r.state is not None
            return real_slope(op, lam, x, types.SimpleNamespace(y=r.y, step=r.step, state=None), p, f)

        counts, states = [], []
        for slope in (real_slope, stateless):
            calls = []
            monkeypatch.setitem(vars(op), "value", lambda z: calls.append(1) or real_value(z))
            monkeypatch.setattr(flow, "law_slope", slope)
            traj = integrate(SADDLE, [0.7, 0.4], FeedbackParams(0.1, 2), T=0.1, h=0.01)
            assert traj.status == "OK" and len(traj) == 11
            counts.append(len(calls))
            states.append([(s.x.tobytes(), s.lam, s.y.tobytes(), s.speed, s.band) for s in traj.states])
        assert counts[1] - counts[0] == 4 * 10
        assert states[0] == states[1]


# A ball whose skew field pushes the flow onto the sphere, where the
# projection's Jacobian is not the identity.
BALL = types.SimpleNamespace(
    operator=ops.make_affine([[0.2, 1.0], [-1.0, 0.2]], [-1.5, 0.5], cone=ops.BallCone([0.0, 0.0], 1.0))
)


class TestLamRate:
    @pytest.mark.parametrize(
        "problem, theta, x0", [(SADDLE, 0.012, [0.7, 0.7]), (BALL, 0.2, [0.3, -0.2])], ids=["gate", "ball"]
    )
    def test_stage_rate_matches_law_gradient(self, monkeypatch, problem, theta, x0):
        # Each evaluation's lam' = -g_x . f / g_lam, read as a scalar, is the
        # one the test-local law_gradient's vector gives at the same
        # resolvent, with the same g_lam.
        seen, real = [], flow.law_slope

        def spy(op, lam, x, r, p, f):
            out = real(op, lam, x, r, p, f)
            seen.append((op, lam, x, r, p, f, out))
            return out

        monkeypatch.setattr(flow, "law_slope", spy)
        traj = integrate(problem, x0, FeedbackParams(theta, 2), T=0.5, h=0.01)
        assert traj.status == "OK" and len(traj) == 51
        outside = []
        for op, lam, x, r, p, f, (g_lam, g_xf) in seen:
            assert f.tobytes() == (r.y - x).tobytes()
            want_lam, want_x = law_gradient(op, lam, x, r, p)
            assert g_lam == want_lam
            rate, want = -g_xf / g_lam, -float(want_x @ f) / want_lam
            assert abs(rate - want) <= 1e-13 * abs(want)
            outside.append(ops.norm(r.state[0]) > 1.0)  # w past the unit sphere
        assert len(seen) == 4 * 50
        if problem is BALL:  # both branches of the ball's projection Jacobian
            assert any(outside) and not all(outside)


class TestStops:
    """The summary's stop names the rule that ended the run."""

    def test_horizon(self):
        traj = integrate(SADDLE, [0.7, 0.4], FeedbackParams(0.1, 2), T=0.05, h=0.01)
        assert (traj.status, traj.stop, traj.lam_rate_fallbacks, len(traj)) == ("OK", "horizon", 0, 6)

    @pytest.mark.parametrize("rule", ["law_solve", "band"])
    def test_early_stop(self, monkeypatch, rule):
        # The fourth law solve, at the end point of step 3, finds it
        # stationary or returns a band above 0.1 theta: step 3 is not
        # committed either way.
        params, calls, real = FeedbackParams(0.1, 2), [], flow.solve_law

        def solve(op, x, params, **kw):
            calls.append(1)
            lam, r, band = real(op, x, params, **kw)
            if len(calls) == 4:
                if rule == "law_solve":
                    raise StationaryPoint("forced", x=x, residual=0.0)
                band = 0.2 * params.theta
            return lam, r, band

        monkeypatch.setattr(flow, "solve_law", solve)
        traj = integrate(SADDLE, [0.7, 0.4], params, T=0.1, h=0.01)
        assert (traj.status, traj.stop, len(traj)) == ("STATIONARY", rule, 3)
        assert traj.states[-1].t == 0.02

    def test_step_off_the_law_is_rejected(self, monkeypatch):
        # The law solve at the end point of step 3 returns lam 1.5 times its
        # root: that state misses the law by half of theta, so the step is
        # rejected with its time and the law residual beyond the band.
        params, calls, real = FeedbackParams(0.1, 2), [], flow.solve_law

        def solve(op, x, params, **kw):
            lam, r, band = real(op, x, params, **kw)
            calls.append((1.5 * lam, r.step, band))
            if len(calls) == 4:
                lam = 1.5 * lam
            return lam, r, band

        monkeypatch.setattr(flow, "solve_law", solve)
        with pytest.raises(StepRejected, match="beyond its certified band at t=0.03$") as exc:
            integrate(SADDLE, [0.7, 0.4], params, T=0.1, h=0.01)
        assert exc.value.t == 0.03
        excess = FLOW_AE_TOL - law_margin(*calls[3], params)
        assert exc.value.residual == excess * params.theta
        assert exc.value.residual == pytest.approx(0.5 * params.theta, rel=1e-6)


class TestWorkCounts:
    # Per RK4 step of the p = 2 gate flow on the 2-d saddle, after the start's
    # law solve: resolvents (3 stages, 1 law solve trial), their Newton
    # iterations, adjoint solves (one per lam'), normal-map Jacobian builds
    # (one per Newton iteration, one per adjoint solve) and evaluations of
    # the operator's bound F (one per resolvent start, one per iteration).
    PER_STEP = {"resolvents": 4, "newton iterations": 4, "adjoint solves": 4, "jacobians": 8, "F": 8}
    START = {"resolvents": 12, "newton iterations": 10, "adjoint solves": 0, "jacobians": 10, "F": 11}

    def test_ten_gate_steps(self, monkeypatch):
        op = SADDLE.operator
        counts = dict.fromkeys(self.PER_STEP, 0)

        def counting(key, fn):
            def spy(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return spy

        real_resolvent = ops.resolvent

        def resolvent(*args, **kwargs):
            r = real_resolvent(*args, **kwargs)
            counts["newton iterations"] += r.iterations
            return r

        monkeypatch.setattr(ops, "resolvent", counting("resolvents", resolvent))
        monkeypatch.setattr(feedback, "_adjoint", counting("adjoint solves", feedback._adjoint))
        monkeypatch.setattr(type(op.domain), "jacobian", counting("jacobians", type(op.domain).jacobian))
        monkeypatch.setitem(vars(op), "value", counting("F", op.value))
        seen = []
        for T in (0.0, 0.1):
            counts.update(dict.fromkeys(counts, 0))
            traj = integrate(SADDLE, [0.7, 0.7], FeedbackParams(0.012, 2), T=T, h=0.01)
            assert traj.status == "OK"
            seen.append(dict(counts))
        start, run = seen
        assert start == self.START
        assert {k: run[k] - start[k] for k in run} == {k: 10 * n for k, n in self.PER_STEP.items()}


class TestLawReadOnce:
    """Each state carries the speed and band its law solve formed; the band
    stop, law_margin, the audit and the run summary read them."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_one_band_per_step_for_the_accepted_lam(self, monkeypatch, p):
        bands, real = [], feedback.law_band
        monkeypatch.setattr(feedback, "law_band", lambda lam, d, rho, p_: bands.append(lam) or real(lam, d, rho, p_))
        params = FeedbackParams(0.05, p)
        traj = integrate(SADDLE, [0.7, 0.7], params, T=0.5, h=0.01)
        assert traj.status == "OK" and len(traj) == 51
        if p == 1:
            assert bands == [0.05] * len(traj)  # one trial per law solve, theta
        else:
            assert all(bands.count(s.lam) == 1 for s in traj.states)
        for s in traj.states:
            assert s.speed == ops.norm(s.x - s.y)
        bands.clear()
        assert check_flow_invariants(traj, SADDLE, params).all_passed
        assert bands == []

    @pytest.mark.parametrize("p", [1, 2])
    def test_law_solve_starts_warm_only_at_first_order(self, monkeypatch, p):
        # p = 1 chains one Newton state through stages and law solves; for
        # p >= 2 every law solve starts cold.
        warms, real = [], flow.solve_law

        def spy(op, x, params, **kw):
            warms.append(kw["warm"])
            return real(op, x, params, **kw)

        monkeypatch.setattr(flow, "solve_law", spy)
        integrate(SADDLE, [0.7, 0.7], FeedbackParams(0.05, p), T=0.1, h=0.01)
        assert len(warms) == 11 and warms[0] is None
        assert all((w is not None) == (p == 1) for w in warms[1:])

    def test_first_order_gate_newton_iterations(self, monkeypatch):
        # The p = 1 gate of tests/test_acceptance.py: 4 resolvents a step,
        # each starting from the exit state of the one before.
        its, real = [], ops.resolvent

        def counting(*args, **kwargs):
            r = real(*args, **kwargs)
            its.append(r.iterations)
            return r

        monkeypatch.setattr(ops, "resolvent", counting)
        params = FeedbackParams(0.25, 1)
        traj = integrate(SADDLE, [0.7, 0.7], params, T=200.0, h=0.01)
        assert (len(its), sum(its)) == (80001, 60490)
        assert check_flow_invariants(traj, SADDLE, params).all_passed


def _audit_verdicts(traj, params):
    return {o.name: o.passed for o in check_flow_invariants(traj, SADDLE, params).outcomes}


class TestAuditFailsOnNaN:
    def test_state_with_nan_pair_fails_where_it_enters(self):
        params = FeedbackParams(0.1, 2)
        traj = integrate(SADDLE, [0.7, 0.4], params, T=0.05, h=0.01)
        assert len(traj) == 6 and all(_audit_verdicts(traj, params).values())
        last = traj.states[-1]
        traj.states.append(FlowState(last.t + 0.01, last.x.copy(), last.lam, np.full(2, np.nan), last.rho, math.nan, last.band))
        verdicts = _audit_verdicts(traj, params)
        assert len(verdicts) == 8
        for name in (
            "algebraic equation residual <= 1e-8 rel",
            "speed^2 <= E(0)/t",
            "speed nonincreasing",
            "speed >= e^{-t} speed(0) (non-stabilization)",
        ):
            assert verdicts[name] is False, name


class TestOneLawRule:
    """integrate, the audit and the run summary judge a state by law_margin."""

    THETA = 0.1

    def _state(self, ae, rho=1e-6, t=0.0):
        # p = 2: the certified band is lam * 2 rho = 2e-6 at lam = 1.
        x, y = np.array([0.5, 0.0]), np.array([0.5 - (self.THETA + ae), 0.0])
        speed = ops.norm(x - y)
        return FlowState(t, x, 1.0, y, rho, speed, law_band(1.0, speed, rho, 2))

    def test_residual_between_the_tolerance_and_the_band(self):
        params = FeedbackParams(self.THETA, 2)
        s = self._state(ae=1e-7)
        ae = abs(s.lam * s.speed - self.THETA)
        assert FLOW_AE_TOL * self.THETA < ae < FLOW_AE_TOL * self.THETA + law_band(s.lam, s.speed, s.rho, 2)
        assert law_margin(s.lam, s.speed, s.band, params) >= 0.0
        assert law_margin(s.lam, s.speed, 0.0, params) < 0.0
        far = self._state(ae=1e-5)
        assert law_margin(far.lam, far.speed, far.band, params) < 0.0
        assert math.isnan(law_margin(s.lam, float("nan"), s.band, params))
        assert not law_margin(s.lam, float("nan"), s.band, params) >= 0.0

    def test_summary_counts_what_the_audit_passes(self, monkeypatch):
        from monoflow import cli, config

        params = FeedbackParams(self.THETA, 2)
        s0, s1 = self._state(ae=0.0, rho=0.0), self._state(ae=1e-7, t=0.01)
        traj = Trajectory(states=[s0, s1], erg_num=[np.zeros(2), 0.01 * s1.y], erg_den=[0.0, 0.01])
        assert _audit_verdicts(traj, params)["algebraic equation residual <= 1e-8 rel"]
        monkeypatch.setattr(cli.flow, "integrate", lambda *args, **kw: traj)
        cfg = config.ExperimentConfig.from_dict(
            {
                "problem": {"name": "bilinear_saddle", "params": {"d": 2}},
                "mode": "FLOW",
                "params": {"theta": self.THETA, "p": 2},
                "horizon": {"T": 0.01, "h": 0.01},
                "x0": [0.5, 0.0],
            }
        )
        _, _, summary, _ = cli._run_flow(cfg)
        assert summary["certificates"] == {"control_law_within_tol": 2, "total": 2}
