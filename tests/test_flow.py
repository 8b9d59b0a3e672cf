import math

import numpy as np
import pytest

from monoflow import operators as ops
from monoflow import problems
from monoflow.errors import StationaryPoint
from monoflow.feedback import AE_TOL, FeedbackParams, law_band, solve_law
from monoflow.flow import (
    FLOW_AE_TOL,
    FlowState,
    Trajectory,
    check_flow_invariants,
    integrate,
    law_margin,
)

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
        lam, r = solve_law(SADDLE.operator, x, params)
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

    @pytest.mark.parametrize("p", [1, 2])
    def test_stationarity_tested_once_per_state(self, monkeypatch, p):
        # For p >= 2 each stage's law solve tests its own point, the step's
        # end state included, so the flow adds only the x0 test; p = 1 has
        # no law solve and tests each end state itself.
        calls = []
        real = ops.min_norm_residual
        monkeypatch.setattr(ops, "min_norm_residual", lambda op, x: calls.append(1) or real(op, x))
        traj = integrate(SADDLE, [0.7, 0.7], FeedbackParams(0.05, p), T=0.1, h=0.01)
        assert traj.status == "OK" and len(traj) == 11
        assert len(calls) == (1 + 10 if p == 1 else 1 + 1 + 4 * 10)


def _audit_verdicts(traj, params):
    return {o.name: o.passed for o in check_flow_invariants(traj, SADDLE, params).outcomes}


class TestAuditFailsOnNaN:
    def test_state_with_nan_pair_fails_where_it_enters(self):
        params = FeedbackParams(0.1, 2)
        traj = integrate(SADDLE, [0.7, 0.4], params, T=0.05, h=0.01)
        assert len(traj) == 6 and all(_audit_verdicts(traj, params).values())
        last = traj.states[-1]
        traj.states.append(FlowState(last.t + 0.01, last.x.copy(), last.lam, np.full(2, np.nan), last.rho))
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
        return FlowState(t, np.array([0.5, 0.0]), 1.0, np.array([0.5 - (self.THETA + ae), 0.0]), rho)

    def test_residual_between_the_tolerance_and_the_band(self):
        params = FeedbackParams(self.THETA, 2)
        s = self._state(ae=1e-7)
        ae = abs(s.lam * s.speed - self.THETA)
        assert FLOW_AE_TOL * self.THETA < ae < FLOW_AE_TOL * self.THETA + law_band(s.lam, s.speed, s.rho, 2)
        assert law_margin(s.lam, s.speed, s.rho, params) >= 0.0
        assert law_margin(s.lam, s.speed, 0.0, params) < 0.0
        far = self._state(ae=1e-5)
        assert law_margin(far.lam, far.speed, far.rho, params) < 0.0
        assert math.isnan(law_margin(s.lam, float("nan"), s.rho, params))
        assert not law_margin(s.lam, float("nan"), s.rho, params) >= 0.0

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
        _, _, summary, _ = cli._run_flow(cfg, SADDLE)
        assert summary["certificates"] == {"control_law_within_tol": 2, "total": 2}
