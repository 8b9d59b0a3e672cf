import math
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from monoflow import feedback, hpe
from monoflow.checks import _operator_pool
from monoflow import operators as ops
from monoflow import problems
from monoflow.errors import BracketOverflow, InnerSolverDiverged, OracleFailure, StationaryPoint
from monoflow.feedback import (
    AE_TOL,
    STATIONARITY_TOL,
    FeedbackParams,
    law_band,
    rules_out_stationarity,
    scaled_displacement,
    solve_lambda,
    solve_law,
    stationarity_gauge,
)

IDENTITY = ops.make_affine([[1.0]])


def box_saddle_op(scale=1.0):
    m = np.array([[0.0, scale], [-scale, 0.0]])
    return ops.make_affine(m, cone=ops.BoxCone(-np.ones(2), np.ones(2)))


class TestParams:
    def test_theta_range(self):
        with pytest.raises(ValueError):
            FeedbackParams(0.0, 2)
        with pytest.raises(ValueError):
            FeedbackParams(-0.1, 1)

    def test_order_must_be_positive_integer(self):
        with pytest.raises(ValueError):
            FeedbackParams(0.5, 0)
        with pytest.raises(ValueError):
            FeedbackParams(0.5, 1.5)
        assert FeedbackParams(0.5, 2.0).p == 2


class TestSolveLambda:
    def test_identity_quadratic_root(self):
        # On F = I from x = 2 the law reads 2*lam^2 = theta*(1 + lam).
        # theta = 0.5 gives lam = (1 + sqrt(17))/8.
        lam = solve_lambda(IDENTITY, [2.0], FeedbackParams(0.5, 2))
        want = (1.0 + math.sqrt(17.0)) / 8.0
        assert want == 0.6403882032022076
        assert lam == pytest.approx(want, rel=1e-12)

    def test_identity_quadratic_root_second_theta(self):
        # theta = 0.25 gives lam = (0.25 + sqrt(2.0625))/4.
        lam = solve_lambda(IDENTITY, [2.0], FeedbackParams(0.25, 2))
        want = (0.25 + math.sqrt(2.0625)) / 4.0
        assert want == 0.4215351654086268
        assert lam == pytest.approx(want, rel=1e-11)

    def test_first_order_returns_theta(self):
        assert solve_lambda(IDENTITY, [2.0], FeedbackParams(0.3, 1)) == 0.3

    def test_law_value_within_tolerance(self):
        op = box_saddle_op()
        params = FeedbackParams(0.05, 2)
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.uniform(-0.9, 0.9, size=2)
            lam = solve_lambda(op, x, params)
            val = scaled_displacement(op, lam, x, 2)
            assert abs(val - 0.05) <= AE_TOL * 0.05 + 1e-9

    def test_hint_does_not_change_root(self):
        op = box_saddle_op()
        params = FeedbackParams(0.1, 2)
        x = np.array([0.6, -0.4])
        base = solve_lambda(op, x, params)
        hi = solve_lambda(op, x, params, hint=1e6)
        lo = solve_lambda(op, x, params, hint=1e-6)
        assert hi == pytest.approx(base, rel=1e-8)
        assert lo == pytest.approx(base, rel=1e-8)

    @pytest.mark.parametrize("hint", [1e-6, 1e6])
    @pytest.mark.parametrize("which", ["box_saddle", "poly_ball"])
    def test_each_lam_solved_once(self, monkeypatch, which, hint):
        # hint 1e-6 brackets by doubling, 1e6 by halving; Brent runs after.
        if which == "box_saddle":
            op, x = box_saddle_op(), np.array([0.6, -0.4])
        else:
            ball = ops.BallCone(np.zeros(3), 1.0)
            op, x = ops.make_poly([0.0, 1.0, 0.0, 1.0], dim=3, cone=ball), np.array([0.9, -0.7, 0.4])
        params = FeedbackParams(0.1, 2)
        calls = []
        resolvent = ops.resolvent

        def recorder(op_, lam, x_, **kw):
            r = resolvent(op_, lam, x_, **kw)
            calls.append((lam, r))
            return r

        monkeypatch.setattr(feedback.ops, "resolvent", recorder)
        lam = solve_lambda(op, x, params, hint=hint)
        lams = [c[0] for c in calls]
        assert len(lams) == len(set(lams))
        assert lam in lams
        # Some lam off the hint * 2^k ladder: the root-find ran past the bracket.
        assert any(not math.log2(s / hint).is_integer() for s in lams)

        calls.clear()
        lam2, r, _ = solve_law(op, x, params, hint=hint)
        assert lam2 == lam
        assert r is dict(calls)[lam]

    def test_solve_law_first_order_returns_the_resolvent_at_theta(self, monkeypatch):
        # The law reads lam = theta: its first trial is accepted, and its
        # resolvent rules stationarity out, as for every order.
        calls = _count_min_norm_residual(monkeypatch)
        lam, r, band = solve_law(IDENTITY, [2.0], FeedbackParams(0.3, 1), hint=5.0)
        want = ops.resolvent(IDENTITY, 0.3, np.array([2.0]))
        assert lam == 0.3 and band == 0.0 and calls == []
        assert np.array_equal(r.y, want.y) and r.residual == want.residual

    @staticmethod
    def _two_loop_solve(op, x, params, hint):
        """The bracket search as two loops, doubling up or halving down
        from the hint, then Brent and the bisection finish: the trial
        order one bracket loop must keep (p >= 2, x not stationary)."""
        theta = params.theta
        g = feedback._LawCurve(op, x, params.p)

        def accepted(lam):
            val, r = g.entry(lam)
            return abs(val - theta) <= AE_TOL * theta + law_band(lam, r.step, r.residual, params.p)

        lam = hint
        if accepted(lam):
            return lam
        lo = hi = lam
        if g(lam) < theta:
            while True:
                lo, hi = hi, hi * 2.0
                if g(hi) >= theta:
                    break
        else:
            while True:
                lo, hi = lo * 0.5, lo
                if g(lo) <= theta:
                    break
        for end in (lo, hi):
            if accepted(end):
                return end
        lam = feedback._brent(lambda s: g(s) - theta, lo, hi, xtol=1e-300, rtol=1e-14, maxiter=200)
        if accepted(lam):
            return lam
        lo, hi = (lam, hi) if g(lam) < theta else (lo, lam)
        while True:
            mid = 0.5 * (lo + hi)
            if accepted(mid):
                return mid
            lo, hi = (mid, hi) if g(mid) < theta else (lo, mid)

    @staticmethod
    def _law_cases():
        ball = ops.BallCone(np.zeros(3), 1.0)
        yield "box_saddle", box_saddle_op(), np.array([0.6, -0.4])
        yield "poly_ball", ops.make_poly([0.0, 1.0, 0.0, 1.0], dim=3, cone=ball), np.array([0.9, -0.7, 0.4])
        rng = np.random.default_rng(5)
        for name in ("strongly_monotone_affine", "bilinear_saddle", "cubic_1d", "convex_gradient"):
            prob = problems.build_problem(name, {})
            for _ in range(3):
                yield name, prob.operator, rng.uniform(-0.9, 0.9, prob.dim)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("hint", [1e-6, 1e6])
    def test_one_bracket_loop_keeps_the_trial_order(self, monkeypatch, hint, p):
        resolvent, calls = ops.resolvent, []

        def recorder(op_, lam, x_, **kw):
            calls.append(lam)
            return resolvent(op_, lam, x_, **kw)

        monkeypatch.setattr(feedback.ops, "resolvent", recorder)
        params = FeedbackParams(0.1, p)
        for name, op, x in self._law_cases():
            calls.clear()
            want = self._two_loop_solve(op, x, params, hint)
            want_calls = list(calls)
            calls.clear()
            lam = solve_law(op, x, params, hint=hint)[0]
            assert (lam, calls) == (want, want_calls), name
            assert len(calls) > 2, name

    def test_relaxed_theta_above_one(self):
        params = FeedbackParams(1.5, 2)
        lam = solve_lambda(IDENTITY, [2.0], params)
        assert scaled_displacement(IDENTITY, lam, [2.0], 2) == pytest.approx(1.5, rel=1e-9)

    def test_stationary_point_raises(self):
        with pytest.raises(StationaryPoint):
            solve_lambda(IDENTITY, [0.0], FeedbackParams(0.5, 2))
        op = box_saddle_op()
        with pytest.raises(StationaryPoint):
            solve_lambda(op, [0.0, 0.0], FeedbackParams(0.5, 2))


def _count_min_norm_residual(monkeypatch):
    calls, real = [], ops.min_norm_residual
    monkeypatch.setattr(ops, "min_norm_residual", lambda op, x: calls.append(1) or real(op, x))
    return calls


class TestStationarityCertificate:
    """solve_law skips min_norm_residual only when the resolvent at its
    first lam proves the point is not stationary."""

    def test_far_point_skips_the_residual_test(self, monkeypatch):
        calls = _count_min_norm_residual(monkeypatch)
        lam = solve_law(box_saddle_op(), np.array([0.6, -0.4]), FeedbackParams(0.1, 2))[0]
        assert calls == [] and lam > 0

    def test_point_within_the_slack_still_raises(self, monkeypatch):
        # ||A_lam x|| = 5e-13 / sqrt(1 + lam^2) sits below the tolerance at
        # every lam, so the certificate cannot fire and the test decides.
        calls = _count_min_norm_residual(monkeypatch)
        x = np.array([5e-13, 0.0])
        assert 0.0 < ops.min_norm_residual(box_saddle_op(), x) <= STATIONARITY_TOL
        calls.clear()
        for hint in (None, 1e-3, 10.0):
            with pytest.raises(StationaryPoint):
                solve_law(box_saddle_op(), x, FeedbackParams(0.1, 2), hint=hint)
        assert len(calls) == 3

    def test_point_within_the_slack_above_the_tolerance_solves(self, monkeypatch):
        # At lam = 10, ||A_lam x|| = 3e-12 / sqrt(101) lies below the
        # tolerance though ||A°x|| = 3e-12 lies above it: the test runs and
        # passes the point on to the law.
        calls = _count_min_norm_residual(monkeypatch)
        x = np.array([3e-12, 0.0])
        lam, r, _ = solve_law(box_saddle_op(), x, FeedbackParams(0.1, 2), hint=10.0)
        assert len(calls) == 1
        assert abs(lam * ops.norm(x - r.y) - 0.1) <= AE_TOL * 0.1 + 2 * lam * r.residual

    def test_failed_first_resolvent_defers_to_the_residual_test(self, monkeypatch):
        # A stationary point whose first resolvent fails still raises
        # StationaryPoint; elsewhere the law solve meets the failure itself.
        def stall(op, lam, x, warm=None):
            raise InnerSolverDiverged("resolvent newton stalled", residual=1.0, iterations=0)

        monkeypatch.setattr(ops, "resolvent", stall)
        with pytest.raises(StationaryPoint):
            solve_law(box_saddle_op(), np.zeros(2), FeedbackParams(0.1, 2))
        with pytest.raises(InnerSolverDiverged):
            solve_law(box_saddle_op(), np.array([0.6, -0.4]), FeedbackParams(0.1, 2))

    def test_residual_given_is_read_as_before(self, monkeypatch):
        calls = _count_min_norm_residual(monkeypatch)
        with pytest.raises(StationaryPoint):
            solve_law(box_saddle_op(), np.array([0.6, -0.4]), FeedbackParams(0.1, 2), residual=0.0)
        assert calls == []

    @staticmethod
    def _zoo():
        box = ops.BoxCone(-np.ones(3), np.ones(3))
        ball = ops.BallCone(np.array([0.2, 0.0, -0.1]), 1.0)
        yield "identity", IDENTITY, np.zeros(1)
        yield "box saddle", box_saddle_op(), np.zeros(2)
        # F(x) = x - c with c outside the box: the solution sits on a face.
        yield "box face", ops.make_affine(np.eye(3), -np.array([2.0, 0.5, -3.0]), cone=box), np.array([1.0, 0.5, -1.0])
        c = np.array([3.0, 0.0, 0.0])
        face = ball.center + (c - ball.center) / ops.norm(c - ball.center)  # radius 1
        yield "ball face", ops.make_affine(np.eye(3), -c, cone=ball), face
        for name, prob in (
            ("monotone-3d", problems.make_strongly_monotone_affine(3, 0.5, seed=1)),
            ("saddle-4d", problems.make_bilinear_saddle(4, 1.0)),
            ("cubic-1d", problems.make_cubic_1d()),
            ("radial-2d", problems.make_convex_gradient(2)),
        ):
            yield name, prob.operator, np.zeros(prob.dim)

    def test_never_disagrees_with_the_residual_test(self):
        # Points at distances from 1e-15 to 1 of a solution, on and around
        # the boundary, at lam from 1e-4 to 1e4: whenever the certificate
        # fires, min_norm_residual clears the tolerance too.
        rng = np.random.default_rng(7)
        fired = missed = 0
        for name, op, sol in self._zoo():
            for _ in range(300):
                x = sol + 10.0 ** rng.uniform(-15, 0) * rng.standard_normal(op.dim)
                if op.cone is not None and rng.random() < 0.3:
                    x = op.domain.project(x)  # onto the boundary where it left the domain
                lam = float(10.0 ** rng.uniform(-4, 4))
                r = ops.resolvent(op, lam, x)
                certified = rules_out_stationarity(op, lam, x, r)
                res = ops.min_norm_residual(op, x)
                assert not (certified and res <= STATIONARITY_TOL), (name, x.tolist(), lam, res)
                fired += certified
                missed += res > STATIONARITY_TOL and not certified
        # Not vacuous: it fires on most nonstationary draws and not on all.
        assert fired > missed > 0


def law_gradient(op, lam, x, r, p):
    """Gradient (g_lam, g_x) of g(lam, x) = lam * ||x - J_lam(x)||^(p-1) at
    r, the Resolvent of x at lam, from feedback._adjoint made on u = x - y:
    g_x = c (u - z) and g_lam = d^(p-1) + c (z . F(y)).  feedback.law_slope
    reads g_lam and g_x . f from the same solve made on f = -u.  For p = 1,
    g = lam: (1, 0); at y = x with p = 2 both parts come back NaN."""
    x = np.asarray(x, dtype=float)
    if p == 1:
        return 1.0, np.zeros(x.shape)
    u = x - r.y
    if r.step == 0.0 and p < 3:
        return math.nan, np.full(x.shape, math.nan)
    d, c, z, fy = feedback._adjoint(op, lam, x, r, p, u)
    return d ** (p - 1) + c * float(z @ fy), c * (u - z)


class TestLawGradient:
    """The implicit-function gradient that feedback.law_slope evaluates
    (law_gradient above) against central differences of the law and the
    sandwich 1 <= lam * g_lam / g <= p, on every resolvent route."""

    BOX = ops.BoxCone(-np.ones(3), np.ones(3))
    ROUTES = {
        "affine": problems.make_strongly_monotone_affine(3, 0.5, seed=1).operator,
        "affine + box": ops.make_affine([[0.3, 1.0, 0.0], [-1.0, 0.0, 0.5], [0.0, -0.5, 0.1]], cone=BOX),
        "poly": ops.make_poly([0.0, 1.0, 0.0, 0.5], dim=3),
        "poly + box": ops.make_poly([0.0, 1.0, 0.0, 0.5], dim=3, cone=BOX),
        "radial": ops.OperatorSpec(dim=3, radial=ops.RadialPart(0.7)),
        "ball cone": ops.OperatorSpec(
            dim=3, poly=ops.PolyPart([0.0, 0.5, 0.0, 1.0]), cone=ops.BallCone(np.array([0.1, -0.2, 0.0]), 0.8)
        ),
    }

    @staticmethod
    def _law(op, lam, x, p):
        return lam * ops.norm(x - ops.resolvent(op, lam, x).y) ** (p - 1)

    @staticmethod
    def _kink_distance(op, lam, x, y):
        w = x - lam * ops.single_value(op, y)
        c = op.cone
        if c is None:
            return np.inf
        if isinstance(c, ops.BoxCone):
            return float(np.minimum(np.abs(w - c.lower), np.abs(w - c.upper)).min())
        return abs(ops.norm(w - c.center) - c.radius)

    @pytest.mark.parametrize(
        "seed, route, orders",
        [pytest.param(seed, route, (2, 5), id=f"{seed}-{route}") for seed, route in enumerate(ROUTES)]
        + [pytest.param(6, "affine + box", (1, 2), id="6-affine + box-p=1")],
    )
    def test_matches_central_differences(self, seed, route, orders):
        # orders: the range p is drawn from.  At p = 1, g = lam: (1, 0).
        op = self.ROUTES[route]
        rng = np.random.default_rng(seed)
        checked = 0
        for _ in range(40):
            p = int(rng.integers(*orders))
            x = 1.5 * rng.standard_normal(op.dim)
            lam = float(10.0 ** rng.uniform(-1.5, 1.0))
            r = ops.resolvent(op, lam, x)
            y = r.y
            g = lam * ops.norm(x - y) ** (p - 1)
            g_lam, g_x = law_gradient(op, lam, x, r, p)
            assert 1.0 - 1e-9 <= lam * g_lam / g <= p * (1.0 + 1e-9), (route, p, lam * g_lam / g)
            if self._kink_distance(op, lam, x, y) < 1e-2:
                continue
            h = 1e-5
            fd_lam = (self._law(op, lam * (1 + h), x, p) - self._law(op, lam * (1 - h), x, p)) / (2 * h * lam)
            assert abs(fd_lam - g_lam) <= 1e-7 * g / lam, (route, p, fd_lam, g_lam)
            # ||g_x|| <= lam (p - 1) d^(p-2), as I - J_lam is nonexpansive.
            scale = lam * (p - 1) * ops.norm(x - y) ** (p - 2)
            fd_x = np.array(
                [
                    (self._law(op, lam, x + h * e, p) - self._law(op, lam, x - h * e, p)) / (2 * h)
                    for e in np.eye(op.dim)
                ]
            )
            assert ops.norm(g_x) <= scale * (1.0 + 1e-9)
            assert ops.norm(fd_x - g_x) <= 1e-7 * scale, (route, p, fd_x.tolist(), g_x.tolist())
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_at_a_solution(self, p):
        # At y = x, p = 2 gives NaN parts, not a ZeroDivisionError from
        # d^(p-3); p >= 3 gives the zero gradient.
        op = problems.make_bilinear_saddle(d=2).operator
        x = np.zeros(2)
        r = ops.resolvent(op, 0.5, x)
        assert np.array_equal(r.y, x)
        g_lam, g_x = law_gradient(op, 0.5, x, r, p)
        assert g_x.shape == x.shape
        if p == 2:
            assert math.isnan(g_lam) and np.isnan(g_x).all()
        else:
            assert g_lam == 0.0 and not g_x.any()


class TestBracketOverflow:
    """A law value that never crosses theta: the bracket search gives up
    after MAX_DOUBLINGS steps in the direction it started."""

    @staticmethod
    def _fake(monkeypatch, offset, active=lambda: True):
        # While active() holds the resolvent returns y = x + offset(lam),
        # certified exactly, so the law value is lam * ||offset(lam)||.
        real, calls = ops.resolvent, []

        def resolvent(op, lam, x, warm=None):
            if not active():
                return real(op, lam, x, warm=warm)
            calls.append(lam)
            y = np.asarray(x, dtype=float) + offset(lam)
            return ops.Resolvent(y, (x - y) / lam, lam, x, residual=0.0)

        monkeypatch.setattr(feedback.ops, "resolvent", resolvent)
        return calls

    @pytest.mark.parametrize(
        "offset, side",
        [(lambda lam: np.zeros(2), "upper"), (lambda lam: np.full(2, 1.0 / lam), "lower")],
        ids=["below theta", "above theta"],
    )
    def test_law_never_crossing_theta_raises(self, monkeypatch, offset, side):
        calls = self._fake(monkeypatch, offset)
        with pytest.raises(BracketOverflow, match=f"no {side} bracket after {feedback.MAX_DOUBLINGS}"):
            solve_law(box_saddle_op(), np.array([0.6, -0.4]), FeedbackParams(0.1, 2))
        assert len(calls) == 1 + feedback.MAX_DOUBLINGS

    def test_run_reports_overflow_as_oracle_failure(self, monkeypatch):
        # The real resolvent serves the first two HPE steps; from the third
        # on every law value is 0.
        problem = problems.make_bilinear_saddle(d=2)
        cfg = hpe.HpeConfig(sigma=0.0, theta=0.1, p=2, max_iters=30, stop_res=0.0)
        oracle, steps = partial(hpe.exact_oracle, problem, cfg=cfg), []
        self._fake(monkeypatch, lambda lam: np.zeros(2), active=lambda: len(steps) >= 3)
        with pytest.raises(OracleFailure) as info:
            hpe.run(problem, lambda x, **kw: steps.append(1) or oracle(x, **kw), cfg, np.array([0.6, -0.4]))
        assert info.value.k == 3 and [r.k for r in info.value.records] == [1, 2]
        assert isinstance(info.value.__cause__, BracketOverflow)


class TestBisectionFinish:
    """A law value that jumps across theta at lam = 1: the bracket closes
    on the jump, but neither Brent nor the bisection after it ever finds
    an accepted lam."""

    @staticmethod
    def _jump(lam):
        # y = x + offset: law value lam * ||offset|| = theta/2 below 1, 2*theta from 1 on.
        return np.array([(0.05 if lam < 1.0 else 0.2) / lam, 0.0])

    def test_raises_the_typed_residual_failure(self, monkeypatch):
        calls = TestBracketOverflow._fake(monkeypatch, self._jump)
        with pytest.raises(InnerSolverDiverged, match=r"control-law residual \S+ above 1.0e-10") as info:
            solve_law(box_saddle_op(), np.array([0.6, -0.4]), FeedbackParams(0.1, 2))
        assert info.value.residual >= 0.05 * (1.0 - 1e-12)  # the law never comes nearer theta
        assert min(lam for lam in calls if lam >= 1.0) == 1.0
        assert len(calls) == len(set(calls))

    def test_run_reports_it_as_oracle_failure(self, monkeypatch):
        problem = problems.make_bilinear_saddle(d=2)
        cfg = hpe.HpeConfig(sigma=0.0, theta=0.1, p=2, max_iters=30, stop_res=0.0)
        oracle, steps = partial(hpe.exact_oracle, problem, cfg=cfg), []
        TestBracketOverflow._fake(monkeypatch, self._jump, active=lambda: len(steps) >= 3)
        with pytest.raises(OracleFailure, match="control-law residual") as info:
            hpe.run(problem, lambda x, **kw: steps.append(1) or oracle(x, **kw), cfg, np.array([0.6, -0.4]))
        assert info.value.k == 3 and [r.k for r in info.value.records] == [1, 2]
        assert isinstance(info.value.__cause__, InnerSolverDiverged)


class TestDisplacementMap:
    def test_value_matches_resolvent(self):
        op = box_saddle_op()
        x = np.array([0.7, 0.2])
        lam = 0.8
        d = float(np.linalg.norm(ops.resolvent(op, lam, x).y - x))
        assert scaled_displacement(op, lam, x, 2) == pytest.approx(lam * d, rel=1e-12)

    def test_sandwich_under_scaling(self):
        # Scaling lam by f >= 1 scales the law value by a factor in [f, f^p].
        op = box_saddle_op()
        rng = np.random.default_rng(9)
        p = 2
        for _ in range(25):
            x = rng.uniform(-0.9, 0.9, size=2)
            if np.linalg.norm(x) < 1e-3:
                continue
            lam = float(rng.uniform(0.05, 2.0))
            f = float(rng.uniform(1.0, 4.0))
            g1 = scaled_displacement(op, lam, x, p)
            g2 = scaled_displacement(op, f * lam, x, p)
            assert g2 >= f * g1 - 1e-9 * max(1.0, g1)
            assert g2 <= f**p * g1 + 1e-9 * max(1.0, g1)

    def test_monotone_in_lambda(self):
        op = box_saddle_op()
        x = np.array([0.5, 0.5])
        vals = [scaled_displacement(op, lam, x, 2) for lam in (0.1, 0.5, 1.0, 5.0)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestStationarityGauge:
    def test_identity_value(self):
        # gauge = 1/lam at p = 2; lam is the frozen quadratic root.
        g = stationarity_gauge(IDENTITY, [2.0], FeedbackParams(0.5, 2))
        assert g == pytest.approx(8.0 / (1.0 + math.sqrt(17.0)), rel=1e-11)

    def test_zero_on_solution_set(self):
        assert stationarity_gauge(IDENTITY, [0.0], FeedbackParams(0.5, 2)) == 0.0

    def test_needs_second_order(self):
        with pytest.raises(ValueError):
            stationarity_gauge(IDENTITY, [1.0], FeedbackParams(0.5, 1))

    def test_lipschitz_bound(self):
        op = box_saddle_op()
        params = FeedbackParams(0.2, 2)
        const = 0.2 ** (-1.0)  # theta^(-1/(p-1))
        rng = np.random.default_rng(21)
        for _ in range(30):
            x1 = rng.uniform(-0.9, 0.9, size=2)
            x2 = rng.uniform(-0.9, 0.9, size=2)
            g1 = stationarity_gauge(op, x1, params)
            g2 = stationarity_gauge(op, x2, params)
            lhs = abs(g1 - g2)
            rhs = const * float(np.linalg.norm(x1 - x2))
            assert lhs <= rhs + 1e-8


# Scalar test functions for the Brent differential; each changes sign once
# on R except the cubic, and some are flat or steep near the root.
BRENT_FAMILIES = [
    lambda x, a, b: x**3 + a * x + b,
    lambda x, a, b: math.expm1(a * x) + b,
    lambda x, a, b: 1e3 * math.atan(x - a),
    lambda x, a, b: (x - a) ** 5,
    lambda x, a, b: math.copysign(abs(x - a) ** 0.3, x - a) + 1e-3 * b,
]


def _recorded(f):
    seen = []

    def g(x):
        seen.append(x)
        return f(x)

    return g, seen


class TestBrent:
    """feedback._brent against scipy.optimize.brentq: same root, same
    evaluation points in the same order, the step cap included."""

    @settings(max_examples=400)
    @given(
        family=st.integers(0, len(BRENT_FAMILIES) - 1),
        a=st.floats(-3.0, 3.0),
        b=st.floats(-3.0, 3.0),
        ends=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        xtol=st.sampled_from([1e-300, 1e-12, 1e-4]),
        rtol=st.sampled_from([1e-14, 8.9e-16, 1e-8]),
        maxiter=st.sampled_from([0, 1, 5, 200]),
    )
    def test_matches_scipy_on_scalar_functions(self, family, a, b, ends, xtol, rtol, maxiter):
        lo, hi = sorted(ends)
        f = lambda x: BRENT_FAMILIES[family](x, a, b)  # noqa: E731
        assume(f(lo) * f(hi) < 0)
        g1, seen1 = _recorded(f)
        g2, seen2 = _recorded(f)
        want = brentq(g1, lo, hi, xtol=xtol, rtol=rtol, maxiter=maxiter, full_output=True, disp=False)[0]
        got = feedback._brent(g2, lo, hi, xtol, rtol, maxiter)
        assert got == want
        assert seen2 == seen1

    @settings(max_examples=60)
    @given(
        name=st.sampled_from(["bilinear_saddle", "strongly_monotone_affine", "cubic_1d", "convex_gradient"]),
        p=st.integers(2, 3),
        theta=st.floats(1e-3, 0.9),
        seed=st.integers(0, 2**16),
    )
    def test_matches_scipy_on_law_curves(self, name, p, theta, seed):
        # The bracket solve_law hands to Brent, on a fresh memoised curve
        # per solver so each sees the same warm starts.
        op = problems.build_problem(name).operator
        x = np.random.default_rng(seed).uniform(-0.9, 0.9, op.dim)
        assume(ops.min_norm_residual(op, x) > feedback.STATIONARITY_TOL)
        g = feedback._LawCurve(op, x, p)
        lo = hi = 1.0
        if g(1.0) < theta:
            while g(hi) < theta:
                lo, hi = hi, 2.0 * hi
        else:
            while g(lo) > theta:
                lo, hi = 0.5 * lo, lo
        assume(g(lo) < theta < g(hi))
        g1, seen1 = _recorded(lambda s, c=feedback._LawCurve(op, x, p): c(s) - theta)
        g2, seen2 = _recorded(lambda s, c=feedback._LawCurve(op, x, p): c(s) - theta)
        want = brentq(g1, lo, hi, xtol=1e-300, rtol=1e-14, maxiter=200)
        got = feedback._brent(g2, lo, hi, 1e-300, 1e-14, 200)
        assert got == want
        assert seen2 == seen1


# Reference copy of the law solve as it stood when each evaluation formed
# ||x - y|| and the certified band at once, and the stationarity test formed
# ||x - y|| again.  The live solve forms the band only for the trials it
# tests and reads the step its resolvent carries; it must give the same bits.


class _EagerLawCurve:
    def __init__(self, op, x, p):
        self.op, self.x, self.p, self.warm, self.memo = op, np.asarray(x, dtype=float), p, None, {}

    def entry(self, lam):
        hit = self.memo.get(lam)
        if hit is None:
            r = ops.resolvent(self.op, lam, self.x, warm=self.warm)
            if r.state is not None:
                self.warm = r.state
            d = ops.norm(self.x - r.y)
            hit = self.memo[lam] = (lam * d ** (self.p - 1), law_band(lam, d, r.residual, self.p), r)
        return hit

    def proves_nonstationary(self, lam):
        try:
            r = self.entry(lam)[2]
        except InnerSolverDiverged:
            return False
        if not self.op.domain.interior(self.x):
            return False
        slack = r.residual + feedback._ROUNDING * (ops.norm(self.x) + ops.norm(r.y))
        return (ops.norm(self.x - r.y) - slack) / lam > STATIONARITY_TOL


def _eager_solve_law(op, x, params, hint=None, residual=None):
    """(lam, band, r), or the MonoflowError raised."""
    theta, p = params.theta, params.p
    g = _EagerLawCurve(op, x, p)
    lam = theta if p == 1 else float(hint) if hint is not None and hint > 0 else 1.0
    try:
        if residual is None and not g.proves_nonstationary(lam):
            residual = ops.min_norm_residual(op, x)
        if residual is not None and residual <= STATIONARITY_TOL:
            raise StationaryPoint("x solves the inclusion to tolerance", x=x, residual=residual)

        def value(s):
            return g.entry(s)[0]

        def accepted(s):
            val, band, r = g.entry(s)
            return (s, band, r) if abs(val - theta) <= AE_TOL * theta + band else None

        lo, hi = 0.0, math.inf
        for _ in range(feedback.MAX_DOUBLINGS + 1):
            if found := accepted(lam):
                return found
            lo, hi = (lam, hi) if value(lam) < theta else (lo, lam)
            if hi == math.inf:
                lam = 2.0 * lo
            elif lo == 0.0:
                lam = 0.5 * hi
            else:
                break
        else:
            raise BracketOverflow("no bracket")
        lam = feedback._brent(lambda s: value(s) - theta, lo, hi, xtol=1e-300, rtol=1e-14, maxiter=200)
        if found := accepted(lam):
            return found
        lo, hi = (lam, hi) if value(lam) < theta else (lo, lam)
        for _ in range(256):
            mid = 0.5 * (lo + hi)
            if found := accepted(mid):
                return found
            lo, hi = (mid, hi) if value(mid) < theta else (lo, mid)
        raise InnerSolverDiverged("control-law residual")
    except (StationaryPoint, BracketOverflow, InnerSolverDiverged) as exc:
        return exc


class TestLazyLawEvaluations:
    """solve_law reads each resolvent's carried step and forms a residual
    and a band only for the trials whose acceptance it tests."""

    @staticmethod
    def _cases():
        names = ("bilinear_saddle", "strongly_monotone_affine", "cubic_1d", "convex_gradient")
        zoo = [(name, problems.build_problem(name)) for name in names]
        rng = np.random.default_rng(2111)
        for name, prob in zoo + _operator_pool():
            for p in (1, 2, 3, 4):
                for hint in (None, float(10.0 ** rng.uniform(-3.0, 3.0))):
                    x = rng.uniform(-0.9, 0.9, prob.dim) * 10.0 ** rng.uniform(-2.0, 0.5)
                    yield name, prob.operator, x, FeedbackParams(float(10.0 ** rng.uniform(-3.0, 0.0)), p), hint

    def test_same_bits_as_the_eager_solve(self):
        solved = 0
        for name, op, x, params, hint in self._cases():
            for residual in (None, ops.min_norm_residual(op, x)):
                want = _eager_solve_law(op, x, params, hint=hint, residual=residual)
                if isinstance(want, Exception):
                    with pytest.raises(type(want)):
                        solve_law(op, x, params, hint=hint, residual=residual)
                    continue
                lam, r, band = solve_law(op, x, params, hint=hint, residual=residual)
                want_lam, want_band, want_r = want
                case = (name, params, hint, residual)
                assert np.float64(lam).tobytes() == np.float64(want_lam).tobytes(), case
                assert np.float64(band).tobytes() == np.float64(want_band).tobytes(), case
                assert r.y.tobytes() == want_r.y.tobytes() and r.v.tobytes() == want_r.v.tobytes(), case
                assert np.float64(r.residual).tobytes() == np.float64(want_r.residual).tobytes(), case
                solved += 1
        assert solved >= 120

    def test_brent_trials_form_no_residual_and_no_band(self, monkeypatch):
        made, read, banded = [], [], []
        resolvent, residual, band = ops.resolvent, ops.Resolvent.residual, feedback.law_band

        def recorder(op_, lam, x_, **kw):
            made.append((lam, resolvent(op_, lam, x_, **kw)))
            return made[-1][1]

        monkeypatch.setattr(feedback.ops, "resolvent", recorder)
        monkeypatch.setattr(ops.Resolvent, "residual", property(lambda r: read.append(r) or residual.fget(r)))
        monkeypatch.setattr(feedback, "law_band", lambda lam, d, rho, p: banded.append(lam) or band(lam, d, rho, p))
        lam, r, got_band = solve_law(box_saddle_op(), np.array([0.6, -0.4]), FeedbackParams(0.1, 2), hint=1e-6)
        assert {s for s, q in made if any(q is t for t in read)} == set(banded)
        assert len(banded) == len(set(banded))
        assert len([s for s, _ in made if s not in banded]) >= 3  # Brent's own trials
        assert banded[-1] == lam and got_band == band(lam, r.step, r.residual, 2)
