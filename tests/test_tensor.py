import math
from functools import partial

import numpy as np
import pytest

from monoflow import operators as ops
from monoflow import problems, tensor
from monoflow.errors import (
    ConfigError,
    InnerSolverDiverged,
    OracleFailure,
    StationaryPoint,
    SurrogateNonmonotone,
    WindowUnreachable,
)
from monoflow.hpe import run, verify_step
from monoflow.tensor import (
    TensorConfig,
    lambda_window_search,
    surrogate_resolvent,
)

SADDLE = problems.make_bilinear_saddle(d=2)
CUBIC = problems.make_cubic_1d()


def cubic_config():
    return TensorConfig(sigma_hat=0.1, sigma_l=0.2, sigma_u=0.8, L=6.0, p=3)


def saddle_config():
    return TensorConfig(sigma_hat=0.05, sigma_l=0.3, sigma_u=0.7, L=1.0, p=2)


def _ref_window_search(problem, x, cfg, hint=None, warm=None):
    """Doubling or halving from the hint, then log-scale bisection: the
    search as three loops, 200 steps each, with a failed solve as +inf.
    Trial solves go through tensor.surrogate_resolvent."""
    op, p = problem.operator, cfg.p
    x = np.asarray(x, dtype=float)
    sur = ops.TaylorSurrogate(op, op.domain.project(x), p)
    wlo, whi = cfg.window

    def fold(lam, y, u, state):
        return lam, y, ops.single_value(op, y) + u - sur.value(y), state[0]

    def product(lam):
        nonlocal warm
        try:
            r = tensor.surrogate_resolvent(sur, x, lam, cfg.sigma_hat, warm=warm)
            y, u, warm = r.y, r.v, r.state
        except InnerSolverDiverged:
            return None
        return lam * ops.norm(y - x) ** (p - 1), y, u, warm

    lam = float(hint) if hint is not None and hint > 0 else math.sqrt(wlo * whi)
    out = product(lam)
    s = math.inf if out is None else out[0]
    if wlo <= s <= whi:
        return fold(lam, *out[1:])
    if s < wlo:
        lo = hi = lam
        for _ in range(200):
            lo, hi = hi, 2.0 * hi
            out = product(hi)
            if out is None:
                break
            if out[0] >= wlo:
                if out[0] <= whi:
                    return fold(hi, *out[1:])
                break
        else:
            raise WindowUnreachable("no upper bracket", bracket=(lo, hi))
    else:
        hi = lo = lam
        for _ in range(200):
            hi, lo = lo, 0.5 * lo
            out = product(lo)
            if out is None:
                continue
            if out[0] <= whi:
                if out[0] >= wlo:
                    return fold(lo, *out[1:])
                break
        else:
            raise WindowUnreachable("no lower bracket", bracket=(lo, hi))
    for _ in range(200):
        lam = math.sqrt(lo * hi)
        out = product(lam)
        if out is None:
            hi = lam
            continue
        if wlo <= out[0] <= whi:
            return fold(lam, *out[1:])
        if out[0] < wlo:
            lo = lam
        else:
            hi = lam
    raise WindowUnreachable("bisection budget exhausted", bracket=(lo, hi))


class TestConfig:
    def test_sigma_hat_range(self):
        with pytest.raises(ValueError):
            TensorConfig(sigma_hat=0.0, sigma_l=0.3, sigma_u=0.7, L=1.0, p=2)
        with pytest.raises(ValueError):
            TensorConfig(sigma_hat=1.0, sigma_l=0.3, sigma_u=0.7, L=1.0, p=2)

    def test_window_edges_ordered(self):
        with pytest.raises(ValueError):
            TensorConfig(sigma_hat=0.05, sigma_l=0.7, sigma_u=0.3, L=1.0, p=2)

    def test_empty_window_rejected(self):
        # sigma_l(1+s)^(p-1) = 0.6 exceeds sigma_u(1-s)^(p-1) = 0.225.
        with pytest.raises(ValueError, match="empty window"):
            TensorConfig(sigma_hat=0.5, sigma_l=0.4, sigma_u=0.45, L=1.0, p=2)

    def test_total_inexactness_below_one(self):
        with pytest.raises(ValueError):
            TensorConfig(sigma_hat=0.4, sigma_l=0.1, sigma_u=0.65, L=1.0, p=2)

    def test_positive_smoothness_and_order(self):
        with pytest.raises(ValueError):
            TensorConfig(sigma_hat=0.05, sigma_l=0.3, sigma_u=0.7, L=0.0, p=2)
        with pytest.raises(ValueError):
            TensorConfig(sigma_hat=0.05, sigma_l=0.3, sigma_u=0.7, L=1.0, p=0)

    def test_derived_constants(self):
        tc = cubic_config()
        # p! / L = 6/6 = 1, so the window is (sigma_l, sigma_u) itself.
        assert tc.theta == pytest.approx(0.2)
        assert tc.sigma == pytest.approx(0.9)
        assert tc.window == (pytest.approx(0.2), pytest.approx(0.8))


class TestSurrogateResolvent:
    def test_residual_within_budget(self):
        tc = cubic_config()
        x = np.array([2.0])
        r = surrogate_resolvent(ops.TaylorSurrogate(CUBIC.operator, x, 3), x, 0.5, tc.sigma_hat)
        y, u = r.y, r.v
        res = float(np.linalg.norm(0.5 * u + y - x))
        assert res <= tc.sigma_hat * float(np.linalg.norm(y - x)) + 1e-12

    def test_membership_without_cone_is_surrogate_value(self):
        tc = cubic_config()
        x = np.array([2.0])
        sur = ops.TaylorSurrogate(CUBIC.operator, x, 3)
        r = surrogate_resolvent(sur, x, 0.5, tc.sigma_hat)
        y, u = r.y, r.v
        assert np.allclose(u, sur.value(y), atol=1e-12)

    # The window search checks the order once, before it builds the surrogate.
    def test_high_order_needs_small_dimension(self):
        big = problems.make_convex_gradient(d=5)
        with pytest.raises(ConfigError):
            lambda_window_search(big, np.ones(5), cubic_config())

    def test_high_order_rejects_affine_part(self):
        with pytest.raises(ConfigError):
            lambda_window_search(SADDLE, np.full(2, 0.5), cubic_config())


class TestWindowSearch:
    def test_first_order_takes_midpoint(self):
        # At p = 1 the product is lam itself, so the first trial, the
        # geometric midpoint sqrt(wlo * whi) of the window, is accepted.
        tc = TensorConfig(sigma_hat=0.05, sigma_l=0.3, sigma_u=0.7, L=1.0, p=1)
        lam, y, u, eps, w = lambda_window_search(SADDLE, np.full(2, 0.7), tc)
        wlo, whi = tc.window
        assert lam == math.sqrt(wlo * whi) and wlo <= lam <= whi

    def test_product_lands_in_window(self):
        tc = TensorConfig(sigma_hat=0.05, sigma_l=0.3, sigma_u=0.7, L=1.0, p=2)
        wlo, whi = tc.window
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.uniform(-0.9, 0.9, size=2)
            lam, y, u, eps, w = lambda_window_search(SADDLE, x, tc)
            s = lam * float(np.linalg.norm(y - x))
            assert wlo - 1e-12 <= s <= whi + 1e-12

    def test_hint_is_honoured_when_valid(self):
        tc = TensorConfig(sigma_hat=0.05, sigma_l=0.3, sigma_u=0.7, L=1.0, p=2)
        x = np.full(2, 0.7)
        lam0, *_ = lambda_window_search(SADDLE, x, tc)
        lam1, *_ = lambda_window_search(SADDLE, x, tc, hint=lam0)
        assert lam1 == lam0

    def test_stationary_point_raises(self):
        tc = TensorConfig(sigma_hat=0.05, sigma_l=0.3, sigma_u=0.7, L=1.0, p=2)
        with pytest.raises(StationaryPoint):
            lambda_window_search(SADDLE, np.zeros(2), tc)

    def test_anchor_monotonicity_tested_once(self, monkeypatch):
        # At p = 3 the surrogate Jacobian at the anchor is tested once per
        # search, before any trial solve; a negative eigenvalue stops it.
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or real(a))
        lambda_window_search(CUBIC, np.array([2.0]), cubic_config())
        assert len(calls) == 1
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.array([-1.0]))
        monkeypatch.setattr(tensor, "surrogate_resolvent", None)
        with pytest.raises(SurrogateNonmonotone, match="eigenvalue -1.000e"):
            lambda_window_search(CUBIC, np.array([2.0]), cubic_config())

    def test_survives_loss_of_solvability_above_window(self):
        # Anchored odd-degree surrogates stop being solvable past a finite
        # lam; the search must treat that as product = +inf and bisect
        # instead of failing.
        tc = cubic_config()
        lam, y, u, eps, w = lambda_window_search(CUBIC, np.array([2.0]), tc)
        s = lam * float(np.linalg.norm(y - np.array([2.0]))) ** 2
        wlo, whi = tc.window
        assert wlo - 1e-12 <= s <= whi + 1e-12


class TestWindowFailures:
    """Each way the search can run out of trials, forced by a fake solve."""

    def _search(self, monkeypatch, solve):
        trials = []

        def fake(sur, x, lam, sigma_hat, warm=None):
            trials.append(lam)
            return ops.Resolvent(solve(x, lam), np.zeros_like(x), lam, x)

        monkeypatch.setattr(tensor, "surrogate_resolvent", fake)
        with pytest.raises(WindowUnreachable) as info:
            lambda_window_search(SADDLE, np.full(2, 0.7), saddle_config())
        assert len(trials) == tensor.MAX_TRIALS
        return info.value, trials

    def test_product_below_window_finds_no_upper_bracket(self, monkeypatch):
        exc, trials = self._search(monkeypatch, lambda x, lam: x)
        lo, hi = exc.bracket
        assert hi == math.inf and lo == trials[-1] > 0.0
        assert "no upper bracket" in str(exc)

    def test_failed_solves_find_no_lower_bracket(self, monkeypatch):
        def diverge(x, lam):
            raise InnerSolverDiverged("forced", residual=1.0, iterations=0)

        exc, trials = self._search(monkeypatch, diverge)
        lo, hi = exc.bracket
        assert lo == 0.0 and hi == trials[-1] > 0.0
        assert "no lower bracket" in str(exc)

    def test_product_jumping_over_window_exhausts_budget(self, monkeypatch):
        # lam * ||y - x|| is 0 below lam = 1 and 10 from there on, so the
        # window [0.3, 0.7] is bracketed but never hit.
        exc, trials = self._search(monkeypatch, lambda x, lam: x + (10.0 / lam if lam >= 1.0 else 0.0))
        lo, hi = exc.bracket
        assert 0.0 < lo < 1.0 <= hi < math.inf
        assert math.nextafter(lo, math.inf) == hi
        assert "no trial inside the bracket" in str(exc)

    def test_run_reports_unreachable_window_as_oracle_failure(self, monkeypatch):
        real, steps = tensor.surrogate_resolvent, []

        def solve(*args, **kwargs):
            if len(steps) >= 3:
                raise InnerSolverDiverged("forced", residual=1.0, iterations=0)
            return real(*args, **kwargs)

        monkeypatch.setattr(tensor, "surrogate_resolvent", solve)
        tc = saddle_config()
        oracle = partial(lambda_window_search, SADDLE, cfg=tc)
        with pytest.raises(OracleFailure) as info:
            run(SADDLE, lambda x, **kw: steps.append(1) or oracle(x, **kw), tc.drive(30), np.full(2, 0.7))
        exc = info.value
        assert exc.k == 3 and [r.k for r in exc.records] == [1, 2]
        assert isinstance(exc.__cause__, WindowUnreachable)
        assert exc.__cause__.bracket[0] == 0.0


ZOO = [
    ("bilinear_saddle", {"d": 10}, saddle_config()),
    ("strongly_monotone_affine", {"d": 10}, saddle_config()),
    ("cubic_1d", {}, cubic_config()),
    ("convex_gradient", {"d": 4}, cubic_config()),
]


class TestWindowSearchDifferential:
    @pytest.mark.parametrize("name, params, tc", ZOO, ids=[z[0] for z in ZOO])
    def test_same_trials_and_step_as_reference(self, monkeypatch, name, params, tc):
        # The one-loop bracket search visits the reference's trial lams in
        # the same order and returns the same step, bit for bit.
        problem = problems.build_problem(name, params)
        real, trials = tensor.surrogate_resolvent, []
        monkeypatch.setattr(
            tensor, "surrogate_resolvent", lambda sur, x, lam, *a, **k: trials.append(lam) or real(sur, x, lam, *a, **k)
        )
        rng = np.random.default_rng(17)
        for _ in range(4):
            x = rng.uniform(-0.9, 0.9, problem.dim)
            for hint in (None, 10.0 ** rng.uniform(-8.0, 0.0), 10.0 ** rng.uniform(0.0, 8.0)):
                trials.clear()
                got = lambda_window_search(problem, x, tc, hint=hint)
                got_trials = list(trials)
                trials.clear()
                want = _ref_window_search(problem, x, tc, hint=hint)
                assert got_trials == trials and len(trials) >= 1
                assert got[0] == want[0]
                for a, b in zip(got[1:3], want[1:3]):
                    assert np.array_equal(a, b)


class TestOracle:
    def test_step_verifies_under_derived_constants(self):
        tc = cubic_config()
        drive = tc.drive(50)
        x = np.array([2.0])
        lam, y, v, eps, w = lambda_window_search(CUBIC, x, tc)
        assert eps == 0.0
        cert = verify_step(drive, x, lam, y, v, eps)
        assert cert.ok

    def test_full_run_on_cubic(self):
        # Regression: warm-started full runs used to die once the iterates
        # crossed the solvability knee of the anchored surrogate.
        tc = cubic_config()
        drive = tc.drive(40)
        res = run(CUBIC, partial(lambda_window_search, CUBIC, cfg=tc), drive, np.array([2.0]))
        assert res.status == "SOLVED"
        assert all(r.cert.ok for r in res.records)
        final = ops.min_norm_residual(CUBIC.operator, res.records[-1].x_next)
        assert final <= 1e-9

    def test_full_run_on_saddle(self):
        tc = TensorConfig(sigma_hat=0.05, sigma_l=0.3, sigma_u=0.7, L=1.0, p=2)
        drive = tc.drive(60)
        res = run(SADDLE, partial(lambda_window_search, SADDLE, cfg=tc), drive, np.full(2, 0.7))
        assert all(r.cert.ok for r in res.records)
        wlo, whi = tc.window
        for r in res.records:
            s = r.lam * float(np.linalg.norm(r.y - r.x_prev))
            assert wlo - 1e-12 <= s <= whi + 1e-12

    def test_exactness_of_returned_membership(self):
        # The surrogate error is folded into v, so (y, v) lies on the true
        # graph: v - F(y) must vanish without a cone.
        tc = cubic_config()
        x = np.array([1.3])
        lam, y, v, eps, w = lambda_window_search(CUBIC, x, tc)
        assert np.allclose(v, ops.single_value(CUBIC.operator, y), atol=1e-12)

    @pytest.mark.parametrize(
        "problem, tc",
        [(SADDLE, TensorConfig(sigma_hat=0.05, sigma_l=0.3, sigma_u=0.7, L=1.0, p=2)), (CUBIC, cubic_config())],
        ids=["saddle p=2", "cubic p=3"],
    )
    def test_one_surrogate_built_per_call(self, monkeypatch, problem, tc):
        # The anchor is fixed for the whole step: every trial solve and the
        # fold of v share one TaylorSurrogate.
        builds, solves = [], []
        real_sur, real_solve = ops.TaylorSurrogate, tensor.surrogate_resolvent
        monkeypatch.setattr(ops, "TaylorSurrogate", lambda *a: builds.append(1) or real_sur(*a))
        monkeypatch.setattr(tensor, "surrogate_resolvent", lambda *a, **k: solves.append(1) or real_solve(*a, **k))
        oracle = partial(lambda_window_search, problem, cfg=tc)
        calls = []
        res = run(problem, lambda x, **kw: calls.append(1) or oracle(x, **kw), tc.drive(30), np.full(problem.dim, 0.7))
        assert res.records and len(calls) >= len(res.records)
        assert len(builds) == len(calls)
        assert len(solves) > len(calls)


class TestWorkCounts:
    # (steps, trial solves, failed trials) per ZOO entry.
    REFERENCE_WORK = [(9, 29, 0), (6, 24, 0), (18, 42, 2), (20, 44, 2)]

    @pytest.mark.parametrize(
        "name, params, tc, work", [z + (w,) for z, w in zip(ZOO, REFERENCE_WORK)], ids=[z[0] for z in ZOO]
    )
    def test_reference_runs(self, monkeypatch, name, params, tc, work):
        # The reference TENSOR runs (x0 = 0.7 * ones, 60 iterations): steps,
        # trial solves and failed trials, as counted before the solves were
        # made leaner.  Same work, same order.
        real, calls, failed = tensor.surrogate_resolvent, [], []

        def spy(*args, **kwargs):
            calls.append(1)
            try:
                return real(*args, **kwargs)
            except InnerSolverDiverged:
                failed.append(1)
                raise

        monkeypatch.setattr(tensor, "surrogate_resolvent", spy)
        problem = problems.build_problem(name, params)
        res = run(problem, partial(lambda_window_search, problem, cfg=tc), tc.drive(60), np.full(problem.dim, 0.7))
        assert (len(res.records), len(calls), len(failed)) == work

    @pytest.mark.parametrize("name, params, tc", ZOO, ids=[z[0] for z in ZOO])
    def test_state_hand_off_spares_one_start_evaluation(self, monkeypatch, name, params, tc):
        # Each trial after the first starts from the last successful trial's
        # exit state, not its bare w: per such trial that runs Newton, one
        # surrogate value and one projection fewer (counted at the domain's
        # project), and the same step.
        problem = problems.build_problem(name, params)
        domain = type(problem.operator.domain)
        real_solve, real_value, real_project = tensor.surrogate_resolvent, ops.TaylorSurrogate.value, domain.project
        counts = {"value": 0, "project": 0, "state starts": 0}

        def value(sur, u):
            counts["value"] += 1
            return real_value(sur, u)

        def project(dom, z):
            counts["project"] += 1
            return real_project(dom, z)

        def search(x, hint, bare):
            def solve(sur, x, lam, sigma_hat, warm=None):
                state = isinstance(warm, tuple)
                try:
                    return real_solve(sur, x, lam, sigma_hat, warm=warm[0] if bare and state else warm)
                except InnerSolverDiverged as exc:
                    state = state and not str(exc).startswith(tensor.UNSOLVABLE)  # Newton never ran
                    raise
                finally:
                    counts["state starts"] += state

            monkeypatch.setattr(tensor, "surrogate_resolvent", solve)
            before = dict(counts)
            got = lambda_window_search(problem, x, tc, hint=hint)
            return got, {k: counts[k] - before[k] for k in counts}

        monkeypatch.setattr(ops.TaylorSurrogate, "value", value)
        monkeypatch.setattr(domain, "project", project)
        rng = np.random.default_rng(29)
        spared = 0
        for _ in range(4):
            x = rng.uniform(-0.9, 0.9, problem.dim)
            for hint in (None, 10.0 ** rng.uniform(-8.0, 0.0), 10.0 ** rng.uniform(0.0, 8.0)):
                got, lean = search(x, hint, bare=False)
                want, full = search(x, hint, bare=True)
                assert got[0] == want[0] and got[3] == want[3] == 0.0
                for a, b in zip(got[1:3] + got[4:], want[1:3] + want[4:]):
                    assert a.tobytes() == b.tobytes()
                n = lean["state starts"]
                assert n == full["state starts"]
                assert full["value"] - lean["value"] == n
                assert full["project"] - lean["project"] == n
                spared += n
        assert spared > 0


class TestUnsolvableSolves:
    @pytest.mark.parametrize("problem", [CUBIC, problems.make_convex_gradient(d=4)], ids=lambda p: p.name)
    def test_failed_solves_spend_no_newton_step(self, monkeypatch, problem):
        # A p = 3 run from 0.7 meets surrogate solves with no point inside
        # the stop rule; each is certified in closed form before Newton runs.
        failures = []
        real = tensor.surrogate_resolvent

        def spy(*args, **kwargs):
            try:
                return real(*args, **kwargs)
            except InnerSolverDiverged as exc:
                failures.append(exc)
                raise

        monkeypatch.setattr(tensor, "surrogate_resolvent", spy)
        tc = cubic_config()
        res = run(problem, partial(lambda_window_search, problem, cfg=tc), tc.drive(60), np.full(problem.dim, 0.7))
        assert all(r.cert.ok for r in res.records)
        assert len(failures) >= 2
        for exc in failures:
            assert str(exc).startswith(tensor.UNSOLVABLE)
            assert exc.iterations == 0
