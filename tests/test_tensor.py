import numpy as np
import pytest

from monoflow import operators as ops
from monoflow import problems, tensor
from monoflow.errors import ConfigError, InnerSolverDiverged, StationaryPoint, SurrogateNonmonotone
from monoflow.hpe import run, verify_step
from monoflow.tensor import (
    TensorConfig,
    TensorOracle,
    lambda_window_search,
    surrogate_resolvent,
)

SADDLE = problems.make_bilinear_saddle(d=2)
CUBIC = problems.make_cubic_1d()


def cubic_config():
    return TensorConfig(sigma_hat=0.1, sigma_l=0.2, sigma_u=0.8, L=6.0, p=3)


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
        y, u, w = surrogate_resolvent(ops.TaylorSurrogate(CUBIC.operator, x, 3), x, 0.5, tc.sigma_hat)
        res = float(np.linalg.norm(0.5 * u + y - x))
        assert res <= tc.sigma_hat * float(np.linalg.norm(y - x)) + 1e-12

    def test_membership_without_cone_is_surrogate_value(self):
        tc = cubic_config()
        x = np.array([2.0])
        sur = ops.TaylorSurrogate(CUBIC.operator, x, 3)
        y, u, w = surrogate_resolvent(sur, x, 0.5, tc.sigma_hat)
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
        tc = TensorConfig(sigma_hat=0.05, sigma_l=0.3, sigma_u=0.7, L=1.0, p=1)
        lam, y, u, w = lambda_window_search(SADDLE, np.full(2, 0.7), tc)
        assert lam == 0.5

    def test_product_lands_in_window(self):
        tc = TensorConfig(sigma_hat=0.05, sigma_l=0.3, sigma_u=0.7, L=1.0, p=2)
        wlo, whi = tc.window
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.uniform(-0.9, 0.9, size=2)
            lam, y, u, w = lambda_window_search(SADDLE, x, tc)
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
        lam, y, u, w = lambda_window_search(CUBIC, np.array([2.0]), tc)
        s = lam * float(np.linalg.norm(y - np.array([2.0]))) ** 2
        wlo, whi = tc.window
        assert wlo - 1e-12 <= s <= whi + 1e-12


class TestOracle:
    def test_step_verifies_under_derived_constants(self):
        tc = cubic_config()
        drive = tc.drive(50)
        x = np.array([2.0])
        lam, y, v, eps = TensorOracle(CUBIC, tc)(x)
        assert eps == 0.0
        cert = verify_step(drive, x, lam, y, v, eps)
        assert cert.ok

    def test_full_run_on_cubic(self):
        # Regression: warm-started full runs used to die once the iterates
        # crossed the solvability knee of the anchored surrogate.
        tc = cubic_config()
        drive = tc.drive(40)
        res = run(CUBIC, TensorOracle(CUBIC, tc), drive, np.array([2.0]))
        assert res.status == "SOLVED"
        assert all(r.cert.ok for r in res.records)
        final = ops.min_norm_residual(CUBIC.operator, res.records[-1].x_next)
        assert final <= 1e-9

    def test_full_run_on_saddle(self):
        tc = TensorConfig(sigma_hat=0.05, sigma_l=0.3, sigma_u=0.7, L=1.0, p=2)
        drive = tc.drive(60)
        res = run(SADDLE, TensorOracle(SADDLE, tc), drive, np.full(2, 0.7))
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
        lam, y, v, eps = TensorOracle(CUBIC, tc)(x)
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
        oracle = TensorOracle(problem, tc)
        calls = []
        res = run(problem, lambda x, r: calls.append(1) or oracle(x, r), tc.drive(30), np.full(problem.dim, 0.7))
        assert res.records and len(calls) >= len(res.records)
        assert len(builds) == len(calls)
        assert len(solves) > len(calls)


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
        res = run(problem, TensorOracle(problem, tc), tc.drive(60), np.full(problem.dim, 0.7))
        assert all(r.cert.ok for r in res.records)
        assert len(failures) >= 2
        for exc in failures:
            assert str(exc).startswith(tensor.UNSOLVABLE)
            assert exc.iterations == 0
