import dataclasses

import numpy as np
import pytest

from monoflow import operators as ops
from monoflow import problems
from monoflow.errors import (
    CertificateViolation,
    InnerSolverDiverged,
    OracleFailure,
    UnknownSolutionSet,
)
from monoflow.hpe import (
    ExactProxOracle,
    HpeConfig,
    check_discrete_lemmas,
    ergodic_iterate,
    exact_oracle,
    run,
    verify_step,
)

SADDLE = problems.make_bilinear_saddle(d=2)


def saddle_config(p=1, theta=0.1, iters=50, stop=0.0):
    return HpeConfig(sigma=0.0, theta=theta, p=p, max_iters=iters, stop_res=stop)


class TestConfig:
    def test_sigma_range(self):
        with pytest.raises(ValueError):
            HpeConfig(sigma=1.0, theta=0.1, p=1, max_iters=10)
        with pytest.raises(ValueError):
            HpeConfig(sigma=-0.1, theta=0.1, p=1, max_iters=10)

    def test_theta_positive(self):
        with pytest.raises(ValueError):
            HpeConfig(sigma=0.0, theta=0.0, p=1, max_iters=10)

    def test_order_and_budget(self):
        with pytest.raises(ValueError):
            HpeConfig(sigma=0.0, theta=0.1, p=0, max_iters=10)
        with pytest.raises(ValueError):
            HpeConfig(sigma=0.0, theta=0.1, p=1, max_iters=-1)


class TestVerifyStep:
    def test_exact_pair_passes(self):
        op = ops.make_affine([[1.0]])
        cfg = saddle_config(p=1, theta=0.5)
        r = ops.resolvent(op, 0.5, [2.0])
        cert = verify_step(cfg, np.array([2.0]), 0.5, r.y, r.v, 0.0)
        assert cert.ok
        assert cert.relative_error_slack >= 0.0
        assert cert.large_step_slack >= -1e-12

    def test_small_lambda_fails_large_step(self):
        op = ops.make_affine([[1.0]])
        cfg = saddle_config(p=1, theta=0.5)
        r = ops.resolvent(op, 0.4, [2.0])
        cert = verify_step(cfg, np.array([2.0]), 0.4, r.y, r.v, 0.0)
        assert not cert.large_step_ok
        assert not cert.ok

    def test_corrupted_direction_fails_relative_error(self):
        op = ops.make_affine([[1.0]])
        cfg = saddle_config(p=1, theta=0.5)
        r = ops.resolvent(op, 0.5, [2.0])
        cert = verify_step(cfg, np.array([2.0]), 0.5, r.y, np.zeros(1), 0.0)
        assert not cert.relative_error_ok

    def test_sigma_budget_admits_inexact_pairs(self):
        # residual 0.3*step is inside sigma = 0.5, outside sigma = 0.1.
        x = np.array([2.0])
        y = np.array([1.0])
        v = (x - y + np.array([0.3])) / 0.5
        loose = HpeConfig(sigma=0.5, theta=0.4, p=1, max_iters=5)
        tight = HpeConfig(sigma=0.1, theta=0.4, p=1, max_iters=5)
        assert verify_step(loose, x, 0.5, y, v, 0.0).relative_error_ok
        assert not verify_step(tight, x, 0.5, y, v, 0.0).relative_error_ok


class TestExactOracle:
    def test_first_order_uses_theta(self):
        lam, y, v, eps = exact_oracle(SADDLE, np.array([0.7, 0.7]), saddle_config(p=1, theta=0.1))
        assert lam == 0.1
        assert eps == 0.0
        r = ops.resolvent(SADDLE.operator, 0.1, np.array([0.7, 0.7]))
        assert np.allclose(y, r.y, atol=1e-12)

    def test_second_order_sits_on_law(self):
        cfg = saddle_config(p=2, theta=0.05)
        x = np.array([0.7, 0.7])
        lam, y, v, eps = exact_oracle(SADDLE, x, cfg)
        val = lam * float(np.linalg.norm(y - x))
        assert val >= 0.05 * (1.0 - 1e-8)
        assert val == pytest.approx(0.05, rel=1e-6)

    def test_tiny_theta_respects_floor(self):
        # Regression: the fresh resolvent pair must never land below the
        # large-step floor that verify_step enforces.
        cfg = saddle_config(p=2, theta=1e-4, iters=50)
        res = run(SADDLE, ExactProxOracle(SADDLE, cfg), cfg, np.full(2, 0.7))
        assert len(res.records) == 50
        assert all(r.cert.ok for r in res.records)


class TestRun:
    def test_update_rule_and_certificates(self):
        cfg = saddle_config(p=1, theta=0.1, iters=30)
        res = run(SADDLE, ExactProxOracle(SADDLE, cfg), cfg, np.array([0.7, -0.4]))
        assert res.status == "MAX_ITERS"
        assert [r.k for r in res.records] == list(range(1, 31))
        for r in res.records:
            assert np.array_equal(r.x_next, r.x_prev - r.lam * r.v)
            assert r.cert.ok
        for a, b in zip(res.records, res.records[1:]):
            assert np.array_equal(a.x_next, b.x_prev)

    def test_stops_on_residual(self):
        prob = problems.make_strongly_monotone_affine(d=2, mu=1.0)
        cfg = HpeConfig(sigma=0.0, theta=0.5, p=1, max_iters=500, stop_res=1e-6)
        res = run(prob, ExactProxOracle(prob, cfg), cfg, np.array([1.0, 1.0]))
        assert res.status == "SOLVED"
        last = res.records[-1].x_next
        assert ops.min_norm_residual(prob.operator, last) <= 1e-6

    def test_zero_budget(self):
        cfg = saddle_config(iters=0)
        res = run(SADDLE, ExactProxOracle(SADDLE, cfg), cfg, np.array([0.7, 0.7]))
        assert res.records == []
        assert res.status == "MAX_ITERS"

    def test_stationary_start_is_solved(self):
        cfg = saddle_config(iters=10, stop=1e-9)
        res = run(SADDLE, ExactProxOracle(SADDLE, cfg), cfg, np.zeros(2))
        assert res.status == "SOLVED"
        assert res.records == []

    def test_oracle_exception_is_wrapped(self):
        cfg = saddle_config(iters=10)
        good = ExactProxOracle(SADDLE, cfg)
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if calls["n"] == 3:
                raise InnerSolverDiverged("stalled")
            return good(x)

        with pytest.raises(OracleFailure) as exc:
            run(SADDLE, flaky, cfg, np.array([0.7, 0.7]))
        assert exc.value.k == 3
        assert len(exc.value.records) == 2

    def test_bad_oracle_triggers_certificate_violation(self):
        cfg = saddle_config(p=1, theta=0.5, iters=10)

        def undershoot(x):
            r = ops.resolvent(SADDLE.operator, 0.2, x)
            return 0.2, r.y, r.v, 0.0  # violates the large-step floor

        with pytest.raises(CertificateViolation) as exc:
            run(SADDLE, undershoot, cfg, np.array([0.7, 0.7]))
        assert exc.value.k == 1
        assert not exc.value.certificate.ok

    def test_certificate_violation_keeps_the_earlier_records(self):
        cfg = saddle_config(iters=10)
        good = ExactProxOracle(SADDLE, cfg)
        calls = {"n": 0}

        def corrupt(x):
            calls["n"] += 1
            lam, y, v, eps = good(x)
            if calls["n"] == 3:
                v = v + 1.0  # breaks the relative-error condition
            return lam, y, v, eps

        with pytest.raises(CertificateViolation) as exc:
            run(SADDLE, corrupt, cfg, np.array([0.7, 0.7]))
        assert exc.value.k == 3
        assert not exc.value.certificate.relative_error_ok
        assert [r.k for r in exc.value.records] == [1, 2]
        assert all(r.cert.ok for r in exc.value.records)


class TestErgodicIterate:
    def test_matches_manual_average(self):
        cfg = saddle_config(iters=6)
        res = run(SADDLE, ExactProxOracle(SADDLE, cfg), cfg, np.array([0.7, -0.2]))
        num = sum(r.lam * r.y for r in res.records)
        den = sum(r.lam for r in res.records)
        assert np.allclose(ergodic_iterate(res.records), num / den, atol=1e-14)

    def test_prefix_average(self):
        cfg = saddle_config(iters=6)
        res = run(SADDLE, ExactProxOracle(SADDLE, cfg), cfg, np.array([0.7, -0.2]))
        head = res.records[:3]
        num = sum(r.lam * r.y for r in head)
        den = sum(r.lam for r in head)
        assert np.allclose(ergodic_iterate(res.records, k=3), num / den, atol=1e-14)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            ergodic_iterate([])


class TestContraction:
    def test_ppa_geometric_factor(self):
        # On F = mu*I each step contracts by exactly 1/(1 + theta*mu).
        prob = problems.make_strongly_monotone_affine(d=1, mu=1.0)
        cfg = HpeConfig(sigma=0.0, theta=0.7, p=1, max_iters=6, stop_res=0.0)
        res = run(prob, ExactProxOracle(prob, cfg), cfg, np.array([1.0]))
        want = 1.0 / 1.7
        assert want == 0.5882352941176471
        xs = [res.records[0].x_prev] + [r.x_next for r in res.records]
        for a, b in zip(xs, xs[1:]):
            assert abs(b[0] / a[0]) == pytest.approx(want, abs=1e-10)


class TestLemmaAudit:
    def test_saddle_run_passes(self):
        cfg = saddle_config(p=1, theta=0.1, iters=40)
        res = run(SADDLE, ExactProxOracle(SADDLE, cfg), cfg, np.array([0.7, 0.7]))
        rep = check_discrete_lemmas(res.records, SADDLE, cfg)
        assert rep.all_passed, "\n".join(rep.lines())

    def test_needs_declared_solution_set(self):
        op = ops.make_affine([[1.0]])
        anon = problems.ProblemInstance(
            name="anon",
            operator=op,
            solution_set=problems.SolutionSet("UNKNOWN"),
            error_bound=None,
        )
        cfg = saddle_config(p=1, theta=0.5, iters=3)
        res = run(anon, ExactProxOracle(anon, cfg), cfg, np.array([1.0]))
        with pytest.raises(UnknownSolutionSet):
            check_discrete_lemmas(res.records, anon, cfg)


class TestLemmaAuditFailsOnNaN:
    def test_record_with_nan_step_fails_where_it_enters(self):
        prob = problems.make_strongly_monotone_affine(d=2, mu=1.0)
        cfg = HpeConfig(sigma=0.0, theta=0.5, p=1, max_iters=6, stop_res=0.0)
        records = run(prob, ExactProxOracle(prob, cfg), cfg, np.array([1.0, -0.5])).records
        assert len(records) == 6 and check_discrete_lemmas(records, prob, cfg).all_passed
        nan = np.full(2, np.nan)
        records[-1] = dataclasses.replace(records[-1], y=nan, v=nan, x_next=nan)
        verdicts = {o.name: o.passed for o in check_discrete_lemmas(records, prob, cfg).outcomes}
        assert len(verdicts) == 7
        for name in (
            "Lyapunov distance nonincreasing",
            "descent sum <= E0 - Ek",
            "sum ||x_{i-1} - y_i||^2 <= d0^2/(1-sigma^2)",
            "per-step squared-distance drop",
            "residual bound min sqrt(lam)||v||",
        ):
            assert verdicts[name] is False, name
