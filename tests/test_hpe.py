import dataclasses
from functools import partial

import numpy as np
import pytest

from monoflow import checks, hpe, metrics, problems
from monoflow import operators as ops
from monoflow.errors import (
    CertificateViolation,
    InnerSolverDiverged,
    MonoflowError,
    OracleFailure,
    StationaryPoint,
    UnknownSolutionSet,
    UnsupportedMetric,
)
from monoflow.feedback import FeedbackParams, solve_lambda
from monoflow.hpe import (
    HpeConfig,
    StepCertificate,
    check_discrete_lemmas,
    exact_oracle,
    run,
    verify_step,
)
from monoflow.tensor import TensorConfig, lambda_window_search

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
        with pytest.raises(ValueError, match="theta must be positive"):
            HpeConfig(sigma=0.0, theta=0.0, p=1, max_iters=10)

    def test_law_built_once_and_again_on_replace(self):
        cfg = HpeConfig(sigma=0.0, theta=1.5, p=2.0, max_iters=10)
        assert cfg.p == 2
        assert cfg.law == FeedbackParams(1.5, 2)
        assert dataclasses.replace(cfg, theta=0.3).law == FeedbackParams(0.3, 2)
        with pytest.raises(ValueError, match="order p must be an integer >= 1"):
            dataclasses.replace(cfg, p=1.5)

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

    @pytest.mark.parametrize("bad", [float("nan"), -1e-300])
    def test_verdicts_follow_the_slacks(self, bad):
        # A certificate holds exactly when its slack is >= 0: NaN fails.
        assert StepCertificate(relative_error_slack=0.0, large_step_slack=0.0).ok
        for cert in (StepCertificate(bad, 1.0), StepCertificate(1.0, bad)):
            assert not cert.ok
        assert not StepCertificate(bad, 1.0).relative_error_ok
        assert not StepCertificate(1.0, bad).large_step_ok


class TestExactOracle:
    def test_first_order_uses_theta(self):
        lam, y, v, eps, warm = exact_oracle(SADDLE, np.array([0.7, 0.7]), saddle_config(p=1, theta=0.1))
        assert lam == 0.1
        assert eps == 0.0 and warm is None
        r = ops.resolvent(SADDLE.operator, 0.1, np.array([0.7, 0.7]))
        assert np.allclose(y, r.y, atol=1e-12)

    def test_second_order_sits_on_law(self):
        cfg = saddle_config(p=2, theta=0.05)
        x = np.array([0.7, 0.7])
        lam, y, v, eps, warm = exact_oracle(SADDLE, x, cfg)
        assert eps == 0.0 and warm is None
        val = lam * float(np.linalg.norm(y - x))
        assert val >= 0.05 * (1.0 - 1e-8)
        assert val == pytest.approx(0.05, rel=1e-6)

    def test_law_solved_with_the_config_law(self, monkeypatch):
        cfg = saddle_config(p=2, theta=0.05)
        seen = []

        def spy(op, x, params, hint=None, residual=None, warm=None):
            seen.append(params)
            return solve_lambda(op, x, params, hint=hint, residual=residual, warm=warm)

        monkeypatch.setattr(hpe, "solve_lambda", spy)
        monkeypatch.setattr(hpe, "FeedbackParams", None)  # building one per call would fail
        exact_oracle(SADDLE, np.array([0.7, 0.7]), cfg)
        assert len(seen) == 1 and seen[0] is cfg.law

    def test_tiny_theta_respects_floor(self):
        # Regression: the fresh resolvent pair must never land below the
        # large-step floor that verify_step enforces.
        cfg = saddle_config(p=2, theta=1e-4, iters=50)
        res = run(SADDLE, partial(exact_oracle, SADDLE, cfg=cfg), cfg, np.full(2, 0.7))
        assert len(res.records) == 50
        assert all(r.cert.ok for r in res.records)

    def test_step_that_rounds_to_zero_raises(self):
        # At theta = 1e-30 the law's root lam = 2.84e-14 is accepted inside
        # its band, but its step rounds to 0: the law value there is 0, and
        # nudging by theta / value would send lam to 1e259.
        cubic, x = problems.make_cubic_1d(), np.array([1.0])
        cfg = HpeConfig(sigma=0.0, theta=1e-30, p=2, max_iters=5)
        with pytest.raises(InnerSolverDiverged, match=r"^law value 0\.000e\+00 at lam=2\.842e-14 .*theta=1\.000e-30$"):
            exact_oracle(cubic, x, cfg)
        with pytest.raises(OracleFailure, match="at k=1") as info:
            run(cubic, partial(exact_oracle, cubic, cfg=cfg), cfg, x)
        assert isinstance(info.value.__cause__, InnerSolverDiverged) and info.value.records == []


class TestRun:
    def test_update_rule_and_certificates(self):
        cfg = saddle_config(p=1, theta=0.1, iters=30)
        res = run(SADDLE, partial(exact_oracle, SADDLE, cfg=cfg), cfg, np.array([0.7, -0.4]))
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
        res = run(prob, partial(exact_oracle, prob, cfg=cfg), cfg, np.array([1.0, 1.0]))
        assert (res.status, res.stop) == ("SOLVED", "residual")
        last = res.records[-1].x_next
        assert ops.min_norm_residual(prob.operator, last) <= 1e-6

    def test_solved_when_the_last_budgeted_step_meets_the_residual(self):
        # The final iterate is tested once more after the budget runs out:
        # a run whose last step lands within stop_res is SOLVED.
        prob = problems.make_strongly_monotone_affine(d=2, mu=1.0)
        cfg = HpeConfig(sigma=0.0, theta=0.5, p=1, max_iters=500, stop_res=1e-6)
        n = len(run(prob, partial(exact_oracle, prob, cfg=cfg), cfg, np.array([1.0, 1.0])).records)
        for iters, status, stop in ((n, "SOLVED", "final_residual"), (n - 1, "MAX_ITERS", "max_iters")):
            cfg = HpeConfig(sigma=0.0, theta=0.5, p=1, max_iters=iters, stop_res=1e-6)
            res = run(prob, partial(exact_oracle, prob, cfg=cfg), cfg, np.array([1.0, 1.0]))
            assert (res.status, res.stop, len(res.records)) == (status, stop, iters)

    def test_zero_budget(self):
        cfg = saddle_config(iters=0)
        res = run(SADDLE, partial(exact_oracle, SADDLE, cfg=cfg), cfg, np.array([0.7, 0.7]))
        assert res.records == []
        assert (res.status, res.stop) == ("MAX_ITERS", "max_iters")

    def test_stationary_start_is_solved(self):
        cfg = saddle_config(iters=10, stop=1e-9)
        res = run(SADDLE, partial(exact_oracle, SADDLE, cfg=cfg), cfg, np.zeros(2))
        assert (res.status, res.stop) == ("SOLVED", "residual")
        assert res.records == []

    @pytest.mark.parametrize("p, mode", [(1, "exact"), (2, "exact"), (2, "tensor")], ids=["1", "2", "tensor-2"])
    def test_stationarity_tested_once_per_iteration(self, monkeypatch, p, mode):
        # run tests each iterate and hands the value to the oracle, whose
        # law solve or window search (p >= 2) reads it: one test per
        # iteration, plus the final iterate's after the budget runs out.
        calls = []
        real = ops.min_norm_residual
        monkeypatch.setattr(ops, "min_norm_residual", lambda op, x: calls.append(1) or real(op, x))
        if mode == "exact":
            cfg = saddle_config(p=p, theta=0.05, iters=20)
            oracle = partial(exact_oracle, SADDLE, cfg=cfg)
        else:
            tc = TensorConfig(sigma_hat=0.05, sigma_l=0.3, sigma_u=0.7, L=100.0, p=p)
            cfg, oracle = tc.drive(20, stop_res=0.0), partial(lambda_window_search, SADDLE, cfg=tc)
        res = run(SADDLE, oracle, cfg, np.array([0.7, -0.4]))
        assert res.status == "MAX_ITERS" and len(res.records) == 20
        assert len(calls) == 20 + 1

    def test_oracle_exception_is_wrapped(self):
        cfg = saddle_config(iters=10)
        good = partial(exact_oracle, SADDLE, cfg=cfg)
        calls = {"n": 0}

        def flaky(x, **kw):
            calls["n"] += 1
            if calls["n"] == 3:
                raise InnerSolverDiverged("stalled")
            return good(x, **kw)

        with pytest.raises(OracleFailure) as exc:
            run(SADDLE, flaky, cfg, np.array([0.7, 0.7]))
        assert exc.value.k == 3
        assert len(exc.value.records) == 2

    def test_bad_oracle_triggers_certificate_violation(self):
        cfg = saddle_config(p=1, theta=0.5, iters=10)

        def undershoot(x, **kw):
            r = ops.resolvent(SADDLE.operator, 0.2, x)
            return 0.2, r.y, r.v, 0.0, None  # violates the large-step floor

        with pytest.raises(CertificateViolation) as exc:
            run(SADDLE, undershoot, cfg, np.array([0.7, 0.7]))
        assert exc.value.k == 1
        assert not exc.value.certificate.ok

    def test_certificate_violation_keeps_the_earlier_records(self):
        cfg = saddle_config(iters=10)
        good = partial(exact_oracle, SADDLE, cfg=cfg)
        calls = {"n": 0}

        def corrupt(x, **kw):
            calls["n"] += 1
            lam, y, v, eps, warm = good(x, **kw)
            if calls["n"] == 3:
                v = v + 1.0  # breaks the relative-error condition
            return lam, y, v, eps, warm

        with pytest.raises(CertificateViolation) as exc:
            run(SADDLE, corrupt, cfg, np.array([0.7, 0.7]))
        assert exc.value.k == 3
        assert not exc.value.certificate.relative_error_ok
        assert [r.k for r in exc.value.records] == [1, 2]
        assert all(r.cert.ok for r in exc.value.records)


class TestContraction:
    def test_ppa_geometric_factor(self):
        # On F = mu*I each step contracts by exactly 1/(1 + theta*mu).
        prob = problems.make_strongly_monotone_affine(d=1, mu=1.0)
        cfg = HpeConfig(sigma=0.0, theta=0.7, p=1, max_iters=6, stop_res=0.0)
        res = run(prob, partial(exact_oracle, prob, cfg=cfg), cfg, np.array([1.0]))
        want = 1.0 / 1.7
        assert want == 0.5882352941176471
        xs = [res.records[0].x_prev] + [r.x_next for r in res.records]
        for a, b in zip(xs, xs[1:]):
            assert abs(b[0] / a[0]) == pytest.approx(want, abs=1e-10)


class TestLemmaAudit:
    def test_saddle_run_passes(self):
        cfg = saddle_config(p=1, theta=0.1, iters=40)
        res = run(SADDLE, partial(exact_oracle, SADDLE, cfg=cfg), cfg, np.array([0.7, 0.7]))
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
        res = run(anon, partial(exact_oracle, anon, cfg=cfg), cfg, np.array([1.0]))
        with pytest.raises(UnknownSolutionSet):
            check_discrete_lemmas(res.records, anon, cfg)


class TestLemmaAuditGapLine:
    """The ergodic-gap line is added only when the gap is defined at every
    ergodic point: a gap that raises at any row drops the line, and the
    other lines stay."""

    GAP_LINE = "ergodic gap <= sup ||z-x0||^2 / (2 sum lam)"

    @staticmethod
    def _names(problem, x0, monkeypatch=None, raise_from=None):
        cfg = saddle_config(p=1, theta=0.1, iters=40)
        records = run(problem, partial(exact_oracle, problem, cfg=cfg), cfg, np.array(x0)).records
        assert len(records) == 40
        if raise_from is not None:
            # metrics.gap raises at the ergodic point of row raise_from, on the
            # stack that holds it and on that point alone.
            num = np.cumsum([r.lam * r.y for r in records], axis=0)
            bad = num[raise_from] / sum(r.lam for r in records[: raise_from + 1])
            real = metrics.gap

            def gap(problem, x, route="auto"):
                if (np.atleast_2d(x) == bad).all(axis=1).any():
                    raise UnsupportedMetric("row raises")
                return real(problem, x)

            monkeypatch.setattr(metrics, "gap", gap)
        return [o.name for o in check_discrete_lemmas(records, problem, cfg).outcomes]

    def test_a_row_that_raises_drops_the_line(self, monkeypatch):
        names = self._names(SADDLE, [0.7, 0.7])
        assert len(names) == 8 and self.GAP_LINE in names
        dropped = self._names(SADDLE, [0.7, 0.7], monkeypatch, raise_from=10)
        assert dropped == [n for n in names if n != self.GAP_LINE]

    def test_cubic_over_a_box_has_no_line(self):
        # gap certifies affine parts only, so it raises at the first row.
        op = ops.make_poly([0.0, 0.0, 0.0, 1.0], dim=1, cone=ops.BoxCone(-np.ones(1), np.ones(1)))
        cubic = problems.ProblemInstance("cubic over a box", op, problems.SolutionSet("SINGLETON", np.zeros(1)), None)
        assert cubic.domain_bounded
        names = self._names(cubic, [0.9])
        assert len(names) == 7 and self.GAP_LINE not in names


class TestLemmaAuditFailsOnNaN:
    def test_record_with_nan_step_fails_where_it_enters(self):
        prob = problems.make_strongly_monotone_affine(d=2, mu=1.0)
        cfg = HpeConfig(sigma=0.0, theta=0.5, p=1, max_iters=6, stop_res=0.0)
        records = run(prob, partial(exact_oracle, prob, cfg=cfg), cfg, np.array([1.0, -0.5])).records
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


class TestWorkCounts:
    # The first 200 iterations of the p = 2 exact-HPE gate (10-d saddle,
    # theta = 1.5e-3, x0 = 0.7 * 1): one law solve per iteration, the
    # resolvents inside it and the oracle's re-solve, and their Newton
    # iterations.
    COUNTS = {"law solves": 200, "resolvents": 1689, "newton iterations": 1207}

    def test_gate_iterations(self, monkeypatch):
        problem = problems.make_bilinear_saddle(d=10)
        cfg = HpeConfig(sigma=0.0, theta=1.5e-3, p=2, max_iters=200, stop_res=0.0)
        counts = dict.fromkeys(self.COUNTS, 0)
        real_resolvent, real_solve = ops.resolvent, hpe.solve_lambda

        def resolvent(*args, **kwargs):
            r = real_resolvent(*args, **kwargs)
            counts["resolvents"] += 1
            counts["newton iterations"] += r.iterations
            return r

        def solve(*args, **kwargs):
            counts["law solves"] += 1
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(ops, "resolvent", resolvent)
        monkeypatch.setattr(hpe, "solve_lambda", solve)
        res = run(problem, partial(exact_oracle, problem, cfg=cfg), cfg, np.full(10, 0.7))
        assert res.status == "MAX_ITERS" and len(res.records) == 200
        assert counts == self.COUNTS


class TestOracleHandOff:
    """What run hands each oracle call, and how it reads a call that raises."""

    def test_hands_on_the_last_lam_and_warm(self):
        # k = 1 gets hint = warm = None; each later call gets the lam and the
        # warm value that the call before it returned, whatever they are.
        cfg = saddle_config(p=2, theta=0.05, iters=6)
        seen = []

        def spy(x, residual, hint, warm):
            seen.append((hint, warm))
            lam, y, v, eps, _ = exact_oracle(SADDLE, x, cfg, hint=hint, residual=residual)
            return lam, y, v, eps, ("warm", len(seen))

        res = run(SADDLE, spy, cfg, np.array([0.7, -0.4]))
        assert len(res.records) == len(seen) == 6
        assert seen[0] == (None, None)
        for k, (hint, warm) in enumerate(seen[1:], start=1):
            assert hint is res.records[k - 1].lam and warm == ("warm", k)

    @pytest.mark.parametrize(
        "exc",
        [StationaryPoint("at a solution"), MonoflowError("any")],
        ids=lambda e: type(e).__name__,
    )
    def test_a_raising_call_ends_the_run(self, exc):
        # StationaryPoint ends the run as SOLVED; any other MonoflowError
        # (test_oracle_exception_is_wrapped raises InnerSolverDiverged)
        # becomes an OracleFailure carrying k and the records before it.
        cfg = saddle_config(iters=10)
        good = partial(exact_oracle, SADDLE, cfg=cfg)
        calls = []

        def oracle(x, **kw):
            calls.append(1)
            if len(calls) == 3:
                raise exc
            return good(x, **kw)

        if isinstance(exc, StationaryPoint):
            res = run(SADDLE, oracle, cfg, np.array([0.7, 0.7]))
            assert (res.status, res.stop) == ("SOLVED", "oracle_stationary")
            assert [r.k for r in res.records] == [1, 2]
            return
        with pytest.raises(OracleFailure) as info:
            run(SADDLE, oracle, cfg, np.array([0.7, 0.7]))
        assert info.value.k == 3 and [r.k for r in info.value.records] == [1, 2]
        assert info.value.__cause__ is exc


def _ref_run(problem, oracle, cfg, x0):
    """Reference: the loop before the oracles shared one call shape; oracle
    is a stateful object called as oracle(x, residual) -> (lam, y, v, eps)."""
    op = problem.operator
    x = np.asarray(x0, dtype=float).copy()
    records = []
    stop = "max_iters"
    for k in range(1, cfg.max_iters + 1):
        res = ops.min_norm_residual(op, x)
        if res <= cfg.stop_res:
            stop = "residual"
            break
        try:
            lam, y, v, eps = oracle(x, res)
        except StationaryPoint:
            stop = "oracle_stationary"
            break
        except MonoflowError as exc:
            raise OracleFailure(f"oracle failed at k={k}: {exc}", k=k, records=records) from exc
        v = np.asarray(v, dtype=float)
        cert = verify_step(cfg, x, lam, y, v, eps)
        if not cert.ok:
            raise CertificateViolation("step certificate failed", k=k, certificate=cert, records=records)
        x_next = x - lam * v
        records.append(hpe.IterateRecord(k, x, lam, np.asarray(y, dtype=float), v, eps, x_next, cert))
        x = x_next
    else:
        if ops.min_norm_residual(op, x) <= cfg.stop_res:
            stop = "final_residual"
    return hpe.RunResult(records=records, stop=stop)


class _RefExactProxOracle:
    """Reference: the stateful wrapper that warm-started the law solve."""

    def __init__(self, problem, cfg):
        self.problem, self.cfg, self.hint = problem, cfg, None

    def __call__(self, x, residual=None):
        lam, y, v, eps, _ = exact_oracle(self.problem, x, self.cfg, hint=self.hint, residual=residual)
        self.hint = lam
        return lam, y, v, eps


class _RefTensorOracle:
    """Reference: the stateful oracle that warm-started lam and the inner Newton."""

    def __init__(self, problem, cfg):
        self.problem, self.cfg, self.hint, self.warm = problem, cfg, None, None

    def __call__(self, x, residual=None):
        lam, y, v, eps, self.warm = lambda_window_search(
            self.problem, x, self.cfg, hint=self.hint, warm=self.warm, residual=residual
        )
        self.hint = lam
        return lam, y, v, eps


_REF_ORACLES = {exact_oracle: _RefExactProxOracle, lambda_window_search: _RefTensorOracle}


def _outcome(drive, problem, oracle, cfg, x0):
    """(status or exception type, k of a failure, per-record bits of k, lam, y, v and x_next)."""
    try:
        res = drive(problem, oracle, cfg, x0)
        head, records = (res.status, None), res.records
    except (OracleFailure, CertificateViolation) as exc:
        head, records = (type(exc).__name__, exc.k), exc.records
    bits = [(r.k, np.float64(r.lam).tobytes(), r.y.tobytes(), r.v.tobytes(), r.x_next.tobytes()) for r in records]
    return head, bits


class TestOracleShapeBitIdentity:
    """run with a bound oracle function gives every record the bits that the
    stateful oracle classes gave in the loop before."""

    @pytest.mark.parametrize("p, d, theta", [(1, 2, 0.1), (2, 2, 7.5e-4), (2, 10, 1.5e-3)])
    def test_saddle_gates(self, p, d, theta):
        # The acceptance gate runs, first 200 iterations.
        problem = problems.make_bilinear_saddle(d=d)
        cfg = HpeConfig(sigma=0.0, theta=theta, p=p, max_iters=200, stop_res=0.0)
        x0 = np.full(d, 0.7)
        got = _outcome(run, problem, partial(exact_oracle, problem, cfg=cfg), cfg, x0)
        want = _outcome(_ref_run, problem, _RefExactProxOracle(problem, cfg), cfg, x0)
        assert got == want and len(got[1]) == 200

    TENSOR_REFERENCES = [
        ("bilinear_saddle", {"d": 10}, TensorConfig(0.05, 0.3, 0.7, 1.0, 2)),
        ("strongly_monotone_affine", {"d": 10}, TensorConfig(0.05, 0.3, 0.7, 1.0, 2)),
        ("cubic_1d", {}, TensorConfig(0.1, 0.2, 0.8, 6.0, 3)),
        ("convex_gradient", {"d": 4}, TensorConfig(0.1, 0.2, 0.8, 6.0, 3)),
    ]

    @pytest.mark.parametrize("name, params, tc", TENSOR_REFERENCES, ids=[r[0] for r in TENSOR_REFERENCES])
    def test_tensor_reference_runs(self, name, params, tc):
        # The benchmark's TENSOR reference calls: x0 = 0.7 * 1, 60 iterations.
        problem = problems.build_problem(name, params)
        cfg, x0 = tc.drive(60), np.full(problem.dim, 0.7)
        got = _outcome(run, problem, partial(lambda_window_search, problem, cfg=tc), cfg, x0)
        want = _outcome(_ref_run, problem, _RefTensorOracle(problem, tc), cfg, x0)
        assert got == want and got[1]

    @pytest.mark.parametrize("suite, runs", [("HPE", 5), ("TENSOR", 5)])
    def test_suite_runs(self, monkeypatch, suite, runs):
        # Every run a suite makes, replayed with the reference loop and class
        # built from the suite's partial.
        real, seen = checks.run, []

        def spy(problem, oracle, cfg, x0):
            seen.append((problem, oracle, cfg, np.array(x0, dtype=float)))
            return real(problem, oracle, cfg, x0)

        monkeypatch.setattr(checks, "run", spy)
        assert checks.SUITES[suite]().all_passed
        assert len(seen) == runs
        for problem, oracle, cfg, x0 in seen:
            ref_oracle = _REF_ORACLES[oracle.func](*oracle.args, **oracle.keywords)
            got = _outcome(run, problem, oracle, cfg, x0)
            want = _outcome(_ref_run, problem, ref_oracle, cfg, x0)
            assert got == want and got[1]
