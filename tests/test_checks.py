import math
import multiprocessing

import numpy as np
import pytest

from monoflow import checks
from monoflow import operators as ops
from monoflow.checks import SUITE_NAMES, SUITES, run_suites
from monoflow.errors import InnerSolverDiverged, MonoflowError, StationaryPoint
from monoflow.hpe import HpeConfig, verify_step
from monoflow.tensor import lambda_window_search


def _ref_tensor_step_audit(rep, tag, prob, tcfg, x0, iters):
    """Reference: the TENSOR audit as a hand-written replay of the oracle
    loop, step by step, beside hpe.run, carrying each step's lam and warm
    start to the next search."""
    op = prob.operator
    hcfg = HpeConfig(
        sigma=tcfg.sigma, theta=tcfg.theta, p=tcfg.p, max_iters=iters, stop_res=1e-11
    )
    wlo, whi = tcfg.window
    x = np.asarray(x0, dtype=float).copy()
    hint = warm = None
    m_cert = m_win = m_hat = m_taylor = m_member = math.inf
    steps = 0
    for _ in range(iters):
        if ops.min_norm_residual(op, x) <= hcfg.stop_res:
            break
        try:
            lam, y, v, eps, warm = lambda_window_search(prob, x, tcfg, hint=hint, warm=warm)
        except (StationaryPoint, MonoflowError):
            break
        hint = lam
        steps += 1
        cert = verify_step(hcfg, x, lam, y, v, eps)
        m_cert = min(m_cert, cert.relative_error_slack, cert.large_step_slack)

        s = lam * float(np.linalg.norm(y - x)) ** (tcfg.p - 1)
        if tcfg.p >= 2:
            m_win = min(m_win, s - wlo + 1e-12, whi - s + 1e-12)

        anchor = op.domain.project(x)
        fy = ops.single_value(op, y)
        ty = ops.TaylorSurrogate(op, anchor, tcfg.p).value(y)
        u = v - fy + ty
        step_norm = float(np.linalg.norm(y - x))
        floor = 1e-13 * (1.0 + float(np.linalg.norm(x)))
        m_hat = min(
            m_hat,
            tcfg.sigma_hat * step_norm + floor - float(np.linalg.norm(lam * u + y - x)),
        )

        taylor_err = float(np.linalg.norm(fy - ty))
        cap = tcfg.L / math.factorial(tcfg.p) * float(np.linalg.norm(y - anchor)) ** tcfg.p
        m_taylor = min(m_taylor, cap * (1.0 + 1e-8) + 1e-12 - taylor_err)

        member = -math.inf
        if op.domain.contains(y):
            tol = 1e-12 * (1.0 + float(np.linalg.norm(v)) + float(np.linalg.norm(fy)))
            member = tol - op.domain.residual(y, fy - v)
        m_member = min(m_member, member)

        x = x - lam * v
    rep.add(f"{tag}: ran and produced steps", steps - 1.0)
    rep.add(f"{tag}: framework certificate on every step", m_cert)
    if tcfg.p >= 2:
        rep.add(f"{tag}: large-step product inside the window", m_win)
    rep.add(f"{tag}: surrogate solve within its inexactness budget", m_hat)
    rep.add(f"{tag}: Taylor remainder within the derivative bound", m_taylor)
    rep.add(f"{tag}: output direction lies in A(y)", m_member)


def _outcomes(rep):
    return [(o.name, o.passed, o.margin) for o in rep.outcomes]


class TestSuiteRegistry:
    def test_expected_names(self):
        assert SUITE_NAMES == ["FEEDBACK", "FLOW", "HPE", "TENSOR", "METRICS"]
        assert set(SUITES) == set(SUITE_NAMES)

    def test_unknown_suite_rejected(self):
        with pytest.raises(KeyError):
            run_suites(["NOPE"])


class TestRunSuites:
    def test_deterministic_given_seed(self):
        a = run_suites(["FEEDBACK"], seed=0)["FEEDBACK"]
        b = run_suites(["FEEDBACK"], seed=0)["FEEDBACK"]
        assert a.all_passed and b.all_passed
        assert [e.margin for e in a.outcomes] == [e.margin for e in b.outcomes]

    def test_parallel_matches_serial(self):
        # Every suite on forked workers gives the serial reports: names,
        # margins to the bit and details, in the order asked for.
        def fields(rep):
            return [(o.name, np.float64(o.margin).tobytes(), o.detail) for o in rep.outcomes]

        for seed in (0, 3):
            ser = run_suites(SUITE_NAMES, seed=seed, max_workers=1)
            par = run_suites(SUITE_NAMES, seed=seed, max_workers=2)
            assert list(par) == list(ser) == SUITE_NAMES
            for n in SUITE_NAMES:
                assert fields(par[n]) == fields(ser[n]), (seed, n)

    def test_pool_leaves_no_worker_alive(self):
        run_suites(["HPE", "TENSOR", "METRICS"], seed=0, max_workers=3)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_raising_suite_is_one_failing_outcome(self, monkeypatch, workers):
        # A typed error that escapes a suite (here a Newton stall) becomes
        # that suite's one outcome, margin -inf; the other suites still run.
        def stalls(seed):
            raise InnerSolverDiverged("resolvent newton stalled at residual 3.194e+01", residual=31.94)

        monkeypatch.setitem(SUITES, "FEEDBACK", stalls)
        got = run_suites(["FEEDBACK", "METRICS"], seed=0, max_workers=workers)
        assert _outcomes(got["FEEDBACK"]) == [("suite ran to completion", False, -math.inf)]
        assert got["FEEDBACK"].outcomes[0].detail == (
            "InnerSolverDiverged: resolvent newton stalled at residual 3.194e+01"
        )
        assert _outcomes(got["METRICS"]) == _outcomes(checks.metrics_suite(0))

    @pytest.mark.parametrize("seed", [1385176604, 1819789398, 1141051470, 493018052])
    def test_feedback_passes_where_newton_stalled(self, seed):
        # Each seed's probes drove the saddle's damped Newton into a stall
        # that failed the suite; principal pivoting finishes those solves.
        rep = checks.feedback_suite(seed)
        assert rep.all_passed, [o for o in rep.outcomes if not o.passed]

    def test_report_lines_carry_margins(self):
        rep = run_suites(["METRICS"], seed=0)["METRICS"]
        lines = rep.lines()
        assert lines
        assert all(line.startswith("[PASS]") for line in lines)
        assert any("margin" in line for line in lines)


class TestSuitesOverRunRecords:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_tensor_audit_matches_the_replay(self, monkeypatch, seed):
        got = _outcomes(checks.tensor_suite(seed))
        with monkeypatch.context() as m:
            m.setattr(checks, "_tensor_step_audit", _ref_tensor_step_audit)
            want = _outcomes(checks.tensor_suite(seed))
        assert got == want

    def test_hpe_membership_line_per_run(self):
        rep = checks.hpe_suite(0)
        lines = [o for o in rep.outcomes if o.name.endswith(": output direction lies in A(y)")]
        assert [o.name.split(":")[0] for o in lines] == ["saddle p=1", "saddle p=2", "cubic p=2", "radial p=2"]
        assert all(o.passed and o.margin >= 0.0 for o in lines)

    @pytest.mark.parametrize("suite", [checks.hpe_suite, checks.tensor_suite])
    def test_suite_does_not_read_the_seed(self, suite):
        assert _outcomes(suite(0)) == _outcomes(suite(12345))
