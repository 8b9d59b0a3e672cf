"""End-to-end rate and certificate gate for the whole package.

Each test is one gated claim; run with -v to get one line per claim.
Slope targets carry a +0.2 desk-scale tolerance on the theoretical
exponents -(p+1)/2 for the ergodic gap and -p/2 for the residue.
"""

import math
import time
from functools import partial

import numpy as np
import pytest

from monoflow import cli
from monoflow import operators as ops
from monoflow import problems
from monoflow.feedback import FeedbackParams
from monoflow.flow import check_flow_invariants, integrate
from monoflow.hpe import HpeConfig, exact_oracle, run
from monoflow.metrics import dist_to_solutions, fit_rate, gap, gap_grid_oracle, residue
from monoflow.tensor import TensorConfig, lambda_window_search
from saddle_recurrence import exact_hpe

RATE_TOL = 0.2
RUNTIME_BUDGET = 30.0

# (p, d, theta): theta values are desk-tuned so the terminal collapse of
# the second-order runs enters the fitted tail window.
SADDLE_RUNS = [
    (1, 2, 0.1),
    (1, 10, 0.1),
    (2, 2, 7.5e-4),
    (2, 10, 1.5e-3),
]


def gap_and_residue_series(problem, records):
    gaps = []
    resmins = []
    num = np.zeros(problem.dim)
    den = 0.0
    best = math.inf
    for r in records:
        num = num + r.lam * r.y
        den = den + r.lam
        gaps.append(gap(problem, num / den))
        best = min(best, residue(problem, r.y))
        resmins.append(best)
    return np.asarray(gaps), np.asarray(resmins)


@pytest.fixture(scope="module")
def saddle_runs():
    out = []
    for p, d, theta in SADDLE_RUNS:
        problem = problems.make_bilinear_saddle(d=d)
        cfg = HpeConfig(sigma=0.0, theta=theta, p=p, max_iters=3000, stop_res=0.0)
        start = time.perf_counter()
        res = run(problem, partial(exact_oracle, problem, cfg=cfg), cfg, np.full(d, 0.7))
        elapsed = time.perf_counter() - start
        gaps, resmins = gap_and_residue_series(problem, res.records)
        out.append((p, d, theta, res, elapsed, gaps, resmins))
    return out


class TestDiscreteRates:
    def test_ergodic_gap_rate(self, saddle_runs):
        for p, d, theta, res, elapsed, gaps, _ in saddle_runs:
            target = -(p + 1) / 2 + RATE_TOL
            fit = fit_rate(gaps)
            assert elapsed < RUNTIME_BUDGET, f"p={p} d={d} took {elapsed:.1f}s"
            assert fit.slope <= target, (
                f"p={p} d={d}: ergodic gap slope {fit.slope:.3f} > {target:.2f}"
            )
            print(
                f"[PASS] ergodic gap rate p={p} d={d}: slope {fit.slope:.3f} "
                f"<= {target:.2f} ({len(res.records)} iters, {elapsed:.1f}s)"
            )

    def test_pointwise_residue_rate(self, saddle_runs):
        for p, d, theta, res, _, _, resmins in saddle_runs:
            target = -p / 2 + RATE_TOL
            fit = fit_rate(resmins)
            assert fit.slope <= target, (
                f"p={p} d={d}: residue slope {fit.slope:.3f} > {target:.2f}"
            )
            print(f"[PASS] residue rate p={p} d={d}: slope {fit.slope:.3f} <= {target:.2f}")


class TestExactRecurrence:
    # Iterations compared per (p, d) gate run: every one at p = 1, and at
    # p = 2 a fixed k before the terminal collapse, which amplifies the
    # law's accepted residual into the last steps.
    HORIZON = {(1, 2): 3000, (1, 10): 3000, (2, 2): 2000, (2, 10): 2600}
    REL_TOL = 1e-9

    def test_gate_runs_track_the_exact_recurrence(self, saddle_runs):
        # With the box inactive the saddle's exact HPE iteration is a scalar
        # recurrence in r = ||x||; 40-digit decimal arithmetic gives lam_k
        # and ||x_k|| without the resolvent, the Newton kernel or the law solve.
        for p, d, theta, res, *_ in saddle_runs:
            k_max = self.HORIZON[(p, d)]
            assert len(res.records) >= k_max, f"p={p} d={d}: {len(res.records)} iterations"
            exact = exact_hpe(p, theta, res.records[0].x_prev, k_max)
            worst = max(
                max(abs(r.lam - lam) / lam, abs(ops.norm(r.x_next) - rad) / rad)
                for r, (lam, rad) in zip(res.records, exact)
            )
            assert worst <= self.REL_TOL, f"p={p} d={d}: relative error {worst:.2e} > {self.REL_TOL:.0e}"
            print(
                f"[PASS] exact recurrence p={p} d={d}: lam_k and ||x_k|| within "
                f"{worst:.1e} relative for k <= {k_max}"
            )


class TestContinuousRates:
    @pytest.mark.parametrize("p,theta", [(1, 0.25), (2, 0.012)])
    def test_flow_rates_on_saddle(self, p, theta):
        problem = problems.make_bilinear_saddle(d=2)
        params = FeedbackParams(theta, p)
        traj = integrate(problem, [0.7, 0.7], params, T=200.0, h=0.01)
        rep = check_flow_invariants(traj, problem, params)
        assert rep.all_passed, "\n".join(rep.lines())

        ts, gaps, resids = [], [], []
        for i, s in enumerate(traj.states):
            if traj.erg_den[i] > 0.0:
                ts.append(s.t)
                gaps.append(gap(problem, traj.erg_num[i] / traj.erg_den[i]))
                resids.append(residue(problem, s.y))
        gap_target = -(p + 1) / 2 + RATE_TOL
        res_target = -p / 2 + RATE_TOL
        gap_fit = fit_rate(gaps, positions=ts)
        res_fit = fit_rate(resids, positions=ts)
        assert gap_fit.slope <= gap_target, (
            f"p={p}: flow gap slope {gap_fit.slope:.3f} > {gap_target:.2f}"
        )
        assert res_fit.slope <= res_target, (
            f"p={p}: flow residue slope {res_fit.slope:.3f} > {res_target:.2f}"
        )
        print(
            f"[PASS] continuous rates p={p}: gap slope {gap_fit.slope:.3f} "
            f"<= {gap_target:.2f}, residue slope {res_fit.slope:.3f} "
            f"<= {res_target:.2f} (status {traj.status})"
        )


class TestLocalLinearConvergence:
    PROBLEM = problems.make_strongly_monotone_affine(d=3, mu=1.0, seed=0)
    X0 = np.array([1.0, -0.5, 0.8])

    def ratios(self, cfg):
        res = run(self.PROBLEM, partial(exact_oracle, self.PROBLEM, cfg=cfg), cfg, self.X0)
        dists = [dist_to_solutions(self.PROBLEM, res.records[0].x_prev)]
        dists += [dist_to_solutions(self.PROBLEM, r.x_next) for r in res.records]
        out = []
        for a, b in zip(dists, dists[1:]):
            if a <= 1e-12:
                break
            out.append(b / a)
        return out

    def test_discrete_ratios(self):
        # Proximal point on F = mu*I contracts by exactly 1/(1 + theta*mu);
        # the skew part only helps.
        cfg1 = HpeConfig(sigma=0.0, theta=0.5, p=1, max_iters=40, stop_res=0.0)
        r1 = self.ratios(cfg1)
        bound = 1.0 / 1.5 + 1e-6
        assert r1 and max(r1) <= bound, f"worst ratio {max(r1):.4f}"

        # Second order sharpens the ratio superlinearly: every ratio is
        # below one and the tail drops far below the first-order factor.
        cfg2 = HpeConfig(sigma=0.0, theta=0.5, p=2, max_iters=40, stop_res=0.0)
        r2 = self.ratios(cfg2)
        assert r2 and max(r2) < 1.0, f"worst ratio {max(r2):.4f}"
        assert min(r2) <= 0.1, f"tail ratio {min(r2):.4f}"
        print(
            f"[PASS] local linear convergence (discrete): p=1 worst ratio "
            f"{max(r1):.4f} <= {bound:.4f}, p=2 ratios {max(r2):.4f} -> {min(r2):.2e}"
        )

    def test_flow_log_distance_is_linear(self):
        params = FeedbackParams(0.1, 2)
        traj = integrate(self.PROBLEM, self.X0, params, T=20.0, h=0.01)
        ts = np.array([s.t for s in traj.states])
        logd = np.array(
            [math.log(dist_to_solutions(self.PROBLEM, s.x)) for s in traj.states]
        )
        tail = ts >= 0.7 * ts[-1]
        slope, intercept = np.polyfit(ts[tail], logd[tail], 1)
        fitted = slope * ts[tail] + intercept
        ss_res = float(np.sum((logd[tail] - fitted) ** 2))
        ss_tot = float(np.sum((logd[tail] - logd[tail].mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot
        assert slope < 0.0
        assert r2 >= 0.99, f"R^2 {r2:.4f}"
        print(
            f"[PASS] local linear convergence (flow): log-dist slope {slope:.4f}, "
            f"R^2 {r2:.6f} >= 0.99"
        )


class TestTensorEquivalence:
    ZOO = [
        ("bilinear_saddle", {}, TensorConfig(0.05, 0.3, 0.7, 1.0, 2), [0.7, 0.7]),
        ("strongly_monotone_affine", {}, TensorConfig(0.05, 0.3, 0.7, 1.0, 2), [0.8, -0.6]),
        ("cubic_1d", {}, TensorConfig(0.1, 0.2, 0.8, 6.0, 3), [2.0]),
        ("convex_gradient", {}, TensorConfig(0.1, 0.2, 0.8, 6.0, 3), [0.9, -0.7]),
    ]

    def test_every_step_verifies(self):
        # The accelerated stepper must be a large-step instance of the
        # inexact-prox framework under sigma = sigma_hat + sigma_u and
        # theta = sigma_l p!/L; run() re-verifies every step and raises on
        # the first violation.
        counts = []
        for name, params, tc, x0 in self.ZOO:
            problem = problems.build_problem(name, params)
            drive = HpeConfig(
                sigma=tc.sigma, theta=tc.theta, p=tc.p, max_iters=60, stop_res=1e-9
            )
            res = run(problem, partial(lambda_window_search, problem, cfg=tc), drive, np.array(x0))
            assert res.records, f"{name}: no steps produced"
            assert all(r.cert.ok for r in res.records)
            first = ops.min_norm_residual(problem.operator, res.records[0].x_prev)
            last = ops.min_norm_residual(problem.operator, res.records[-1].x_next)
            assert last < first, f"{name}: residual did not decrease"
            counts.append(f"{name} {len(res.records)}/{len(res.records)} ({res.status})")
        print("[PASS] tensor steps verify: " + "; ".join(counts))


class TestPropertySuites:
    def test_check_all_passes(self, capsys):
        rc = cli.main(["check", "--suite", "ALL"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "check result: PASS" in out
        print("[PASS] property suites: check ALL exit 0")


class TestOracleCrossChecks:
    def test_flow_matches_identity_closed_form(self):
        problem = problems.make_strongly_monotone_affine(d=1, mu=1.0)
        theta = 0.5
        traj = integrate(problem, [1.0], FeedbackParams(theta, 1), T=1.0, h=1e-3)
        want = math.exp(-theta / (1.0 + theta))
        err = abs(traj.states[-1].x[0] - want)
        assert err <= 1e-6
        print(f"[PASS] flow vs closed form: error {err:.2e} <= 1e-06")

    def test_gap_matches_grid_oracle(self):
        problem = problems.make_bilinear_saddle(d=2)
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(50):
            x = rng.uniform(-0.95, 0.95, size=2)
            worst = max(worst, abs(gap(problem, x) - gap_grid_oracle(problem, x)))
        assert worst <= 1e-6
        print(f"[PASS] gap vs dense grid: worst gap {worst:.2e} <= 1e-06 on 50 points")

    def test_ppa_contraction_factor(self):
        problem = problems.make_strongly_monotone_affine(d=1, mu=1.0)
        theta = 0.7
        cfg = HpeConfig(sigma=0.0, theta=theta, p=1, max_iters=8, stop_res=0.0)
        res = run(problem, partial(exact_oracle, problem, cfg=cfg), cfg, np.array([1.0]))
        want = 1.0 / (1.0 + theta)
        xs = [res.records[0].x_prev] + [r.x_next for r in res.records]
        worst = max(abs(abs(b[0] / a[0]) - want) for a, b in zip(xs, xs[1:]))
        assert worst <= 1e-8
        print(f"[PASS] proximal contraction factor: worst error {worst:.2e} <= 1e-08")
