import numpy as np
import pytest

from monoflow import operators as ops
from monoflow import problems
from monoflow.errors import (
    DomainUnbounded,
    InsufficientPoints,
    UnknownSolutionSet,
    UnsupportedMetric,
)
from monoflow.metrics import (
    dist_to_solutions,
    fit_rate,
    gap,
    gap_grid_oracle,
    residue,
)

SADDLE = problems.make_bilinear_saddle(d=2)
MONOTONE = problems.make_strongly_monotone_affine(d=2, mu=1.0)
CUBIC = problems.make_cubic_1d()


class TestGap:
    def test_zero_at_solution(self):
        assert gap(SADDLE, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_positive_away_from_solutions(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.uniform(-0.9, 0.9, size=2)
            if np.linalg.norm(x) < 1e-2:
                continue
            assert gap(SADDLE, x) > 0.0

    def test_skew_closed_form(self):
        # sup over the box of <F(x), x - z> = <F(x), x> + sum |F(x)_i|.
        x = np.array([0.4, -0.7])
        f = SADDLE.operator.affine.matrix @ x
        want = float(f @ x) + float(np.abs(f).sum())
        assert gap(SADDLE, x) == pytest.approx(want, rel=1e-12)

    def test_routes_agree_on_skew(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.uniform(-0.9, 0.9, size=2)
            a = gap(SADDLE, x, route="support")
            b = gap(SADDLE, x, route="ascent")
            assert a == pytest.approx(b, abs=1e-9)

    def test_support_route_needs_vanishing_quadratic(self):
        prob = problems.ProblemInstance(
            name="clamped",
            operator=MONOTONE.operator.__class__(
                dim=2,
                affine=MONOTONE.operator.affine,
                cone=SADDLE.operator.cone,
            ),
            solution_set=problems.SolutionSet("SINGLETON", np.zeros(2)),
            error_bound=None,
        )
        with pytest.raises(UnsupportedMetric):
            gap(prob, [0.3, 0.1], route="support")
        assert gap(prob, [0.3, 0.1], route="ascent") >= 0.0

    def test_stored_skew_flag_is_the_per_call_decision(self):
        # AffinePart.skew against the test gap ran on every call: the
        # largest entry of m + m.T within 1e-14 of the largest of m.
        rng = np.random.default_rng(9)
        g = rng.standard_normal((4, 4))
        cases = [SADDLE.operator.affine.matrix, MONOTONE.operator.affine.matrix, np.zeros((3, 3))]
        for eps in (0.0, 1e-16, 1e-14, 1e-13, 1e-3):
            cases.append(g - g.T + eps * np.eye(4))
        for m in cases:
            sym = m + m.T
            want = float(np.abs(sym).max()) <= 1e-14 * max(1.0, float(np.abs(m).max()))
            assert ops.AffinePart(m, np.zeros(len(m))).skew is want
        assert {ops.AffinePart(m, np.zeros(len(m))).skew for m in cases} == {True, False}

    def test_unbounded_domain_rejected(self):
        with pytest.raises(DomainUnbounded):
            gap(MONOTONE, [0.5, 0.5])

    def test_nonaffine_rejected(self):
        # Unbounded domain is reported first on the bare cubic.
        with pytest.raises(DomainUnbounded):
            gap(CUBIC, [0.5])
        boxed = problems.ProblemInstance(
            name="boxed_cubic",
            operator=ops.make_poly(
                [0.0, 0.0, 0.0, 1.0], cone=ops.BoxCone(-np.ones(1), np.ones(1))
            ),
            solution_set=problems.SolutionSet("SINGLETON", np.zeros(1)),
            error_bound=None,
        )
        with pytest.raises(UnsupportedMetric):
            gap(boxed, [0.5])

    def test_grid_oracle_rejects_nonaffine(self):
        # F(u) = u^3 on a 2-d box: the grid oracle refuses it as gap does,
        # instead of reading the missing affine part as zero.
        boxed = problems.ProblemInstance(
            name="boxed_cubic_2d",
            operator=ops.make_poly([0.0, 0.0, 0.0, 1.0], dim=2, cone=ops.BoxCone(-np.ones(2), np.ones(2))),
            solution_set=problems.SolutionSet("SINGLETON", np.zeros(2)),
            error_bound=None,
        )
        with pytest.raises(UnsupportedMetric):
            gap(boxed, [0.5, 0.5])
        with pytest.raises(UnsupportedMetric):
            gap_grid_oracle(boxed, [0.5, 0.5])

    def test_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            gap(SADDLE, [1.5, 0.0])

    def test_grid_oracle_agrees(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            x = rng.uniform(-0.9, 0.9, size=2)
            fast = gap(SADDLE, x)
            slow = gap_grid_oracle(SADDLE, x)
            assert fast >= slow - 1e-12  # grid underestimates the sup
            assert fast == pytest.approx(slow, abs=1e-3)


    def test_grid_oracle_matches_loop(self):
        # The plain double loop over the same grid is the reference.
        rng = np.random.default_rng(8)
        skewed = problems.ProblemInstance(
            name="boxed_affine",
            operator=ops.make_affine(
                [[0.5, 1.3], [-0.7, 0.2]], [0.3, -0.4], cone=ops.BoxCone([-1.0, -0.5], [2.0, 1.0])
            ),
            solution_set=problems.SolutionSet("UNKNOWN"),
            error_bound=None,
        )
        for prob in [SADDLE, skewed]:
            op = prob.operator
            m, q = op.affine.matrix, op.affine.offset
            for _ in range(4):
                x = rng.uniform(-0.9, 0.9, size=2)
                best = -np.inf
                for a in np.linspace(op.cone.lower[0], op.cone.upper[0], 101):
                    for b in np.linspace(op.cone.lower[1], op.cone.upper[1], 101):
                        z = np.array([a, b])
                        best = max(best, float((m @ z + q) @ (x - z)))
                assert gap_grid_oracle(prob, x) == pytest.approx(best, rel=0, abs=1e-12)


class TestResidue:
    def test_matches_operator_norm_inside(self):
        x = np.array([0.2, -0.1])
        f = SADDLE.operator.affine.matrix @ x
        assert residue(SADDLE, x) == pytest.approx(float(np.linalg.norm(f)))

    def test_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            residue(SADDLE, [2.0, 0.0])
        with pytest.raises(ValueError):
            residue(SADDLE, [np.nan, 0.0])

    def test_one_residual_per_call(self, monkeypatch):
        # residue reads dom(A) off min_norm_residual's inf; inside the box
        # it returns that residual, evaluated once.
        calls = []
        real = ops.min_norm_residual
        monkeypatch.setattr(ops, "min_norm_residual", lambda op, x: calls.append(1) or real(op, x))
        for x in ([0.2, -0.1], [1.0, -1.0], [1.0 + 1e-13, 0.0]):
            assert residue(SADDLE, x) == real(SADDLE.operator, np.array(x))
        assert len(calls) == 3


class TestDistance:
    def test_singleton(self):
        assert dist_to_solutions(SADDLE, [0.3, 0.4]) == pytest.approx(0.5)

    def test_unknown_raises(self):
        prob = problems.ProblemInstance(
            name="anon",
            operator=SADDLE.operator,
            solution_set=problems.SolutionSet("UNKNOWN"),
            error_bound=None,
        )
        with pytest.raises(UnknownSolutionSet):
            dist_to_solutions(prob, [0.1, 0.1])


class TestRateFit:
    def test_recovers_exact_power_law(self):
        k = np.arange(1, 201, dtype=float)
        fit = fit_rate(3.0 * k**-2.0)
        assert fit.slope == pytest.approx(-2.0, abs=1e-8)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.dropped == 0

    def test_tail_window_only(self):
        # Head is garbage, tail is clean: the fit must not see the head.
        k = np.arange(1, 201, dtype=float)
        vals = 3.0 * k**-1.5
        vals[:100] = 17.0
        fit = fit_rate(vals, tail_fraction=0.3)
        assert fit.slope == pytest.approx(-1.5, abs=1e-8)
        assert fit.window == (140, 200)

    def test_floor_values_are_dropped(self):
        k = np.arange(1, 101, dtype=float)
        vals = k**-1.0
        vals[-5:] = 0.0
        fit = fit_rate(vals)
        assert fit.dropped == 5
        assert fit.slope == pytest.approx(-1.0, abs=1e-6)

    def test_too_few_points(self):
        with pytest.raises(InsufficientPoints):
            fit_rate(np.ones(5))
        vals = np.zeros(100)
        vals[0] = 1.0
        with pytest.raises(InsufficientPoints):
            fit_rate(vals)

    def test_custom_positions(self):
        t = np.linspace(1.0, 10.0, 300)
        fit = fit_rate(2.0 * t**-0.5, positions=t)
        assert fit.slope == pytest.approx(-0.5, abs=1e-8)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            fit_rate(np.ones(30), positions=np.ones(29))
        with pytest.raises(ValueError):
            fit_rate(np.ones(30), tail_fraction=0.0)
        with pytest.raises(ValueError):
            fit_rate(np.ones(30), tail_fraction=1.5)
