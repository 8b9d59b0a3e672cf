import itertools
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize

from monoflow import checks, metrics, problems
from monoflow import operators as ops
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
            b = gap(SADDLE, x, route="maximizer")
            assert a == pytest.approx(b, abs=1e-9)

    def test_unknown_route_is_rejected(self):
        with pytest.raises(ValueError, match="one of auto, support, maximizer"):
            gap(SADDLE, [0.3, 0.1], route="ascent")

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
        assert gap(prob, [0.3, 0.1], route="maximizer") >= 0.0

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
        # Inside the box (its tolerance included) residue returns the bits
        # of min_norm_residual, with F evaluated once per call.
        calls = []
        points = ([0.2, -0.1], [1.0, -1.0], [1.0 + 1e-13, 0.0])
        wants = [ops.min_norm_residual(SADDLE.operator, np.array(x)) for x in points]
        real = ops.single_value
        monkeypatch.setattr(ops, "single_value", lambda op, xs: calls.append(1) or real(op, xs))
        for x, want in zip(points, wants):
            assert np.float64(residue(SADDLE, x)).tobytes() == np.float64(want).tobytes()
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


# Reference copy of gap as it stood before it took stacks, and before the
# exact maximizer replaced the multi-start ascent: one point per call, the
# ascent's seeded starts, its box polish and its gradient m.T @ x - q - sym
# @ z formed afresh on every call.  The support route must match it bit for
# bit; the maximizer route, the ascent here, must certify wherever it did,
# within 1e-12.


def _ref_random_point(cone, rng):
    if isinstance(cone, ops.BoxCone):
        if rng.random() < 0.5:
            pick = rng.random(cone.lower.size) < 0.5
            return np.where(pick, cone.upper, cone.lower).astype(float)
        return cone.lower + (cone.upper - cone.lower) * rng.random(cone.lower.size)
    d = cone.center.size
    u = rng.standard_normal(d)
    u /= max(float(np.linalg.norm(u)), 1e-300)
    return cone.center + cone.radius * rng.random() ** (1.0 / d) * u


def _ref_active_set_polish(cone, sym, lin, z):
    d = z.size
    edge = ops.BOUNDARY_ATOL * (1.0 + np.maximum(np.abs(cone.lower), np.abs(cone.upper)))
    for _ in range(d + 2):
        at_lo = z <= cone.lower + edge
        at_hi = z >= cone.upper - edge
        grad_z = lin - sym @ z
        free = (~at_lo & ~at_hi) | (at_lo & (grad_z > 0)) | (at_hi & (grad_z < 0))
        if not free.any():
            return z
        zf = z.copy()
        idx = np.where(free)[0]
        a = sym[np.ix_(idx, idx)]
        b = lin[idx] - sym[np.ix_(idx, np.where(~free)[0])] @ z[~free]
        try:
            sol = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            return z
        zf[idx] = sol
        zf = np.clip(zf, cone.lower, cone.upper)
        if float(np.linalg.norm(zf - z)) <= 1e-14 * (1.0 + float(np.linalg.norm(z))):
            return zf
        z = zf
    return z


def _ref_gap(problem, x, route="auto"):
    op = problem.operator
    if not problem.domain_bounded:
        raise DomainUnbounded("gap needs a bounded domain")
    if op.poly is not None or op.radial is not None:
        raise UnsupportedMetric("gap is certified only for affine single-valued parts")
    x = np.asarray(x, dtype=float)
    if not op.domain.contains(x, 1e-9):
        raise ValueError("gap is evaluated at points of dom(A)")
    cone = op.cone
    linear = op.affine is None or op.affine.skew
    if route == "support" and not linear:
        raise UnsupportedMetric("support route is exact only when the quadratic term vanishes")
    m, q = metrics._affine_terms(op)
    if linear and route != "maximizer":
        c = m.T @ x - q
        if isinstance(cone, ops.BoxCone):
            val = float(np.sum(np.maximum(c * cone.lower, c * cone.upper)))
        else:
            val = cone.radius * ops.norm(c) + float(c @ cone.center)
        return val + float(q @ x)
    sym = m + m.T

    def grad(z):
        return m.T @ x - q - sym @ z

    curv = float(np.abs(sym).max())
    step = 1.0 / max(float(np.linalg.eigvalsh(sym)[-1]), 1e-12)
    rng = np.random.default_rng(0)
    box = isinstance(cone, ops.BoxCone)
    starts = [op.domain.project(x), 0.5 * (cone.lower + cone.upper) if box else np.array(cone.center)]
    starts += [_ref_random_point(cone, rng) for _ in range(14)]
    best_val, best_z = -np.inf, None
    for z0 in starts:
        z = z0.copy()
        for _ in range(500):
            z_new = op.domain.project(z + step * grad(z))
            if ops.norm(z_new - z) <= 1e-13 * (1.0 + ops.norm(z)):
                z = z_new
                break
            z = z_new
        if box:
            z = _ref_active_set_polish(cone, sym, m.T @ x - q, z)
        val = float((m @ z + q) @ (x - z))
        if val > best_val:
            best_val, best_z = val, z
    g = grad(best_z)
    kkt = op.domain.residual(best_z, -g)
    if kkt > metrics.KKT_TOL * (1.0 + float(np.abs(g).max()) + curv):
        raise UnsupportedMetric(f"gap maximization uncertified: KKT residual {kkt:.3e}")
    return best_val


def _stack_problems():
    """Every zoo problem, the check suites' operator pool, and dense d = 10
    operators over a box and a ball: a skew one (the support route, where a
    batched gemm would round unlike the per-row gemv) and a monotone one
    (the maximizer route), plus nonaffine parts on each cone."""
    rng = np.random.default_rng(31)
    g = rng.standard_normal((10, 10))
    skew, mono = g - g.T, g @ g.T / 10.0 + (g - g.T)
    box = ops.BoxCone(-np.ones(10), 0.5 + rng.random(10))
    ball = ops.BallCone(0.2 * rng.standard_normal(10), 1.5)
    point = 0.1 * rng.standard_normal(10)

    def inst(name, op):
        return problems.ProblemInstance(name, op, problems.SolutionSet("SINGLETON", point), None)

    out = {f"zoo {n} {p}": problems.build_problem(n, p) for n, p in [
        ("bilinear_saddle", {"d": 2}),
        ("bilinear_saddle", {"d": 10}),
        ("strongly_monotone_affine", {"d": 10}),
        ("cubic_1d", {}),
        ("convex_gradient", {"d": 4}),
    ]}
    out.update({f"pool {n}": prob for n, prob in checks._operator_pool()})
    out.update({
        "dense skew + box": inst("skew box", ops.make_affine(skew, rng.standard_normal(10), cone=box)),
        "dense skew + ball": inst("skew ball", ops.make_affine(skew, rng.standard_normal(10), cone=ball)),
        "dense monotone + box": inst("mono box", ops.make_affine(mono, rng.standard_normal(10), cone=box)),
        "dense monotone + ball": inst("mono ball", ops.make_affine(mono, rng.standard_normal(10), cone=ball)),
        "poly + box": inst("poly box", ops.make_poly([0.1, 1.0, 0.0, 0.5], dim=10, cone=box)),
        "radial + ball": inst("radial ball", ops.OperatorSpec(dim=10, radial=ops.RadialPart(0.7), cone=ball)),
        "unknown solutions": problems.ProblemInstance(
            "anon", SADDLE.operator, problems.SolutionSet("UNKNOWN"), None
        ),
    })
    return out


STACK_PROBLEMS = _stack_problems()


def _stack_points(problem, n, rng):
    """n points of dom(A), a few on its boundary, as a C-contiguous stack."""
    op = problem.operator
    c = op.cone
    if c is None:
        return 2.0 * rng.standard_normal((n, op.dim))
    if isinstance(c, ops.BoxCone):
        pts = c.lower + (c.upper - c.lower) * rng.random((n, op.dim))
        pts = np.where(rng.random((n, op.dim)) < 0.2, c.lower, pts)
        return np.where(rng.random((n, op.dim)) < 0.2, c.upper, pts)
    u = rng.standard_normal((n, op.dim))
    u /= np.linalg.norm(u, axis=1)[:, np.newaxis]
    radii = c.radius * np.where(rng.random(n) < 0.3, 1.0, rng.random(n))
    return c.center + radii[:, np.newaxis] * u


def _outcome(f, *args, **kwargs):
    """f's value as bytes, or the type and message of what it raised."""
    try:
        return np.asarray(f(*args, **kwargs), dtype=float).tobytes()
    except (ValueError, DomainUnbounded, UnsupportedMetric, UnknownSolutionSet) as exc:
        return type(exc), str(exc)


def _agrees_with_reference(got, want, maximizer):
    """A one-point gap outcome against _ref_gap's: the same bits or the same
    raise, except on the maximizer route, which must certify wherever the
    reference did, within 1e-12 relative, and where it raised uncertified."""
    if not maximizer:
        return got == want
    if isinstance(want, bytes):
        if not isinstance(got, bytes):
            return False
        g, w = float(np.frombuffer(got)[0]), float(np.frombuffer(want)[0])
        return abs(g - w) <= 1e-12 * max(1.0, abs(w))
    return isinstance(got, bytes) if want[1].startswith("gap maximization uncertified") else got == want


class TestStacks:
    """gap, residue and dist_to_solutions on an (n, d) stack give, row for
    row, the bits of their one-point calls, and those give the bits of the
    one-point code as it stood (_ref_gap, min_norm_residual, norm); the
    gap's maximizer route agrees with _ref_gap's ascent."""

    @pytest.mark.parametrize("name", sorted(STACK_PROBLEMS))
    def test_rows_match_one_point_calls(self, name):
        problem = STACK_PROBLEMS[name]
        op = problem.operator
        rng = np.random.default_rng(sorted(STACK_PROBLEMS).index(name))
        pts = _stack_points(problem, 8, rng)
        singles = [p.copy() for p in pts]
        routes = ["auto", "maximizer"] + (["support"] if op.affine is not None and op.affine.skew else [])
        linear = op.affine is None or op.affine.skew
        for route in routes:
            want = [_outcome(_ref_gap, problem, x, route) for x in singles]
            got = [_outcome(gap, problem, x, route) for x in singles]
            maximizer = route == "maximizer" or (route == "auto" and not linear)
            for g, w in zip(got, want):
                assert _agrees_with_reference(g, w, maximizer), (route, g, w)
            failed = [g for g in got if not isinstance(g, bytes)]
            # A stack raises what its first failing row raises.
            assert _outcome(gap, problem, pts, route) == (failed[0] if failed else b"".join(got)), route
        want = [np.float64(ops.min_norm_residual(op, x)).tobytes() for x in singles]
        assert [_outcome(residue, problem, x) for x in singles] == want
        assert _outcome(residue, problem, pts) == b"".join(want)
        if problem.solution_set.kind == "SINGLETON":
            want = [np.float64(ops.norm(x - problem.solution_set.point)).tobytes() for x in singles]
        else:
            want = [(UnknownSolutionSet, "problem 'anon' declares no solution set")] * len(singles)
        assert [_outcome(dist_to_solutions, problem, x) for x in singles] == want
        assert _outcome(dist_to_solutions, problem, pts) == (b"".join(want) if isinstance(want[0], bytes) else want[0])
        assert type(residue(problem, singles[0])) is float

    @pytest.mark.parametrize("name", ["dense skew + box", "dense monotone + ball"])
    def test_a_point_outside_raises_after_the_rows_before_it(self, name, monkeypatch):
        problem = STACK_PROBLEMS[name]
        pts = _stack_points(problem, 5, np.random.default_rng(5))
        pts[3] = 10.0
        with pytest.raises(ValueError, match="residue is defined on dom"):
            residue(problem, pts)
        evaluated = []
        domain = type(problem.operator.domain)
        real = domain.support
        monkeypatch.setattr(domain, "support", lambda dom, c: evaluated.append(1) or real(dom, c))
        with pytest.raises(ValueError, match="gap is evaluated at points of dom"):
            gap(problem, pts, route="maximizer")
        assert len(evaluated) == 3  # rows 0-2 were certified first
        assert _outcome(gap, problem, pts[:3], route="maximizer") == b"".join(
            _outcome(gap, problem, x.copy(), "maximizer") for x in pts[:3]
        )

    def test_empty_stack(self):
        empty = np.zeros((0, 2))
        for f in (gap, residue, dist_to_solutions):
            assert f(SADDLE, empty).shape == (0,)


class TestBallGap:
    def test_dense_monotone_affine_over_a_ball_at_interior_points(self):
        # The TestStacks draw (d = 10, ball radius 1.5): the gap must be
        # certified at every point strictly inside the ball.
        name = "dense monotone + ball"
        problem = STACK_PROBLEMS[name]
        ball = problem.operator.cone
        pts = _stack_points(problem, 8, np.random.default_rng(sorted(STACK_PROBLEMS).index(name)))
        inside = [x for x in pts if ops.norm(x - ball.center) < ball.radius]
        assert len(inside) >= 4
        for x in inside:
            assert np.isfinite(gap(problem, x))

    def test_a_draw_the_ascent_could_not_certify(self):
        # Seeded d = 4 draw of M = BB' + K - K' (rank B drawn from 1..3) over
        # the unit ball: the multi-start ascent raised at points 3 and 4.
        # Every point certifies and agrees with SLSQP from 20 starts.
        problem, pts = _monotone_instance(0, 4, "ball", 8)
        m, q = problem.operator.affine.matrix, problem.operator.affine.offset
        starts = np.random.default_rng(1).uniform(-0.5, 0.5, (20, 4))
        cons = {"type": "ineq", "fun": lambda z: 1.0 - z @ z, "jac": lambda z: -2.0 * z}
        for x, val in zip(pts, gap(problem, pts)):
            best = max(
                -minimize(
                    lambda z: -float((m @ z + q) @ (x - z)), z0, jac=lambda z: (m @ z + q) - m.T @ (x - z),
                    constraints=[cons], method="SLSQP", options={"ftol": 1e-15, "maxiter": 500},
                ).fun
                for z0 in starts
            )
            assert val == pytest.approx(best, rel=1e-9, abs=1e-9)


def _monotone_instance(seed, d, kind, n):
    """M = BB' + K - K' with rank B drawn from 1..d - 1 (from 0 at d = 1), a
    q, over the unit box or ball, and n points projected onto it from
    uniform[-1.5, 1.5]^d."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((d, int(rng.integers(1 if d > 1 else 0, max(d, 1)))))
    k = rng.standard_normal((d, d))
    m, q = b @ b.T + k - k.T, rng.standard_normal(d)
    cone = ops.BoxCone(-np.ones(d), np.ones(d)) if kind == "box" else ops.BallCone(np.zeros(d), 1.0)
    pts = np.array([cone.project(x) for x in rng.uniform(-1.5, 1.5, (n, d))])
    problem = problems.ProblemInstance(
        f"monotone {kind}", ops.make_affine(m, q, cone=cone), problems.SolutionSet("UNKNOWN"), None
    )
    return problem, pts


class TestCertifiedMaximizer:
    """The maximizer route certifies on a seeded sweep, and raises with its
    Frank-Wolfe width where it is handed a point that is not a maximizer."""

    @pytest.mark.parametrize("kind", ["box", "ball"])
    def test_every_point_of_a_sweep_certifies(self, kind):
        for d in range(1, 7):
            for seed in range(4):
                problem, pts = _monotone_instance(100 * d + seed, d, kind, 5)
                assert np.isfinite(gap(problem, pts, route="maximizer")).all()

    def test_a_non_maximizer_raises_with_its_width(self, monkeypatch):
        # Every proximal step lands on the box's lower corner, which is not
        # where the objective peaks; the width alone refuses it, with the
        # KKT test silenced.
        problem, pts = _monotone_instance(7, 3, "box", 1)
        monkeypatch.setattr(ops, "_box_lvi", lambda a, b, lo, hi, side, what: (lo.copy(), side))
        monkeypatch.setattr(ops.BoxCone, "residual", lambda box, z, g: 0.0)
        with pytest.raises(UnsupportedMetric, match=r"^gap maximization uncertified: Frank–Wolfe width \d\.\d{3}e[+-]\d+, KKT"):
            gap(problem, pts[0])

    def test_a_pivot_cap_ends_the_steps(self, monkeypatch):
        # With no pivot allowed, z stays at P(x), which the certificate
        # refuses: a run's gap column turns off instead of the run failing.
        problem, pts = _monotone_instance(7, 3, "box", 1)
        monkeypatch.setattr(ops, "MAX_PIVOTS_PER_DIM", 0)
        with pytest.raises(UnsupportedMetric, match="^gap maximization uncertified: Frank–Wolfe width"):
            gap(problem, pts[0])


def _fraction_solve(a, b):
    """The solution of a y = b in fractions.Fraction, or None where a is singular."""
    n = len(b)
    rows = [list(r) + [v] for r, v in zip(a, b)]
    for c in range(n):
        p = next((k for k in range(c, n) if rows[k][c] != 0), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        for k in range(n):
            if k != c and rows[k][c] != 0:
                f = rows[k][c] / rows[c][c]
                rows[k] = [u - f * v for u, v in zip(rows[k], rows[c])]
    return [rows[k][n] / rows[k][k] for k in range(n)]


def _exact_box_gap(problem, x):
    """sup over the box of <M z + q, x - z>, in fractions.Fraction, by faces.

    The maximum of the concave objective lies at the unique stationary point
    of a face whose S_FF = (M + M')_FF is nonsingular, or at a vertex: every
    face (each coordinate at a bound or free) with a nonsingular S_FF has its
    stationarity system solved exactly, and the best point inside the box is
    kept.
    """
    op = problem.operator
    d = op.dim
    m = [[Fraction(v) for v in row] for row in op.affine.matrix.tolist()]
    q, x, lo, hi = ([Fraction(v) for v in u.tolist()] for u in (op.affine.offset, x, op.cone.lower, op.cone.upper))
    sym = [[m[i][j] + m[j][i] for j in range(d)] for i in range(d)]
    lin = [sum(m[j][i] * x[j] for j in range(d)) - q[i] for i in range(d)]
    best = None
    for side in itertools.product((-1, 0, 1), repeat=d):
        z = [lo[i] if s < 0 else hi[i] for i, s in enumerate(side)]
        free = [i for i in range(d) if side[i] == 0]
        sol = _fraction_solve(
            [[sym[i][j] for j in free] for i in free],
            [lin[i] - sum(sym[i][j] * z[j] for j in range(d) if side[j]) for i in free],
        )
        if sol is None:
            continue
        for i, v in zip(free, sol):
            z[i] = v
        if all(lo[i] <= z[i] <= hi[i] for i in range(d)):
            val = sum((sum(m[i][j] * z[j] for j in range(d)) + q[i]) * (x[i] - z[i]) for i in range(d))
            best = val if best is None else max(best, val)
    return float(best)


class TestRankOneBoxGap:
    """A rank-one symmetric part over a box, where the multi-start ascent
    failed its KKT test at the third point (its polish moved each start from
    about 3.4688 to 3.4235): every point now certifies at the exact value,
    and a run's gap column stays on."""

    @staticmethod
    def _instance():
        # Seeded draw 59 of a rank-one PSD plus skew M over the unit box at d = 3.
        rng = np.random.default_rng(59)
        b = rng.standard_normal((3, 1))
        s = rng.standard_normal((3, 3))
        m, q = b @ b.T + (s - s.T), rng.standard_normal(3)
        problem = problems.ProblemInstance(
            name="rank-one monotone + box",
            operator=ops.make_affine(m, q, cone=ops.BoxCone(-np.ones(3), np.ones(3))),
            solution_set=problems.SolutionSet("UNKNOWN"),
            error_bound=None,
        )
        return problem, rng.uniform(-1.0, 1.0, size=(3, 3))

    def test_every_point_certifies_at_the_exact_value(self):
        problem, pts = self._instance()
        vals = gap(problem, pts)
        for x, val in zip(pts, vals):
            want = _exact_box_gap(problem, x)
            assert abs(val - want) <= 1e-14 * abs(want)
            assert np.float64(gap(problem, x)).tobytes() == val.tobytes()
        assert vals[2] == pytest.approx(3.46950, abs=5e-6)

    def test_run_gap_column_stays_on(self):
        problem, pts = self._instance()
        num, den = np.vstack([pts, 0.5 * pts[:1]]), np.ones(4)
        gaps, off = metrics.ergodic_gaps(problem, num, den)
        assert off is None and np.isfinite(gaps).all()
        assert gaps == [gap(problem, x) for x in num]

