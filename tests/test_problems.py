import numpy as np
import pytest

from monoflow import operators as ops
from monoflow import problems


class TestBuilders:
    @pytest.mark.parametrize("name", sorted(problems.PROBLEM_BUILDERS))
    def test_all_instances_validate(self, name):
        prob = problems.build_problem(name)
        rep = prob if prob is None else problems.validate_instance(prob, seed=0)
        assert rep.all_passed, "\n".join(rep.lines())

    def test_saddle_shape(self):
        prob = problems.make_bilinear_saddle(d=4, scale=2.0)
        m = prob.operator.affine.matrix
        assert np.allclose(m, -m.T)
        assert np.allclose(m[:2, 2:], 2.0 * np.eye(2))
        assert prob.solution_set.kind == "SINGLETON"
        assert ops.min_norm_residual(prob.operator, prob.solution_set.point) == 0.0

    def test_saddle_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            problems.make_bilinear_saddle(d=3)
        with pytest.raises(ValueError):
            problems.make_bilinear_saddle(d=2, scale=0.0)

    def test_strongly_monotone_one_dimensional_is_identity(self):
        # The skew part vanishes in one dimension.
        prob = problems.make_strongly_monotone_affine(d=1, mu=1.0)
        assert np.allclose(prob.operator.affine.matrix, [[1.0]])
        assert np.allclose(prob.operator.affine.offset, [0.0])

    def test_strongly_monotone_modulus(self):
        prob = problems.make_strongly_monotone_affine(d=4, mu=2.5, seed=3)
        m = prob.operator.affine.matrix
        sym = 0.5 * (m + m.T)
        assert np.allclose(sym, 2.5 * np.eye(4), atol=1e-12)
        assert prob.error_bound.kappa == pytest.approx(1.0 / 2.5)

    def test_strongly_monotone_seed_reproducible(self):
        a = problems.make_strongly_monotone_affine(d=3, seed=7).operator.affine.matrix
        b = problems.make_strongly_monotone_affine(d=3, seed=7).operator.affine.matrix
        c = problems.make_strongly_monotone_affine(d=3, seed=8).operator.affine.matrix
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_cubic_values(self):
        prob = problems.make_cubic_1d()
        assert np.allclose(ops.single_value(prob.operator, [2.0]), [8.0])
        assert ops.min_norm_residual(prob.operator, [0.0]) == 0.0

    def test_convex_gradient_values(self):
        prob = problems.make_convex_gradient(d=3)
        x = np.array([1.0, -2.0, 0.5])
        want = float(x @ x) * x
        assert np.allclose(ops.single_value(prob.operator, x), want)

    def test_build_problem_unknown_name(self):
        with pytest.raises(ValueError):
            problems.build_problem("nope")

    def test_build_problem_forwards_params(self):
        prob = problems.build_problem("bilinear_saddle", {"d": 6})
        assert prob.dim == 6


class TestSolutionSet:
    def test_kinds_are_checked(self):
        with pytest.raises(ValueError):
            problems.SolutionSet("WEIRD")
        with pytest.raises(ValueError):
            problems.SolutionSet("SINGLETON")  # needs a point
        s = problems.SolutionSet("UNKNOWN")
        assert s.point is None

    def test_points_are_frozen(self):
        s = problems.SolutionSet("SINGLETON", np.zeros(2))
        with pytest.raises(ValueError):
            s.point[0] = 1.0


class TestErrorBound:
    def test_saddle_bound_holds_near_solution(self):
        prob = problems.make_bilinear_saddle(d=2, scale=1.0)
        eb = prob.error_bound
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = 0.3 * rng.standard_normal(2)
            res = ops.min_norm_residual(prob.operator, x)
            if res > eb.delta:
                continue
            dist = float(np.linalg.norm(x))
            assert eb.kappa * res >= dist - 1e-10
