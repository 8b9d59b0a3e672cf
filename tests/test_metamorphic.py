"""Power-of-two scaling and sign-flip relations, bit for bit.

For a linear F (q = 0) and a domain that scales with x (the box [-c, c]^d or
the whole space), J_lam(c x) = c J_lam(x).  The law at c x with theta
c^(p-1) then has the same root lam as at x with theta, and an HPE or flow
run from c x0 is c times the run from x0, with the same lam sequence.  With
c = 2^k every product and quotient of that computation is exact in float,
so the relation holds to the bit wherever no absolute floor decides a
branch.  These relations pin no implementation: any correct resolvent, law
solve, HPE step or RK4 step keeps them.

Only the instances where the relation holds exactly are asserted here.  The
Newton stop rule's floor RESOLVENT_TOL * max(1, ||y - x||) does not scale
with c, so a solve of the scaled problem may stop an iteration earlier or
later: the p = 1 flow drifts below c = 1 from most starts, the p = 2 flow
from some starts at every c, and HPE on the box Newton route at p >= 2
within about 1e-9.  Runs also stop short of the absolute stationarity floor
(STATIONARITY_TOL), which does not scale either.

The bilinear saddle over the unit box commutes with the sign flip x -> -x,
and negation is exact and commutes with rounding.  Wherever the code
decides by magnitudes and by the box's symmetric bounds alone, a run from
-x0 is therefore -1 times the run from x0, with the same lam sequence; this
is asserted for HPE, TENSOR and flow runs from seeded starts.
"""

import functools

import numpy as np
import pytest

from monoflow import flow, hpe, problems
from monoflow import operators as ops
from monoflow.feedback import FeedbackParams
from monoflow.tensor import TensorConfig, lambda_window_search


def _saddle_over_box(d, c):
    """The bilinear saddle over the box [-c, c]^d."""
    base = problems.make_bilinear_saddle(d=d)
    op = ops.OperatorSpec(dim=d, affine=base.operator.affine, cone=ops.BoxCone(-c * np.ones(d), c * np.ones(d)))
    return problems.ProblemInstance("bilinear_saddle", op, base.solution_set, None)


def _hpe(problem, x0, theta, p, steps):
    cfg = hpe.HpeConfig(0.0, theta, p, steps, stop_res=0.0)
    records = hpe.run(problem, functools.partial(hpe.exact_oracle, problem, cfg=cfg), cfg, x0).records
    assert len(records) == steps  # no stop at a floor
    return records


def _assert_hpe_scaled(base, scaled, c):
    for a, b in zip(base, scaled, strict=True):
        assert b.lam == a.lam, a.k
        for u, v in ((a.x_next, b.x_next), (a.y, b.y), (a.v, b.v)):
            assert (c * u).tobytes() == v.tobytes(), a.k


def _assert_flow_scaled(base, scaled, c, p):
    assert len(base) == len(scaled)
    s = abs(c)  # residuals, speeds and bands are magnitudes
    for a, b in zip(base.states, scaled.states):
        assert (b.t, b.lam) == (a.t, a.lam)
        assert (c * a.x).tobytes() == b.x.tobytes() and (c * a.y).tobytes() == b.y.tobytes()
        assert (b.rho, b.speed, b.band) == (s * a.rho, s * a.speed, s ** (p - 1) * a.band)


@pytest.mark.parametrize("k", [-4, -1, 1, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hpe_p1_on_a_scaled_box(seed, k):
    # p = 1: lam = theta at every step, and the box scales with x.
    c = 2.0**k
    x0 = np.random.default_rng(seed).uniform(-0.9, 0.9, 4)
    base = _hpe(_saddle_over_box(4, 1.0), x0, 0.05, 1, 400)
    _assert_hpe_scaled(base, _hpe(_saddle_over_box(4, c), c * x0, 0.05, 1, 400), c)


@pytest.mark.parametrize("p, steps", [(2, 12), (3, 6)])
@pytest.mark.parametrize("k", [-4, -1, 1, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hpe_on_the_whole_space_affine_route(seed, k, p, steps):
    # The affine closed form and the law solve at theta c^(p-1).
    c = 2.0**k
    problem = problems.make_strongly_monotone_affine(d=3, mu=1.0, seed=0)
    x0 = np.random.default_rng(seed).standard_normal(3)
    base = _hpe(problem, x0, 1e-2, p, steps)
    _assert_hpe_scaled(base, _hpe(problem, c * x0, 1e-2 * c ** (p - 1), p, steps), c)


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_p1_flow_on_a_scaled_box(seed, k):
    # 500 RK4 steps; each stage and law solve warm-starts from the last.
    c = 2.0**k
    x0 = np.random.default_rng(seed).uniform(-0.9, 0.9, 2)
    params = FeedbackParams(0.25, 1)
    base = flow.integrate(_saddle_over_box(2, 1.0), x0, params, 5.0, 0.01)
    assert len(base) == 501
    _assert_flow_scaled(base, flow.integrate(_saddle_over_box(2, c), c * x0, params, 5.0, 0.01), c, 1)


def test_p2_flow_at_c_2():
    # The flow gate's start and theta, 500 RK4 steps, c = 2.
    x0, theta = np.array([0.7, 0.7]), 0.012
    base = flow.integrate(_saddle_over_box(2, 1.0), x0, FeedbackParams(theta, 2), 5.0, 0.01)
    assert len(base) == 501
    scaled = flow.integrate(_saddle_over_box(2, 2.0), 2.0 * x0, FeedbackParams(2.0 * theta, 2), 5.0, 0.01)
    _assert_flow_scaled(base, scaled, 2.0, 2)


@pytest.mark.parametrize("d, p, theta, steps", [(2, 1, 0.05, 300), (2, 2, 7.5e-4, 400), (10, 2, 1.5e-3, 400)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hpe_sign_flip_on_the_saddle(seed, d, p, theta, steps):
    problem = problems.make_bilinear_saddle(d=d)
    x0 = np.random.default_rng(seed).uniform(-0.9, 0.9, d)
    _assert_hpe_scaled(_hpe(problem, x0, theta, p, steps), _hpe(problem, -x0, theta, p, steps), -1.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tensor_sign_flip_on_the_saddle(seed):
    # The acceptance TensorConfig at p = 2, d = 10, run until solved.
    problem = problems.make_bilinear_saddle(d=10)
    tc = TensorConfig(0.05, 0.3, 0.7, 1.0, 2)
    cfg = hpe.HpeConfig(tc.sigma, tc.theta, tc.p, 60, stop_res=1e-9)
    oracle = functools.partial(lambda_window_search, problem, cfg=tc)
    x0 = np.random.default_rng(seed).uniform(-0.9, 0.9, 10)
    base, flipped = hpe.run(problem, oracle, cfg, x0), hpe.run(problem, oracle, cfg, -x0)
    assert base.status == flipped.status == "SOLVED" and len(base.records) >= 5
    _assert_hpe_scaled(base.records, flipped.records, -1.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_p2_flow_sign_flip_on_the_saddle(seed):
    problem = problems.make_bilinear_saddle(d=2)
    x0 = np.random.default_rng(seed).uniform(-0.9, 0.9, 2)
    params = FeedbackParams(0.012, 2)
    base = flow.integrate(problem, x0, params, 5.0, 0.01)
    assert len(base) == 501
    _assert_flow_scaled(base, flow.integrate(problem, -x0, params, 5.0, 0.01), -1.0, 2)
