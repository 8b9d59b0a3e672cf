import collections
import copy
import dataclasses
import decimal
import functools
import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from monoflow import checks, feedback, metrics, problems, tensor
from monoflow import operators as ops
from monoflow.errors import InnerSolverDiverged, UnsupportedMetric
from monoflow.hpe import HpeConfig, exact_oracle, run, verify_step
from monoflow.report import CheckReport, worst
from monoflow.tensor import TensorConfig, lambda_window_search, surrogate_resolvent


def make_box_affine(seed=0, d=4):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d))
    m = g @ g.T + (g - g.T)  # PSD plus skew: monotone
    cone = ops.BoxCone(-np.ones(d), np.ones(d))
    return ops.make_affine(m, rng.standard_normal(d), cone=cone)


class TestStructureValidation:
    def test_affine_rejects_nonmonotone_matrix(self):
        with pytest.raises(ValueError):
            ops.make_affine([[-1.0]])

    def test_affine_accepts_skew(self):
        op = ops.make_affine([[0.0, 1.0], [-1.0, 0.0]])
        assert op.dim == 2

    def test_poly_rejects_decreasing(self):
        with pytest.raises(ValueError):
            ops.make_poly([0.0, -1.0])

    def test_poly_rejects_even_leading_term(self):
        # 1 + u^2 decreases for u < 0.
        with pytest.raises(ValueError):
            ops.make_poly([1.0, 0.0, 1.0])

    def test_poly_accepts_cubic(self):
        op = ops.make_poly([0.0, 0.0, 0.0, 1.0])
        assert np.allclose(ops.single_value(op, [2.0]), [8.0])

    def test_radial_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            ops.RadialPart(0.0)

    def test_box_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            ops.BoxCone(np.ones(2), -np.ones(2))

    @pytest.mark.parametrize(
        "center, radius, what",
        [([np.nan], 1.0, "center"), ([np.inf], 1.0, "center"), ([0.0], np.inf, "radius"), ([0.0], np.nan, "radius")],
        ids=["nan center", "inf center", "inf radius", "nan radius"],
    )
    def test_ball_rejects_nonfinite(self, center, radius, what):
        with pytest.raises(ValueError, match=f"ball {what} must be"):
            ops.BallCone(center, radius)


class TestValueAndJacobian:
    def test_affine_value(self):
        op = ops.make_affine([[2.0, 0.0], [0.0, 3.0]], [1.0, -1.0])
        assert np.allclose(ops.single_value(op, [1.0, 1.0]), [3.0, 2.0])

    def test_radial_value_and_jacobian(self):
        op = ops.OperatorSpec(dim=2, radial=ops.RadialPart(1.0))
        x = np.array([1.0, 2.0])
        assert np.allclose(ops.single_value(op, x), 5.0 * x)
        jac = ops.single_jacobian(op, x)
        eps = 1e-7
        for i in range(2):
            e = np.zeros(2)
            e[i] = eps
            fd = (ops.single_value(op, x + e) - ops.single_value(op, x - e)) / (2 * eps)
            assert np.allclose(jac[:, i], fd, atol=1e-6)

    def test_poly_jacobian_matches_derivative(self):
        op = ops.make_poly([0.0, 1.0, 0.0, 2.0], dim=3)
        x = np.array([0.5, -1.0, 2.0])
        jac = ops.single_jacobian(op, x)
        assert np.allclose(np.diag(jac), 1.0 + 6.0 * x**2)
        assert np.allclose(jac - np.diag(np.diag(jac)), 0.0)


class TestDomain:
    def test_box_project_and_contains(self):
        op = make_box_affine()
        y = op.domain.project(np.array([2.0, -3.0, 0.5, 1.0]))
        assert np.allclose(y, [1.0, -1.0, 0.5, 1.0])
        assert op.domain.contains(y)
        assert not op.domain.contains(np.asarray([1.1, 0.0, 0.0, 0.0]))

    def test_ball_project(self):
        op = ops.OperatorSpec(
            dim=2,
            affine=ops.AffinePart(np.zeros((2, 2)), np.zeros(2)),
            cone=ops.BallCone(np.zeros(2), 1.0),
        )
        assert np.allclose(op.domain.project(np.asarray([3.0, 4.0])), [0.6, 0.8])

    def test_box_sup_dist_sq_hits_far_corner(self):
        cone = ops.BoxCone(-np.ones(2), np.ones(2))
        op = ops.make_affine(np.zeros((2, 2)), cone=cone)
        # Farthest corner from (0.3, -0.2) is (-1, 1).
        assert op.domain.sup_dist_sq(np.asarray([0.3, -0.2])) == pytest.approx(1.3**2 + 1.2**2)

    def test_ball_sup_dist_sq(self):
        op = ops.OperatorSpec(
            dim=2,
            affine=ops.AffinePart(np.zeros((2, 2)), np.zeros(2)),
            cone=ops.BallCone(np.zeros(2), 2.0),
        )
        assert op.domain.sup_dist_sq(np.asarray([1.0, 0.0])) == pytest.approx(9.0)


class TestResolvent:
    def test_identity_closed_form(self):
        op = ops.make_affine([[1.0]])
        r = ops.resolvent(op, 0.5, [2.0])
        assert r.y[0] == pytest.approx(4.0 / 3.0, abs=1e-13)
        assert r.v[0] == pytest.approx(4.0 / 3.0, abs=1e-13)
        assert r.residual <= ops.RESOLVENT_TOL

    def test_cubic_rational_root(self):
        # y + y^3 = 2 has the exact root y = 1.
        op = ops.make_poly([0.0, 0.0, 0.0, 1.0])
        r = ops.resolvent(op, 1.0, [2.0])
        assert r.y[0] == pytest.approx(1.0, abs=1e-9)
        assert r.v[0] == pytest.approx(1.0, abs=1e-9)

    def test_radial_rational_root(self):
        op = ops.OperatorSpec(dim=2, radial=ops.RadialPart(1.0))
        r = ops.resolvent(op, 1.0, [2.0, 0.0])
        assert np.allclose(r.y, [1.0, 0.0], atol=1e-9)

    def test_pure_projection(self):
        cone = ops.BoxCone(-np.ones(1), np.ones(1))
        op = ops.make_affine([[0.0]], cone=cone)
        r = ops.resolvent(op, 1.0, [2.5])
        assert r.y[0] == pytest.approx(1.0, abs=1e-9)
        # lam*v + y = x and v = F(y) + n forces the normal part n = 1.5.
        assert r.v[0] == pytest.approx(1.5, abs=1e-9)

    def test_residual_certificate(self):
        op = make_box_affine(seed=3)
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = 3.0 * rng.standard_normal(4)
            lam = float(rng.uniform(0.05, 5.0))
            r = ops.resolvent(op, lam, x)
            d = float(np.linalg.norm(r.y - x))
            assert r.residual <= ops.RESOLVENT_TOL * max(1.0, d)
            recomputed = float(np.linalg.norm(lam * r.v + r.y - x))
            assert recomputed == pytest.approx(r.residual, abs=1e-12)

    def test_membership_is_exact(self):
        # v - F(y) must be a valid box normal at y, componentwise.
        op = make_box_affine(seed=5)
        r = ops.resolvent(op, 0.7, np.array([2.0, -2.0, 0.1, 0.4]))
        n = r.v - ops.single_value(op, r.y)
        lo, hi = op.cone.lower, op.cone.upper
        for i in range(4):
            if n[i] > 1e-12:
                assert r.y[i] >= hi[i] - 1e-9
            elif n[i] < -1e-12:
                assert r.y[i] <= lo[i] + 1e-9

    def test_nonexpansive(self):
        op = make_box_affine(seed=11)
        rng = np.random.default_rng(13)
        for _ in range(20):
            x1 = 2.0 * rng.standard_normal(4)
            x2 = 2.0 * rng.standard_normal(4)
            lam = float(rng.uniform(0.1, 3.0))
            y1 = ops.resolvent(op, lam, x1).y
            y2 = ops.resolvent(op, lam, x2).y
            gap = np.linalg.norm(y1 - y2) - np.linalg.norm(x1 - x2)
            assert gap <= 1e-9

    def test_warm_start_agrees(self):
        op = make_box_affine(seed=17)
        x = np.array([1.5, -0.3, 0.9, -2.0])
        r1 = ops.resolvent(op, 0.8, x)
        r2 = ops.resolvent(op, 0.8, x, warm=r1.state[0])
        assert np.allclose(r1.y, r2.y, atol=1e-9)

    def test_rejects_bad_lambda(self):
        op = ops.make_affine([[1.0]])
        with pytest.raises(ValueError):
            ops.resolvent(op, 0.0, [1.0])

    def test_affine_closed_form_raises_past_its_bound(self):
        # Nearly singular, tiny lam, ||x|| ~ 1.3e6: the solve rounds at
        # eps*||x||, about twice the bound tol * max(1, ||y - x||).
        op = problems.make_strongly_monotone_affine(d=6, mu=1e-6, seed=4).operator
        x = np.array([175025.0, -183899.0, 891513.0, 146028.0, -745689.0, 503365.0])
        with pytest.raises(InnerSolverDiverged, match="^resolvent affine solve missed its bound") as exc:
            ops.resolvent(op, 2.28e-8, x)
        assert exc.value.residual > ops.RESOLVENT_TOL
        assert exc.value.iterations == 0

    def test_radial_closed_form_raises_past_its_bound(self, monkeypatch):
        # A root off by 1e-6 relative: the radial closed form reports the miss.
        real = ops._radial_root
        monkeypatch.setattr(ops, "_radial_root", lambda *args: real(*args) * (1.0 + 1e-6))
        op = ops.OperatorSpec(dim=3, radial=ops.RadialPart(1.0))
        with pytest.raises(InnerSolverDiverged, match="^resolvent radial solve missed its bound") as exc:
            ops.resolvent(op, 0.5, np.array([1.0, -2.0, 0.5]))
        assert exc.value.residual > ops.RESOLVENT_TOL
        assert exc.value.iterations == 0


class TestNewtonFailures:
    """Both normal-map solves surface Newton failure as InnerSolverDiverged."""

    RADIAL_BALL = ops.OperatorSpec(dim=2, radial=ops.RadialPart(1.0), cone=ops.BallCone(np.zeros(2), 1.0))
    CUBIC_SURROGATE = ops.TaylorSurrogate(problems.make_cubic_1d().operator, [2.0], 3)

    def solves(self, x):
        # (message prefix, solve) for the exact resolvent (radial field over
        # a ball: no closed form, so Newton runs) and the surrogate resolvent.
        return [
            ("resolvent", lambda: ops.resolvent(self.RADIAL_BALL, 5.0, np.array([x, 1.0]))),
            ("surrogate", lambda: surrogate_resolvent(self.CUBIC_SURROGATE, np.array([x]), 0.5, 0.1)),
        ]

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(ops, "NEWTON_MAX_ITERS", 1)
        for what, solve in self.solves(2.0):
            with pytest.raises(InnerSolverDiverged, match=f"^{what} newton hit iteration cap") as exc:
                solve()
            assert exc.value.iterations == 1
            assert np.isfinite(exc.value.residual) and exc.value.residual > 1e-3

    def test_stalled_line_search(self):
        # A NaN query point makes every trial residual NaN, so no step of
        # the Armijo search is accepted.
        for what, solve in self.solves(np.nan):
            with pytest.raises(InnerSolverDiverged, match=f"^{what} newton stalled") as exc:
                solve()
            assert exc.value.iterations == 0
            assert np.isnan(exc.value.residual)

    @pytest.mark.parametrize(
        "d, lam, x",
        [
            (4, 1580.69, [2.504, -0.309, 3.283, -1.598]),
            # The stalls that FAIL `check --suite FEEDBACK` at seeds
            # 1385176604 and 1819789398.
            (2, 26.443858112896248, [-0.798185709492968, 1.6533876275933117]),
            (2, 28.602189190884285, [0.9370911473279101, -1.609600875803956]),
        ],
        ids=["d4", "d2-feedback-1385176604", "d2-feedback-1819789398"],
    )
    def test_affine_box_large_lam_stall(self, d, lam, x):
        # Bilinear saddle: the damped Newton stalls (at residual 2.253e3,
        # 3.194e1 and 3.665e1), and principal pivoting finishes the solve.
        op = problems.make_bilinear_saddle(d=d).operator
        x = np.array(x)
        with pytest.raises(InnerSolverDiverged, match="^resolvent newton stalled"):
            ops.normal_map_newton(op, lam, x, op.value, op.jacobian, ops.RESOLVENT_TOL, ops.RESOLVENT_TOL, None, "resolvent")
        r = ops.resolvent(op, lam, x)
        assert r.residual <= ops.RESOLVENT_TOL * max(1.0, float(np.linalg.norm(r.y - x)))
        _assert_pivoted(op, lam, x, r)

    @pytest.mark.parametrize("d, draws", [(4, 400), (10, 100)])
    def test_affine_box_sweep_certifies_every_stall(self, d, draws):
        # Seeded draws over lam in [1e-8, 1e10]: wherever Newton fails on the
        # saddle over its box, the resolvent still meets its bound with v in
        # A(y) exactly; elsewhere it is Newton's own pair.
        op = problems.make_bilinear_saddle(d=d).operator
        rng = np.random.default_rng(d)
        stalls = 0
        for _ in range(draws):
            x = 10.0 ** rng.uniform(0.0, 1.0) * rng.standard_normal(d)
            lam = 10.0 ** rng.uniform(-8.0, 10.0)
            r = ops.resolvent(op, lam, x)
            assert r.residual <= ops.RESOLVENT_TOL * max(1.0, ops.norm(r.y - x))
            assert checks._membership_margin(op, r.y, r.v) >= 0.0
            stalls += r.state is None
        assert stalls >= 10

    def test_pivoting_failures_are_typed(self, monkeypatch):
        # The d = 4 stall needs 7 pivots: a cap of 1 per coordinate (4) raises.
        # A NaN query fails Newton, then pivoting's residual bound.
        op = problems.make_bilinear_saddle(d=4).operator
        monkeypatch.setattr(ops, "MAX_PIVOTS_PER_DIM", 1)
        with pytest.raises(InnerSolverDiverged, match=r"^resolvent affine \+ box pivoting hit its cap of 4 pivots$"):
            ops.resolvent(op, 1580.69, np.array([2.504, -0.309, 3.283, -1.598]))
        monkeypatch.undo()
        with pytest.raises(InnerSolverDiverged, match=r"^resolvent affine \+ box pivoting solve missed its bound at residual nan"):
            ops.resolvent(op, 5.0, np.array([np.nan, 1.0, 0.0, 0.0]))

    def test_dense_pivoting_misses_a_bound_below_its_rounding(self):
        # A known defect, pinned until the bound gains a floor that scales
        # with lam * ||M|| * ||y|| * eps: at lam = 1e6 Newton fails on the
        # dense 12-d instance and pivoting's exact partition leaves a residual
        # above RESOLVENT_TOL * ||y - x|| but below the rounding of lam * M * y.
        op = NEWTON_INSTANCES["dense affine+box d=12"]
        x, lam = np.random.default_rng(0).standard_normal(12), 1e6
        with pytest.raises(InnerSolverDiverged, match=r"^resolvent affine \+ box pivoting solve missed its bound") as exc:
            ops.resolvent(op, lam, x)
        m, box = op.affine.matrix, op.cone
        side = np.where(x <= box.lower, -1, np.where(x >= box.upper, 1, 0))
        y, _ = ops._box_lvi(np.eye(12) + lam * m, x - lam * op.affine.offset, box.lower, box.upper, side, "")
        bound = ops.RESOLVENT_TOL * max(1.0, ops.norm(y - x))
        rounding = np.finfo(float).eps * lam * np.linalg.norm(m, 2) * ops.norm(y)
        assert bound < exc.value.residual < rounding
        ops.resolvent(op, 1e5, x)  # a tenth of that lam still meets the bound


def _exact_box_lvi(a, b, lo, hi):
    """Every partition (-1 lower, 1 upper, 0 free) of the box LVI that
    _box_lvi solves, solved in fractions.Fraction: the (partition, y) pairs
    where y lies in the box and r = b - a @ y has its sign at each bound."""
    d = len(b)
    a = [[Fraction(v) for v in row] for row in a.tolist()]
    b, lo, hi = ([Fraction(v) for v in u.tolist()] for u in (b, lo, hi))
    out = []
    for side in itertools.product((-1, 0, 1), repeat=d):
        y = [lo[i] if s < 0 else hi[i] for i, s in enumerate(side)]
        free = [i for i in range(d) if side[i] == 0]
        # Gauss-Jordan on a_FF y_F = b_F - a_F,active y_active.
        rows = [[a[i][j] for j in free] + [b[i] - sum(a[i][j] * y[j] for j in range(d) if side[j])] for i in free]
        for c in range(len(free)):
            p = next(k for k in range(c, len(free)) if rows[k][c] != 0)
            rows[c], rows[p] = rows[p], rows[c]
            for k in range(len(free)):
                if k != c and rows[k][c] != 0:
                    f = rows[k][c] / rows[c][c]
                    rows[k] = [u - f * v for u, v in zip(rows[k], rows[c])]
        for k, i in enumerate(free):
            y[i] = rows[k][-1] / rows[k][k]
        r = [b[i] - sum(a[i][j] * y[j] for j in range(d)) for i in range(d)]
        if all(lo[i] <= y[i] <= hi[i] if s == 0 else (r[i] <= 0 if s < 0 else r[i] >= 0) for i, s in enumerate(side)):
            out.append((side, y))
    return out


class TestBoxLvi:
    """_box_lvi, the pivot that the resolvent's finish and the gap's
    proximal steps share, against the exact solution of its LVI."""

    @settings(max_examples=60)
    @given(st.integers(1, 4), st.data())
    def test_matches_the_one_consistent_partition(self, d, data):
        # a = I + t*S with S = BB' of random rank is positive definite, so a
        # P-matrix: exactly one of the 3^d partitions is consistent.
        rank = data.draw(st.integers(0, d))
        t = 10.0 ** data.draw(st.floats(-2.0, 6.0))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        g = rng.standard_normal((d, rank))
        sym = g @ g.T
        a = ops._eye(d) + t * (0.5 * (sym + sym.T))
        lo, hi = -0.1 - rng.random(d), 0.1 + rng.random(d)
        b = (1.0 + t * rng.random()) * 3.0 * rng.standard_normal(d)
        y, side = ops._box_lvi(a, b, lo, hi, rng.integers(-1, 2, d), "test")
        [(want_side, want)] = _exact_box_lvi(a, b, lo, hi)
        want = np.array([float(v) for v in want])
        assert np.all(np.abs(y - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        assert tuple(side) == want_side


# Reference copy of the normal-map Newton kernel as it stood before its
# per-call costs were cut: np.clip and np.linalg.norm, a fresh identity per
# call, zero-filled part sums, and a second projection at the top of the
# loop and on exit.  The live kernel must reproduce it bit for bit.


def _ref_value(op, x):
    out = np.zeros(op.dim)
    if op.affine is not None:
        out += op.affine.matrix @ x + op.affine.offset
    if op.poly is not None:
        out += npoly.polyval(x, op.poly.coeffs)
    if op.radial is not None:
        out += op.radial.weight * float(x @ x) * x
    return out


def _ref_jacobian(op, x):
    out = np.zeros((op.dim, op.dim))
    if op.affine is not None:
        out += op.affine.matrix
    if op.poly is not None:
        out += np.diag(npoly.polyval(x, npoly.polyder(op.poly.coeffs)))
    if op.radial is not None:
        out += op.radial.weight * (float(x @ x) * np.eye(op.dim) + 2.0 * np.outer(x, x))
    return out


def _ref_project(op, x):
    c = op.cone
    if isinstance(c, ops.BoxCone):
        return np.clip(x, c.lower, c.upper)
    r = x - c.center
    nr = float(np.linalg.norm(r))
    if nr <= c.radius:
        return x.copy()
    return c.center + (c.radius / nr) * r


def _ref_proj_jacobian(cone, w):
    if isinstance(cone, ops.BoxCone):
        return ((w > cone.lower) & (w < cone.upper)).astype(float)
    r = w - cone.center
    nr = float(np.linalg.norm(r))
    if nr <= cone.radius:
        return None
    u = r / nr
    return (cone.radius / nr) * (np.eye(w.size) - np.outer(u, u))


def _ref_resolvent(op, lam, x, warm, tol=ops.RESOLVENT_TOL, solve=np.linalg.solve):
    """(y, v, w, iterations, residual), or the InnerSolverDiverged raised;
    solve is the dense solve of the Newton step."""
    w = x.copy() if warm is None else np.asarray(warm, dtype=float).copy()
    eye = np.eye(op.dim)

    def phi(wv):
        return wv + lam * _ref_value(op, _ref_project(op, wv)) - x

    def stop(y):
        return tol * max(1.0, float(np.linalg.norm(y - x)))

    f = phi(w)
    nf = float(np.linalg.norm(f))
    its = 0
    while its < ops.NEWTON_MAX_ITERS:
        y = _ref_project(op, w)
        target = stop(y)
        if nf <= target:
            break
        jf = _ref_jacobian(op, y)
        dp = _ref_proj_jacobian(op.cone, w)
        if dp is None:
            jac = eye + lam * jf
        elif dp.ndim == 1:
            jac = eye + lam * (jf * dp[np.newaxis, :])
        else:
            jac = eye + lam * (jf @ dp)
        try:
            step = solve(jac, -f)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -f, rcond=None)[0]
        t = 1.0
        for _ in range(60):
            wn = w + t * step
            fn = phi(wn)
            nfn = float(np.linalg.norm(fn))
            if nfn < nf * (1.0 - 1e-4 * t) or nfn <= target:
                break
            t *= 0.5
        else:
            return InnerSolverDiverged(
                f"resolvent newton stalled at residual {nf:.3e}", residual=nf, iterations=its
            )
        w, f, nf = wn, fn, nfn
        its += 1
    else:
        if nf > stop(_ref_project(op, w)):
            return InnerSolverDiverged(
                f"resolvent newton hit iteration cap at residual {nf:.3e}", residual=nf, iterations=its
            )
    y = _ref_project(op, w)
    v = _ref_value(op, y) + (w - y) / lam
    return y, v, w, its, float(np.linalg.norm(lam * v + y - x))


def _newton_instances():
    # Every instance leaves resolvent no closed form, so the kernel runs.
    # Besides the d = 4 ones, the benchmarked 10-d saddle and a dense 12-d
    # affine + box, where BLAS runs the unrolled paths of its dot and matvec.
    rng = np.random.default_rng(41)
    g = rng.standard_normal((4, 4))
    m = g @ g.T / 4.0 + (g - g.T)
    box = ops.BoxCone(-np.ones(4), np.ones(4))
    ball = ops.BallCone(0.3 * rng.standard_normal(4), 1.5)
    return {
        "affine+box": problems.make_bilinear_saddle(d=4).operator,
        "psd affine+box": ops.make_affine(m, rng.standard_normal(4), cone=box),
        "affine+ball": ops.make_affine(m, rng.standard_normal(4), cone=ball),
        "poly+ball": ops.make_poly([0.1, 1.0, 0.0, 0.5], dim=4, cone=ball),
        "radial+box": ops.OperatorSpec(dim=4, radial=ops.RadialPart(0.7), cone=box),
        "affine+poly+radial+ball": ops.OperatorSpec(
            dim=4,
            affine=ops.AffinePart(m, np.zeros(4)),
            poly=ops.PolyPart([0.0, 0.5, 0.0, 1.0]),
            radial=ops.RadialPart(0.2),
            cone=ball,
        ),
        "saddle d=10": problems.make_bilinear_saddle(d=10).operator,
        "dense affine+box d=12": _dense_affine_box(12),
    }


def _dense_affine_box(d):
    # Drawn from a generator of its own, so the d = 4 instances keep their draws.
    rng = np.random.default_rng(412)
    g = rng.standard_normal((d, d))
    return ops.make_affine(g @ g.T / d + (g - g.T), rng.standard_normal(d), cone=ops.BoxCone(-np.ones(d), np.ones(d)))


NEWTON_INSTANCES = _newton_instances()


def _pivots(op):
    """True where a failed Newton solve is finished by pivoting: a lone affine part over a box."""
    return isinstance(op.cone, ops.BoxCone) and op.affine is not None and op.poly is None and op.radial is None


def _assert_pivoted(op, lam, x, r):
    """r, where the reference Newton failed, is pivoting's certified closed-form pair."""
    assert r.state is None and r.iterations == 0 and r._v is not None
    assert r.residual <= ops.RESOLVENT_TOL * max(1.0, ops.norm(r.y - x))
    assert checks._membership_margin(op, r.y, r.v) >= 0.0


# A Resolvent as _ref_dispatch returns it: every field formed at the solve.
_RefResolvent = collections.namedtuple("_RefResolvent", "y v residual iterations state", defaults=(None,))


def _ref_dispatch(op, lam, x, warm):
    """operators.resolvent as it stood when it chose its route on every call
    (a _RefResolvent, or the InnerSolverDiverged raised)."""
    x = np.asarray(x, dtype=float)
    single_parts = sum(p is not None for p in (op.affine, op.poly, op.radial))
    if single_parts == 0:
        y = op.domain.project(x)
        return _RefResolvent(y=y, v=(x - y) / lam, residual=0.0, iterations=0)
    if op.affine is not None and single_parts == 1 and op.cone is None:
        m, q = op.affine.matrix, op.affine.offset
        y = np.linalg.solve(np.eye(op.dim) + lam * m, x - lam * q)
        v = m @ y + q
        res = ops.norm(lam * v + y - x)
        if res > ops.RESOLVENT_TOL * max(1.0, ops.norm(y - x)):
            return InnerSolverDiverged(
                f"resolvent affine solve missed its bound at residual {res:.3e}", residual=res, iterations=0
            )
        return _RefResolvent(y=y, v=v, residual=res, iterations=0)
    if op.poly is not None and single_parts == 1 and not isinstance(op.cone, ops.BallCone):
        c, dc = op.poly.ders[:2]
        y = np.array([ops._scalar_poly_root(c, dc, float(lam), t) for t in x.tolist()])
        if isinstance(op.cone, ops.BoxCone):
            y = np.clip(y, op.cone.lower, op.cone.upper)
            py = ops._horner(c, y)
            n = np.where((y > op.cone.lower) & (y < op.cone.upper), 0.0, (x - y) / lam - py)
        else:
            py = ops._horner(c, y)
            n = np.zeros(op.dim)
        v = py + n
        return _RefResolvent(y=y, v=v, residual=ops.norm(lam * v + y - x), iterations=0)
    if op.radial is not None and single_parts == 1 and op.cone is None:
        s = ops.norm(np.ascontiguousarray(x))
        r = ops._radial_root(op.radial.weight, lam, s)
        y = (r / s) * x if s > 0 else np.zeros(op.dim)
        v = op.radial.weight * r * r * y
        return _RefResolvent(y=y, v=v, residual=ops.norm(lam * v + y - x), iterations=0)
    if op.affine is not None and single_parts == 1:
        m, q = op.affine.matrix, op.affine.offset
        value, jacobian = (lambda z: m @ z + q), (lambda z: m)
    else:
        value, jacobian = (lambda z: ops.single_value(op, z)), (lambda z: ops.single_jacobian(op, z))
    try:
        y, _, its, state = ops.normal_map_newton(
            op, lam, x, value, jacobian, ops.RESOLVENT_TOL, ops.RESOLVENT_TOL, warm, "resolvent"
        )
    except InnerSolverDiverged as exc:
        return exc
    v = value(y) + (state[0] - y) / lam
    return _RefResolvent(y=y, v=v, residual=ops.norm(lam * v + y - x), iterations=its, state=state)


def _route_instances():
    """(operator, the route it must pick) for every route, on each cone it takes."""
    rng = np.random.default_rng(43)
    box = ops.BoxCone(-np.ones(4), np.ones(4))
    ball = ops.BallCone(0.3 * rng.standard_normal(4), 1.5)
    # The dense 12-d instance stays out: these tests draw lam up to 1e6, and above
    # about 5e5 its pivoting finish can miss an absolute residual bound that lies
    # below the rounding of lam * M * y (TestNewtonFailures pins that defect).
    out = {name: (op, ops._newton_route) for name, op in NEWTON_INSTANCES.items() if name != "dense affine+box d=12"}
    out.update({
        "box only": (ops.OperatorSpec(dim=4, cone=box), ops._projection_route),
        "ball only": (ops.OperatorSpec(dim=4, cone=ball), ops._projection_route),
        "affine": (problems.make_strongly_monotone_affine(d=4, mu=0.5, seed=2).operator, ops._affine_route),
        "skew affine": (ops.make_affine([[0.0, 2.0], [-2.0, 0.0]], [0.5, -1.0]), ops._affine_route),
        "cubic": (ops.make_poly([0.0, 0.0, 0.0, 1.0], dim=3), ops._poly_route),
        "cubic+box": (ops.make_poly([0.0, 1.0, 0.0, 0.5], dim=4, cone=box), ops._poly_route),
        "radial": (ops.OperatorSpec(dim=4, radial=ops.RadialPart(0.7)), ops._radial_route),
    })
    return out


ROUTE_INSTANCES = _route_instances()


# Reference copy of the polynomial routes as they stood before PolyPart
# stored its derivative chain: npoly.polyder on every call, npoly.polyval
# on numpy scalars in the scalar root.  The live routes, which read the
# stored chain through operators._horner, must match it bit for bit.


def _ref_scalar_poly_root(coeffs, lam, target):
    d = npoly.polyder(coeffs)
    y = target
    for _ in range(200):
        g = y + lam * float(npoly.polyval(y, coeffs)) - target
        if abs(g) <= 1e-14 * (1.0 + abs(target) + abs(y)):
            return y
        dg = 1.0 + lam * float(npoly.polyval(y, d))
        step = g / dg
        ynew = y - step
        if not np.isfinite(ynew):
            break
        y = ynew
    lo = hi = target
    width = max(1.0, abs(target))
    for _ in range(200):
        if (lo + lam * npoly.polyval(lo, coeffs) - target) <= 0 and (
            hi + lam * npoly.polyval(hi, coeffs) - target
        ) >= 0:
            break
        lo -= width
        hi += width
        width *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid + lam * float(npoly.polyval(mid, coeffs)) > target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * (1.0 + abs(mid)):
            break
    return 0.5 * (lo + hi)


def _ref_poly_closed_form(op, lam, x):
    """(y, v, residual) of the closed-form route for a lone PolyPart."""
    c = op.poly.coeffs
    y = np.empty(op.dim)
    for i in range(op.dim):
        y[i] = _ref_scalar_poly_root(c, lam, x[i])
    n = np.zeros(op.dim)
    if isinstance(op.cone, ops.BoxCone):
        yc = np.clip(y, op.cone.lower, op.cone.upper)
        n = (x - yc) / lam - npoly.polyval(yc, c)
        n[(yc > op.cone.lower) & (yc < op.cone.upper)] = 0.0
        y = yc
    v = npoly.polyval(y, c) + n
    return y, v, float(np.linalg.norm(lam * v + y - x))


def _ref_poly_value(op, x):
    return npoly.polyval(x, op.poly.coeffs)


def _ref_poly_jacobian(op, x):
    return np.diag(npoly.polyval(x, npoly.polyder(op.poly.coeffs)))


def _poly_instances():
    quintic = [-0.0, 0.5, 0.0, 0.0, 0.0, 2.0]  # a signed-zero constant term
    return {
        "cubic d=1": ops.make_poly([0.0, 0.0, 0.0, 1.0]),
        "cubic+linear d=3": ops.make_poly([0.0, 1.0, 0.0, 1.0], dim=3),
        "quintic d=2": ops.make_poly(quintic, dim=2),
        "linear d=2": ops.make_poly([0.25, 3.0], dim=2),
        "cubic+box d=3": ops.make_poly(
            [0.1, 1.0, 0.0, 0.5], dim=3, cone=ops.BoxCone(np.array([-1.0, -0.5, 0.0]), np.array([1.0, 0.5, 2.0]))
        ),
        "quintic+box d=2": ops.make_poly(
            quintic, dim=2, cone=ops.BoxCone(np.array([-1e-3, 0.3]), np.array([1e-3, 0.3]))
        ),
    }


POLY_INSTANCES = _poly_instances()


@st.composite
def _poly_points(draw):
    """A lone-polynomial operator, lam in [1e-8, 1e12] and a query point.

    Coordinates are signed zeros, plain floats, or the image t + lam*poly(t)
    of an edge t (a box bound, else +-1) moved by up to one ulp, so the root
    lands on the bound or one ulp to either side of it.
    """
    name = draw(st.sampled_from(sorted(POLY_INSTANCES)))
    op = POLY_INSTANCES[name]
    lam = 10.0 ** draw(st.floats(-8.0, 12.0))
    x = np.empty(op.dim)
    for i in range(op.dim):
        kind = draw(st.sampled_from(["zero", "float", "edge"]))
        if kind == "zero":
            x[i] = draw(st.sampled_from([0.0, -0.0]))
        elif kind == "float":
            x[i] = draw(st.floats(-1e3, 1e3))
        else:
            if isinstance(op.cone, ops.BoxCone):
                t = draw(st.sampled_from([op.cone.lower[i], op.cone.upper[i]]))
            else:
                t = draw(st.sampled_from([-1.0, 1.0]))
            x[i] = t + lam * npoly.polyval(t, op.poly.coeffs)
            step = draw(st.sampled_from([-1, 0, 1]))
            if step:
                x[i] = np.nextafter(x[i], step * np.inf)
    return name, lam, x


class TestDenseSolve:
    """operators._solve gives np.linalg.solve's bits and errors.  pytest turns
    a RuntimeWarning into an error, so a solve that leaks one fails here."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 10, 17])
    def test_matches_numpy(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(40):
            s = 10.0 ** rng.uniform(-3.0, 6.0)  # log-uniform in [1e-3, 1e6]
            a = np.eye(d) + s * rng.standard_normal((d, d))
            b = rng.standard_normal(d)
            for m in (a, a.T):  # C and Fortran order
                assert ops._solve(m, b).tobytes() == np.linalg.solve(m, b).tobytes()

    @pytest.mark.parametrize("a", [[[1.0, 2.0], [2.0, 4.0]], np.zeros((3, 3))])
    def test_singular_raises(self, a):
        a = np.array(a)
        b = np.ones(a.shape[0])
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            np.linalg.solve(a, b)
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            ops._solve(a, b)

    @pytest.mark.parametrize("where", [(0, 0), (1, 2), (2, 1)])
    def test_nan_entry_matches_numpy(self, where):
        a = np.eye(3) + 0.5 * np.random.default_rng(5).standard_normal((3, 3))
        a[where] = np.nan
        b = np.array([1.0, -2.0, 0.5])
        try:
            want = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            with pytest.raises(np.linalg.LinAlgError, match=f"^{exc}$"):
                ops._solve(a, b)
        else:
            assert ops._solve(a, b).tobytes() == want.tobytes()

    def test_newton_lstsq_fallback_matches_reference(self, monkeypatch):
        # No Newton matrix of these instances is singular, so the kernel's
        # lstsq branch runs only when every dense solve is made to fail.
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(ops, "_solve", singular)
        rng = np.random.default_rng(17)
        steps = 0
        for name, op in NEWTON_INSTANCES.items():
            for lam in (0.1, 1.0, 10.0):
                x = rng.standard_normal(op.dim)
                want = _ref_resolvent(op, lam, x, None, solve=singular)
                if isinstance(want, InnerSolverDiverged):
                    with pytest.raises(InnerSolverDiverged) as exc:
                        ops.resolvent(op, lam, x)
                    assert str(exc.value) == str(want)
                    continue
                got = ops.resolvent(op, lam, x)
                y, v, w, its, res = want
                assert got.y.tobytes() == y.tobytes(), name
                assert got.v.tobytes() == v.tobytes(), name
                assert got.state[0].tobytes() == w.tobytes(), name
                assert got.iterations == its and got.residual == res, name
                steps += its
        assert steps > 0


def _strided(a):
    """A view of a with the same values and every stride doubled."""
    big = np.zeros(tuple(2 * n for n in a.shape))
    every_other = (slice(None, None, 2),) * a.ndim
    big[every_other] = a
    return big[every_other]


def _read_only(a):
    a = a.copy()
    a.setflags(write=False)
    return a


def _layouts(rng, d, scale=1.0):
    """(name, v, w, m): two random vectors and a random monotone matrix (PSD
    plus skew), the same values in each operand layout."""
    v, w = scale * rng.standard_normal((2, d))
    g = rng.standard_normal((d, d))
    m = g @ g.T / d + g - g.T
    return [
        ("contiguous", v.copy(), w.copy(), m.copy()),
        ("strided", _strided(v), _strided(w), _strided(m)),
        ("transposed", v.copy(), w.copy(), m.T.copy().T),
        ("read-only", _read_only(v), _read_only(w), _read_only(m)),
    ]


def _ref_ball_residual(cone, x, g):
    """BallCone.residual on one point as it stood with g @ u."""
    rad = x - cone.center
    nr = math.sqrt(rad @ rad)
    if nr < cone.radius_in:
        return math.sqrt(g @ g)
    u = rad / nr
    inner = float(g @ u)
    if inner >= 0:
        return math.sqrt(g @ g)
    t = g - inner * u
    return math.sqrt(t @ t) if math.isfinite(inner) else math.nan


def _ref_law_slope(op, lam, x, r, p, f):
    """feedback.law_slope and its _adjoint as they stood with @."""
    y = r.y
    if r.state is None:
        fy = ops.single_value(op, y)
        w = x - lam * fy
    else:
        w, _, fy = r.state
    n, dp = op.domain.jacobian(lam, ops.single_jacobian(op, y), w)
    pe = f if dp is None else dp * f if dp.ndim == 1 else dp @ f
    d = r.step
    c = lam * (p - 1) * d ** (p - 3)
    z = np.linalg.solve(n.T, pe)
    return d ** (p - 1) - c * float(z @ fy), -c * float((f - z) @ f)


def _ref_maximizer_gaps(op, m, q, rows):
    """The values of metrics._maximizer_gaps as they stood with @ (its
    certificate, unchanged, is left to the live code)."""
    sym = m + m.T
    curv = float(np.abs(sym).max())
    if isinstance(op.domain, ops.BoxCone):
        t = 1e6 / max(curv, 1e-10)
        argmax, fixed = metrics._box_argmax, (np.eye(op.dim) + t * sym, t)
    else:
        eig, vecs = np.linalg.eigh(sym)
        argmax, fixed = metrics._ball_argmax, (sym, np.maximum(eig, 0.0), vecs)
    out = []
    for x in rows:
        lin = m.T @ x - q
        z = argmax(op.domain, lin, x, *fixed)
        out.append(float((m @ z + q) @ (x - z)))
    return np.array(out)


class TestDotLayouts:
    """Each product switched from @ to ndarray.dot gives the bits of the @
    expression it replaced, for d = 1..12, on contiguous, strided,
    transposed and read-only operands.  They differ only on a matrix with no
    unit stride, which no operator hands to a product."""

    DIMS = range(1, 13)

    def test_norm_and_dots(self):
        rng = np.random.default_rng(61)
        for d in self.DIMS:
            for _ in range(10):
                for name, v, w, m in _layouts(rng, d, 10.0 ** rng.uniform(-5, 5)):
                    assert ops.norm(v) == math.sqrt(v @ v), (name, d)
                    got = ops._dots(v, w)
                    assert type(got) is float and got == float(v @ w), (name, d)
                    # m as an (n, d) stack: its rows with another stack's, or with one point.
                    rows = np.ascontiguousarray(m)
                    for b in (m[::-1], w):
                        want = [r @ s for r, s in zip(rows, b if b.ndim == 2 else [b] * d)]
                        assert ops._dots(m, b).tobytes() == np.array(want).tobytes(), (name, d)
                    assert ops._norms(m).tobytes() == np.sqrt([r @ s for r, s in zip(rows, m)]).tobytes(), (name, d)

    def test_matvec_and_affine_evaluators(self):
        rng = np.random.default_rng(62)
        for d in self.DIMS:
            box = ops.BoxCone(-np.ones(d), np.ones(d))
            for _ in range(10):
                for name, v, q, m in _layouts(rng, d, 10.0 ** rng.uniform(-5, 5)):
                    # On a matrix with no unit stride (the strided layout) @ runs numpy's
                    # own loop and .dot BLAS on a contiguous copy, so the bits differ.
                    want = (np.ascontiguousarray(m) if name == "strided" else m) @ v
                    assert ops._matvec(m, v).tobytes() == want.tobytes(), (name, d)
                    # The operator's stored matrix keeps a unit stride; F and the
                    # whole-space affine closed form multiply by it.
                    op = ops.make_affine(m, q, cone=box)
                    a = op.affine.matrix
                    assert a.flags.c_contiguous or a.flags.f_contiguous, (name, d)
                    assert op.value(v).tobytes() == (a @ v + q).tobytes(), (name, d)
                    assert ops.single_value(op, v).tobytes() == (a @ v + q).tobytes(), (name, d)
                    lam = 10.0 ** rng.uniform(-2, 2)
                    y = np.linalg.solve(np.eye(d) + lam * a, v - lam * q)
                    try:
                        r = ops.resolvent(ops.make_affine(m, q), lam, v)
                    except InnerSolverDiverged:
                        continue
                    assert r.y.tobytes() == y.tobytes() and r.v.tobytes() == (a @ y + q).tobytes(), (name, d)

    def test_pivoting_finish(self, monkeypatch):
        # Newton made to fail on every solve: pivoting finishes each, F(y) included.
        def stall(*args):
            raise InnerSolverDiverged("resolvent newton stalled", residual=1.0, iterations=0)

        monkeypatch.setattr(ops, "normal_map_newton", stall)
        rng = np.random.default_rng(63)
        finished = 0
        for d in self.DIMS:
            box = ops.BoxCone(-np.ones(d), np.ones(d))
            for name, x, q, m in _layouts(rng, d, 2.0):
                op = ops.make_affine(m, q, cone=box)
                a, lam = op.affine.matrix, 10.0 ** rng.uniform(-2, 2)
                side = np.where(x <= -1.0, -1, np.where(x >= 1.0, 1, 0))
                y, side = ops._box_lvi(np.eye(d) + lam * a, x - lam * q, box.lower, box.upper, side, "")
                fy = a @ y + q
                try:
                    r = ops.resolvent(op, lam, x)
                except InnerSolverDiverged:
                    continue
                assert r.y.tobytes() == y.tobytes(), (name, d)
                assert r.v.tobytes() == (fy + np.where(side == 0, 0.0, (x - y) / lam - fy)).tobytes(), (name, d)
                finished += 1
        assert finished > 0

    def test_ball_residual(self):
        rng = np.random.default_rng(64)
        for d in self.DIMS:
            ball = ops.BallCone(0.3 * rng.standard_normal(d), 1.5)
            for _ in range(10):
                for name, x, g, _ in _layouts(rng, d, 10.0 ** rng.uniform(-3, 3)):
                    on = ball.project(x * (1e3 / ops.norm(x)))  # on the sphere
                    for point in (x, _strided(on) if name == "strided" else on):
                        want = _ref_ball_residual(ball, point, g)
                        assert np.float64(ball.residual(point, g)).tobytes() == np.float64(want).tobytes(), (name, d)

    def test_taylor_surrogate(self):
        rng = np.random.default_rng(65)
        for d in self.DIMS:
            for name, anchor, u, m in _layouts(rng, d):
                op = ops.OperatorSpec(dim=d, affine=ops.AffinePart(m, rng.standard_normal(d)), radial=ops.RadialPart(0.3))
                for p in (1, 2, 3, 4):
                    # The surrogate keeps a contiguous copy of its anchor.
                    sur, kept = ops.TaylorSurrogate(op, anchor, p), anchor.copy()
                    assert sur.value(u).tobytes() == _ref_taylor_value(op, kept, p, u).tobytes(), (name, d, p)
                    assert sur.jacobian(u).tobytes() == _ref_taylor_jacobian(op, kept, p, u).tobytes(), (name, d, p)

    def test_law_slope(self):
        rng = np.random.default_rng(66)
        slopes = 0
        for d in self.DIMS:
            for cone in (ops.BoxCone(-np.ones(d), np.ones(d)), ops.BallCone(np.zeros(d), 1.0), None):
                for name, x, q, m in _layouts(rng, d, 2.0):
                    op = ops.make_affine(m, q, cone=cone)
                    lam = 10.0 ** rng.uniform(-1, 1)
                    try:
                        r = ops.resolvent(op, lam, x)
                    except InnerSolverDiverged:
                        continue
                    f = _strided(r.y - x) if name == "strided" else r.y - x
                    for p in (2, 3):
                        got = feedback.law_slope(op, lam, x, r, p, f)
                        want = _ref_law_slope(op, lam, x, r, p, f)
                        assert np.array(got).tobytes() == np.array(want).tobytes(), (name, d, p)
                        slopes += 1
        assert slopes > 200

    def test_maximizer_gaps(self):
        rng = np.random.default_rng(67)
        certified = 0
        for d in self.DIMS:
            for cone in (ops.BoxCone(-np.ones(d), np.ones(d)), ops.BallCone(np.zeros(d), 1.0)):
                for name, x, q, m in _layouts(rng, d):
                    op = ops.make_affine(m, q, cone=cone)
                    prob = problems.ProblemInstance("layout", op, problems.SolutionSet("UNKNOWN"), None)
                    x = op.domain.project(np.array(x))
                    x = _strided(x) if name == "strided" else x
                    try:
                        got = metrics.gap(prob, x, route="maximizer")
                    except UnsupportedMetric:
                        continue
                    want = _ref_maximizer_gaps(op, op.affine.matrix, q, x[np.newaxis, :])[0]
                    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (name, d)
                    certified += 1
        assert certified > 60

    def test_strided_norm_hazard(self):
        # ops.norm on a strided view takes BLAS's strided ddot, np.linalg.norm
        # its contiguous copy's unrolled one: they differ in some draws, as
        # before the switch (ops.norm is math.sqrt(v @ v) on every layout).
        rng = np.random.default_rng(68)
        differ = 0
        for _ in range(300):
            v = rng.standard_normal(2 * int(rng.integers(4, 13))) * 10.0 ** rng.uniform(-5, 5)
            s = v[::2]
            assert ops.norm(s) == math.sqrt(s @ s) and ops.norm(s.copy()) == float(np.linalg.norm(s))
            differ += ops.norm(s) != float(np.linalg.norm(s))
        assert differ > 0

    def test_radial_route_and_membership_margin_copy(self, monkeypatch):
        # The two callers that may receive strided views norm contiguous copies.
        seen, real = [], ops.norm
        monkeypatch.setattr(ops, "norm", lambda v: seen.append(v.flags.c_contiguous) or real(v))
        rng = np.random.default_rng(69)
        radial = ops.OperatorSpec(dim=4, radial=ops.RadialPart(1.0))
        box = make_box_affine(seed=3)
        for _ in range(20):
            big = 0.5 * rng.standard_normal(8)
            ops.resolvent(radial, 0.7, big[::2])
            checks._membership_margin(box, big[::2], big[1::2])
        assert seen and all(seen)


class TestKernelBitIdentity:
    """The live kernel reproduces the reference copy above exactly."""

    @settings(max_examples=150)
    @given(
        name=st.sampled_from(sorted(NEWTON_INSTANCES)),
        log_lam=st.floats(-3.0, 3.0),
        log_scale=st.floats(-1.0, 1.0),
        warm_ratio=st.sampled_from([None, 0.5, 1.0, 2.0, 10.0]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_reference_kernel(self, name, log_lam, log_scale, warm_ratio, seed):
        op = NEWTON_INSTANCES[name]
        lam = 10.0**log_lam
        x = 10.0**log_scale * np.random.default_rng(seed).standard_normal(op.dim)
        warm = None
        if warm_ratio is not None:
            # A warm start as the law solve passes it: w of a nearby lam.
            try:
                state = ops.resolvent(op, lam * warm_ratio, x).state
                warm = None if state is None else state[0]  # None: pivoted, as a failure left it
            except InnerSolverDiverged:
                pass
        want = _ref_resolvent(op, lam, x, warm)
        if isinstance(want, InnerSolverDiverged) and _pivots(op):
            _assert_pivoted(op, lam, x, ops.resolvent(op, lam, x, warm=warm))
            return
        if isinstance(want, InnerSolverDiverged):
            with pytest.raises(InnerSolverDiverged) as exc:
                ops.resolvent(op, lam, x, warm=warm)
            assert str(exc.value) == str(want)
            assert exc.value.residual == want.residual
            assert exc.value.iterations == want.iterations
            return
        got = ops.resolvent(op, lam, x, warm=warm)
        y, v, w, its, res = want
        assert np.array_equal(got.y, y)
        assert np.array_equal(got.v, v)
        assert np.array_equal(got.state[0], w)
        assert got.iterations == its
        assert got.residual == res

    @settings(max_examples=150)
    @given(
        name=st.sampled_from(sorted(NEWTON_INSTANCES)),
        log_lam=st.floats(-3.0, 3.0),
        log_scale=st.floats(-1.0, 1.0),
        warm_ratio=st.sampled_from([0.5, 1.0, 2.0, 10.0]),
        move=st.sampled_from([0.0, 1e-3, 0.1]),
        seed=st.integers(0, 2**16),
    )
    def test_exit_state_start_matches_reference_kernel(self, name, log_lam, log_scale, warm_ratio, move, seed):
        # A warm start given as the exit state of a solve at a nearby lam
        # (the law solve) or a moved x (a p = 1 flow stage) gives what the
        # reference kernel gives from the bare w of that state.
        op = NEWTON_INSTANCES[name]
        lam = 10.0**log_lam
        rng = np.random.default_rng(seed)
        x = 10.0**log_scale * rng.standard_normal(op.dim)
        try:
            state = ops.resolvent(op, lam * warm_ratio, x + move * rng.standard_normal(op.dim)).state
        except InnerSolverDiverged:
            return
        if state is None:  # pivoted: no exit state to start from
            return
        w0, y0, fy0 = state
        assert y0.tobytes() == op.domain.project(w0).tobytes()
        assert fy0.tobytes() == ops.single_value(op, y0).tobytes()
        want = _ref_resolvent(op, lam, x, w0)
        if isinstance(want, InnerSolverDiverged) and _pivots(op):
            _assert_pivoted(op, lam, x, ops.resolvent(op, lam, x, warm=state))
            return
        if isinstance(want, InnerSolverDiverged):
            with pytest.raises(InnerSolverDiverged) as exc:
                ops.resolvent(op, lam, x, warm=state)
            assert str(exc.value) == str(want)
            assert exc.value.residual == want.residual
            assert exc.value.iterations == want.iterations
            return
        got = ops.resolvent(op, lam, x, warm=state)
        y, v, w, its, res = want
        assert got.y.tobytes() == y.tobytes()
        assert got.v.tobytes() == v.tobytes()
        assert got.state[0].tobytes() == w.tobytes()
        assert got.iterations == its
        assert got.residual == res
        assert got.state[1] is got.y

    def test_exit_state_start_skips_projection_and_F(self, monkeypatch):
        # The exit state of a solve at (lam, x) already meets the stop rule
        # there: a second solve projects nothing and evaluates F nowhere.
        # From a state that misses it, a solve projects and evaluates F once
        # less than from the bare w.  Projections are counted at the domain's
        # project, which the kernel binds once per solve, and evaluations of
        # F at the operator's bound evaluator.
        x = np.array([1.5, -0.3, 0.9, -2.0])
        calls = []
        for name, projections_saved in (("affine+box", 1), ("affine+ball", 1)):
            op = NEWTON_INSTANCES[name]
            monkeypatch.setitem(vars(op), "value", lambda z, value=op.value: calls.append("F") or value(z))
            project = type(op.domain).project
            monkeypatch.setattr(type(op.domain), "project", lambda dom, z, p=project: calls.append("P") or p(dom, z))
            first = ops.resolvent(op, 0.8, x)
            calls.clear()
            again = ops.resolvent(op, 0.8, x, warm=first.state)
            assert calls == []
            assert again.iterations == 0
            assert again.y.tobytes() == first.y.tobytes() and again.v.tobytes() == first.v.tobytes()

            counts = []
            for warm in (first.state[0], first.state):
                calls.clear()
                r = ops.resolvent(op, 3.0, x, warm=warm)
                assert r.iterations > 0
                counts.append((calls.count("P"), calls.count("F")))
            assert counts[1] == (counts[0][0] - projections_saved, counts[0][1] - 1)

    @settings(max_examples=300)
    @given(
        name=st.sampled_from(sorted(ROUTE_INSTANCES)),
        log_lam=st.floats(-6.0, 6.0),
        log_scale=st.floats(-3.0, 3.0),
        warm_ratio=st.sampled_from([None, 0.5, 2.0]),
        seed=st.integers(0, 2**16),
    )
    def test_routes_match_reference_dispatch(self, name, log_lam, log_scale, warm_ratio, seed):
        # Each route, fixed at construction, against the per-call dispatch; a
        # radial closed form past its bound raises where the dispatch
        # returned its pair.
        op, route = ROUTE_INSTANCES[name]
        assert op.route is route
        lam = 10.0**log_lam
        x = 10.0**log_scale * np.random.default_rng(seed).standard_normal(op.dim)
        warm = None
        if warm_ratio is not None and route is ops._newton_route:
            got = _ref_dispatch(op, lam * warm_ratio, x, None)
            warm = None if isinstance(got, InnerSolverDiverged) else got.state[0]
        want = _ref_dispatch(op, lam, x, warm)
        if route is ops._radial_route and not want.residual <= ops.RESOLVENT_TOL * max(1.0, ops.norm(want.y - x)):
            msg = f"resolvent radial solve missed its bound at residual {want.residual:.3e}"
            want = InnerSolverDiverged(msg, residual=want.residual, iterations=0)
        if isinstance(want, InnerSolverDiverged) and _pivots(op):
            _assert_pivoted(op, lam, x, ops.resolvent(op, lam, x, warm=warm))
            return
        if isinstance(want, InnerSolverDiverged):
            with pytest.raises(InnerSolverDiverged) as exc:
                ops.resolvent(op, lam, x, warm=warm)
            assert str(exc.value) == str(want)
            assert exc.value.residual == want.residual
            assert exc.value.iterations == want.iterations
            return
        got = ops.resolvent(op, lam, x, warm=warm)
        assert got.y.tobytes() == want.y.tobytes()
        assert got.v.tobytes() == want.v.tobytes()
        assert (got.state is None) == (want.state is None)
        assert got.state is None or got.state[0].tobytes() == want.state[0].tobytes()
        assert got.iterations == want.iterations
        assert np.float64(got.residual).tobytes() == np.float64(want.residual).tobytes()

    def test_replace_picks_the_route_again(self):
        box = ops.BoxCone(-np.ones(4), np.ones(4))
        ball = ops.BallCone(np.zeros(4), 1.5)
        cases = [
            ("affine", box, ops._newton_route),
            ("cubic", None, ops._poly_route),
            ("cubic+box", ball, ops._newton_route),
            ("radial", box, ops._newton_route),
            ("box only", ball, ops._projection_route),
            ("psd affine+box", None, ops._affine_route),
            ("radial+box", None, ops._radial_route),
        ]
        rng = np.random.default_rng(3)
        for name, cone, route in cases:
            op = ROUTE_INSTANCES[name][0]
            moved = dataclasses.replace(op, cone=cone)
            assert moved.route is route, name
            x = rng.standard_normal(op.dim)
            got, want = ops.resolvent(moved, 0.7, x), _ref_dispatch(moved, 0.7, x, None)
            assert got.y.tobytes() == want.y.tobytes() and got.v.tobytes() == want.v.tobytes()

    @settings(max_examples=200)
    @given(
        hnp.arrays(
            np.float64,
            st.sampled_from([1, 2, 10]),
            elements=st.one_of(st.just(0.0), st.floats(-1e150, 1e150, allow_subnormal=True)),
        )
    )
    def test_norm_matches_numpy(self, v):
        assert ops.norm(v) == float(np.linalg.norm(v))
        assert type(ops.norm(v)) is float

    def test_norm_of_zeros(self):
        for n in (1, 2, 10):
            assert ops.norm(np.zeros(n)) == 0.0 == float(np.linalg.norm(np.zeros(n)))

    @settings(max_examples=300)
    @given(_poly_points())
    def test_poly_routes_match_reference(self, case):
        name, lam, x = case
        op = POLY_INSTANCES[name]
        c, dc = op.poly.ders[:2]
        for t in x:
            want = _ref_scalar_poly_root(op.poly.coeffs, lam, t)
            got = ops._scalar_poly_root(c, dc, float(lam), float(t))
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        y, v, res = _ref_poly_closed_form(op, lam, x)
        got = ops.resolvent(op, lam, x)
        assert got.y.tobytes() == y.tobytes()
        assert got.v.tobytes() == v.tobytes()
        assert np.float64(got.residual).tobytes() == np.float64(res).tobytes()
        for point in (x, y):
            assert ops.single_value(op, point).tobytes() == _ref_poly_value(op, point).tobytes()
            assert ops.single_jacobian(op, point).tobytes() == _ref_poly_jacobian(op, point).tobytes()

    @settings(max_examples=100)
    @given(
        hnp.arrays(
            np.float64,
            3,
            elements=st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf]), st.floats(-1e100, 1e100)),
        ),
        st.sampled_from(sorted(POLY_INSTANCES)),
    )
    def test_horner_matches_polyval(self, x, name):
        # Overflow and inf * 0 = NaN included: polyval's x * 0 term kept.
        with np.errstate(over="ignore", invalid="ignore"):
            for c in POLY_INSTANCES[name].poly.ders:
                assert ops._horner(c, x).tobytes() == npoly.polyval(x, np.array(c)).tobytes()
                for t in x:
                    want = npoly.polyval(t, np.array(c))
                    assert np.float64(ops._horner(c, float(t))).tobytes() == want.tobytes()



def _parent_newton_route(op, lam, x, warm):
    """The Newton route as it stood when every solve handed the kernel two
    fresh closures over single_value and single_jacobian."""
    y, step, its, state = ops.normal_map_newton(
        op,
        lam,
        x,
        lambda z: ops.single_value(op, z),
        lambda z: ops.single_jacobian(op, z),
        ops.RESOLVENT_TOL,
        ops.RESOLVENT_TOL,
        warm,
        "resolvent",
    )
    return ops.Resolvent(y, None, lam, x, iterations=its, step=step, state=state)


def _warm_start(solve, op, lam, x, kind):
    """None, or the exit state (kind "state") or its w (kind "w") of solve at lam."""
    if kind is None:
        return None
    try:
        state = solve(op, lam, x, None).state
    except InnerSolverDiverged:
        return None
    if state is None:  # pivoted, as a failure leaves no start
        return None
    return state if kind == "state" else state[0]


class TestBoundEvaluators:
    """Each operator's F and JF, bound once when it is built, give the bits
    of single_value and single_jacobian, and every Newton-route resolvent
    the bits of the parent's per-solve closures."""

    @settings(max_examples=150)
    @given(
        name=st.sampled_from(sorted(NEWTON_INSTANCES)),
        log_lam=st.floats(-3.0, 3.0),
        log_scale=st.floats(-1.0, 1.0),
        warm_ratio=st.sampled_from([0.5, 1.0, 2.0, 10.0]),
        start=st.sampled_from([None, "w", "state"]),
        seed=st.integers(0, 2**16),
    )
    def test_resolvent_matches_parent_closures(self, name, log_lam, log_scale, warm_ratio, start, seed):
        op = NEWTON_INSTANCES[name]
        assert op.route is ops._newton_route
        lam = 10.0**log_lam
        x = 10.0**log_scale * np.random.default_rng(seed).standard_normal(op.dim)
        outcomes = []
        for solve in (_parent_newton_route, ops.resolvent):
            warm = _warm_start(solve, op, lam * warm_ratio, x, start)
            try:
                outcomes.append(solve(op, lam, x, warm))
            except InnerSolverDiverged as exc:
                outcomes.append(exc)
        want, got = outcomes
        if isinstance(want, InnerSolverDiverged) and _pivots(op):
            _assert_pivoted(op, lam, x, got)
            return
        if isinstance(want, InnerSolverDiverged):
            assert isinstance(got, InnerSolverDiverged)
            assert (str(got), got.residual, got.iterations) == (str(want), want.residual, want.iterations)
            return
        assert got.iterations == want.iterations
        assert got.step == want.step and got.residual == want.residual
        for a, b in zip((got.y, got.v) + got.state, (want.y, want.v) + want.state):
            assert a.tobytes() == b.tobytes()

    def test_point_maps_match_single_value_and_jacobian(self):
        rng = np.random.default_rng(53)
        ops_ = [op for op, _ in ROUTE_INSTANCES.values()]
        ops_.append(ops.OperatorSpec(dim=4, affine=ops.AffinePart(np.eye(4), np.ones(4)), poly=ops.PolyPart([0.0, 1.0, 0.0, 2.0])))
        ops_.append(ops.OperatorSpec(dim=4, poly=ops.PolyPart([0.0, 1.0, 0.0, 2.0]), radial=ops.RadialPart(0.3)))
        ops_.append(ops.OperatorSpec(dim=4, affine=ops.AffinePart(np.eye(4), np.ones(4)), radial=ops.RadialPart(0.3)))
        for op in ops_:
            points = [np.zeros(op.dim), -np.zeros(op.dim)] + [10.0 ** rng.uniform(-3, 2) * rng.standard_normal(op.dim) for _ in range(20)]
            for z in points:
                assert op.value(z).tobytes() == ops.single_value(op, z).tobytes()
                assert op.jacobian(z).tobytes() == ops.single_jacobian(op, z).tobytes()
        lone = ops.make_affine([[1.0, 2.0], [-2.0, 0.5]], [0.5, -1.0])
        assert lone.jacobian(np.ones(2)) is lone.affine.matrix

    @pytest.mark.parametrize("name", sorted(NEWTON_INSTANCES))
    def test_pickles_and_copies_with_its_evaluators(self, name):
        op = NEWTON_INSTANCES[name]
        x = np.linspace(-1.0, 1.5, op.dim)
        want = ops.resolvent(op, 0.7, x)
        for twin in (pickle.loads(pickle.dumps(op)), copy.deepcopy(op)):
            assert twin.route is op.route and type(twin.domain) is type(op.domain)
            got = ops.resolvent(twin, 0.7, x)
            assert got.y.tobytes() == want.y.tobytes() and got.v.tobytes() == want.v.tobytes()

class TestCertificateReadLate:
    """A Resolvent's v, step ||y - x|| and residual ||lam*v + y - x||,
    carried from the solve or formed on first read, are those expressions
    on the solve's own floats, bit for bit."""

    @staticmethod
    def _check(r, lam, x, route=None):
        if r.state is None:
            assert r._v is not None  # every closed form returns its own v
        else:
            w, y, fy = r.state
            assert r.v.tobytes() == (fy + (w - y) / lam).tobytes()
            assert r.v is r.v
        assert np.float64(r.step).tobytes() == np.float64(ops.norm(r.y - x)).tobytes()
        # The projection route is exact by construction and reports 0.0.
        want = 0.0 if route is ops._projection_route else ops.norm(lam * r.v + r.y - x)
        assert np.float64(r.residual).tobytes() == np.float64(want).tobytes()

    @settings(max_examples=200)
    @given(
        name=st.sampled_from(sorted(ROUTE_INSTANCES)),
        log_lam=st.floats(-3.0, 3.0),
        log_scale=st.floats(-1.0, 1.0),
        start=st.sampled_from(["cold", "w", "state"]),
        seed=st.integers(0, 2**16),
    )
    def test_every_route_and_start(self, name, log_lam, log_scale, start, seed):
        # Newton from x, from a bare w and from an exit state; each closed
        # form and the projection ignore the start.
        op, route = ROUTE_INSTANCES[name]
        lam = 10.0**log_lam
        rng = np.random.default_rng(seed)
        x = 10.0**log_scale * rng.standard_normal(op.dim)
        warm = None
        if start != "cold":
            try:
                state = ops.resolvent(op, 2.0 * lam, x + 0.1 * rng.standard_normal(op.dim)).state
            except InnerSolverDiverged:
                return
            # Only Newton leaves a state, unless pivoting finished a failed solve.
            assert (state is None) == (route is not ops._newton_route) or _pivots(op)
            warm = state if start == "state" or state is None else state[0]
        try:
            r = ops.resolvent(op, lam, x, warm=warm)
        except InnerSolverDiverged:
            return
        # Newton forms v on first read.
        assert (r._v is None) == (route is ops._newton_route and r.state is not None)
        self._check(r, lam, x, route)

    def test_newton_exit_at_the_iteration_cap(self, monkeypatch):
        # With the cap at the iteration count a solve needs, the loop ends
        # on the cap and the exit test passes; one iteration fewer raises.
        rng, cap = np.random.default_rng(23), ops.NEWTON_MAX_ITERS
        for name, op in NEWTON_INSTANCES.items():
            x = 2.0 * rng.standard_normal(op.dim)
            monkeypatch.setattr(ops, "NEWTON_MAX_ITERS", cap)
            its = ops.resolvent(op, 2.0, x).iterations
            assert its >= 1, name
            monkeypatch.setattr(ops, "NEWTON_MAX_ITERS", its - 1)
            if _pivots(op):  # pivoting finishes the capped solve
                _assert_pivoted(op, 2.0, x, ops.resolvent(op, 2.0, x))
            else:
                with pytest.raises(InnerSolverDiverged, match="hit iteration cap"):
                    ops.resolvent(op, 2.0, x)
            monkeypatch.setattr(ops, "NEWTON_MAX_ITERS", its)
            r = ops.resolvent(op, 2.0, x)
            assert r.iterations == its and r._v is None, name
            self._check(r, 2.0, x)

    def test_newton_residual_formed_once_on_first_read(self, monkeypatch):
        op = NEWTON_INSTANCES["affine+box"]
        r = ops.resolvent(op, 0.7, np.array([1.5, -0.3, 0.9, -2.0]))
        calls, real = [], ops.norm
        monkeypatch.setattr(ops, "norm", lambda v: calls.append(1) or real(v))
        first = (r.step, r.residual)
        assert (r.step, r.residual) == first
        assert len(calls) == 1

    def test_brent_trials_form_no_v(self, monkeypatch):
        # solve_law reads the residual, and with it v, only at trials it
        # tests for acceptance; the trials Brent evaluates read the law
        # value alone and leave v unformed.
        made, real = [], ops.resolvent
        monkeypatch.setattr(feedback.ops, "resolvent", lambda *a, **k: made.append(real(*a, **k)) or made[-1])
        op = NEWTON_INSTANCES["affine+box"]
        x = np.array([1.5, -0.3, 0.9, -2.0])
        lam, r, _ = feedback.solve_law(op, x, feedback.FeedbackParams(0.05, 2))
        assert r in made and all(t.state is not None for t in made)
        assert all((t._v is None) == (t._residual is None) for t in made)
        assert sum(t._v is None for t in made) >= 3
        self._check(r, lam, x)

    def test_caller_mutating_x_changes_no_late_read(self):
        for name, (op, route) in sorted(ROUTE_INSTANCES.items()):
            x = np.linspace(-1.5, 1.2, op.dim)
            kept = x.copy()
            r = ops.resolvent(op, 0.7, x)
            x[:] = 1e3
            self._check(r, 0.7, kept, route)


def _enlargement_instances():
    return [
        ("box-affine", make_box_affine(seed=3)),
        ("affine", ops.make_affine([[2.0, 1.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0], [0, 0, 1.0, 0], [0, 0, 0, 3.0]])),
        ("poly-box", ops.make_poly([0.0, 1.0, 0.0, 1.0], dim=4, cone=ops.BoxCone(-np.ones(4), np.ones(4)))),
        ("radial", ops.OperatorSpec(dim=4, radial=ops.RadialPart(1.0))),
        ("ball", ops.make_affine(np.eye(4), cone=ops.BallCone(np.zeros(4), 1.5))),
    ]


class TestColdState:
    @settings(max_examples=100)
    @given(
        name=st.sampled_from(sorted(ROUTE_INSTANCES)),
        log_lam=st.floats(-3.0, 3.0),
        log_scale=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_cold_state_gives_the_bits_of_a_cold_start(self, name, log_lam, log_scale, seed):
        op, route = ROUTE_INSTANCES[name]
        lam = 10.0**log_lam
        x = 10.0**log_scale * np.random.default_rng(seed).standard_normal(op.dim)
        start = ops.cold_state(op, x)
        assert (start is None) == (route is not ops._newton_route)
        try:
            want = ops.resolvent(op, lam, x)
        except InnerSolverDiverged as exc:
            with pytest.raises(InnerSolverDiverged) as got:
                ops.resolvent(op, lam, x, warm=start)
            assert str(got.value) == str(exc)
            return
        got = ops.resolvent(op, lam, x, warm=start)
        assert got.iterations == want.iterations
        for a, b in zip((got.y, got.v) + (got.state or ()), (want.y, want.v) + (want.state or ())):
            assert a.tobytes() == b.tobytes()


class TestResidualAndEnlargement:
    def test_min_norm_residual_cases(self):
        op = make_box_affine(seed=19)
        assert ops.min_norm_residual(op, [2.0, 0.0, 0.0, 0.0]) == np.inf
        interior = np.array([0.1, -0.2, 0.05, 0.15])
        expected = np.linalg.norm(ops.single_value(op, interior))
        assert ops.min_norm_residual(op, interior) == pytest.approx(expected)

    def test_min_norm_residual_zero_at_solution(self):
        skew = ops.make_affine(
            [[0.0, 1.0], [-1.0, 0.0]], cone=ops.BoxCone(-np.ones(2), np.ones(2))
        )
        assert ops.min_norm_residual(skew, [0.0, 0.0]) == 0.0

    def test_boundary_residual_discounts_normal_cone(self):
        # At the upper face an outward force is absorbed by the cone.
        cone = ops.BoxCone(-np.ones(1), np.ones(1))
        op = ops.make_affine([[1.0]], [-2.0], cone=cone)  # F(u) = u - 2
        assert ops.min_norm_residual(op, [1.0]) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("name,op", _enlargement_instances())
    @pytest.mark.parametrize("strided", [False, True])
    def test_enlargement_check_matches_reference(self, name, op, strided):
        # The exact membership audit that replaced the sampled enlargement
        # check, on the instances and random (y, v) that pinned it, half of
        # them with y projected onto the domain: -inf outside it, else the
        # tolerance less the domain residual of F(y) - v, bit for bit
        # against the box and whole-space copies and within 1e-14 ||g|| of
        # the ball's exact residual.  Strided caller arrays give the bits
        # of their contiguous copies.
        rng = np.random.default_rng(5)
        for k in range(40):
            scale = 10.0 ** rng.uniform(-6, 6)
            ys, vs = rng.standard_normal(8) * scale, rng.standard_normal(8) * scale
            if k % 2:
                ys[::2] = op.domain.project(ys[::2].copy())
            y, v = (ys[::2], vs[1::2]) if strided else (ys[::2].copy(), vs[1::2].copy())
            got = checks._membership_margin(op, y, v)
            y, v = y.copy(), v.copy()
            assert np.float64(got).tobytes() == np.float64(checks._membership_margin(op, y, v)).tobytes()
            inside = _ref_domain_contains(op, y)
            if inside is None:  # within rounding of a ball's edge
                continue
            if not inside:
                assert got == -math.inf
                continue
            fy = ops.single_value(op, y)
            g = fy - v
            tol = 1e-12 * (1.0 + float(np.linalg.norm(v)) + float(np.linalg.norm(fy)))
            if isinstance(op.cone, ops.BallCone):
                assert abs(got - (tol - _exact_ball_residual(op.cone, y, g))) <= 1e-14 * ops.norm(g) + 1e-16 * tol
            else:
                assert np.float64(got).tobytes() == np.float64(tol - _ref_cone_residual(op.cone, y, g)).tobytes()

    def test_nan_direction_or_point_outside_fails(self):
        op = make_box_affine(seed=23)
        r = ops.resolvent(op, 1.2, np.array([1.0, 2.0, -1.5, 0.2]))
        nan_v = r.v.copy()
        nan_v[1] = np.nan
        assert math.isnan(checks._membership_margin(op, r.y, nan_v))
        assert checks._membership_margin(op, np.array([2.0, 0.0, 0.0, 0.0]), r.v) == -math.inf
        assert checks._membership_margin(op, np.array([np.nan, 0.0, 0.0, 0.0]), r.v) == -math.inf
        # One bad step fails the line that folds every step's margin.
        for bad in ((r.y, nan_v), (r.y + 1.0, r.v)):
            rep = CheckReport()
            rep.add("output direction lies in A(y)", *worst(checks._membership_margin(op, *p) for p in ((r.y, r.v), bad)))
            assert [o.passed for o in rep.outcomes] == [False]
        assert checks._membership_margin(op, r.y, r.v) >= 0.0

    def test_radial_closed_form_on_strided_input(self):
        op = ops.OperatorSpec(dim=4, radial=ops.RadialPart(1.0))
        rng = np.random.default_rng(9)
        for _ in range(200):
            big = rng.standard_normal(8) * 10.0 ** rng.uniform(-5, 5)
            lam = 10.0 ** rng.uniform(-4, 4)
            got, want = ops.resolvent(op, lam, big[::2]), ops.resolvent(op, lam, big[::2].copy())
            assert got.y.tobytes() == want.y.tobytes() and got.v.tobytes() == want.v.tobytes()
            s = float(np.linalg.norm(big[::2]))
            r = ops._radial_root(1.0, lam, s)
            assert got.y.tobytes() == ((r / s) * big[::2]).tobytes()

    @settings(max_examples=300)
    @given(
        name=st.sampled_from(sorted(ROUTE_INSTANCES)),
        log_lam=st.floats(-3.0, 3.0),
        log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**16),
    )
    def test_exact_pairs_lie_in_A_y(self, name, log_lam, log_scale, seed):
        # Every route builds v in A(y) exactly, so the audit passes up to
        # the rounding of v - F(y) and of a projection onto a ball.
        op, _ = ROUTE_INSTANCES[name]
        x = 10.0**log_scale * np.random.default_rng(seed).standard_normal(op.dim)
        try:
            r = ops.resolvent(op, 10.0**log_lam, x)
        except InnerSolverDiverged:
            return
        assert checks._membership_margin(op, r.y, r.v) >= 0.0

    def test_perturbed_pair_passes_verify_step_only(self):
        # The first exact step of the 10-d saddle gate from 0.7 * 1, with v
        # moved so that ||lam*v + y - x|| = 9.0e-5: verify_step's absolute
        # 1e-8 slack passes it, the membership audit does not.
        prob = problems.make_bilinear_saddle(10)
        cfg = HpeConfig(0.0, 1.5e-3, 2, 1)
        x = np.full(10, 0.7)
        lam, y, v, eps, _ = exact_oracle(prob, x, cfg)
        assert checks._membership_margin(prob.operator, y, v) >= 0.0
        moved = v + 9.0e-5 / lam * (np.ones(10) / math.sqrt(10.0))
        assert ops.norm(lam * moved + y - x) == pytest.approx(9.0e-5, rel=1e-9)
        cert = verify_step(cfg, x, lam, y, moved, eps)
        assert 0.0 <= cert.relative_error_slack < 1e-8 and cert.large_step_slack >= 0.0
        assert checks._membership_margin(prob.operator, y, moved) < -1e-3


def _ref_box_contains(cone, x, atol=ops.BOUNDARY_ATOL):
    scale = 1.0 + np.maximum(np.abs(cone.lower), np.abs(cone.upper))
    return bool(np.all(x >= cone.lower - atol * scale) and np.all(x <= cone.upper + atol * scale))


def _ref_box_residual(cone, x, g):
    scale = 1.0 + np.maximum(np.abs(cone.lower), np.abs(cone.upper))
    at_hi = x >= cone.upper - ops.BOUNDARY_ATOL * scale
    at_lo = x <= cone.lower + ops.BOUNDARY_ATOL * scale
    r = g.copy()
    r[at_hi & (g < 0)] = 0.0
    r[at_lo & (g > 0)] = 0.0
    return ops.norm(r)


# Copies of the one-point domain helpers as they stood before each domain
# kind carried its own operations: each tests the cone's kind per call.


def _ref_domain_project(op, x):
    x = np.asarray(x, dtype=float)
    c = op.cone
    if c is None:
        return x.copy()
    if isinstance(c, ops.BoxCone):
        return np.minimum(np.maximum(x, c.lower), c.upper)
    r = x - c.center
    nr = ops.norm(r)
    if nr <= c.radius:
        return x.copy()
    return c.center + (c.radius / nr) * r


def _ref_domain_contains(op, x, atol=ops.BOUNDARY_ATOL):
    x = np.asarray(x, dtype=float)
    c = op.cone
    if c is None:
        return True
    if isinstance(c, ops.BoxCone):
        if atol == ops.BOUNDARY_ATOL:
            lo, hi = c.lower_out, c.upper_out
        else:
            lo, hi = c.lower - atol * c.scale, c.upper + atol * c.scale
        return bool((x >= lo).all() and (x <= hi).all())
    return _exact_ball_verdict(c, x, c.radius + atol * _ball_scale(c))


def _ref_domain_sup_dist_sq(op, x0):
    x0 = np.asarray(x0, dtype=float)
    c = op.cone
    if isinstance(c, ops.BoxCone):
        far = np.where(np.abs(c.lower - x0) > np.abs(c.upper - x0), c.lower, c.upper)
        return float(np.sum((far - x0) ** 2))
    if isinstance(c, ops.BallCone):
        return (ops.norm(x0 - c.center) + c.radius) ** 2
    raise ValueError("domain is unbounded")


def _ball_scale(cone):
    return 1.0 + ops.norm(cone.center) + cone.radius


def _exact_ball_verdict(cone, x, edge):
    """Whether ||x - center|| < edge, in exact arithmetic, or None where
    the float distance may round to either side of edge: its square lies
    within (d + 3) * 2^-52 relative of the exact one."""
    d2 = sum((Fraction(a) - Fraction(c)) ** 2 for a, c in zip(x.tolist(), cone.center.tolist()))
    e2 = Fraction(edge) ** 2
    band = Fraction(x.size + 3, 2**52)
    if d2 < e2 * (1 - band):
        return True
    if d2 > e2 * (1 + band):
        return False
    return None


def _ref_cone_residual(cone, x, g):
    if cone is None:
        return ops.norm(g)
    cancel = ((x >= cone.upper_in) & (g < 0)) | ((x <= cone.lower_in) & (g > 0))
    return ops.norm(np.where(cancel, 0.0, g))


def _exact_ball_residual(cone, x, g):
    """BallCone.residual(x, g) at 50 digits, on the branch its float test of
    ||x - center|| against the boundary tolerance takes: x - center, its
    squared norm and g . (x - center) exact as fractions, the root in
    decimal.  The tangent part is sqrt(g.g - (g.r)^2 / r.r), r = x - center."""
    r = [Fraction(a) - Fraction(c) for a, c in zip(x.tolist(), cone.center.tolist())]
    gf = [Fraction(v) for v in g.tolist()]
    gg, gr = sum(v * v for v in gf), sum(a * b for a, b in zip(gf, r))
    sq = gg
    if ops.norm(x - cone.center) >= cone.radius_in and gr < 0:
        sq -= gr * gr / sum(v * v for v in r)
    with decimal.localcontext(decimal.Context(prec=50)):
        return float((decimal.Decimal(sq.numerator) / decimal.Decimal(sq.denominator)).sqrt())


def _ref_in_interior(op, x):
    c = op.cone
    if c is None:
        return True
    if isinstance(c, ops.BoxCone):
        return bool((x > c.lower_in).all() and (x < c.upper_in).all())
    return _exact_ball_verdict(c, x, c.radius - ops.BOUNDARY_ATOL * _ball_scale(c))


def _ref_normal_map_jacobian(cone, lam, jf, w):
    eye = np.eye(w.size)
    if isinstance(cone, ops.BoxCone):
        mask = ((w > cone.lower) & (w < cone.upper)).astype(float)
        return eye + lam * (jf * mask), mask
    dp = None
    if cone is not None:
        r = w - cone.center
        nr = ops.norm(r)
        if nr > cone.radius:
            u = r / nr
            dp = (cone.radius / nr) * (eye - np.outer(u, u))
    return eye + lam * (jf if dp is None else jf @ dp), dp


def _bits(a):
    return None if a is None else (np.asarray(a).dtype, np.asarray(a).shape, np.asarray(a).tobytes())


def _check_domain_against_reference(op, xs, gs, lam, jf):
    """Every operation of op.domain, on each row of the stack xs (with the
    same row of gs) and on the whole stack, against the reference copies;
    the ball's membership and interior against its edges in exact
    arithmetic, outside the rounding of the distance, and its residual
    within 1e-14 ||g|| of the exact one."""
    dom, cone = op.domain, op.cone
    ball = isinstance(cone, ops.BallCone)
    for x, g in zip(xs, gs):
        assert _bits(dom.project(x)) == _bits(_ref_domain_project(op, x))
        for atol in (ops.BOUNDARY_ATOL, 1e-9):
            want = _ref_domain_contains(op, x, atol)
            assert want is None or bool(dom.contains(x, atol)) is want
        if dom.contains(x):  # residual is defined on the domain
            got = dom.residual(x, g)
            assert type(got) is float
            if ball:
                # The floor: g . g underflows when every |g_i| < sqrt(tiny).
                floor = math.sqrt(g.size * np.finfo(float).tiny)
                assert abs(got - _exact_ball_residual(cone, x, g)) <= 1e-14 * ops.norm(g) + floor
            else:
                assert np.float64(got).tobytes() == np.float64(_ref_cone_residual(cone, x, g)).tobytes()
        want = _ref_in_interior(op, x)
        assert want is None or bool(dom.interior(x)) is want
        n, dp = dom.jacobian(lam, jf, x)
        want_n, want_dp = _ref_normal_map_jacobian(cone, lam, jf, x)
        assert (_bits(n), _bits(dp)) == (_bits(want_n), _bits(want_dp))
        if cone is None:
            with pytest.raises(ValueError, match="domain is unbounded"):
                dom.sup_dist_sq(x)
        else:
            assert np.float64(dom.sup_dist_sq(x)).tobytes() == np.float64(_ref_domain_sup_dist_sq(op, x)).tobytes()
    assert _bits(dom.project(xs)) == _bits(np.array([_ref_domain_project(op, x) for x in xs]).reshape(xs.shape))
    # A ball stack's rows are compared with the one-point calls, checked above.
    contains = dom.contains if ball else functools.partial(_ref_domain_contains, op)
    interior = dom.interior if ball else functools.partial(_ref_in_interior, op)
    for atol in (ops.BOUNDARY_ATOL, 1e-9):
        assert _bits(dom.contains(xs, atol)) == _bits(np.array([bool(contains(x, atol)) for x in xs]))
    assert _bits(dom.interior(xs)) == _bits(np.array([bool(interior(x)) for x in xs]))
    inside = np.array([bool(contains(x)) for x in xs], dtype=bool)
    row = dom.residual if ball else functools.partial(_ref_cone_residual, cone)
    want = np.array([row(x, g) for x, g in zip(xs[inside], gs[inside])], dtype=float)
    assert _bits(dom.residual(xs[inside], gs[inside])) == _bits(want)


@st.composite
def _box_points(draw, stack=False):
    """A box and points on, just inside and just outside its tolerance
    edges, with a g for each: one point, or with stack an (n, d) stack of
    them and of their g."""
    d = draw(st.integers(1, 6))
    mag = st.floats(-1e3, 1e3, allow_subnormal=False)
    lower = np.array(draw(st.lists(mag, min_size=d, max_size=d)))
    width = np.array(draw(st.lists(st.sampled_from([0.0, 1e-12, 1e-3, 1.0, 50.0]), min_size=d, max_size=d)))
    upper = lower + width
    scale = 1.0 + np.maximum(np.abs(lower), np.abs(upper))
    edges = [
        lower, upper,
        lower - ops.BOUNDARY_ATOL * scale, lower + ops.BOUNDARY_ATOL * scale,
        upper - ops.BOUNDARY_ATOL * scale, upper + ops.BOUNDARY_ATOL * scale,
        lower - 1e-9 * scale, upper + 1e-9 * scale,
    ]
    xs, gs = [], []
    for _ in range(draw(st.integers(1, 4)) if stack else 1):
        pick = draw(st.lists(st.integers(0, len(edges) + 1), min_size=d, max_size=d))
        nudge = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=d, max_size=d))
        x = np.empty(d)
        for i, (k, step) in enumerate(zip(pick, nudge)):
            if k < len(edges):
                x[i] = edges[k][i]
                for _ in range(abs(step)):
                    x[i] = np.nextafter(x[i], step * np.inf)
            else:
                x[i] = lower[i] + width[i] * (0.5 if k == len(edges) else 0.25)
        xs.append(x)
        gs.append(np.array(draw(st.lists(st.sampled_from([-2.5, -1e-8, 0.0, -0.0, 1e-8, 3.0]), min_size=d, max_size=d))))
    if stack:
        return ops.BoxCone(lower, upper), np.array(xs), np.array(gs)
    return ops.BoxCone(lower, upper), xs[0], gs[0]


class TestBoxConeBitIdentity:
    """The stored box scale and edges, and the box's operations on a point
    and on a stack, give the bits of the computation per call."""

    @settings(max_examples=300)
    @given(_box_points())
    def test_contains_and_residual(self, case):
        cone, x, g = case
        op = ops.make_affine(np.eye(len(x)), cone=cone)
        assert np.array_equal(cone.scale, 1.0 + np.maximum(np.abs(cone.lower), np.abs(cone.upper)))
        for atol in (ops.BOUNDARY_ATOL, 1e-9):
            assert bool(op.domain.contains(x, atol)) is _ref_box_contains(cone, x, atol)
        got = cone.residual(x, g)
        assert np.float64(got).tobytes() == np.float64(_ref_box_residual(cone, x, g)).tobytes()

    @settings(max_examples=300)
    @given(_box_points(stack=True), st.sampled_from([1e-3, 0.7, 30.0]), st.integers(0, 2**16))
    def test_domain_operations_match_reference(self, case, lam, seed):
        cone, xs, gs = case
        jf = np.random.default_rng(seed).standard_normal((xs.shape[1], xs.shape[1]))
        _check_domain_against_reference(ops.make_affine(np.eye(xs.shape[1]), cone=cone), xs, gs, lam, jf)

    @settings(max_examples=300)
    @given(_box_points())
    def test_stored_edges(self, case):
        cone, _, _ = case
        scale = 1.0 + np.maximum(np.abs(cone.lower), np.abs(cone.upper))
        edge = ops.BOUNDARY_ATOL * scale
        assert cone.lower_out.tobytes() == (cone.lower - edge).tobytes()
        assert cone.upper_out.tobytes() == (cone.upper + edge).tobytes()
        assert cone.lower_in.tobytes() == (cone.lower + edge).tobytes()
        assert cone.upper_in.tobytes() == (cone.upper - edge).tobytes()
        for a in (cone.scale, cone.lower_out, cone.upper_out, cone.lower_in, cone.upper_in):
            assert not a.flags.writeable


@st.composite
def _ball_points(draw):
    """A ball and an (n, d) stack of points at its center, inside, on its
    sphere and at its tolerance edges, each moved by up to one ulp, with a
    g per point: random, along the outward normal, against it (where a
    normal vector cancels g exactly) or across it."""
    d = draw(st.integers(1, 5))
    mag = st.floats(-1e3, 1e3, allow_subnormal=False)
    center = np.array(draw(st.lists(mag, min_size=d, max_size=d)))
    radius = draw(st.sampled_from([1e-6, 0.5, 1.0, 37.0, 2e3]))
    scale = 1.0 + float(np.linalg.norm(center)) + radius
    dists = [
        0.0, 0.5 * radius, radius,
        radius - ops.BOUNDARY_ATOL * scale, radius + ops.BOUNDARY_ATOL * scale, radius + 1e-9 * scale, 2.0 * radius,
    ]
    unit = st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=d, max_size=d)
    xs, gs = [], []
    for _ in range(draw(st.integers(1, 4))):
        u = np.array(draw(unit))
        nu = float(np.linalg.norm(u))
        u = u / nu if nu > 1e-3 else np.eye(d)[0]
        x = center + draw(st.sampled_from(dists)) * u
        nudge = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=d, max_size=d))
        for i, step in enumerate(nudge):
            if step:
                x[i] = np.nextafter(x[i], step * np.inf)
        s = draw(st.sampled_from([1e-8, 1.0, 3.0]))
        kind = draw(st.sampled_from(["random", "out", "in", "across"]))
        g = np.array(draw(st.lists(st.floats(-3.0, 3.0, allow_subnormal=False), min_size=d, max_size=d)))
        if kind == "out":
            g = s * u
        elif kind == "in":
            g = -s * u
        elif kind == "across":
            g = -s * u + 1e-3 * g
        xs.append(x)
        gs.append(g)
    return ops.BallCone(center, radius), np.array(xs), np.array(gs)


class TestBallConeBitIdentity:
    """The whole space's operations give the bits of the per-call dispatch
    they replace, on one point and on a stack, and so do the ball's
    projection, Jacobian and sup_dist_sq; its membership and interior agree
    with its edges in exact arithmetic, and its residual comes within
    1e-14 ||g|| of the exact one."""

    @settings(max_examples=300)
    @given(_ball_points(), st.sampled_from([1e-3, 0.7, 30.0]), st.integers(0, 2**16))
    def test_ball_operations_match_reference(self, case, lam, seed):
        cone, xs, gs = case
        jf = np.random.default_rng(seed).standard_normal((xs.shape[1], xs.shape[1]))
        _check_domain_against_reference(ops.make_affine(np.eye(xs.shape[1]), cone=cone), xs, gs, lam, jf)

    @settings(max_examples=100)
    @given(
        hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 5)), elements=st.floats(-1e3, 1e3)),
        st.sampled_from([1e-3, 0.7, 30.0]),
        st.integers(0, 2**16),
    )
    def test_whole_space_operations_match_reference(self, xs, lam, seed):
        rng = np.random.default_rng(seed)
        gs = rng.standard_normal(xs.shape)
        jf = rng.standard_normal((xs.shape[1], xs.shape[1]))
        _check_domain_against_reference(ops.make_affine(np.eye(xs.shape[1])), xs, gs, lam, jf)

    def test_center_is_interior(self):
        # radius > 0 keeps the center off the sphere, so the residual there
        # never divides by a zero distance.
        cone = ops.BallCone([1.0, -2.0], 1e-6)
        op = ops.make_affine(np.eye(2), cone=cone)
        x, g = cone.center.copy(), np.array([3.0, -4.0])
        assert op.domain.interior(x)
        assert cone.residual(x, g) == 5.0
        assert op.domain.jacobian(0.5, np.eye(2), x)[1] is None
        assert op.domain.project(x).tobytes() == x.tobytes()

    def test_nan_residual_is_not_a_certificate(self):
        # inner = g . u is -inf at an overflowed g and NaN at a NaN x: the
        # residual reads NaN there, never the 0.0 of a stationary point.
        cone = ops.BallCone([0.0, 0.0], 1.0)
        on_sphere = np.array([1.0, 0.0])
        assert math.isnan(cone.residual(on_sphere, np.asarray([-np.inf, 1.0])))
        assert math.isnan(cone.residual(np.asarray([np.nan, 0.0]), np.asarray([-1.0, 1.0])))
        stack = cone.residual(np.array([on_sphere, on_sphere]), np.array([[-np.inf, 1.0], [-3.0, 4.0]]))
        assert math.isnan(stack[0]) and stack[1] == 4.0
        # A finite g normal to the sphere inward still cancels exactly.
        assert cone.residual(on_sphere, np.asarray([-2.0, 0.0])) == 0.0


class TestBallEdges:
    """The ball's tolerance edges scale with 1 + ||center|| + radius, as a
    box's do with its bounds: a projection lands on the sphere only to
    within the rounding of the center."""

    @settings(max_examples=100)
    @given(_ball_points())
    def test_stored_edges(self, case):
        cone, _, _ = case
        scale = _ball_scale(cone)
        assert cone.scale == scale
        assert cone.radius_out == cone.radius + ops.BOUNDARY_ATOL * scale
        assert cone.radius_in == cone.radius - ops.BOUNDARY_ATOL * scale

    def test_projection_far_from_the_origin(self):
        # At the edge radius * (1 + BOUNDARY_ATOL) the ball had before, this
        # projection lay 1.46e-12 outside: contains was False, the residual inf.
        cone = ops.BallCone([3e4, -4e4], 1.0)
        y = cone.project(np.array([3e4 + 3.0, -4e4 + 4.0]))
        assert cone.contains(y)
        assert math.isfinite(ops.min_norm_residual(ops.make_affine(np.eye(2), cone=cone), y))

    def test_projections_lie_in_the_ball(self):
        # Center norm 1 to 1e8, radius 1e-3 to 10, d 1 to 5, points outside
        # the ball: the projection overshoots the sphere by at most a few
        # ulps of scale (523 of these draws fell outside the edge
        # radius * (1 + BOUNDARY_ATOL) the ball had before).
        rng = np.random.default_rng(28)
        worst = 0.0
        for _ in range(2000):
            d = int(rng.integers(1, 6))
            u = rng.standard_normal(d)
            center = 10.0 ** rng.uniform(0.0, 8.0) * u / ops.norm(u)
            cone = ops.BallCone(center, 10.0 ** rng.uniform(-3.0, 1.0))
            w = rng.standard_normal(d)
            y = cone.project(center + cone.radius * (1.0 + 10.0 ** rng.uniform(-3.0, 3.0)) * w / ops.norm(w))
            assert cone.contains(y)
            op = ops.make_affine(np.eye(d), cone=cone)
            assert math.isfinite(ops.min_norm_residual(op, y))
            worst = max(worst, (ops.norm(y - center) - cone.radius) / cone.scale)
        assert worst <= 1e-15

    def test_rejects_a_radius_inside_its_tolerance(self):
        # Such a ball has no interior at the tolerance: not even its center.
        with pytest.raises(ValueError, match="ball radius must exceed its boundary tolerance"):
            ops.BallCone([1e6, 0.0], 1e-7)
        assert ops.BallCone([1e6, 0.0], 1e-5).interior(np.array([1e6, 0.0]))


class TestBallResidualCancellation:
    def test_inward_normal_sweep(self):
        # g along the inward normal at points on spheres (d 2 to 10, random
        # center, radius e^-2 to e^2): the tangent part is at rounding level,
        # where sqrt(g.g - inner^2) read up to 2.7e-8 ||g|| on these draws.
        rng = np.random.default_rng(20)
        worst = 0.0
        for _ in range(2000):
            d = int(rng.integers(2, 11))
            cone = ops.BallCone(rng.standard_normal(d), math.exp(rng.uniform(-2.0, 2.0)))
            u = rng.standard_normal(d)
            u /= ops.norm(u)
            x = cone.center + cone.radius * u
            g = -math.exp(rng.uniform(-3.0, 3.0)) * u
            worst = max(worst, abs(cone.residual(x, g) - _exact_ball_residual(cone, x, g)) / ops.norm(g))
        assert worst <= 1e-14


class TestTaylorSurrogate:
    def test_affine_reproduced_exactly(self):
        op = make_box_affine(seed=29)
        rng = np.random.default_rng(31)
        anchor = rng.standard_normal(4)
        for _ in range(5):
            u = rng.standard_normal(4)
            want = ops.single_value(op, u)
            got = ops.TaylorSurrogate(op, anchor, 2).value(u)
            assert np.allclose(got, want, atol=1e-12)

    def test_cubic_second_order_formula(self):
        op = ops.make_poly([0.0, 0.0, 0.0, 1.0])
        a, u = 0.5, 1.25
        want = a**3 + 3 * a**2 * (u - a) + 3 * a * (u - a) ** 2
        got = ops.TaylorSurrogate(op, [a], 3).value([u])
        assert got[0] == pytest.approx(want, abs=1e-12)

    def test_frozen_value_for_first_order(self):
        op = ops.make_poly([0.0, 0.0, 0.0, 1.0])
        got = ops.TaylorSurrogate(op, [0.5], 1).value([3.0])
        assert got[0] == pytest.approx(0.125, abs=1e-15)

    def test_jacobian_matches_value_fd(self):
        op = ops.make_poly([0.0, 1.0, 0.0, 1.0])
        a = np.array([0.8])
        u = np.array([1.1])
        eps = 1e-7
        sur = ops.TaylorSurrogate(op, a, 3)
        fd = (sur.value(u + eps) - sur.value(u - eps)) / (2 * eps)
        jac = sur.jacobian(u)
        assert jac[0, 0] == pytest.approx(fd[0], abs=1e-6)


# Reference copy of the Taylor surrogate as it stood before its anchor
# terms were evaluated once per surrogate: every call rebuilds the
# polynomial derivatives and re-evaluates them at the anchor.
# TaylorSurrogate must reproduce it bit for bit, signed zeros included.


def _ref_poly_ders(coeffs, order):
    ders = [coeffs]
    while len(ders) <= order:
        ders.append(npoly.polyder(ders[-1]))
    return ders


def _ref_taylor_value(op, anchor, p, u):
    anchor = np.asarray(anchor, dtype=float)
    u = np.asarray(u, dtype=float)
    h = u - anchor
    out = np.zeros(op.dim)
    if op.affine is not None:
        m, q = op.affine.matrix, op.affine.offset
        out += m @ anchor + q if p == 1 else m @ u + q
    if op.poly is not None:
        ders = _ref_poly_ders(op.poly.coeffs, p - 1)
        fact = 1.0
        acc = np.zeros(op.dim)
        hk = np.ones(op.dim)
        for j in range(p):
            if j > 0:
                fact *= j
                hk = hk * h
            acc += npoly.polyval(anchor, ders[j]) * hk / fact
        out += acc
    if op.radial is not None:
        a = anchor
        acc = float(a @ a) * a
        if p >= 2:
            acc = acc + float(a @ a) * h + 2.0 * float(a @ h) * a
        if p >= 3:
            acc = acc + float(h @ h) * a + 2.0 * float(a @ h) * h
        if p >= 4:
            acc = acc + float(h @ h) * h
        out += op.radial.weight * acc
    return out


def _ref_taylor_jacobian(op, anchor, p, u):
    anchor = np.asarray(anchor, dtype=float)
    u = np.asarray(u, dtype=float)
    h = u - anchor
    out = np.zeros((op.dim, op.dim))
    if op.affine is not None and p >= 2:
        out += op.affine.matrix
    if op.poly is not None and p >= 2:
        ders = _ref_poly_ders(op.poly.coeffs, p - 1)
        fact = 1.0
        diag = np.zeros(op.dim)
        hk = np.ones(op.dim)
        for j in range(1, p):
            fact *= j
            diag += npoly.polyval(anchor, ders[j]) * hk * j / fact
            hk = hk * h
        out += np.diag(diag)
    if op.radial is not None and p >= 2:
        a = anchor
        eye = np.eye(op.dim)
        jac = float(a @ a) * eye + 2.0 * np.outer(a, a)
        if p >= 3:
            jac = jac + 2.0 * np.outer(a, h) + 2.0 * np.outer(h, a) + 2.0 * float(a @ h) * eye
        if p >= 4:
            jac = jac + 2.0 * np.outer(h, h) + float(h @ h) * eye
        out += op.radial.weight * jac
    return out


def _ref_surrogate_resolvent(problem, anchor, x, lam, cfg, warm=None):
    """(y, u, (w, y, value(y))) as surrogate_resolvent returns them, or the error raised."""
    op = problem.operator
    p = cfg.p
    x = np.asarray(x, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    floor = 1e-14 * (1.0 + float(np.linalg.norm(x)))
    try:
        y, _, _, (w, _, fy) = ops.normal_map_newton(
            op,
            lam,
            x,
            lambda z: _ref_taylor_value(op, anchor, p, z),
            lambda z: _ref_taylor_jacobian(op, anchor, p, z),
            cfg.sigma_hat,
            floor,
            warm,
            "surrogate",
        )
    except InnerSolverDiverged as exc:
        return exc
    return y, _ref_taylor_value(op, anchor, p, y) + (w - y) / lam, (w, y, fy)


def _surrogate_instances():
    rng = np.random.default_rng(43)
    g = rng.standard_normal((4, 4))
    m = g @ g.T / 4.0 + (g - g.T)
    return {
        "cubic d=1": ops.make_poly([0.0, 0.0, 0.0, 1.0]),
        "cubic+linear d=3": ops.make_poly([0.0, 1.0, 0.0, 1.0], dim=3),
        "radial d=2": ops.OperatorSpec(dim=2, radial=ops.RadialPart(1.0)),
        "radial d=4": ops.OperatorSpec(dim=4, radial=ops.RadialPart(0.7)),
        "affine d=4": ops.make_affine(m, rng.standard_normal(4)),
        "affine+poly+radial d=4": ops.OperatorSpec(
            dim=4,
            affine=ops.AffinePart(m, rng.standard_normal(4)),
            poly=ops.PolyPart([0.0, 0.5, 0.0, 1.0]),
            radial=ops.RadialPart(0.2),
        ),
    }


SURROGATE_INSTANCES = _surrogate_instances()
SURROGATE_PROBLEMS = {"cubic_1d": problems.make_cubic_1d(), "convex_gradient": problems.make_convex_gradient(d=4)}


def _surrogate_config(p):
    return TensorConfig(sigma_hat=0.1, sigma_l=0.2, sigma_u=0.8, L=6.0, p=p)


class TestSurrogateBitIdentity:
    """TaylorSurrogate and surrogate_resolvent match the reference copy exactly."""

    @settings(max_examples=300)
    @given(
        name=st.sampled_from(sorted(SURROGATE_INSTANCES)),
        p=st.integers(1, 4),
        anchor_scale=st.sampled_from([0.0, 1e-3, 1.0, 1e3]),
        step_scale=st.sampled_from([0.0, 1e-8, 0.1, 1.0, 10.0]),
        seed=st.integers(0, 2**16),
    )
    def test_value_and_jacobian(self, name, p, anchor_scale, step_scale, seed):
        # A zero scale draws signed zeros; step_scale = 0 puts u at the anchor.
        op = SURROGATE_INSTANCES[name]
        rng = np.random.default_rng(seed)
        anchor = anchor_scale * rng.standard_normal(op.dim)
        u = anchor + step_scale * rng.standard_normal(op.dim)
        sur = ops.TaylorSurrogate(op, anchor, p)
        for point in (u, anchor):
            assert sur.value(point).tobytes() == _ref_taylor_value(op, anchor, p, point).tobytes()
            assert sur.jacobian(point).tobytes() == _ref_taylor_jacobian(op, anchor, p, point).tobytes()

    def check_resolvent(self, problem, anchor, x, lam, cfg, warm=None):
        want = _ref_surrogate_resolvent(problem, anchor, x, lam, cfg, warm)
        sur = ops.TaylorSurrogate(problem.operator, anchor, cfg.p)
        if isinstance(want, Exception):
            with pytest.raises(type(want)) as exc:
                surrogate_resolvent(sur, x, lam, cfg.sigma_hat, warm=warm)
            if str(exc.value).startswith(tensor.UNSOLVABLE):
                # Certified before Newton ran; the reference Newton failed too.
                assert isinstance(want, InnerSolverDiverged)
                assert exc.value.iterations == 0
            else:
                assert str(exc.value) == str(want)
            return
        got = surrogate_resolvent(sur, x, lam, cfg.sigma_hat, warm=warm)
        # y, u and the exit state (w, y, value(y)).
        for a, b in zip(got[:2] + got[2], want[:2] + want[2]):
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=120)
    @given(
        name=st.sampled_from(sorted(SURROGATE_PROBLEMS)),
        p=st.integers(1, 4),
        log_lam=st.floats(-2.0, 3.0),
        log_scale=st.floats(-1.0, 0.5),
        warm_ratio=st.sampled_from([None, 0.5, 2.0]),
        warm_state=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_surrogate_resolvent(self, name, p, log_lam, log_scale, warm_ratio, warm_state, seed):
        problem = SURROGATE_PROBLEMS[name]
        cfg = _surrogate_config(p)
        lam = 10.0**log_lam
        x = 10.0**log_scale * np.random.default_rng(seed).standard_normal(problem.operator.dim)
        warm = None
        if warm_ratio is not None:
            # A warm start as the window search passes it: the exit state of
            # a nearby lam (a trial after the first) or its w alone (the
            # first trial, from the step before).
            try:
                sur = ops.TaylorSurrogate(problem.operator, x, p)
                warm = surrogate_resolvent(sur, x, lam * warm_ratio, cfg.sigma_hat)[2]
                warm = warm if warm_state else warm[0]
            except InnerSolverDiverged:
                pass
        self.check_resolvent(problem, x, x, lam, cfg, warm)

    @settings(max_examples=200)
    @given(
        name=st.sampled_from(sorted(POLY_INSTANCES)),
        p=st.integers(1, 7),
        anchor=hnp.arrays(
            np.float64, 3, elements=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))
        ),
    )
    def test_anchor_values(self, name, p, anchor):
        # p up to 7 runs past the end of every stored chain (quintic: 7 entries).
        op = POLY_INSTANCES[name]
        a = anchor[: op.dim]
        want = [npoly.polyval(a, c) for c in _ref_poly_ders(op.poly.coeffs, p - 1)]
        got = ops.TaylorSurrogate(op, a, p).ders
        assert len(got) == p
        for gj, wj in zip(got, want):
            assert gj.tobytes() == wj.tobytes()

    def test_unsolvable_surrogate(self):
        # lam * x^2 = 2.61 is past the anchored quadratic's solvability
        # knee (its discriminant 1 + 6 lam x^2 - 3 lam^2 x^4 < 0): no root.
        x = np.array([0.159629])
        want = _ref_surrogate_resolvent(SURROGATE_PROBLEMS["cubic_1d"], x, x, 102.4, _surrogate_config(3))
        assert isinstance(want, InnerSolverDiverged)
        self.check_resolvent(SURROGATE_PROBLEMS["cubic_1d"], x, x, 102.4, _surrogate_config(3))

    def test_unsolvable_surrogate_within_the_floor(self):
        # Past the knee too (lam x^2 = 3), but the least residual, about
        # 2.2e-15, is under the stop rule's floor 1e-14: Newton meets the
        # rule there, so no certificate may preempt it.
        x = np.array([1e-14])
        want = _ref_surrogate_resolvent(SURROGATE_PROBLEMS["cubic_1d"], x, x, 3e28, _surrogate_config(3))
        assert not isinstance(want, Exception)
        self.check_resolvent(SURROGATE_PROBLEMS["cubic_1d"], x, x, 3e28, _surrogate_config(3))


def _exact_quadratic_gap(a, b, c):
    """4ac - b^2 in exact rational arithmetic."""
    return 4 * a * c - b * b


def _ref_poly_unsolvable_bound(sur, x, lam, sigma_hat):
    """tensor._unsolvable_bound's polynomial branch as it stood on numpy arrays."""
    c = x - sur.anchor
    d0, d1, d2 = (lam * v for v in sur.ders)
    qa, qb, qc = 0.5 * d2, 1.0 + d1, d0 - c
    mag = (1.0 + np.abs(d1) + sigma_hat) ** 2 + 4.0 * np.abs(qa) * (np.abs(d0) + 2.0 * np.abs(c))
    for s in (sigma_hat, -sigma_hat):
        if not np.all(tensor._disc_gap(qa, qb - s, qc + s * c, mag) > 0.0):
            return None
    return float(np.max(tensor._disc_gap(qa, qb, qc, mag) / (4.0 * np.abs(qa))))


class TestUnsolvableCertificate:
    """Soundness of tensor._unsolvable_bound: whenever it fires, the exact
    discriminants are negative, no sampled point meets the stop rule, and
    the reference Newton fails on the same solve."""

    INSTANCES = {
        "cubic d=1": ops.make_poly([0.0, 0.0, 0.0, 1.0]),
        "poly d=3": ops.make_poly([0.0, 0.5, 0.3, 1.0], dim=3),
        "radial d=2": ops.OperatorSpec(dim=2, radial=ops.RadialPart(0.6)),
        "radial d=4": ops.OperatorSpec(dim=4, radial=ops.RadialPart(2.5)),
    }

    def check_exact(self, op, sur, x, lam, sigma_hat, bound, floor):
        sig = Fraction(sigma_hat)
        lam = Fraction(lam)
        if op.poly is not None:
            best, want, scale = Fraction(0), None, Fraction(0)
            for i in range(op.dim):
                d0, d1, d2 = (lam * Fraction(float(v[i])) for v in sur.ders)
                c = Fraction(float(x[i])) - Fraction(float(sur.anchor[i]))
                qa, qb, qc = d2 / 2, 1 + d1, d0 - c
                for s in (sig, -sig):
                    assert _exact_quadratic_gap(qa, qb - s, qc + s * c) > 0
                best = max(best, _exact_quadratic_gap(qa, qb, qc) / (4 * abs(qa)))
                mag = (1 + abs(d1) + sig) ** 2 + 4 * abs(qa) * (abs(d0) + 2 * abs(c))
                cut = (_exact_quadratic_gap(qa, qb, qc) - Fraction(tensor.CERT_TOL) * mag) / (4 * abs(qa))
                want = cut if want is None else max(want, cut)
                scale = max(scale, mag / (4 * abs(qa)))
            assert Fraction(bound) <= best
            assert best > Fraction(floor)
            # Tight too: the largest coordinate's bound less its CERT_TOL * mag
            # margin, up to the rounding of the float terms (a few ulps of mag).
            assert abs(Fraction(bound) - want) <= 16 * Fraction(2.0**-52) * scale
        else:
            assert np.array_equal(x, sur.anchor)  # the radial reduction assumes c = 0
            aa = sum(Fraction(float(v)) ** 2 for v in sur.anchor)
            mu = lam * Fraction(op.radial.weight) * aa
            for s in (sig, -sig):
                assert _exact_quadratic_gap(3 * mu, 1 + 3 * mu - s, mu) > 0
            gap = _exact_quadratic_gap(3 * mu, 1 + 3 * mu, mu)
            assert gap >= 6 * sig * sig
            min_q = gap / (12 * mu)
            assert Fraction(bound) ** 2 <= aa * min_q**2
            assert aa * min_q**2 > Fraction(floor) ** 2

    def sample_steps(self, op, sur, lam, rng):
        # Steps h around the per-coordinate (poly) or on-axis (radial)
        # minimiser of the residual, on the axis and off it, plus wide draws.
        d = op.dim
        if op.poly is not None:
            qa = 0.5 * lam * sur.ders[2]
            qb = 1.0 + lam * sur.ders[1]
            centre = -qb / (2.0 * qa)
            axis = np.ones(d)
        else:
            mu = lam * op.radial.weight * sur.aa
            centre = -(1.0 + 3.0 * mu) / (6.0 * mu) * sur.anchor
            axis = sur.anchor
        scale = 1.0 + float(np.abs(centre).max())
        steps = [centre]
        for f in (0.5, 0.9, 0.99, 1.01, 1.1, 2.0, -1.0):
            steps.append(f * centre)
        for _ in range(24):
            e = rng.standard_normal(d)
            steps.append(centre + rng.choice([1e-6, 1e-2, 1.0]) * scale * e)
            steps.append(rng.standard_normal() * axis + 10.0 ** rng.uniform(-3, 3) * e)
        return steps

    def test_sound_wherever_it_fires(self):
        rng = np.random.default_rng(20)
        fired = {name: 0 for name in self.INSTANCES}
        for name, op in self.INSTANCES.items():
            problem = problems.ProblemInstance(name, op, problems.SolutionSet("UNKNOWN"), None)
            for _ in range(160):
                sigma_hat = float(rng.choice([0.01, 0.1, 0.3]))
                cfg = TensorConfig(sigma_hat=sigma_hat, sigma_l=0.1, sigma_u=0.6, L=6.0, p=3)
                lam = 10.0 ** rng.uniform(-3.0, 6.0)
                anchor = 10.0 ** rng.uniform(-3.0, 2.0) * rng.standard_normal(op.dim)
                x = anchor.copy()
                if rng.random() < 0.5:
                    x = anchor + 10.0 ** rng.uniform(-4.0, 1.0) * rng.standard_normal(op.dim)
                sur = ops.TaylorSurrogate(op, anchor, 3)
                floor = 1e-14 * (1.0 + float(np.linalg.norm(x)))
                bound = tensor._unsolvable_bound(sur, x, lam, sigma_hat)
                if op.poly is not None:  # the numpy form's float, or None, to the bit
                    assert repr(bound) == repr(_ref_poly_unsolvable_bound(sur, x, lam, sigma_hat))
                if bound is None or not bound > floor:
                    continue
                fired[name] += 1
                self.check_exact(op, sur, x, lam, sigma_hat, bound, floor)
                for h in self.sample_steps(op, sur, lam, rng):
                    u = anchor + h
                    r = ops.norm(u + lam * sur.value(u) - x)
                    assert r > max(sigma_hat * ops.norm(u - x), floor)
                    assert r >= bound
                want = _ref_surrogate_resolvent(problem, anchor, x, lam, cfg)
                assert isinstance(want, InnerSolverDiverged)
                with pytest.raises(InnerSolverDiverged) as exc:
                    surrogate_resolvent(sur, x, lam, sigma_hat)
                assert exc.value.iterations == 0
                assert exc.value.residual == bound
        assert min(fired.values()) >= 20, fired


class TestStoredDerivatives:
    """PolyPart builds its derivative chain once; solves only read it."""

    CHAINS = {**POLY_INSTANCES, "zoo cubic_1d": problems.make_cubic_1d().operator}

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_chain_matches_polyder(self, name):
        poly = self.CHAINS[name].poly
        want = poly.coeffs
        for j in range(len(poly.ders) + 2):
            got = np.array(poly.ders[min(j, len(poly.ders) - 1)])
            assert got.tobytes() == want.tobytes()
            want = npoly.polyder(want)
        assert poly.ders[-1] == (0.0,)
        assert len(poly.ders) == poly.coeffs.size + 1

    def test_polyder_matches_numpy_bit_for_bit(self):
        # Seeded coefficients with negative entries, signed zeros and
        # trailing zeros, differentiated down to a constant and past it.
        rng = np.random.default_rng(23)
        cases = [np.array([-0.0]), np.array([0.0]), np.array([-2.5]), np.array([1.0, -3.0, -0.0, 0.0])]
        for _ in range(300):
            c = rng.standard_normal(int(rng.integers(1, 9))) * 10.0 ** rng.uniform(-3, 3)
            zeros = rng.random(c.size) < 0.3
            c[zeros] = np.copysign(0.0, rng.standard_normal(int(zeros.sum())))
            tail = np.copysign(0.0, rng.standard_normal(int(rng.integers(0, 3))))
            cases.append(np.concatenate([c, tail]))
        for c in cases:
            for _ in range(c.size + 1):
                want = npoly.polyder(c)
                assert ops._polyder(c).tobytes() == want.tobytes(), c.tolist()
                c = want

    def test_no_polyder_at_solve_time(self, monkeypatch):
        ball = ops.BallCone(np.zeros(3), 0.5)
        operators = list(POLY_INSTANCES.values())
        operators.append(ops.make_poly([0.1, 1.0, 0.0, 0.5], dim=3, cone=ball))  # Newton route
        cubic = problems.make_cubic_1d()
        calls = []
        real = ops._polyder
        monkeypatch.setattr(ops, "_polyder", lambda *a, **k: calls.append(1) or real(*a, **k))

        rng = np.random.default_rng(7)
        for op in operators:
            x = rng.standard_normal(op.dim)
            for lam in (1e-3, 1.0, 1e3):
                ops.resolvent(op, lam, x)
            ops.single_jacobian(op, x)
            for p in (1, 2, 3, 4):
                ops.TaylorSurrogate(op, x, p)
        tcfg = TensorConfig(sigma_hat=0.1, sigma_l=0.2, sigma_u=0.8, L=6.0, p=3)
        hcfg = tcfg.drive(8)
        result = run(cubic, functools.partial(lambda_window_search, cubic, cfg=tcfg), hcfg, np.array([0.7]))
        assert len(result.records) == 8
        assert calls == []
