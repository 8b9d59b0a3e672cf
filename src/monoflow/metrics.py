"""Optimality metrics: restricted gap, pointwise residue, rate fitting.

gap(x) = sup over z in dom(A) and xi in A(z) of <xi, x - z>.  For x inside
the domain the normal-cone component of xi contributes nothing to the sup,
so the inner objective is g(z) = <F(z), x - z>.  With affine F this is a
concave quadratic over a box or ball: a skew part alone makes it linear
(closed-form corner/support evaluation); otherwise its exact maximizer (by
proximal pivoting on a box, the secular equation on a ball) is certified by
its Frank-Wolfe width and a KKT residual.

gap, residue and dist_to_solutions take one point or an (n, d) stack of
points, one per row, through the same code: a point is a stack of one.
Domain operations come from op.domain, which takes a stack as it takes a
point.  Matrix-vector and dot products stay per row, since a batched product
can round differently, so every row gets the bits of the one-point call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .errors import DomainUnbounded, InnerSolverDiverged, InsufficientPoints, UnknownSolutionSet, UnsupportedMetric

__all__ = [
    "gap",
    "running_sums",
    "ergodic_gaps",
    "gap_grid_oracle",
    "residue",
    "dist_to_solutions",
    "RateFit",
    "fit_rate",
]

KKT_TOL = 1e-8
VALUE_FLOOR = 1e-14
GRID_POINTS = 101  # per axis of gap_grid_oracle's grid


def _affine_terms(op):
    if op.affine is None:
        return np.zeros((op.dim, op.dim)), np.zeros(op.dim)
    return op.affine.matrix, op.affine.offset


def _stack(x):
    """(points, one): x as a 2-D stack of points, and whether x was one point."""
    xs = np.asarray(x, dtype=float)
    one = xs.ndim < 2
    return (xs.reshape(1, -1) if one else xs), one


def gap(problem, x, route="auto"):
    """Restricted merit value at x; exact for the affine-over-cone zoo.

    x is one point, or an (n, d) stack of points for an (n,) array of
    values.  route selects the maximization path: "auto" uses the closed
    support form when the quadratic term vanishes and the exact maximizer
    otherwise; "support" and "maximizer" force one path (cross-validation
    hook).  See _maximizer_gaps for its certificate.

    Raises DomainUnbounded without a bounded domain, UnsupportedMetric for
    non-affine single-valued parts or an uncertified maximizer, and
    ValueError when a point lies outside dom(A).  A stack is taken in row
    order and raises what the first failing one-point call would.
    """
    op = problem.operator
    if not problem.domain_bounded:
        raise DomainUnbounded("gap needs a bounded domain")
    if op.poly is not None or op.radial is not None:
        raise UnsupportedMetric("gap is certified only for affine single-valued parts")
    if route not in ("auto", "support", "maximizer"):
        raise ValueError("route must be one of auto, support, maximizer")
    pts, one = _stack(x)
    inside = op.domain.contains(pts, atol=1e-9)
    k = len(pts) if inside.all() else int(np.flatnonzero(~inside)[0])  # rows before the first outside
    rows = pts[:k]

    m, q = _affine_terms(op)
    # Decided once per operator, when its AffinePart was built.
    linear = op.affine is None or op.affine.skew
    if k and route == "support" and not linear:
        raise UnsupportedMetric("support route is exact only when the quadratic term vanishes")

    if linear and route != "maximizer":
        # Skew part only: the objective is linear, sup attained at a
        # support point of the domain.
        vals = op.domain.support(ops._matvec(m.T, rows) - q) + ops._dots(rows, q)
    else:
        vals = _maximizer_gaps(op, m, q, rows)
    if k < len(pts):
        raise ValueError("gap is evaluated at points of dom(A)")
    return float(vals[0]) if one else vals


def running_sums(lam, ys):
    """(num, den): num[k] = lam[0] ys[0] + ... + lam[k] ys[k] and den[k] =
    lam[0] + ... + lam[k], for the (n,) step sizes lam and (n, d) points ys.

    A cumulative sum from a zero row makes the additions num_k = num_{k-1}
    + lam_k y_k and den_k = den_{k-1} + lam_k from 0, so each row has the
    bits of that running sum.
    """
    lam = np.asarray(lam, dtype=float)
    ys = np.asarray(ys, dtype=float)
    num = np.cumsum(np.concatenate([np.zeros((1, ys.shape[1])), lam[:, np.newaxis] * ys]), axis=0)[1:]
    den = np.cumsum(np.concatenate([[0.0], lam]))[1:]
    return num, den


def ergodic_gaps(problem, num, den):
    """(gaps, off): gap at num[i] / den[i] for each row with den[i] > 0, NaN
    at the others, as a list of floats.

    The gap turns off at the first row where it raises UnsupportedMetric or
    DomainUnbounded: that row and every later one read NaN, and off holds
    the reason; it is None while the gap stays on.  A point outside dom(A)
    raises ValueError.
    """
    gaps = np.full(len(den), np.nan)
    rows = np.flatnonzero(den > 0)
    points = num[rows] / den[rows, np.newaxis]
    try:
        if rows.size:
            gaps[rows] = gap(problem, points)
    except (UnsupportedMetric, DomainUnbounded):
        # One row's gap does not depend on another's: redo the rows one at
        # a time to keep the values before the first that raises.
        for i, x in zip(rows, points):
            try:
                gaps[i] = gap(problem, x)
            except (UnsupportedMetric, DomainUnbounded) as exc:
                return gaps.tolist(), str(exc)
    return gaps.tolist(), None


def _maximizer_gaps(op, m, q, rows):
    """f(z) + q.x at each row, z the maximizer of f(z) = lin.z - z'Sz/2, S = M + M'
    and lin = M'x - q, if its Frank-Wolfe width w = support(g) - g.z, g = grad
    f(z), a bound on sup f - f(z) for concave f, is at most KKT_TOL * (1 + |f(z)|
    + max|g| + max|S|) and its KKT residual at most KKT_TOL * (1 + max|g| + max|S|)."""
    dom, sym = op.domain, m + m.T
    curv = float(np.abs(sym).max())
    if isinstance(dom, ops.BoxCone):
        t = 1e6 / max(curv, 1e-10)  # the floor keeps t finite at S = 0: a skew part on route "maximizer"
        argmax, fixed = _box_argmax, (ops._eye(op.dim) + t * sym, t)
    else:
        eig, vecs = np.linalg.eigh(sym)  # S is PSD; rounding may dip below 0
        argmax, fixed = _ball_argmax, (sym, np.maximum(eig, 0.0), vecs)
    out = np.empty(len(rows))
    for i, x in enumerate(rows):
        lin = m.T.dot(x) - q
        z = argmax(dom, lin, x, *fixed)
        g = lin - sym.dot(z)
        out[i] = val = float((m.dot(z) + q).dot(x - z))
        width = float(dom.support(g)) - float(g.dot(z))
        kkt = dom.residual(z, -g)  # stationary: the gradient at z lies in the normal cone there
        scale = 1.0 + float(np.abs(g).max()) + curv
        if width > KKT_TOL * (scale + abs(val - float(q.dot(x)))) or kkt > KKT_TOL * scale:
            why = f"Frank–Wolfe width {width:.3e}, KKT residual {kkt:.3e}"
            raise UnsupportedMetric(f"gap maximization uncertified: {why}")
    return out


def _box_argmax(box, lin, x, a, t):
    """At most dim + 2 proximal steps z <- argmax f - ||. - z||^2/(2t) from
    P(x), each the box LVI with a = I + t*S and b = z + t*lin pivoted from
    the last step's partition, until z stops moving or hits the pivot cap."""
    z = box.project(x)
    side = np.where(z <= box.lower, -1, np.where(z >= box.upper, 1, 0))
    for _ in range(z.size + 2):
        try:
            step, side = ops._box_lvi(a, z + t * lin, box.lower, box.upper, side, "gap box")
        except InnerSolverDiverged:
            break
        if np.array_equal(step, z):
            break
        z = step
    return z


def _ball_argmax(ball, lin, x, sym, eig, vecs):
    """c + u with (S + mu*I) u = lin - S c (Moré & Sorensen 1983), S = vecs
    diag(eig) vecs': mu = 0 where the right side has no kernel part and its
    min-norm u lies in the ball; else ||u(mu)|| = radius, bisected on (0,
    ||rhs||/radius] to eps of that width, with u at the end inside the ball."""
    c, r = ball.center, ball.radius
    rhs = vecs.T @ (lin - sym @ c)
    u = np.divide(rhs, eig, out=np.zeros(rhs.size), where=eig > 0.0)
    if rhs[eig == 0.0].any() or ops.norm(u) > r:
        lo, hi = 0.0, ops.norm(rhs) / r
        width = np.finfo(float).eps * hi
        while hi - lo > width:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if ops.norm(rhs / (eig + mid)) > r else (lo, mid)
        u = rhs / (eig + hi)
    return c + vecs @ u


def gap_grid_oracle(problem, x):
    """Evaluation of the inner objective on a GRID_POINTS^2 grid; d = 2 boxes only.

    Independent cross-check for gap: exact whenever the maximizer sits on
    the grid (always true for the linear, skew-part-only objective).
    """
    op = problem.operator
    if op.dim != 2 or not isinstance(op.cone, ops.BoxCone):
        raise UnsupportedMetric("grid oracle is implemented for d = 2 boxes")
    if op.poly is not None or op.radial is not None:
        raise UnsupportedMetric("grid oracle evaluates affine single-valued parts only")
    x = np.asarray(x, dtype=float)
    m, q = _affine_terms(op)
    g0 = np.linspace(op.cone.lower[0], op.cone.upper[0], GRID_POINTS)
    g1 = np.linspace(op.cone.lower[1], op.cone.upper[1], GRID_POINTS)
    a, b = g0[:, np.newaxis], g1[np.newaxis, :]
    # <F(z), x - z> at every grid point z = (a, b), written out for d = 2.
    f0 = m[0, 0] * a + m[0, 1] * b + q[0]
    f1 = m[1, 0] * a + m[1, 1] * b + q[1]
    return float(np.max(f0 * (x[0] - a) + f1 * (x[1] - b)))


def residue(problem, x):
    """inf{||v|| : v in A(x)}, the norm of the min-norm element of A(x).

    x is one point, or an (n, d) stack of points for an (n,) array; each
    value has the bits of ops.min_norm_residual at that point.  Raises
    ValueError when a point lies outside dom(A).
    """
    op = problem.operator
    pts, one = _stack(x)
    if not op.domain.contains(pts).all():
        raise ValueError("residue is defined on dom(A) only")
    res = op.domain.residual(pts, ops.single_value(op, pts))
    return float(res[0]) if one else res


def dist_to_solutions(problem, x):
    """Distance to the declared solution set from x, one point or each row
    of an (n, d) stack (an (n,) array)."""
    sol = problem.solution_set
    if sol.kind != "SINGLETON":
        raise UnknownSolutionSet(f"problem {problem.name!r} declares no solution set")
    pts, one = _stack(x)
    out = ops._norms(pts - sol.point)
    return float(out[0]) if one else out


@dataclass(frozen=True)
class RateFit:
    slope: float
    r_squared: float
    window: tuple[int, int]
    dropped: int


def fit_rate(values, tail_fraction=0.3, positions=None):
    """Least-squares power-law fit over the tail of a metric series.

    Parameters
    ----------
    values : sequence of metric values (nonnegative).
    tail_fraction : fraction of the series (by trailing count) to fit on.
    positions : abscissae (iteration indices or times); defaults to 1..n.

    Values at or below 1e-14 in the window are dropped as floating-point
    floor (count reported); fewer than 10 surviving points raises
    InsufficientPoints.
    """
    vals = np.asarray(values, dtype=float)
    n = vals.size
    if positions is None:
        pos = np.arange(1, n + 1, dtype=float)
    else:
        pos = np.asarray(positions, dtype=float)
        if pos.size != n:
            raise ValueError("positions length mismatch")
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must lie in (0, 1]")
    start = n - max(1, math.ceil(tail_fraction * n))
    vw = vals[start:]
    pw = pos[start:]
    keep = (vw > VALUE_FLOOR) & (pw > 0.0) & np.isfinite(vw)
    dropped = int(vw.size - keep.sum())
    vw, pw = vw[keep], pw[keep]
    if vw.size < 10:
        raise InsufficientPoints(f"only {vw.size} usable points in the tail window")
    lx, ly = np.log(pw), np.log(vw)
    a = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(a, ly, rcond=None)
    fitted = a @ coef
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else (1.0 if ss_res == 0 else 0.0)
    return RateFit(
        slope=float(coef[0]),
        r_squared=r2,
        window=(int(start), int(n)),
        dropped=dropped,
    )
