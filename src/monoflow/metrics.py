"""Optimality metrics: restricted gap, pointwise residue, rate fitting.

gap(x) = sup over z in dom(A) and xi in A(z) of <xi, x - z>.  For x inside
the domain the normal-cone component of xi contributes nothing to the sup,
so the inner objective is g(z) = <F(z), x - z>.  With affine F this is a
concave quadratic over a box or ball: a skew part alone makes it linear
(closed-form corner/support evaluation); otherwise projected gradient
ascent from seeded starts is polished on the active set and certified by a
KKT residual.

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
from .errors import DomainUnbounded, InsufficientPoints, UnknownSolutionSet, UnsupportedMetric

__all__ = [
    "gap",
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
    support form when the quadratic term vanishes and certified ascent
    otherwise; "support" and "ascent" force one path (cross-validation
    hook).

    Raises DomainUnbounded without a bounded domain, UnsupportedMetric for
    non-affine single-valued parts (no certified maximization route), and
    ValueError when a point lies outside dom(A).  A stack is taken in row
    order and raises what the first failing one-point call would.
    """
    op = problem.operator
    if not problem.domain_bounded:
        raise DomainUnbounded("gap needs a bounded domain")
    if op.poly is not None or op.radial is not None:
        raise UnsupportedMetric("gap is certified only for affine single-valued parts")
    if route not in ("auto", "support", "ascent"):
        raise ValueError("route must be one of auto, support, ascent")
    pts, one = _stack(x)
    inside = op.domain.contains(pts, atol=1e-9)
    k = len(pts) if inside.all() else int(np.flatnonzero(~inside)[0])  # rows before the first outside
    rows = pts[:k]

    m, q = _affine_terms(op)
    # Decided once per operator, when its AffinePart was built.
    linear = op.affine is None or op.affine.skew
    if k and route == "support" and not linear:
        raise UnsupportedMetric("support route is exact only when the quadratic term vanishes")

    if linear and route != "ascent":
        # Skew part only: the objective is linear, sup attained at a
        # support point of the domain.
        vals = op.domain.support(ops._matvec(m.T, rows) - q) + ops._dots(rows, q)
    else:
        vals = _ascent_gaps(op, m, q, rows)
    if k < len(pts):
        raise ValueError("gap is evaluated at points of dom(A)")
    return float(vals[0]) if one else vals


def _ascent_gaps(op, m, q, rows):
    """The certified ascent's gap at each row, in row order.  The step and
    the seeded starts do not depend on the point and are formed once."""
    dom = op.domain
    sym = m + m.T
    curv = float(np.abs(sym).max())
    lip = float(np.linalg.eigvalsh(sym)[-1])
    # Zero curvature (linear objective) still converges with any positive
    # step; the floor only keeps the displacement finite before clipping.
    step = 1.0 / max(lip, 1e-12)
    rng = np.random.default_rng(0)
    seeded = [dom.midpoint()] + [dom.random_point(rng) for _ in range(14)]

    out = np.empty(len(rows))
    for i, x in enumerate(rows):
        lin = m.T @ x - q  # the objective <F(z), x - z> has gradient lin - sym @ z
        best_val, best_z = -np.inf, None
        for z0 in [dom.project(x)] + seeded:
            z = z0.copy()
            for _ in range(500):
                z_new = dom.project(z + step * (lin - sym @ z))
                if ops.norm(z_new - z) <= 1e-13 * (1.0 + ops.norm(z)):
                    z = z_new
                    break
                z = z_new
            z = _active_set_polish(dom, sym, lin, z)
            val = float((m @ z + q) @ (x - z))
            if val > best_val:
                best_val, best_z = val, z

        # Stationary for the max: the gradient at best_z lies in the normal cone there.
        g = lin - sym @ best_z
        kkt = dom.residual(best_z, -g)
        scale = 1.0 + float(np.abs(g).max()) + curv
        if kkt > KKT_TOL * scale:
            raise UnsupportedMetric(f"gap maximization uncertified: KKT residual {kkt:.3e}")
        out[i] = best_val
    return out


def _active_set_polish(cone, sym, lin, z):
    # Quadratic objective lin.z - z'sym z/2: solve the stationarity system
    # on the inactive coordinates, clip, repeat until the active set is
    # stable.  Box domains only; the ball case stays with plain ascent.
    if not isinstance(cone, ops.BoxCone):
        return z
    d = z.size
    for _ in range(d + 2):
        at_lo = z <= cone.lower_in
        at_hi = z >= cone.upper_in
        grad_z = lin - sym @ z
        free = (~at_lo & ~at_hi) | (at_lo & (grad_z > 0)) | (at_hi & (grad_z < 0))
        if not free.any():
            return z
        zf = z.copy()
        idx = np.where(free)[0]
        a = sym[np.ix_(idx, idx)]
        b = lin[idx] - sym[np.ix_(idx, np.where(~free)[0])] @ z[~free]
        try:
            sol = ops._solve(a, b)
        except np.linalg.LinAlgError:
            return z
        zf[idx] = sol
        zf = cone.project(zf)
        if ops.norm(zf - z) <= 1e-14 * (1.0 + ops.norm(z)):
            return zf
        z = zf
    return z


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
