"""Optimality metrics: restricted gap, pointwise residue, rate fitting.

gap(x) = sup over z in dom(A) and xi in A(z) of <xi, x - z>.  For x inside
the domain the normal-cone component of xi contributes nothing to the sup,
so the inner objective is g(z) = <F(z), x - z>.  With affine F this is a
concave quadratic over a box or ball: a skew part alone makes it linear
(closed-form corner/support evaluation); otherwise projected gradient
ascent from seeded starts is polished on the active set and certified by a
KKT residual.
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
    "lyapunov",
    "dist_to_solutions",
    "RateFit",
    "fit_rate",
]

KKT_TOL = 1e-8
VALUE_FLOOR = 1e-14


def _affine_objective(op, x):
    m = op.affine.matrix if op.affine is not None else np.zeros((op.dim, op.dim))
    q = op.affine.offset if op.affine is not None else np.zeros(op.dim)
    sym = m + m.T

    def value(z):
        return float((m @ z + q) @ (x - z))

    def grad(z):
        return m.T @ x - q - sym @ z

    return m, q, sym, value, grad


def gap(problem, x, route="auto"):
    """Restricted merit value at x; exact for the affine-over-cone zoo.

    route selects the maximization path: "auto" uses the closed support
    form when the quadratic term vanishes and certified ascent otherwise;
    "support" and "ascent" force one path (cross-validation hook).

    Raises DomainUnbounded without a bounded domain, UnsupportedMetric for
    non-affine single-valued parts (no certified maximization route), and
    ValueError when x lies outside dom(A).
    """
    op = problem.operator
    if not problem.domain_bounded:
        raise DomainUnbounded("gap needs a bounded domain")
    if op.poly is not None or op.radial is not None:
        raise UnsupportedMetric("gap is certified only for affine single-valued parts")
    if route not in ("auto", "support", "ascent"):
        raise ValueError("route must be one of auto, support, ascent")
    x = np.asarray(x, dtype=float)
    if not ops.domain_contains(op, x, atol=1e-9):
        raise ValueError("gap is evaluated at points of dom(A)")

    m, q, sym, value, grad = _affine_objective(op, x)
    cone = op.cone
    curv = float(np.abs(sym).max()) if sym.size else 0.0
    linear = curv <= 1e-14 * max(1.0, float(np.abs(m).max()))
    if route == "support" and not linear:
        raise UnsupportedMetric("support route is exact only when the quadratic term vanishes")

    if linear and route != "ascent":
        # Skew part only: the objective is linear, sup attained at a
        # support point of the domain.
        c = m.T @ x - q
        if isinstance(cone, ops.BoxCone):
            val = float(np.sum(np.maximum(c * cone.lower, c * cone.upper)))
        else:
            val = cone.radius * ops.norm(c) + float(c @ cone.center)
        return val + float(q @ x)

    lip = float(np.linalg.eigvalsh(sym)[-1])
    # Zero curvature (linear objective) still converges with any positive
    # step; the floor only keeps the displacement finite before clipping.
    step = 1.0 / max(lip, 1e-12)
    rng = np.random.default_rng(0)
    starts = [ops.domain_project(op, x), _domain_center(cone)]
    for _ in range(14):
        starts.append(_domain_random(cone, rng))

    best_val, best_z = -np.inf, None
    for z0 in starts:
        z = z0.copy()
        for _ in range(500):
            z_new = ops.domain_project(op, z + step * grad(z))
            if ops.norm(z_new - z) <= 1e-13 * (1.0 + ops.norm(z)):
                z = z_new
                break
            z = z_new
        z = _active_set_polish(cone, sym, m.T @ x - q, z)
        val = value(z)
        if val > best_val:
            best_val, best_z = val, z

    kkt = _kkt_residual(cone, grad(best_z), best_z)
    scale = 1.0 + float(np.abs(grad(best_z)).max()) + curv
    if kkt > KKT_TOL * scale:
        raise UnsupportedMetric(f"gap maximization uncertified: KKT residual {kkt:.3e}")
    return best_val


def _domain_center(cone):
    if isinstance(cone, ops.BoxCone):
        return 0.5 * (cone.lower + cone.upper)
    return np.array(cone.center)


def _domain_random(cone, rng):
    if isinstance(cone, ops.BoxCone):
        if rng.random() < 0.5:
            pick = rng.random(cone.lower.size) < 0.5
            return np.where(pick, cone.upper, cone.lower).astype(float)
        return cone.lower + (cone.upper - cone.lower) * rng.random(cone.lower.size)
    d = cone.center.size
    u = rng.standard_normal(d)
    u /= max(float(np.linalg.norm(u)), 1e-300)
    return cone.center + cone.radius * rng.random() ** (1.0 / d) * u


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
            sol = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            return z
        zf[idx] = sol
        zf = np.clip(zf, cone.lower, cone.upper)
        if ops.norm(zf - z) <= 1e-14 * (1.0 + ops.norm(z)):
            return zf
        z = zf
    return z


def _kkt_residual(cone, g, z):
    # Stationarity measure for maximization over the cone's set.
    if isinstance(cone, ops.BoxCone):
        at_lo = z <= cone.lower_in
        at_hi = z >= cone.upper_in
        viol = np.abs(g.copy())
        viol[at_hi] = np.maximum(0.0, -g[at_hi])
        viol[at_lo & ~at_hi] = np.maximum(0.0, g[at_lo & ~at_hi])
        return float(viol.max()) if viol.size else 0.0
    r = z - cone.center
    nr = float(np.linalg.norm(r))
    if nr < cone.radius * (1.0 - ops.BOUNDARY_ATOL):
        return float(np.abs(g).max())
    u = r / max(nr, 1e-300)
    t = max(0.0, float(g @ u))
    return float(np.linalg.norm(g - t * u))


def gap_grid_oracle(problem, x, points_per_axis=101):
    """Dense-grid evaluation of the inner objective; d = 2 boxes only.

    Independent cross-check for gap: exact whenever the maximizer sits on
    the grid (always true for the linear, skew-part-only objective).
    """
    op = problem.operator
    if op.dim != 2 or not isinstance(op.cone, ops.BoxCone):
        raise UnsupportedMetric("grid oracle is implemented for d = 2 boxes")
    if op.poly is not None or op.radial is not None:
        raise UnsupportedMetric("grid oracle evaluates affine single-valued parts only")
    x = np.asarray(x, dtype=float)
    m, q, _, _, _ = _affine_objective(op, x)
    g0 = np.linspace(op.cone.lower[0], op.cone.upper[0], points_per_axis)
    g1 = np.linspace(op.cone.lower[1], op.cone.upper[1], points_per_axis)
    a, b = g0[:, np.newaxis], g1[np.newaxis, :]
    # <F(z), x - z> at every grid point z = (a, b), written out for d = 2.
    f0 = m[0, 0] * a + m[0, 1] * b + q[0]
    f1 = m[1, 0] * a + m[1, 1] * b + q[1]
    return float(np.max(f0 * (x[0] - a) + f1 * (x[1] - b)))


def residue(problem, x):
    """min-norm element of A(x); errors when x is outside dom(A)."""
    op = problem.operator
    x = np.asarray(x, dtype=float)
    if not ops.domain_contains(op, x):
        raise ValueError("residue is defined on dom(A) only")
    return ops.min_norm_residual(op, x)


def lyapunov(x, z):
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    return 0.5 * float(np.linalg.norm(x - z) ** 2)


def dist_to_solutions(problem, x):
    """Distance to the declared solution set."""
    sol = problem.solution_set
    x = np.asarray(x, dtype=float)
    if sol.kind == "SINGLETON":
        return ops.norm(x - sol.point)
    raise UnknownSolutionSet(f"problem {problem.name!r} declares no solution set")


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
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
        intercept=float(coef[1]),
        r_squared=r2,
        window=(int(start), int(n)),
        dropped=dropped,
    )
