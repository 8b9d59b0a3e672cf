"""Structured maximal monotone operators and their exact resolvents.

An operator is a sum A = F + H where F is a single-valued monotone map
assembled from structured parts (affine, coordinatewise odd polynomial,
radial cubic field) and H is the normal cone of a box or a ball.  Every
shipped combination admits a resolvent (I + lam*A)^{-1} computed either in
closed form or by a damped semismooth Newton method on the normal map

    w  |->  w + lam * F(P(w)) - x,        y = P(w),

where P projects onto dom(A).  The returned pair (y, v) always satisfies
v in A(y) exactly (v is assembled from the parts plus an explicit normal
element), so the reported residual ||lam*v + y - x|| measures the full
solve error.  normal_map_newton is the one Newton kernel: the resolvent's
Newton route runs it on F, and the tensor oracle on a TaylorSurrogate of F.
Where the kernel fails on a lone affine part over a box, the Newton route
finishes the solve by principal pivoting (_box_lvi, which metrics.gap shares).

What depends on the operator alone is computed once, when it is built: a
PolyPart keeps its derivative chain, a BoxCone or a BallCone its boundary
tolerance edges, and an OperatorSpec its domain, its resolvent route
(projection only, affine solve, separable polynomial, radial, or Newton on
the normal map) and point evaluators of F and JF, which the Newton route
hands the kernel on every solve.  The domain, a BoxCone, a BallCone or the
whole space, owns the operations on dom(A) (op.domain.project, contains,
residual, ...), each for a float point or an (n, d) stack.  Every route
but the polynomial one raises InnerSolverDiverged when it misses the
residual bound.  Polynomials are evaluated by _horner and differentiated
by _polyder, which give the bits of numpy.polynomial.polynomial's polyval
(on floats and on arrays alike) and polyder without importing it.

Every dense linear solve (the Newton step, the affine closed form, and the
pivots of _box_lvi) goes through _solve.  It calls the LAPACK
gufunc behind np.linalg.solve under the same floating-point error state,
so it returns the same bits and raises the same LinAlgError on a singular
matrix, without np.linalg.solve's Python-side dispatch, which costs several
times the LAPACK solve at the dimensions used here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import InnerSolverDiverged

__all__ = [
    "AffinePart",
    "PolyPart",
    "RadialPart",
    "BoxCone",
    "BallCone",
    "OperatorSpec",
    "Resolvent",
    "make_affine",
    "make_poly",
    "single_value",
    "single_jacobian",
    "norm",
    "min_norm_residual",
    "normal_map_newton",
    "resolvent",
    "cold_state",
    "TaylorSurrogate",
]

AFFINE_EIG_TOL = -1e-10
POLY_DERIV_TOL = -1e-12
RESOLVENT_TOL = 1e-10
NEWTON_MAX_ITERS = 100
MAX_PIVOTS_PER_DIM = 100
BOUNDARY_ATOL = 1e-12


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def norm(v):
    """np.linalg.norm of a contiguous 1-D float64 vector, bit for bit, minus its dispatch cost:
    the square root of v.dot(v), which is what np.linalg.norm computes.

    Every vector dot and matrix-vector product on the numerical path is
    ndarray.dot, not @.  On float64 operands with a unit stride both call
    BLAS ddot or dgemv, so the bits agree, and .dot skips about 0.4 µs of
    the matmul gufunc's dispatch: 0.84 -> 0.43 µs for a 10-vector dot,
    0.99 -> 0.47 µs for a 10x10 matvec (timeit, 2-core x86-64 VM).  On a
    strided v, np.linalg.norm squares a contiguous copy and may round
    differently; callers that may hold a view copy it first.
    """
    return math.sqrt(v.dot(v))


def _polyder(c):
    """numpy.polynomial.polynomial.polyder(c) bit for bit, signs of zero included.

    c is a 1-D float array in increasing degree; the derivative's j-th
    coefficient is (j + 1) * c[j + 1], and a constant maps to c[:1] * 0.
    Importing numpy.polynomial for this alone would cost every process
    about a megabyte.
    """
    if c.size == 1:
        return c[:1] * 0
    return np.arange(1, c.size) * c[1:]


def _horner(c, x):
    """numpy's polyval(x, c) bit for bit, by its own recurrence, without its dispatch.

    c lists coefficients in increasing degree; x is a float or an array.
    """
    y = c[-1] + x * 0  # x * 0 as in polyval: shape, and NaN at infinite x
    for ck in c[-2::-1]:
        y = ck + y * x
    return y


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


@np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def _solve(a, b):
    """np.linalg.solve(a, b) bit for bit, minus its dispatch cost.

    a is a float64 (d, d) matrix and b a float64 (d,) vector.  The error
    state is np.linalg.solve's own, so a singular a raises LinAlgError.
    """
    return _umath_linalg.solve1(a, b, signature="dd->d")


@functools.cache
def _eye(d):
    return _readonly(np.eye(d))


@dataclass(frozen=True)
class AffinePart:
    """F(x) = matrix @ x + offset with monotone (PSD symmetric part) matrix.

    skew is True when matrix + matrix.T vanishes to 1e-14 relative to
    matrix: then <F(z), x - z> is linear in z, and metrics.gap maximizes it
    in closed form.
    """

    matrix: np.ndarray
    offset: np.ndarray
    skew: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _readonly(self.matrix)
        q = _readonly(self.offset)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise ValueError("affine matrix must be square and non-empty")
        if q.shape != (m.shape[0],):
            raise ValueError("affine offset shape mismatch")
        twice_sym = m + m.T
        lo = float(np.linalg.eigvalsh(0.5 * twice_sym)[0])
        if lo < AFFINE_EIG_TOL:
            raise ValueError(f"affine part not monotone: min symmetric eigenvalue {lo:.3e}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", q)
        skew = float(np.abs(twice_sym).max()) <= 1e-14 * max(1.0, float(np.abs(m).max()))
        object.__setattr__(self, "skew", skew)


@dataclass(frozen=True)
class PolyPart:
    """Coordinatewise scalar polynomial, coefficients in increasing degree.

    Monotonicity on R is checked exactly up to root finding: the derivative
    must have even degree, positive leading coefficient, and nonnegative
    values at all of its real critical points.

    ders is the derivative chain as coefficient tuples of floats: ders[j]
    is _polyder applied j times to coeffs, for j up to deg + 1, where
    it reaches the zero polynomial (0.0,) that polyder maps to itself.
    """

    coeffs: np.ndarray
    ders: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.trim_zeros(np.atleast_1d(np.asarray(self.coeffs, dtype=float)), "b")
        if c.size < 2:
            raise ValueError("polynomial must have degree >= 1")
        deg = c.size - 1
        if deg % 2 == 0:
            raise ValueError("monotone polynomial on R must have odd degree")
        chain = [c]
        for _ in range(deg + 1):
            chain.append(_polyder(chain[-1]))
        d = chain[1]
        if d[-1] <= 0:
            raise ValueError("polynomial derivative has nonpositive leading coefficient")
        if d.size >= 3:
            crit = np.roots(chain[2][::-1])
            crit = crit[np.abs(crit.imag) < 1e-9].real
            if crit.size and float(_horner(d, crit).min()) < POLY_DERIV_TOL:
                raise ValueError("polynomial is not monotone on R")
        object.__setattr__(self, "coeffs", _readonly(c))
        object.__setattr__(self, "ders", tuple(tuple(dj.tolist()) for dj in chain))


@dataclass(frozen=True)
class RadialPart:
    """F(x) = weight * ||x||^2 * x, the gradient of weight/4 * ||x||^4."""

    weight: float

    def __post_init__(self):
        if not self.weight > 0:
            raise ValueError("radial weight must be positive")


def _dots(a, b):
    """a @ b of two points, or of each row of an (n, d) stack a with b or with b's row,
    formed by a.dot(b) per row: the same ddot, without @'s dispatch (see norm)."""
    if a.ndim == 1:
        return float(a.dot(b))
    bs = b if b.ndim == 2 else [b] * len(a)
    return np.fromiter((r.dot(s) for r, s in zip(np.ascontiguousarray(a), bs)), float, len(a))


def _norms(a):
    """norm(a) of a point, or the norm of each row of an (n, d) stack."""
    return norm(a) if a.ndim == 1 else np.sqrt(_dots(a, a))


def _matvec(m, x):
    """m @ x of a point, or m @ each row of an (n, d) stack, each written in place."""
    if x.ndim == 1:
        return m.dot(x)
    out = np.empty(x.shape)
    for r, o in zip(x, out):
        np.matmul(m, r, out=o)
    return out


# The domains.  Each kind carries its own operations, reached through
# OperatorSpec.domain: project(x); contains(x, atol) and interior(x), inside
# the boundary tolerance and past it; residual(x, g) = min over n in N(x) of
# ||g + n|| for x in the domain; jacobian(lam, jf, w) = (N, DP), N = I + lam
# * jf @ DP the normal map's Jacobian at w, jf F's at P(w), DP P's at w (None
# for the identity, a 0/1 vector for a box, a symmetric matrix for a ball;
# at a kink a box bound counts as active, the sphere as inactive);
# sup_dist_sq(x0) = sup ||z - x0||^2 over a bounded domain; for metrics.gap,
# support(c) = sup <c, z>.  Each takes float arrays: project, contains,
# interior, residual and support a point or an (n, d) stack, each row with
# the one-point call's bits.


class _WholeSpace:
    """The domain R^dim of an operator built with cone=None."""

    def project(self, x):
        return x.copy()

    def contains(self, x, atol=BOUNDARY_ATOL):
        return True if x.ndim == 1 else np.ones(len(x), dtype=bool)

    interior = contains  # R^dim has no boundary

    def residual(self, x, g):
        return _norms(g)

    def jacobian(self, lam, jf, w):
        return _eye(w.size) + lam * jf, None

    def sup_dist_sq(self, x0):
        raise ValueError("domain is unbounded")


_WHOLE_SPACE = _WholeSpace()


@dataclass(frozen=True)
class BoxCone:
    """lower <= x <= upper; scale = 1 + max(|lower|, |upper|) sets the
    boundary tolerance of each coordinate.

    The tolerance edges at BOUNDARY_ATOL * scale are stored: x lies in the
    box when lower_out <= x <= upper_out, and a bound is active where
    x <= lower_in or x >= upper_in.
    """

    lower: np.ndarray
    upper: np.ndarray
    scale: np.ndarray = field(init=False, repr=False, compare=False)
    lower_out: np.ndarray = field(init=False, repr=False, compare=False)
    upper_out: np.ndarray = field(init=False, repr=False, compare=False)
    lower_in: np.ndarray = field(init=False, repr=False, compare=False)
    upper_in: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo = _readonly(self.lower)
        hi = _readonly(self.upper)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be matching vectors")
        if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise ValueError("box bounds must be finite")
        if not np.all(lo <= hi):
            raise ValueError("box lower bound exceeds upper bound")
        scale = 1.0 + np.maximum(np.abs(lo), np.abs(hi))
        edge = BOUNDARY_ATOL * scale
        stored = dict(lower=lo, upper=hi, scale=scale, lower_out=lo - edge, upper_out=hi + edge,
                      lower_in=lo + edge, upper_in=hi - edge)
        for name, a in stored.items():
            object.__setattr__(self, name, _readonly(a))

    def project(self, x):
        return np.minimum(np.maximum(x, self.lower), self.upper)

    def contains(self, x, atol=BOUNDARY_ATOL):
        lo, hi = self.lower_out, self.upper_out  # the edges at BOUNDARY_ATOL
        if atol != BOUNDARY_ATOL:
            lo, hi = self.lower - atol * self.scale, self.upper + atol * self.scale
        return ((x >= lo) & (x <= hi)).all(axis=-1)

    def residual(self, x, g):
        # n >= 0 available at the upper bound cancels negative g, and dually.
        cancel = ((x >= self.upper_in) & (g < 0)) | ((x <= self.lower_in) & (g > 0))
        return _norms(np.where(cancel, 0.0, g))

    def interior(self, x):
        return ((x > self.lower_in) & (x < self.upper_in)).all(axis=-1)

    def jacobian(self, lam, jf, w):
        mask = ((w > self.lower) & (w < self.upper)).astype(float)
        return _eye(w.size) + lam * (jf * mask), mask

    def sup_dist_sq(self, x0):
        far = np.where(np.abs(self.lower - x0) > np.abs(self.upper - x0), self.lower, self.upper)
        return float(np.sum((far - x0) ** 2))

    def support(self, c):
        return np.maximum(c * self.lower, c * self.upper).sum(axis=-1)


@dataclass(frozen=True)
class BallCone:
    """||x - center|| <= radius, scale = 1 + ||center|| + radius, with a finite
    center and a finite radius > BOUNDARY_ATOL * scale.  A projection meets the
    sphere only to the rounding of center, so, as a BoxCone's, the stored
    tolerance edges at BOUNDARY_ATOL * scale scale with both: x lies in the
    ball when ||x - center|| <= radius_out, on its boundary when >= radius_in.
    """

    center: np.ndarray
    radius: float
    scale: float = field(init=False, repr=False, compare=False)
    radius_out: float = field(init=False, repr=False, compare=False)
    radius_in: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = _readonly(self.center)
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ValueError("ball center must be a finite vector")
        if not 0 < self.radius < math.inf:
            raise ValueError("ball radius must be positive and finite")
        scale = 1.0 + norm(c) + self.radius
        edge = BOUNDARY_ATOL * scale
        if not self.radius > edge:
            raise ValueError("ball radius must exceed its boundary tolerance")
        stored = dict(center=c, scale=scale, radius_out=self.radius + edge, radius_in=self.radius - edge)
        for name, a in stored.items():
            object.__setattr__(self, name, a)

    def project(self, x):
        if x.ndim == 2:
            return np.array([self.project(r) for r in x], dtype=float).reshape(x.shape)
        r = x - self.center
        nr = norm(r)
        if nr <= self.radius:
            return x.copy()
        return self.center + (self.radius / nr) * r

    def contains(self, x, atol=BOUNDARY_ATOL):
        edge = self.radius_out if atol == BOUNDARY_ATOL else self.radius + atol * self.scale
        return _norms(x - self.center) <= edge

    def residual(self, x, g):
        if x.ndim == 2:
            return np.array([self.residual(r, gr) for r, gr in zip(x, g)], dtype=float)
        rad = x - self.center
        nr = norm(rad)
        if nr < self.radius_in:
            return norm(g)
        u = rad / nr  # nr > 0: radius_in > 0 keeps the center interior
        inner = float(g.dot(u))
        if inner >= 0:
            return norm(g)
        # The tangent part, formed without cancellation; an infinite or NaN g
        # certifies nothing (and inner * u would form inf * 0): keep a NaN.
        return norm(g - inner * u) if math.isfinite(inner) else math.nan

    def interior(self, x):
        return _norms(x - self.center) < self.radius_in

    def jacobian(self, lam, jf, w):
        eye = _eye(w.size)
        r = w - self.center
        nr = norm(r)
        if nr > self.radius:
            u = r / nr
            dp = (self.radius / nr) * (eye - np.outer(u, u))
            return eye + lam * (jf @ dp), dp
        return eye + lam * jf, None

    def sup_dist_sq(self, x0):
        return (norm(x0 - self.center) + self.radius) ** 2

    def support(self, c):
        return self.radius * _norms(c) + _dots(c, self.center)


def _point_maps(op):
    """(value, jacobian): F and JF at a 1-D float point z, with the bits of
    single_value(op, z) and single_jacobian(op, z).  A lone affine part,
    the Newton route's usual case, is m.dot(z) + q and the stored matrix,
    without their dispatch: the dgemv of m @ z, at 0.47 µs against 0.99 µs
    for a 10x10 m (see norm)."""
    if op.affine is not None and op.poly is None and op.radial is None:
        m, q = op.affine.matrix, op.affine.offset
        return (lambda z: m.dot(z) + q), (lambda z: m)
    return (lambda z: single_value(op, z)), (lambda z: single_jacobian(op, z))


@dataclass(frozen=True)
class OperatorSpec:
    """Structured description of A = F + H; cone is None when dom(A) = R^dim.

    Picked here, once: domain, cone or the whole space; route, the
    resolvent solve (op, lam, x, warm) -> Resolvent; and value and
    jacobian, F and JF at a 1-D float point, with the bits of single_value
    and single_jacobian there.  The Newton route hands them to
    normal_map_newton, and feedback.law_slope reads JF through them.
    """

    dim: int
    affine: AffinePart | None = None
    poly: PolyPart | None = None
    radial: RadialPart | None = None
    cone: BoxCone | BallCone | None = None
    domain: object = field(init=False, repr=False, compare=False)
    route: object = field(init=False, repr=False, compare=False)
    value: object = field(init=False, repr=False, compare=False)
    jacobian: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parts = [p for p in (self.affine, self.poly, self.radial) if p is not None]
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if not parts and self.cone is None:
            raise ValueError("operator needs at least one part")
        if self.affine is not None and self.affine.matrix.shape[0] != self.dim:
            raise ValueError("affine part dimension mismatch")
        if isinstance(self.cone, BoxCone) and self.cone.lower.size != self.dim:
            raise ValueError("box cone dimension mismatch")
        if isinstance(self.cone, BallCone) and self.cone.center.size != self.dim:
            raise ValueError("ball cone dimension mismatch")
        route = _newton_route if parts else _projection_route
        # A lone part has a closed form without a cone; a polynomial keeps it over a box.
        if len(parts) == 1 and (self.cone is None or (self.poly is not None and isinstance(self.cone, BoxCone))):
            route = {AffinePart: _affine_route, PolyPart: _poly_route, RadialPart: _radial_route}[type(parts[0])]
        object.__setattr__(self, "domain", _WHOLE_SPACE if self.cone is None else self.cone)
        object.__setattr__(self, "route", route)
        value, jacobian = _point_maps(self)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "jacobian", jacobian)

    def __reduce__(self):
        # The bound evaluators are closures, which do not pickle: rebuild from the parts.
        return OperatorSpec, (self.dim, self.affine, self.poly, self.radial, self.cone)


def make_affine(matrix, offset=None, cone=None):
    matrix = np.asarray(matrix, dtype=float)
    offset = np.zeros(matrix.shape[0]) if offset is None else offset
    return OperatorSpec(dim=matrix.shape[0], affine=AffinePart(matrix, offset), cone=cone)


def make_poly(coeffs, dim=1, cone=None):
    return OperatorSpec(dim=dim, poly=PolyPart(coeffs), cone=cone)


def single_value(op, x):
    """The single-valued part F(x), without the normal cone, at a point or at each row of an (n, d) stack."""
    x = np.asarray(x, dtype=float)
    out = _matvec(op.affine.matrix, x) + op.affine.offset if op.affine is not None else None
    if op.poly is not None:
        t = _horner(op.poly.ders[0], x)
        out = t if out is None else out + t
    if op.radial is not None:
        s = op.radial.weight * _dots(x, x)
        t = s * x if x.ndim == 1 else s[:, np.newaxis] * x
        out = t if out is None else out + t
    return np.zeros(x.shape) if out is None else out


def single_jacobian(op, x):
    """Jacobian of F at x; read-only when F is a lone affine part."""
    x = np.asarray(x, dtype=float)
    out = op.affine.matrix if op.affine is not None else None
    if op.poly is not None:
        t = np.diag(_horner(op.poly.ders[1], x))
        out = t if out is None else out + t
    if op.radial is not None:
        t = op.radial.weight * (float(x.dot(x)) * _eye(op.dim) + 2.0 * np.outer(x, x))
        out = t if out is None else out + t
    return np.zeros((op.dim, op.dim)) if out is None else out


def min_norm_residual(op, x):
    """inf{||v|| : v in A(x)}; +inf when x lies outside dom(A)."""
    x = np.asarray(x, dtype=float)
    if not op.domain.contains(x):
        return np.inf
    return op.domain.residual(x, single_value(op, x))


class Resolvent:
    """Output of a resolvent solve of x at lam: v in A(y) and lam*v + y ~= x.

    v, step = ||y - x|| and residual = ||lam*v + y - x|| are computed when
    first read, unless the route formed them for a test of its own: every
    closed form and the projection form v, the Newton kernel forms the step
    for its stop rule, the affine and radial closed forms form step and
    residual for their bound, and the projection route, exact by
    construction, reports residual 0.0.  A late read evaluates the same
    expression on the same floats, x copied at the solve, so its bits do
    not depend on when it happens or on what the caller does to x.

    The Newton kernel (normal_map_newton) sets state = (w, y, value(y)),
    its exit state with w its last normal-map point, and forms v = value(y)
    + (w - y)/lam from it on first read.  The state, or w alone,
    warm-starts another solve of the same map (see resolvent).  On a
    surrogate solve (tensor.surrogate_resolvent) value is the surrogate
    sur: v lies in (sur + N_C)(y) exactly and residual <= max(sigma_hat *
    ||y - x||, floor), the solve's stop rule.
    """

    __slots__ = ("y", "iterations", "state", "_v", "_lam", "_x", "_step", "_residual")

    def __init__(self, y, v, lam, x, iterations=0, step=None, residual=None, state=None):
        self.y, self._v, self.iterations, self.state = y, v, iterations, state
        self._lam, self._step, self._residual = lam, step, residual
        self._x = None if step is not None and residual is not None else np.array(x, dtype=float)

    @property
    def v(self):
        if self._v is None:
            w, y, fy = self.state
            self._v = fy + (w - y) / self._lam
        return self._v

    @property
    def step(self):
        if self._step is None:
            self._step = norm(self.y - self._x)
        return self._step

    @property
    def residual(self):
        if self._residual is None:
            self._residual = norm(self._lam * self.v + self.y - self._x)
        return self._residual


def _scalar_poly_root(c, dc, lam, target):
    # Solve y + lam*poly(y) = target; left side strictly increasing.  c and
    # dc are the coefficient tuples of poly and poly'; lam and target are
    # Python floats, so the arithmetic runs on floats throughout.
    y = target
    for _ in range(200):
        g = y + lam * _horner(c, y) - target
        if abs(g) <= 1e-14 * (1.0 + abs(target) + abs(y)):
            return y
        dg = 1.0 + lam * _horner(dc, y)
        # Safeguard with doubling bisection if Newton leaves a sane range
        # (dg = 0 would make the step infinite or NaN).
        if dg == 0.0:
            break
        ynew = y - g / dg
        if not math.isfinite(ynew):
            break
        y = ynew
    lo = hi = target
    width = max(1.0, abs(target))
    for _ in range(200):
        if (lo + lam * _horner(c, lo) - target) <= 0 and (hi + lam * _horner(c, hi) - target) >= 0:
            break
        lo -= width
        hi += width
        width *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid + lam * _horner(c, mid) > target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * (1.0 + abs(mid)):
            break
    return 0.5 * (lo + hi)


def _radial_root(weight, lam, s):
    # r + lam*w*r^3 = s, r >= 0; g convex on r >= 0 so Newton from r = s
    # decreases monotonically.
    if s == 0.0:
        return 0.0
    r = s
    for _ in range(100):
        g = r + lam * weight * r**3 - s
        if abs(g) <= 1e-15 * (1.0 + s):
            break
        r -= g / (1.0 + 3.0 * lam * weight * r * r)
    return r


def normal_map_newton(op, lam, x, value, jacobian, rel, floor, start, what):
    """Damped semismooth Newton on the normal map w + lam*value(P(w)) - x = 0.

    value and jacobian evaluate a monotone single-valued map and its
    Jacobian, and P and the normal map's Jacobian are op.domain's project
    and jacobian; the residual accepted at y = P(w) is max(rel*||y - x||,
    floor).  start is None (w = x), a bare w, or the exit state (w, P(w),
    value(P(w))) of an earlier solve: a state skips projecting w and
    evaluating value there, with the same bits, and so is valid only for
    the same value map and domain (lam and x may differ).  Returns the
    Resolvent of the exit state: y, iterations, step = ||y - x|| as the
    stop rule formed it and state = (w, y, value(y)); its v = value(y) +
    (w - y)/lam, the element of (value + N_dom)(y) whose ||lam*v + y - x||
    is the normal-map residual, is formed only when read.  Raises
    InnerSolverDiverged, its message prefixed by what, when the line search
    stalls or NEWTON_MAX_ITERS steps fall short of the accepted residual.
    """
    project, map_jacobian = op.domain.project, op.domain.jacobian
    if isinstance(start, tuple):
        w, y, fy = start
    else:
        w = x.copy() if start is None else np.asarray(start, dtype=float).copy()
        y = project(w)
        fy = value(y)
    f = w + lam * fy - x
    nf = norm(f)
    its = 0
    while its < NEWTON_MAX_ITERS:
        step = norm(y - x)
        target = max(rel * step, floor)
        if nf <= target:
            break
        jf = jacobian(y)
        jac = map_jacobian(lam, jf, w)[0]
        try:
            dw = _solve(jac, -f)
        except LinAlgError:
            dw = np.linalg.lstsq(jac, -f, rcond=None)[0]
        t = 1.0
        wn = w + dw  # the bits of w + 1.0 * dw
        for _ in range(60):
            yn = project(wn)
            fyn = value(yn)
            fn = wn + lam * fyn - x
            nfn = norm(fn)
            if nfn < nf * (1.0 - 1e-4 * t) or nfn <= target:
                break
            t *= 0.5
            wn = w + t * dw
        else:
            raise InnerSolverDiverged(
                f"{what} newton stalled at residual {nf:.3e}", residual=nf, iterations=its
            )
        w, y, fy, f, nf = wn, yn, fyn, fn, nfn
        its += 1
    else:
        step = norm(y - x)
        if nf > max(rel * step, floor):
            raise InnerSolverDiverged(
                f"{what} newton hit iteration cap at residual {nf:.3e}",
                residual=nf,
                iterations=its,
            )
    return Resolvent(y, None, lam, x, iterations=its, step=step, state=(w, y, fy))


def _closed_form(lam, x, y, v, what):
    """The Resolvent (y, v) of a closed-form route, or InnerSolverDiverged
    when its residual misses the bound (NaN included)."""
    res = norm(lam * v + y - x)
    step = norm(y - x)
    if not res <= RESOLVENT_TOL * max(1.0, step):
        # Rounding at eps*||x|| can exceed the bound; refining cannot help.
        raise InnerSolverDiverged(
            f"resolvent {what} solve missed its bound at residual {res:.3e}", residual=res, iterations=0
        )
    return Resolvent(y, v, lam, x, step=step, residual=res)


def _projection_route(op, lam, x, warm):
    # No single-valued part: the resolvent is the projection onto the cone.
    y = op.domain.project(x)
    return Resolvent(y, (x - y) / lam, lam, x, residual=0.0)


def _affine_route(op, lam, x, warm):
    m, q = op.affine.matrix, op.affine.offset
    y = _solve(_eye(op.dim) + lam * m, x - lam * q)
    return _closed_form(lam, x, y, m.dot(y) + q, "affine")


def _poly_route(op, lam, x, warm):
    # Separable: one increasing scalar equation per coordinate, then a box clamp.
    c, dc = op.poly.ders[:2]
    flam = float(lam)
    y = np.array([_scalar_poly_root(c, dc, flam, t) for t in x.tolist()])
    box = op.cone
    y = op.domain.project(y)
    py = _horner(c, y)
    # Clamping keeps the normal element sign-correct because the scalar map
    # y + lam*poly(y) is increasing.
    n = np.zeros(op.dim) if box is None else np.where((y > box.lower) & (y < box.upper), 0.0, (x - y) / lam - py)
    return Resolvent(y, py + n, lam, x)


def _radial_route(op, lam, x, warm):
    # y is parallel to x; its norm solves a scalar cubic.
    s = norm(np.ascontiguousarray(x))  # x is the caller's, maybe strided
    r = _radial_root(op.radial.weight, lam, s)
    y = (r / s) * x if s > 0 else np.zeros(op.dim)
    return _closed_form(lam, x, y, op.radial.weight * r * r * y, "radial")


def _box_lvi(a, b, lo, hi, side, what):
    """(y, side): y in [lo, hi] with r = b - a @ y zero where y is free, <= 0
    at lo and >= 0 at hi, by least-index principal pivoting from the
    partition side (-1 lower, 1 upper, 0 free), which it updates.  On a
    P-matrix a the pivots end (Murty 1974; Cottle, Pang & Stone 1992, ch.
    4); past MAX_PIVOTS_PER_DIM * dim, InnerSolverDiverged is raised, its
    message prefixed by what."""
    cap = MAX_PIVOTS_PER_DIM * b.size
    for _ in range(cap):
        free = side == 0
        y = np.where(side < 0, lo, hi)
        if free.any():
            act = ~free
            y[free] = _solve(a[np.ix_(free, free)], b[free] - a[np.ix_(free, act)] @ y[act])
        r = b - a @ y
        bad = free & ((y < lo) | (y > hi)) | (lo < hi) & ((side < 0) & (r > 0) | (side > 0) & (r < 0))
        if not bad.any():
            return y, side
        i = int(np.argmax(bad))
        side[i] = 0 if side[i] else (-1 if y[i] < lo[i] else 1)
    raise InnerSolverDiverged(f"{what} pivoting hit its cap of {cap} pivots", iterations=cap)


def _newton_route(op, lam, x, warm):
    try:
        return normal_map_newton(
            op,
            lam,
            x,
            op.value,
            op.jacobian,
            RESOLVENT_TOL,  # rel and floor: RESOLVENT_TOL * max(1, ||y - x||), to the bit
            RESOLVENT_TOL,
            warm,
            "resolvent",
        )
    except InnerSolverDiverged:
        # Damped Newton has no global convergence on a box LVI; pivoting on the P-matrix I + lam*M
        # finishes one exactly, and v = F(y) + n, n = 0 where y is free, lies in A(y) exactly.
        if not isinstance(op.cone, BoxCone) or op.affine is None or op.poly is not None or op.radial is not None:
            raise
        m, q, lo, hi = op.affine.matrix, op.affine.offset, op.cone.lower, op.cone.upper
        side = np.where(x <= lo, -1, np.where(x >= hi, 1, 0))
        y, side = _box_lvi(_eye(op.dim) + lam * m, x - lam * q, lo, hi, side, "resolvent affine + box")
        fy = m.dot(y) + q
        return _closed_form(lam, x, y, fy + np.where(side == 0, 0.0, (x - y) / lam - fy), "affine + box pivoting")


def resolvent(op, lam, x, warm=None):
    """Solve the regularized inclusion x in y + lam*A(y).

    Parameters
    ----------
    op : OperatorSpec
    lam : float, positive proximal coefficient.
    x : array, query point (need not lie in dom(A)).
    warm : None, or the state (w, y, F(y)) of an earlier Resolvent of op or
        its w alone; only the Newton route reads it, as its start.  A state
        also skips projecting w and evaluating F there, with the same bits,
        so it is valid only for the same operator (lam and x may differ).

    Returns
    -------
    Resolvent with v in A(y) exact by construction; residual reports
    ||lam*v + y - x|| <= RESOLVENT_TOL * max(1, ||y - x||) and step
    ||y - x||, each computed when first read unless the route formed it.
    The solve runs op.route, fixed when op was built.  Every route but the
    polynomial closed form raises InnerSolverDiverged when it misses that
    bound; there lam times the rounding of poly(y) can exceed it.  Where
    Newton fails on a lone affine part over a box, pivoting finishes the
    solve and returns a closed-form pair (state None).
    """
    if not lam > 0:
        raise ValueError("resolvent needs lam > 0")
    return op.route(op, lam, np.asarray(x, dtype=float), warm)


def cold_state(op, x):
    """The state (x, P(x), F(P(x))) a resolvent of x with warm=None starts
    from, or None where op's route reads no warm start.

    Handed to resolvent as warm, it gives the cold solve's bits at any lam
    and spares the solve projecting x and evaluating F there, so solves of
    one x at several lam form that start once.
    """
    if op.route is not _newton_route:
        return None
    w = np.array(x, dtype=float)
    y = op.domain.project(w)
    return w, y, op.value(y)


class TaylorSurrogate:
    """The order-(p-1) Taylor surrogate of F anchored at a fixed point.

    For p = 1 the surrogate is the frozen value F(anchor).  Affine parts
    are reproduced exactly for p >= 2, the radial part for p >= 4.  What
    depends on the anchor alone is formed once here: the polynomial
    derivative values, the radial constants, and the value at p = 1 and the
    Jacobian at p <= 2, which do not depend on u;
    value and jacobian hand those two out as one shared read-only array
    each (a lone affine part's constant Jacobian among them).  Otherwise
    they evaluate only the terms in h = u - anchor.  Their bits are those
    of the parts added in turn to a zero array, signs of zero included:
    the first part comes out as t + 0.0, the bits of 0.0 + t.
    """

    def __init__(self, op, anchor, p):
        if p < 1:
            raise ValueError("order must be >= 1")
        self.op = op
        self.p = p
        self.anchor = a = np.array(anchor, dtype=float)
        self.ders = self.aa = self.aaa = self.rad_jac = None
        if op.poly is not None:
            chain = op.poly.ders
            # ders[j] is the j-th derivative's value at the anchor; the
            # chain's last entry, the zero polynomial, repeats past its end.
            self.ders = [_horner(chain[min(j, len(chain) - 1)], a) for j in range(p)]
        if op.radial is not None:
            self.aa = float(a.dot(a))
            self.aaa = self.aa * a
            self.rad_jac = self.aa * _eye(op.dim) + 2.0 * np.outer(a, a)
        # Neither the value at p = 1 nor the Jacobian at p <= 2 depends on u.
        self.fixed_value = self.fixed_jac = None
        if p == 1:
            self.fixed_value = _readonly(self.value(a))
        if p <= 2:
            self.fixed_jac = _readonly(self.jacobian(a))

    def value(self, u):
        """Surrogate value at u."""
        if self.fixed_value is not None:
            return self.fixed_value
        op, p, a = self.op, self.p, self.anchor
        h = u - a
        out = None
        if op.affine is not None:
            # At p = 1 only value(anchor) runs this, so M u + q is F(anchor).
            out = op.affine.matrix.dot(u) + op.affine.offset + 0.0
        if op.poly is not None:
            # The sum of ders[j] * h^j / j!; its j = 0 term, 0.0 + ders[0],
            # holds no -0.0, so neither does the sum, which then needs no + 0.0.
            ders = self.ders
            acc = ders[0] + 0.0
            if p >= 2:
                acc += ders[1] * h
                hk, fact = h, 1.0
                for j in range(2, p):
                    fact *= j
                    hk = hk * h
                    acc += ders[j] * hk / fact
            out = acc if out is None else out + acc
        if op.radial is not None:
            acc = self.aaa
            if p >= 2:
                ah = float(a.dot(h))
                acc = acc + self.aa * h + 2.0 * ah * a
            if p >= 3:
                hh = float(h.dot(h))
                acc = acc + hh * a + 2.0 * ah * h
            if p >= 4:
                acc = acc + hh * h
            term = op.radial.weight * acc
            out = term + 0.0 if out is None else out + term
        return np.zeros(op.dim) if out is None else out

    def jacobian(self, u):
        """Jacobian in u of the surrogate."""
        if self.fixed_jac is not None:
            return self.fixed_jac
        op, p, a = self.op, self.p, self.anchor
        out = None
        if p >= 2:
            h = u - a
            if op.affine is not None:
                out = op.affine.matrix + 0.0
            if op.poly is not None:
                # As in value, diag holds no -0.0, and np.diag(diag) has the
                # bits of zeros + np.diag(diag).
                ders = self.ders
                diag = ders[1] + 0.0
                hk, fact = h, 1.0
                for j in range(2, p):
                    fact *= j
                    diag += ders[j] * hk * j / fact
                    hk = hk * h
                out = np.diag(diag) if out is None else out + np.diag(diag)
            if op.radial is not None:
                jac = self.rad_jac
                if p >= 3:
                    eye = _eye(op.dim)
                    # t is 2 * np.outer(a, h), and t.T is 2 * np.outer(h, a).
                    t = 2.0 * (a[:, None] * h)
                    jac = jac + t + t.T + 2.0 * float(a.dot(h)) * eye
                if p >= 4:
                    jac = jac + 2.0 * (h[:, None] * h) + float(h.dot(h)) * eye
                term = op.radial.weight * jac
                out = term + 0.0 if out is None else out + term
        return np.zeros((op.dim, op.dim)) if out is None else out
