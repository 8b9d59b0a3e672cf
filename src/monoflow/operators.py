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
solve error.

What depends on the operator alone is computed once, when its parts are
built: a PolyPart keeps its derivative chain, and a BoxCone its boundary
tolerance edges.  Solves read them; polynomials are evaluated by _horner,
which gives npoly.polyval's bits on floats and on arrays alike.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import InnerSolverDiverged
from .report import worst

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
    "domain_project",
    "domain_contains",
    "domain_sup_dist_sq",
    "min_norm_residual",
    "normal_map_newton",
    "resolvent",
    "TaylorSurrogate",
    "enlargement_check",
]

AFFINE_EIG_TOL = -1e-10
POLY_DERIV_TOL = -1e-12
RESOLVENT_TOL = 1e-10
NEWTON_MAX_ITERS = 100
BOUNDARY_ATOL = 1e-12


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def norm(v):
    """np.linalg.norm of a contiguous 1-D float64 vector, bit for bit, minus its dispatch cost."""
    return math.sqrt(v @ v)  # np.linalg.norm also takes the square root of v.dot(v)


def _horner(c, x):
    """npoly.polyval(x, c) bit for bit, by its own recurrence, without its dispatch.

    c lists coefficients in increasing degree; x is a float or an array.
    """
    y = c[-1] + x * 0  # x * 0 as in polyval: shape, and NaN at infinite x
    for ck in c[-2::-1]:
        y = ck + y * x
    return y


@functools.cache
def _eye(d):
    return _readonly(np.eye(d))


@dataclass(frozen=True)
class AffinePart:
    """F(x) = matrix @ x + offset with monotone (PSD symmetric part) matrix."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m = _readonly(self.matrix)
        q = _readonly(self.offset)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("affine matrix must be square")
        if q.shape != (m.shape[0],):
            raise ValueError("affine offset shape mismatch")
        sym = 0.5 * (m + m.T)
        lo = float(np.linalg.eigvalsh(sym)[0])
        if lo < AFFINE_EIG_TOL:
            raise ValueError(f"affine part not monotone: min symmetric eigenvalue {lo:.3e}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", q)


@dataclass(frozen=True)
class PolyPart:
    """Coordinatewise scalar polynomial, coefficients in increasing degree.

    Monotonicity on R is checked exactly up to root finding: the derivative
    must have even degree, positive leading coefficient, and nonnegative
    values at all of its real critical points.

    ders is the derivative chain as coefficient tuples of floats: ders[j]
    is npoly.polyder applied j times to coeffs, for j up to deg + 1, where
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
            chain.append(npoly.polyder(chain[-1]))
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
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        scale = _readonly(1.0 + np.maximum(np.abs(lo), np.abs(hi)))
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "lower_out", _readonly(lo - BOUNDARY_ATOL * scale))
        object.__setattr__(self, "upper_out", _readonly(hi + BOUNDARY_ATOL * scale))
        object.__setattr__(self, "lower_in", _readonly(lo + BOUNDARY_ATOL * scale))
        object.__setattr__(self, "upper_in", _readonly(hi - BOUNDARY_ATOL * scale))


@dataclass(frozen=True)
class BallCone:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = _readonly(self.center)
        if c.ndim != 1:
            raise ValueError("ball center must be a vector")
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")
        object.__setattr__(self, "center", c)


@dataclass(frozen=True)
class OperatorSpec:
    """Structured description of A = F + H; cone is None when dom(A) = R^dim."""

    dim: int
    affine: AffinePart | None = None
    poly: PolyPart | None = None
    radial: RadialPart | None = None
    cone: BoxCone | BallCone | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.affine is None and self.poly is None and self.radial is None and self.cone is None:
            raise ValueError("operator needs at least one part")
        if self.affine is not None and self.affine.matrix.shape[0] != self.dim:
            raise ValueError("affine part dimension mismatch")
        if isinstance(self.cone, BoxCone) and self.cone.lower.size != self.dim:
            raise ValueError("box cone dimension mismatch")
        if isinstance(self.cone, BallCone) and self.cone.center.size != self.dim:
            raise ValueError("ball cone dimension mismatch")


def make_affine(matrix, offset=None, cone=None):
    matrix = np.asarray(matrix, dtype=float)
    offset = np.zeros(matrix.shape[0]) if offset is None else offset
    return OperatorSpec(dim=matrix.shape[0], affine=AffinePart(matrix, offset), cone=cone)


def make_poly(coeffs, dim=1, cone=None):
    return OperatorSpec(dim=dim, poly=PolyPart(coeffs), cone=cone)


def single_value(op, x):
    """Evaluate the single-valued part F(x); excludes the normal cone."""
    x = np.asarray(x, dtype=float)
    terms = []
    if op.affine is not None:
        terms.append(op.affine.matrix @ x + op.affine.offset)
    if op.poly is not None:
        terms.append(_horner(op.poly.ders[0], x))
    if op.radial is not None:
        terms.append(op.radial.weight * float(x @ x) * x)
    return sum(terms[1:], terms[0]) if terms else np.zeros(op.dim)


def single_jacobian(op, x):
    """Jacobian of F at x; read-only when F is a lone affine part."""
    x = np.asarray(x, dtype=float)
    terms = []
    if op.affine is not None:
        terms.append(op.affine.matrix)
    if op.poly is not None:
        terms.append(np.diag(_horner(op.poly.ders[1], x)))
    if op.radial is not None:
        terms.append(op.radial.weight * (float(x @ x) * _eye(op.dim) + 2.0 * np.outer(x, x)))
    return sum(terms[1:], terms[0]) if terms else np.zeros((op.dim, op.dim))


def domain_project(op, x):
    x = np.asarray(x, dtype=float)
    c = op.cone
    if c is None:
        return x.copy()
    if isinstance(c, BoxCone):
        return np.minimum(np.maximum(x, c.lower), c.upper)
    r = x - c.center
    nr = norm(r)
    if nr <= c.radius:
        return x.copy()
    return c.center + (c.radius / nr) * r


def domain_contains(op, x, atol=BOUNDARY_ATOL):
    x = np.asarray(x, dtype=float)
    c = op.cone
    if c is None:
        return True
    if isinstance(c, BoxCone):
        if atol == BOUNDARY_ATOL:
            lo, hi = c.lower_out, c.upper_out
        else:
            lo, hi = c.lower - atol * c.scale, c.upper + atol * c.scale
        return bool((x >= lo).all() and (x <= hi).all())
    return norm(x - c.center) <= c.radius * (1.0 + atol)


def domain_sup_dist_sq(op, x0):
    """sup_{z in dom(A)} ||z - x0||^2 for bounded domains."""
    x0 = np.asarray(x0, dtype=float)
    c = op.cone
    if isinstance(c, BoxCone):
        far = np.where(np.abs(c.lower - x0) > np.abs(c.upper - x0), c.lower, c.upper)
        return float(np.sum((far - x0) ** 2))
    if isinstance(c, BallCone):
        return (norm(x0 - c.center) + c.radius) ** 2
    raise ValueError("domain is unbounded")


def _cone_residual(cone, x, g):
    """min_{n in N_cone(x)} ||g + n||; x assumed in the domain."""
    if cone is None:
        return norm(g)
    if isinstance(cone, BoxCone):
        # n >= 0 available at the upper bound cancels negative g, and dually.
        cancel = ((x >= cone.upper_in) & (g < 0)) | ((x <= cone.lower_in) & (g > 0))
        return norm(np.where(cancel, 0.0, g))
    rad = x - cone.center
    nr = norm(rad)
    if nr < cone.radius * (1.0 - BOUNDARY_ATOL):
        return norm(g)
    u = rad / nr if nr > 0 else np.zeros_like(x)
    inner = float(g @ u)
    if inner >= 0:
        return norm(g)
    return float(np.sqrt(max(0.0, float(g @ g) - inner * inner)))


def min_norm_residual(op, x):
    """inf{||v|| : v in A(x)}; +inf when x lies outside dom(A)."""
    x = np.asarray(x, dtype=float)
    if not domain_contains(op, x):
        return np.inf
    return _cone_residual(op.cone, x, single_value(op, x))


@dataclass(frozen=True)
class Resolvent:
    """Output of a resolvent solve: v in A(y) and lam*v + y ~= x."""

    y: np.ndarray
    v: np.ndarray
    residual: float
    iterations: int
    w: np.ndarray | None = None


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


def _proj_jacobian(cone, w):
    if cone is None:
        return None  # identity
    if isinstance(cone, BoxCone):
        return ((w > cone.lower) & (w < cone.upper)).astype(float)
    r = w - cone.center
    nr = norm(r)
    if nr <= cone.radius:
        return None
    u = r / nr
    return (cone.radius / nr) * (_eye(w.size) - np.outer(u, u))


def normal_map_newton(op, lam, x, value, jacobian, stop, w0, what):
    """Damped semismooth Newton on the normal map w + lam*value(P(w)) - x = 0.

    value and jacobian evaluate a monotone single-valued map and its
    Jacobian; stop(y) is the residual accepted at y = P(w), and w0 the start
    (None: x).  Returns (y, v, w, iterations) with v = value(y) + (w - y)/lam
    in (value + N_dom)(y) exactly, so ||lam*v + y - x|| is the normal-map
    residual.  Raises InnerSolverDiverged, its message prefixed by what, when
    the line search stalls or NEWTON_MAX_ITERS steps fall short of stop.
    """
    w = x.copy() if w0 is None else np.asarray(w0, dtype=float).copy()
    eye = _eye(op.dim)

    def trial(wv):
        # (P(wv), value there, normal map at wv, its norm)
        yv = domain_project(op, wv)
        vv = value(yv)
        fv = wv + lam * vv - x
        return yv, vv, fv, norm(fv)

    y, fy, f, nf = trial(w)
    its = 0
    while its < NEWTON_MAX_ITERS:
        target = stop(y)
        if nf <= target:
            break
        jf = jacobian(y)
        dp = _proj_jacobian(op.cone, w)
        if dp is None:
            jac = eye + lam * jf
        elif dp.ndim == 1:
            jac = eye + lam * (jf * dp[np.newaxis, :])
        else:
            jac = eye + lam * (jf @ dp)
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -f, rcond=None)[0]
        t = 1.0
        for _ in range(60):
            wn = w + t * step
            yn, fyn, fn, nfn = trial(wn)
            if nfn < nf * (1.0 - 1e-4 * t) or nfn <= target:
                break
            t *= 0.5
        else:
            raise InnerSolverDiverged(
                f"{what} newton stalled at residual {nf:.3e}", residual=nf, iterations=its
            )
        w, y, fy, f, nf = wn, yn, fyn, fn, nfn
        its += 1
    else:
        if nf > stop(y):
            raise InnerSolverDiverged(
                f"{what} newton hit iteration cap at residual {nf:.3e}",
                residual=nf,
                iterations=its,
            )
    return y, fy + (w - y) / lam, w, its


def resolvent(op, lam, x, warm=None):
    """Solve the regularized inclusion x in y + lam*A(y).

    Parameters
    ----------
    op : OperatorSpec
    lam : float, positive proximal coefficient.
    x : array, query point (need not lie in dom(A)).
    warm : array or None, start for the iterative routes (a previous w).

    Returns
    -------
    Resolvent with v in A(y) exact by construction; residual reports
    ||lam*v + y - x|| <= RESOLVENT_TOL * max(1, ||y - x||); the Newton and
    the closed-form affine routes raise InnerSolverDiverged when they miss it.
    """
    if not lam > 0:
        raise ValueError("resolvent needs lam > 0")
    x = np.asarray(x, dtype=float)

    single_parts = sum(p is not None for p in (op.affine, op.poly, op.radial))

    if single_parts == 0:
        y = domain_project(op, x)
        v = (x - y) / lam
        return Resolvent(y=y, v=v, residual=0.0, iterations=0)

    if op.affine is not None and single_parts == 1 and op.cone is None:
        m, q = op.affine.matrix, op.affine.offset
        y = np.linalg.solve(_eye(op.dim) + lam * m, x - lam * q)
        v = m @ y + q
        res = norm(lam * v + y - x)
        if res > RESOLVENT_TOL * max(1.0, norm(y - x)):
            # Rounding at eps*||x|| can exceed the bound; refining cannot help.
            raise InnerSolverDiverged(
                f"resolvent affine solve missed its bound at residual {res:.3e}", residual=res, iterations=0
            )
        return Resolvent(y=y, v=v, residual=res, iterations=0)

    if op.poly is not None and single_parts == 1 and not isinstance(op.cone, BallCone):
        c, dc = op.poly.ders[:2]
        flam = float(lam)
        y = np.array([_scalar_poly_root(c, dc, flam, t) for t in x.tolist()])
        if isinstance(op.cone, BoxCone):
            y = np.clip(y, op.cone.lower, op.cone.upper)
            py = _horner(c, y)
            # Clamping keeps the normal element sign-correct because the
            # scalar map y + lam*poly(y) is increasing.
            n = np.where((y > op.cone.lower) & (y < op.cone.upper), 0.0, (x - y) / lam - py)
        else:
            py = _horner(c, y)
            n = np.zeros(op.dim)
        v = py + n
        res = norm(lam * v + y - x)
        return Resolvent(y=y, v=v, residual=res, iterations=0)

    if op.radial is not None and single_parts == 1 and op.cone is None:
        s = norm(np.ascontiguousarray(x))  # x is the caller's, maybe strided
        r = _radial_root(op.radial.weight, lam, s)
        y = (r / s) * x if s > 0 else np.zeros(op.dim)
        v = op.radial.weight * r * r * y
        res = norm(lam * v + y - x)
        return Resolvent(y=y, v=v, residual=res, iterations=0)

    if op.affine is not None and single_parts == 1:
        m, q = op.affine.matrix, op.affine.offset
        value, jacobian = (lambda z: m @ z + q), (lambda z: m)
    else:
        value, jacobian = (lambda z: single_value(op, z)), (lambda z: single_jacobian(op, z))
    y, v, w, its = normal_map_newton(
        op,
        lam,
        x,
        value,
        jacobian,
        lambda y: RESOLVENT_TOL * max(1.0, norm(y - x)),
        warm,
        "resolvent",
    )
    res = norm(lam * v + y - x)
    return Resolvent(y=y, v=v, residual=res, iterations=its, w=w)


class TaylorSurrogate:
    """The order-(p-1) Taylor surrogate of F anchored at a fixed point.

    For p = 1 the surrogate is the frozen value F(anchor).  Affine parts
    are reproduced exactly for p >= 2, the radial part for p >= 4.  The
    terms that depend on the anchor alone (polynomial derivative values,
    the frozen affine value, the radial constants) are evaluated once here;
    value and jacobian then cost only the terms in h = u - anchor.
    """

    def __init__(self, op, anchor, p):
        if p < 1:
            raise ValueError("order must be >= 1")
        self.op = op
        self.p = p
        self.anchor = a = np.array(anchor, dtype=float)
        self.frozen = self.ders = self.aa = self.aaa = self.rad_jac = None
        if op.affine is not None and p == 1:
            self.frozen = op.affine.matrix @ a + op.affine.offset
        if op.poly is not None:
            chain = op.poly.ders
            # ders[j] is the j-th derivative's value at the anchor; the
            # chain's last entry, the zero polynomial, repeats past its end.
            self.ders = [_horner(chain[min(j, len(chain) - 1)], a) for j in range(p)]
        if op.radial is not None:
            self.aa = float(a @ a)
            self.aaa = self.aa * a
            self.rad_jac = self.aa * _eye(op.dim) + 2.0 * np.outer(a, a)

    def value(self, u):
        """Surrogate value at u."""
        op, p, a = self.op, self.p, self.anchor
        u = np.asarray(u, dtype=float)
        h = u - a
        out = np.zeros(op.dim)
        if op.affine is not None:
            out += self.frozen if p == 1 else op.affine.matrix @ u + op.affine.offset
        if op.poly is not None:
            fact = 1.0
            acc = np.zeros(op.dim)
            hk = np.ones(op.dim)
            for j, c in enumerate(self.ders):
                if j > 0:
                    fact *= j
                    hk = hk * h
                acc += c * hk / fact
            out += acc
        if op.radial is not None:
            acc = self.aaa
            if p >= 2:
                ah = float(a @ h)
                acc = acc + self.aa * h + 2.0 * ah * a
            if p >= 3:
                hh = float(h @ h)
                acc = acc + hh * a + 2.0 * ah * h
            if p >= 4:
                acc = acc + hh * h
            out += op.radial.weight * acc
        return out

    def jacobian(self, u):
        """Jacobian in u of the surrogate."""
        op, p, a = self.op, self.p, self.anchor
        u = np.asarray(u, dtype=float)
        h = u - a
        out = np.zeros((op.dim, op.dim))
        if op.affine is not None and p >= 2:
            out += op.affine.matrix
        if op.poly is not None and p >= 2:
            fact = 1.0
            diag = np.zeros(op.dim)
            hk = np.ones(op.dim)
            for j in range(1, p):
                fact *= j
                diag += self.ders[j] * hk * j / fact
                hk = hk * h
            out += np.diag(diag)
        if op.radial is not None and p >= 2:
            jac = self.rad_jac
            if p >= 3:
                eye = _eye(op.dim)
                jac = jac + 2.0 * np.outer(a, h) + 2.0 * np.outer(h, a) + 2.0 * float(a @ h) * eye
            if p >= 4:
                jac = jac + 2.0 * np.outer(h, h) + float(h @ h) * eye
            out += op.radial.weight * jac
        return out


def _sample_domain_member(op, x, rng, scale_hint):
    """Draw (x_tilde, v_tilde) with v_tilde in A(x_tilde)."""
    c = op.cone
    d = op.dim
    if c is None:
        xt = x + rng.standard_normal(d) * (1.0 + 0.5 * float(np.linalg.norm(x)))
        return xt, single_value(op, xt)
    if isinstance(c, BoxCone):
        xt = c.lower + (c.upper - c.lower) * rng.random(d)
        n = np.zeros(d)
        if rng.random() < 0.4:
            mask = rng.random(d) < 0.5
            hi_side = rng.random(d) < 0.5
            xt = np.where(mask, np.where(hi_side, c.upper, c.lower), xt)
            mag = np.abs(rng.standard_normal(d)) * scale_hint
            n = np.where(mask, np.where(hi_side, mag, -mag), 0.0)
        return xt, single_value(op, xt) + n
    u = rng.standard_normal(d)
    u /= max(float(np.linalg.norm(u)), 1e-300)
    xt = c.center + c.radius * rng.random() ** (1.0 / d) * u
    n = np.zeros(d)
    if rng.random() < 0.4:
        xt = c.center + c.radius * u
        n = abs(rng.standard_normal()) * scale_hint * u
    return xt, single_value(op, xt) + n


def enlargement_check(op, x, v, eps, witness_count=64, seed=0):
    """Sampled necessary condition for v in the eps-enlargement of A at x.

    Draws witness_count pairs (x_tilde, v_tilde) from the graph of A,
    deterministic in seed, and tests <x - x_tilde, v - v_tilde> >= -eps up
    to a small relative slack.  A True answer is not a certificate (no
    finite one exists); a False answer exhibits a violating witness.

    Returns (ok, worst_margin) with worst_margin = min inner product + eps,
    folded by report.worst; a NaN inner product fails both.
    """
    # Contiguous, so that norm() matches np.linalg.norm on strided input too.
    x = np.ascontiguousarray(x, dtype=float)
    v = np.ascontiguousarray(v, dtype=float)
    rng = np.random.default_rng(seed)
    scale_hint = 1.0 + norm(v) + norm(single_value(op, domain_project(op, x)))
    margins = []
    ok = True
    for _ in range(witness_count):
        xt, vt = _sample_domain_member(op, x, rng, scale_hint)
        inner = float((x - xt) @ (v - vt))
        margins.append(inner + eps)
        slack = 1e-10 * (1.0 + norm(x - xt) * norm(v - vt))
        if not inner >= -eps - slack:
            ok = False
    return ok, worst(margins)[0]
