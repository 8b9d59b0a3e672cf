"""Closed-loop step-size law lam * ||x - J_lam(x)||^(p-1) = theta.

For p >= 2 the scaled displacement lam^{1/(p-1)} ||x - J_lam(x)|| is zero
at lam = 0, strictly increasing and unbounded in lam off the solution set,
so the law has exactly one root there; for p = 1 the law reads lam = theta.
Every order goes through the same solve: geometric bracketing from a warm
hint followed by a guarded bracketed root-find, which at p = 1 accepts its
first trial, theta.  The post-condition
|lam * ||x - y||^(p-1) - theta| <= AE_TOL * theta is verified on exit, up to
the band (law_band) the inner resolvent certifies for its own result.  Each
lam is evaluated at most once per solve, and solve_law hands back the
resolvent the accepted root was tested on with its band.  Brent's trials
read the law value alone, so neither their resolvent residuals nor their
v are formed.

A solve rules out stationarity with the resolvent at its first lam where it
can (rules_out_stationarity): ||x - J_lam(x)|| / lam <= ||A°(x)||, so a
displacement well above STATIONARITY_TOL * lam spares min_norm_residual.
law_slope differentiates the law by the implicit-function theorem and
gives g_lam and g_x . f along a direction f, as floats: the flow
integrates lam' = -g_x . x' / g_lam from it, one adjoint solve per
evaluation on the resolvent's exit state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .errors import BracketOverflow, InnerSolverDiverged, StationaryPoint

__all__ = [
    "FeedbackParams",
    "STATIONARITY_TOL",
    "AE_TOL",
    "law_band",
    "law_slope",
    "rules_out_stationarity",
    "scaled_displacement",
    "solve_law",
    "solve_lambda",
    "stationarity_gauge",
]

STATIONARITY_TOL = 1e-12
AE_TOL = 1e-10
MAX_DOUBLINGS = 200
# Covers the rounding of ||x - y||, in units of ||x|| + ||y||: 8 float64 epsilons.
_ROUNDING = 8.0 * 2.0**-52


@dataclass(frozen=True)
class FeedbackParams:
    """theta > 0 and integer order p >= 1: the law has one root for every theta > 0."""

    theta: float
    p: int

    def __post_init__(self):
        if not self.theta > 0:
            raise ValueError("theta must be positive")
        if int(self.p) != self.p or self.p < 1:
            raise ValueError("order p must be an integer >= 1")
        object.__setattr__(self, "p", int(self.p))


def scaled_displacement(op, lam, x, p):
    """phi(lam, x) = lam^{1/(p-1)} * ||x - J_lam(x)||, with phi(0, x) = 0."""
    if p < 2:
        raise ValueError("scaled displacement needs p >= 2 (exponent 1/(p-1))")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if lam == 0.0:
        return 0.0
    x = np.asarray(x, dtype=float)
    y = ops.resolvent(op, lam, x).y
    return lam ** (1.0 / (p - 1)) * ops.norm(x - y)


def law_band(lam, d, rho, p):
    """Width of the band around lam * d^(p-1), d = ||x - y||, that holds the true
    law value when the resolvent y carries certified residual rho."""
    return lam * ((d + rho) ** (p - 1) - max(d - rho, 0.0) ** (p - 1))


def rules_out_stationarity(op, lam, x, r):
    """True when r, the Resolvent of x at lam, shows min_norm_residual(op, x)
    > STATIONARITY_TOL; False proves nothing.

    The Yosida bound ||x - J_lam(x)|| / lam <= ||A°(x)|| and ||r.y -
    J_lam(x)|| <= r.residual make (r.step - r.residual) / lam, less the
    rounding of r.step = ||r.y - x||, a lower bound on ||A°(x)||.  It is
    used only where min_norm_residual is ||F(x)|| (op.domain.interior): nearer
    the boundary that test lets a normal vector cancel part of F(x), and
    past it returns inf.
    """
    if not op.domain.interior(x):
        return False
    slack = r.residual + _ROUNDING * (ops.norm(x) + ops.norm(r.y))
    return (r.step - slack) / lam > STATIONARITY_TOL


def _adjoint(op, lam, x, r, p, e):
    """(d, c, z, F(y)) at r, the Resolvent of x at lam, for p >= 2 and d > 0:
    d = ||x - y|| is r.step, c = lam (p-1) d^(p-3) and z = N^-T DP e.

    N = I + lam*JF(y)*DP(w) is the normal map's Jacobian in w, as the
    Newton kernel forms it (op.domain.jacobian), with w and F(y) read from
    r.state when the Newton route left one and JF from op.jacobian; only a
    resolvent without a state forms F(y) and w = x - lam*F(y).
    """
    y = r.y
    if r.state is None:
        fy = op.value(y)
        w = x - lam * fy
    else:
        w, _, fy = r.state
    n, dp = op.domain.jacobian(lam, op.jacobian(y), w)
    pe = e if dp is None else dp * e if dp.ndim == 1 else dp.dot(e)  # DP e
    d = r.step  # ||y - x||, the bits of ||x - y||
    return d, lam * (p - 1) * d ** (p - 3), ops._solve(n.T, pe), fy


def law_slope(op, lam, x, r, p, f):
    """(g_lam, g_x . f), two floats, for the gradient of g(lam, x) = lam *
    ||x - J_lam(x)||^(p-1) at r, the Resolvent of x at lam, along f = r.y - x.

    y = r.y = P(w) with w = x - lam*F(y) the root of the normal map, whose
    Jacobian in w is N = I + lam*JF(y)*DP(w) (op.domain.jacobian, the
    Newton kernel's).  The implicit-function theorem gives dy/dlam =
    -DP N^-1 F(y) and (dy/dx)^T e = N^-T DP e; DP is symmetric.  With u =
    x - y, d = ||u|| and c = lam (p-1) d^(p-3), g_x = c (u - z) and g_lam =
    d^(p-1) + c (z . F(y)) for the adjoint solve z = N^-T DP u.  Made on f
    = -u instead, its z is -z to the bit, so g_lam = d^(p-1) - c (z . F(y))
    and g_x . f = -c (f - z) . f, with no vector g_x formed.  At a kink of
    P it is the one-sided gradient on the branch N takes there.  The flow
    reads lam' = -g_x . f / g_lam from it.  For p >= 2 only; at y = x with
    p = 2, where d^(p-3) has no value, both come back NaN.
    """
    if r.step == 0.0 and p < 3:
        return math.nan, math.nan
    d, c, z, fy = _adjoint(op, lam, x, r, p, f)
    return d ** (p - 1) - c * float(z.dot(fy)), -c * float((f - z).dot(f))


class _LawCurve:
    """Memoised evaluations of g(lam) = lam * ||x - J_lam(x)||^(p-1).

    The resolvent residual rho bounds ||y - J_lam(x)|| (the resolvent is
    nonexpansive and the returned v lies in A(y) exactly), so each value
    carries a certified band lam * ((d+rho)^(p-1) - (d-rho)^(p-1)) outside
    of which the true g cannot lie; solve_law forms it, and with it rho,
    only for a lam whose acceptance it tests.  memo maps each lam evaluated
    (the exact float) to (value, Resolvent); a repeated lam returns its
    entry and leaves the warm start alone.  A resolvent whose step is not
    finite (an overflow) raises InnerSolverDiverged naming lam and the
    step, since no law value can be read from it.  Every solve starts from
    the exit state of the last one, the first from warm: x and the operator
    are fixed here.
    """

    def __init__(self, op, x, p, warm=None):
        self.op = op
        self.x = np.asarray(x, dtype=float)
        self.p = p
        self.warm = warm
        self.memo = {}

    def entry(self, lam):
        hit = self.memo.get(lam)
        if hit is None:
            r = ops.resolvent(self.op, lam, self.x, warm=self.warm)
            if not math.isfinite(r.step):
                raise InnerSolverDiverged(f"resolvent step ||x - y|| = {r.step} not finite at lam {lam:.3e}")
            if r.state is not None:
                self.warm = r.state
            hit = self.memo[lam] = (lam * r.step ** (self.p - 1), r)
        return hit

    def __call__(self, lam):
        return self.entry(lam)[0]

    def proves_nonstationary(self, lam):
        try:
            r = self.entry(lam)[1]
        except InnerSolverDiverged:
            return False  # the solve meets the failure again once x is known not stationary
        return rules_out_stationarity(self.op, lam, self.x, r)


def _brent(f, xa, xb, xtol, rtol, maxiter):
    """Brent's root-finder on a sign-changing bracket [xa, xb].

    A step-for-step port of scipy's brentq.c, so it evaluates f at the
    same points in the same order.  Unlike scipy.optimize.brentq it
    returns the last iterate, not an error, when maxiter steps run out.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    return xcur


def solve_law(op, x, params, hint=None, residual=None, warm=None):
    """Root of the control law at x, the resolvent it was accepted on and its band.

    Parameters
    ----------
    op : OperatorSpec
    x : array
    params : FeedbackParams
    hint : float or None, the first trial lam for p >= 2 (1.0 without one).
        For p = 1 the law reads lam = theta, and theta is the first trial.
    residual : float or None, ops.min_norm_residual(op, x) when the caller
        has already evaluated it; the stationarity test then reads it.
        Without it, the resolvent at the first lam may rule stationarity
        out (rules_out_stationarity) before min_norm_residual is called.
    warm : None, or a Newton state (ops.resolvent's warm) for the first
        trial's resolvent; each later trial starts from the one before.

    Returns (lam, r, band): lam is the unique lam > 0 with
    lam * ||x - J_lam(x)||^(p-1) = theta and r the Resolvent at lam whose
    value passed the acceptance test
    |lam * r.step^(p-1) - theta| <= AE_TOL * theta + band, with band =
    law_band(lam, r.step, r.residual, p); for p = 1 that is (theta, the
    resolvent at theta, 0.0).  Raises StationaryPoint when residual, or
    else min_norm_residual(op, x), is <= STATIONARITY_TOL.
    One loop tests each trial for acceptance and keeps a bracket (lo, hi)
    from (0, inf): a trial below theta sets lo, one at or above it hi, and
    the next trial is 2*lo while hi is inf and hi/2 while lo is 0; Brent's
    method then runs on (lo, hi), reading law values only.
    """
    theta, p = params.theta, params.p
    g = _LawCurve(op, x, p, warm)
    # At p = 1 the law value is lam itself, so theta is accepted at once.
    lam = theta if p == 1 else float(hint) if hint is not None and hint > 0 else 1.0
    if residual is None and not g.proves_nonstationary(lam):
        residual = ops.min_norm_residual(op, x)
    if residual is not None and residual <= STATIONARITY_TOL:
        raise StationaryPoint("x solves the inclusion to tolerance", x=x, residual=residual)

    def accepted(lam):
        # (lam, r, band) when lam passes the acceptance test, else None.
        val, r = g.entry(lam)
        band = law_band(lam, r.step, r.residual, p)
        return (lam, r, band) if abs(val - theta) <= AE_TOL * theta + band else None

    lo, hi = 0.0, math.inf
    for _ in range(MAX_DOUBLINGS + 1):
        if found := accepted(lam):
            return found
        if g(lam) < theta:
            lo = lam
        else:
            hi = lam
        if hi == math.inf:
            lam = 2.0 * lo
        elif lo == 0.0:
            lam = 0.5 * hi
        else:
            break
    else:
        side, steps = ("upper", "doublings") if hi == math.inf else ("lower", "halvings")
        raise BracketOverflow(f"no {side} bracket after {MAX_DOUBLINGS} {steps}")

    lam = _brent(lambda s: g(s) - theta, lo, hi, xtol=1e-300, rtol=1e-14, maxiter=200)
    if found := accepted(lam):
        return found
    # Brent met its own lam tolerance (or its step cap) without the
    # residual one; finish by plain bisection on the remaining interval.
    lo, hi = (lam, hi) if g(lam) < theta else (lo, lam)
    for _ in range(256):
        mid = 0.5 * (lo + hi)
        if found := accepted(mid):
            return found
        if g(mid) < theta:
            lo = mid
        else:
            hi = mid
    miss = abs(g(mid) - theta)
    raise InnerSolverDiverged(
        f"control-law residual {miss / theta:.3e} above {AE_TOL:.1e}"
        " plus the certified resolvent band",
        residual=miss,
    )


def solve_lambda(op, x, params, hint=None, residual=None, warm=None):
    """The lam of solve_law(op, x, params, hint, residual, warm), without its resolvent and band."""
    return solve_law(op, x, params, hint=hint, residual=residual, warm=warm)[0]


def stationarity_gauge(op, x, params):
    """(1 / lam(x))^{1/(p-1)} extended by 0 on the solution set.

    Lipschitz on all of H with constant theta^{-1/(p-1)}.
    """
    if params.p < 2:
        raise ValueError("gauge needs p >= 2")
    try:
        lam = solve_lambda(op, x, params)
    except StationaryPoint:
        return 0.0
    return (1.0 / lam) ** (1.0 / (params.p - 1))
