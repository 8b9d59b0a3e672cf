"""Closed-loop step-size law lam * ||x - J_lam(x)||^(p-1) = theta.

The scaled displacement lam^{1/(p-1)} ||x - J_lam(x)|| is zero at lam = 0,
strictly increasing and unbounded in lam off the solution set, so the law
has exactly one root there.  The root is found by geometric bracketing from
a warm hint followed by a guarded bracketed root-find; the post-condition
|lam * ||x - y||^(p-1) - theta| <= AE_TOL * theta is verified on exit, up to
the band (law_band) the inner resolvent certifies for its own result.  Each
lam is evaluated at most once per solve, and solve_law hands back the
resolvent the accepted root was tested on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import operators as ops
from .errors import BracketOverflow, InnerSolverDiverged, StationaryPoint

__all__ = [
    "FeedbackParams",
    "STATIONARITY_TOL",
    "AE_TOL",
    "law_band",
    "scaled_displacement",
    "solve_law",
    "solve_lambda",
    "stationarity_gauge",
]

STATIONARITY_TOL = 1e-12
AE_TOL = 1e-10
MAX_DOUBLINGS = 200


@dataclass(frozen=True)
class FeedbackParams:
    """theta in (0, 1) and integer order p >= 1.

    relax_theta lifts the upper bound to theta > 0 for large-step uses
    where only lam * ||y - x||^(p-1) >= theta is needed.
    """

    theta: float
    p: int
    relax_theta: bool = False

    def __post_init__(self):
        if not self.theta > 0:
            raise ValueError("theta must be positive")
        if not self.relax_theta and not self.theta < 1:
            raise ValueError("theta must lie in (0, 1); set relax_theta to lift")
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
    return lam ** (1.0 / (p - 1)) * float(np.linalg.norm(x - y))


def law_band(lam, d, rho, p):
    """Width of the band around lam * d^(p-1), d = ||x - y||, that holds the true
    law value when the resolvent y carries certified residual rho."""
    return lam * ((d + rho) ** (p - 1) - max(d - rho, 0.0) ** (p - 1))


class _LawCurve:
    """Memoised evaluations of g(lam) = lam * ||x - J_lam(x)||^(p-1).

    The resolvent residual rho bounds ||y - J_lam(x)|| (the resolvent is
    nonexpansive and the returned v lies in A(y) exactly), so each value
    carries a certified band lam * ((d+rho)^(p-1) - (d-rho)^(p-1)) outside
    of which the true g cannot lie.  memo maps each lam evaluated (the
    exact float) to (value, band, Resolvent); a repeated lam returns its
    entry and leaves the warm start alone.
    """

    def __init__(self, op, x, p):
        self.op = op
        self.x = np.asarray(x, dtype=float)
        self.p = p
        self.warm = None
        self.memo = {}

    def entry(self, lam):
        hit = self.memo.get(lam)
        if hit is None:
            r = ops.resolvent(self.op, lam, self.x, warm=self.warm)
            if r.w is not None:
                self.warm = r.w
            d = ops.norm(self.x - r.y)
            band = law_band(lam, d, r.residual, self.p)
            hit = self.memo[lam] = (lam * d ** (self.p - 1), band, r)
        return hit

    def __call__(self, lam):
        return self.entry(lam)[0]


def solve_law(op, x, params, hint=None):
    """Root of the control law at x and the resolvent it was accepted on.

    Parameters are those of solve_lambda.  Returns (lam, r): lam is the
    unique lam > 0 with lam * ||x - J_lam(x)||^(p-1) = theta and r the
    Resolvent at lam whose value passed the acceptance test
    |lam * ||x - r.y||^(p-1) - theta| <= AE_TOL * theta + band.  For p = 1
    it returns (theta, None).  Raises StationaryPoint on solutions.
    """
    theta, p = params.theta, params.p
    res = ops.min_norm_residual(op, x)
    if res <= STATIONARITY_TOL:
        raise StationaryPoint("x solves the inclusion to tolerance", x=x, residual=res)
    if p == 1:
        return theta, None

    g = _LawCurve(op, x, p)

    def accepted(lam):
        val, band, _ = g.entry(lam)
        return abs(val - theta) <= AE_TOL * theta + band

    def found(lam):
        return lam, g.memo[lam][2]

    lam = float(hint) if hint is not None and hint > 0 else 1.0
    if accepted(lam):
        return found(lam)

    lo = hi = lam
    if g(lam) < theta:
        for _ in range(MAX_DOUBLINGS):
            lo, hi = hi, hi * 2.0
            if g(hi) >= theta:
                break
        else:
            raise BracketOverflow(f"no upper bracket after {MAX_DOUBLINGS} doublings")
    else:
        for _ in range(MAX_DOUBLINGS):
            lo, hi = lo * 0.5, lo
            if g(lo) <= theta:
                break
        else:
            raise BracketOverflow(f"no lower bracket after {MAX_DOUBLINGS} halvings")

    for end in (lo, hi):
        if accepted(end):
            return found(end)
    lam = float(brentq(lambda s: g(s) - theta, lo, hi, xtol=1e-300, rtol=1e-14, maxiter=200))
    if accepted(lam):
        return found(lam)
    # Brent met its own lam tolerance without the residual one; finish by
    # plain bisection on the remaining interval.
    lo, hi = (lam, hi) if g(lam) < theta else (lo, lam)
    for _ in range(256):
        mid = 0.5 * (lo + hi)
        if accepted(mid):
            return found(mid)
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


def solve_lambda(op, x, params, hint=None):
    """Root of the control law at x; raises StationaryPoint on solutions.

    Parameters
    ----------
    op : OperatorSpec
    x : array
    params : FeedbackParams
    hint : float or None, warm start for the geometric bracket.

    Returns the unique lam > 0 with lam * ||x - J_lam(x)||^(p-1) = theta
    (for p = 1 this is theta itself), to AE_TOL relative plus the certified
    band.  solve_law also returns the accepted resolvent.
    """
    return solve_law(op, x, params, hint=hint)[0]


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
