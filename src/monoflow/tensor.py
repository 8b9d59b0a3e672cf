"""Higher-order oracle built from inexact Taylor-surrogate resolvents.

One oracle call builds one order-(p-1) Taylor surrogate of the smooth part,
anchored at the domain projection of the current point, solves its
resolvent inexactly within a relative inexactness sigma_hat at each trial
step size, and searches for one whose large-step product lands in the window

    sigma_l * p!/L  <=  lam * ||y - x||^(p-1)  <=  sigma_u * p!/L.

The returned (lam, y, v, 0), the surrogate error folded into v, satisfies
the large-step and relative-error conditions with theta = sigma_l * p!/L
and sigma = sigma_hat + sigma_u, so every step is verifiable by the
discrete framework's certificate.  Bound to a problem and config,
lambda_window_search is an oracle for hpe.run, which hands each search the
last step's lam as its first trial and Newton exit point as its warm start.

At p = 3 the anchored surrogate is quadratic in the step, and past a finite
lam its subproblem has no point within the inexactness rule.  For a lone
polynomial or radial part without a cone, a closed-form discriminant test
certifies that before Newton runs, and the solve fails at once; the window
search treats every failed solve as product = +inf either way.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .errors import (
    ConfigError,
    InnerSolverDiverged,
    StationaryPoint,
    SurrogateNonmonotone,
    WindowUnreachable,
)
from .feedback import STATIONARITY_TOL
from .hpe import HpeConfig

__all__ = [
    "TensorConfig",
    "surrogate_resolvent",
    "lambda_window_search",
]

MAX_TRIALS = 400
# Relative margin of each closed-form unsolvability inequality; their
# rounding is a few ulps of the magnitudes involved.
CERT_TOL = 1e-9
UNSOLVABLE = "surrogate has no point within its stop rule"


@dataclass(frozen=True)
class TensorConfig:
    """Inexactness and window constants; window nonemptiness is enforced.

    Derived quantities: theta = sigma_l p!/L and sigma = sigma_hat +
    sigma_u are the constants under which every produced step verifies.
    """

    sigma_hat: float
    sigma_l: float
    sigma_u: float
    L: float
    p: int

    def __post_init__(self):
        if not 0.0 < self.sigma_hat < 1.0:
            raise ValueError("sigma_hat must lie in (0, 1)")
        if not 0.0 < self.sigma_l < self.sigma_u < 1.0:
            raise ValueError("need 0 < sigma_l < sigma_u < 1")
        if not self.L > 0:
            raise ValueError("L must be positive")
        if int(self.p) != self.p or self.p < 1:
            raise ValueError("order p must be an integer >= 1")
        object.__setattr__(self, "p", int(self.p))
        lo = self.sigma_l * (1.0 + self.sigma_hat) ** (self.p - 1)
        hi = self.sigma_u * (1.0 - self.sigma_hat) ** (self.p - 1)
        if not lo < hi:
            raise ValueError(
                "empty window: sigma_l (1+sigma_hat)^(p-1) must be < sigma_u (1-sigma_hat)^(p-1)"
            )
        if not self.sigma_hat + self.sigma_u < 1.0:
            raise ValueError("need sigma_hat + sigma_u < 1")

    @property
    def theta(self):
        return self.sigma_l * math.factorial(self.p) / self.L

    @property
    def sigma(self):
        return self.sigma_hat + self.sigma_u

    @property
    def window(self):
        f = math.factorial(self.p) / self.L
        return self.sigma_l * f, self.sigma_u * f

    def drive(self, max_iters, stop_res=HpeConfig.stop_res):
        """The HpeConfig under which this config's steps are driven and verified."""
        return HpeConfig(self.sigma, self.theta, self.p, max_iters, stop_res)


def _check_surrogate_order(op, p):
    if p <= 2:
        return
    if op.dim > 4:
        raise ConfigError("p >= 3 surrogate solves are supported only for d <= 4")
    if op.affine is not None:
        raise ConfigError("p >= 3 surrogate solves support only polynomial and radial parts")


def _disc_gap(a, b, c, mag):
    """4ac - b^2, the negated discriminant of a*h^2 + b*h + c, less CERT_TOL*mag.

    mag bounds the magnitudes its rounding scales with, so a positive
    result shows that the exact discriminant is negative."""
    return 4.0 * a * c - b * b - CERT_TOL * mag


def _unsolvable_bound(sur, x, lam, sigma_hat):
    """A lower bound on ||R(h)|| over all h, or None.

    R(h) = h - c + lam*F_anchor(anchor + h) with c = x - anchor is the
    surrogate's normal map without a cone.  A bound is returned only when
    a closed form also shows ||R(h)|| > sigma_hat*||h - c|| for every h.
    That needs p = 3, no cone, and a lone polynomial part (any x) or a
    lone radial part (x = anchor); other cases return None.
    """
    op = sur.op
    if sur.p != 3 or op.cone is not None or op.affine is not None:
        return None
    if op.poly is not None and op.radial is None:
        # R_i = qa h_i^2 + qb h_i + qc: |R_i| > sigma_hat |h_i - c_i| for all h_i
        # when both R_i -+ sigma_hat (h_i - c_i) have no real root; then min |R_i|
        # = -disc_i / (4 |qa_i|), and ||R|| >= max_i |R_i|.  Scalar floats: dim is 1 to 4.
        bound = -math.inf
        for ci, *ders in zip((x - sur.anchor).tolist(), *(v.tolist() for v in sur.ders)):
            d0, d1, d2 = (lam * v for v in ders)
            qa, qb, qc = 0.5 * d2, 1.0 + d1, d0 - ci
            t = 1.0 + abs(d1) + sigma_hat
            mag = t * t + 4.0 * abs(qa) * (abs(d0) + 2.0 * abs(ci))
            if any(not _disc_gap(qa, qb - s, qc + s * ci, mag) > 0.0 for s in (sigma_hat, -sigma_hat)):
                return None
            bound = max(bound, _disc_gap(qa, qb, qc, mag) / (4.0 * abs(qa)))
        return float(bound)
    if op.radial is not None and op.poly is None and np.array_equal(x, sur.anchor):
        # With h = t*a + s*e, e a unit vector orthogonal to a, S = s^2/A and
        # mu = lam*weight*A: ||R||^2/A = (q(t) + mu S)^2 + S (1 + mu + 2 mu t)^2
        # and ||h||^2/A = t^2 + S, where q(t) = 3 mu t^2 + (1 + 3 mu) t + mu.
        # If q + sigma_hat t has no real root, neither has q - sigma_hat t
        # (its linear coefficient is smaller and still positive), so
        # q(t) > sigma_hat |t|; and then mu > (1 + sigma_hat)(1 + 2/sqrt 3),
        # which gives 12 mu min q = 3 mu^2 - 6 mu - 1 >= 6 sigma_hat^2, i.e.
        # 2 mu q >= sigma_hat^2 covers the mu S terms.
        aa = sur.aa
        mu = lam * op.radial.weight * aa
        b = 1.0 + 3.0 * mu
        mag = (b + sigma_hat) ** 2 + 12.0 * mu * mu
        if not _disc_gap(3.0 * mu, b + sigma_hat, mu, mag) > 0.0:
            return None
        return math.sqrt(aa) * _disc_gap(3.0 * mu, b, mu, mag) / (12.0 * mu)
    return None


def surrogate_resolvent(sur, x, lam, sigma_hat, warm=None):
    """Inexact resolvent of the anchored surrogate sur plus the normal cone.

    Runs operators.normal_map_newton on w + lam*sur(P(w)) - x and stops as
    soon as the residual is within sigma_hat * ||P(w) - x||.  Returns its
    Resolvent r: r.v is an exact element of (sur + H)(r.y), so the
    inexactness lives entirely in the residual ||lam*v + y - x|| <=
    sigma_hat * ||y - x||, and r.state = (w, y, sur(y)) is the Newton exit
    state.  warm is None (w = x), a bare w, or the state of an earlier
    solve of the same sur; a state spares projecting w and evaluating sur
    there, with the same bits.

    At p = 3 an anchored surrogate can have no point that meets this stop
    rule.  Where a closed form (_unsolvable_bound) shows that, the solve
    raises InnerSolverDiverged before Newton runs, with iterations 0 and
    residual the certified lower bound; Newton would only run to a stall.
    """
    floor = 1e-14 * (1.0 + ops.norm(x))
    bound = _unsolvable_bound(sur, x, lam, sigma_hat)
    if bound is not None and bound > floor:
        raise InnerSolverDiverged(
            f"{UNSOLVABLE} at residual >= {bound:.3e}", residual=bound, iterations=0
        )
    return ops.normal_map_newton(sur.op, lam, x, sur.value, sur.jacobian, sigma_hat, floor, warm, "surrogate")


def lambda_window_search(problem, x, cfg, hint=None, warm=None, residual=None):
    """Find lam whose large-step product falls inside the window.

    The surrogate is anchored at the domain projection of x, checked once
    (order; at p >= 3 monotonicity of its Jacobian there) and built once for
    every trial lam, so what depends on the anchor alone is formed once
    per search (see operators.TaylorSurrogate).  x must not be stationary
    (residual, when given, is ops.min_norm_residual(op, x) and is read
    instead of evaluated again), and the product lam * r.step^(p-1), read
    from each trial's Resolvent r, is nondecreasing in lam wherever the
    surrogate subproblem is solvable; at p = 1 it is lam itself.  One loop
    keeps a bracket (lo, hi), from (0, inf) and the hint, else
    sqrt(wlo * whi), as first trial: a trial below the window sets lo, one
    above it sets hi, and the next trial is 2*lo while hi is inf, hi/2
    while lo is 0, else sqrt(lo*hi).  An anchored surrogate of degree >= 2
    is only locally monotone, so the subproblem can lose solvability past a
    finite lam; a failed solve, like a NaN product, therefore counts as
    above the window.  The first trial starts from warm (None or a bare
    w); each later one starts from the exit state r.state = (w, y, sur(y))
    of the last solve that succeeded, which spares it projecting w and
    evaluating the surrogate there, with the same bits.

    Returns (lam, y, v, 0.0, w): v = F(y) + r.v - sur(y) in A(y) exactly,
    the surrogate error folded into the accepted solve's r.v, eps = 0, and w
    its exit point, a bare warm start for a search with another anchor.
    The Taylor remainder bound together with the window's upper edge gives
    ||lam*v + y - x|| <= (sigma_hat + sigma_u) ||y - x||.  After
    MAX_TRIALS trials raises WindowUnreachable with bracket (lo, hi),
    naming the side never bracketed (lo = 0 or hi = inf).
    """
    op = problem.operator
    p = cfg.p
    x = np.asarray(x, dtype=float)
    anchor = op.domain.project(x)
    res = ops.min_norm_residual(op, x) if residual is None else residual
    if res <= STATIONARITY_TOL:
        raise StationaryPoint("window search undefined on the solution set", x=x)
    _check_surrogate_order(op, p)
    sur = ops.TaylorSurrogate(op, anchor, p)
    if p >= 3:
        jac = sur.jacobian(sur.anchor)
        eig = float(np.linalg.eigvalsh(0.5 * (jac + jac.T))[0])
        if eig < -1e-10 * max(1.0, float(np.abs(jac).max())):
            raise SurrogateNonmonotone(f"surrogate Jacobian at the anchor has eigenvalue {eig:.3e}")

    wlo, whi = cfg.window
    lo, hi = 0.0, math.inf
    lam = float(hint) if hint is not None and hint > 0 else math.sqrt(wlo * whi)
    for _ in range(MAX_TRIALS):
        try:
            r = surrogate_resolvent(sur, x, lam, cfg.sigma_hat, warm=warm)
        except InnerSolverDiverged:
            s = math.inf
        else:
            warm = r.state
            s = lam * r.step ** (p - 1)
        if wlo <= s <= whi:
            # r.state[2] is sur(y), as the solve evaluated it.
            return lam, r.y, ops.single_value(op, r.y) + r.v - r.state[2], 0.0, r.state[0]
        if s < wlo:
            lo = lam
        else:
            hi = lam
        if hi == math.inf:
            lam = 2.0 * lo
        elif lo == 0.0:
            lam = 0.5 * hi
        else:
            lam = math.sqrt(lo * hi)
    side = "lower" if lo == 0.0 else "upper" if hi == math.inf else None
    why = f"no {side} bracket" if side else "no trial inside the bracket"
    raise WindowUnreachable(f"step window: {why} after {MAX_TRIALS} trials", bracket=(lo, hi))
