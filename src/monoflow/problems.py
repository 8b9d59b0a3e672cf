"""Benchmark monotone inclusion instances with known structure.

Each constructor returns a ProblemInstance whose declared metadata
(solution set, error bound) is exact, so metric and lemma checks can be
run against ground truth.  The smoothness constants of the tensor steps
come from TensorConfig, not from the instance.  Constructors are seeded and
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .metrics import dist_to_solutions
from .report import CheckReport, worst

__all__ = [
    "SolutionSet",
    "ErrorBound",
    "ProblemInstance",
    "make_bilinear_saddle",
    "make_strongly_monotone_affine",
    "make_cubic_1d",
    "make_convex_gradient",
    "PROBLEM_BUILDERS",
    "build_problem",
    "validate_instance",
]


@dataclass(frozen=True)
class SolutionSet:
    """kind is SINGLETON (a point) or UNKNOWN."""

    kind: str
    point: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("SINGLETON", "UNKNOWN"):
            raise ValueError(f"unknown solution-set kind {self.kind!r}")
        if self.kind != "UNKNOWN" and self.point is None:
            raise ValueError("solution set needs a point")
        if self.point is not None:
            p = np.asarray(self.point, dtype=float)
            p.setflags(write=False)
            object.__setattr__(self, "point", p)


@dataclass(frozen=True)
class ErrorBound:
    """dist(x, zer A) <= kappa * dist(0, Ax) whenever dist(0, Ax) <= delta."""

    kappa: float
    delta: float


@dataclass(frozen=True)
class ProblemInstance:
    name: str
    operator: ops.OperatorSpec
    solution_set: SolutionSet
    error_bound: ErrorBound | None

    @property
    def dim(self):
        return self.operator.dim

    @property
    def domain_bounded(self):
        return self.operator.cone is not None


def make_bilinear_saddle(d=2, scale=1.0):
    """Skew coupling F(u, w) = (scale*w, -scale*u) over the unit box.

    d must be even; the unique solution is the origin.
    """
    if d < 2 or d % 2:
        raise ValueError("bilinear saddle needs even d >= 2")
    if not 0 < scale < np.inf:
        raise ValueError("scale must be positive" if not scale > 0 else "scale must be finite")
    h = d // 2
    m = np.zeros((d, d))
    m[:h, h:] = scale * np.eye(h)
    m[h:, :h] = -scale * np.eye(h)
    cone = ops.BoxCone(-np.ones(d), np.ones(d))
    op = ops.OperatorSpec(dim=d, affine=ops.AffinePart(m, np.zeros(d)), cone=cone)
    return ProblemInstance(
        name="bilinear_saddle",
        operator=op,
        solution_set=SolutionSet("SINGLETON", np.zeros(d)),
        # Interior: res = scale*||x|| and dist = ||x||; every boundary point
        # of the unit box has res >= scale, so delta = scale/2 is safe.
        error_bound=ErrorBound(kappa=1.0 / scale, delta=scale / 2.0),
    )


def make_strongly_monotone_affine(d=2, mu=1.0, seed=0):
    """F = mu*I + S with a seeded random skew part; zero is the solution.

    ||F(x)|| >= mu*||x|| (the skew term is orthogonal to x), so the error
    bound holds globally with kappa = 1/mu.
    """
    if not 0 < mu < np.inf:
        raise ValueError("mu must be positive" if not mu > 0 else "mu must be finite")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d))
    m = mu * np.eye(d) + 0.5 * (g - g.T)
    return ProblemInstance(
        name="strongly_monotone_affine",
        operator=ops.make_affine(m),
        solution_set=SolutionSet("SINGLETON", np.zeros(d)),
        error_bound=ErrorBound(kappa=1.0 / mu, delta=np.inf),
    )


def make_cubic_1d():
    """Scalar F(u) = u^3 on R; D^2 F is 6-Lipschitz."""
    return ProblemInstance(
        name="cubic_1d",
        operator=ops.make_poly([0.0, 0.0, 0.0, 1.0], dim=1),
        solution_set=SolutionSet("SINGLETON", np.zeros(1)),
        error_bound=None,
    )


def make_convex_gradient(d=2):
    """Gradient field of Phi(x) = ||x||^4 / 4, i.e. F(x) = ||x||^2 x."""
    return ProblemInstance(
        name="convex_gradient",
        operator=ops.OperatorSpec(dim=d, radial=ops.RadialPart(1.0)),
        solution_set=SolutionSet("SINGLETON", np.zeros(d)),
        error_bound=None,
    )


PROBLEM_BUILDERS = {
    "bilinear_saddle": make_bilinear_saddle,
    "strongly_monotone_affine": make_strongly_monotone_affine,
    "cubic_1d": make_cubic_1d,
    "convex_gradient": make_convex_gradient,
}


def build_problem(name, params=None):
    if name not in PROBLEM_BUILDERS:
        raise ValueError(f"unknown problem {name!r}; have {sorted(PROBLEM_BUILDERS)}")
    return PROBLEM_BUILDERS[name](**(params or {}))


def validate_instance(problem, seed=0):
    """Ground-truth audit of the declared metadata; returns a CheckReport."""
    samples = 32  # seeded draws per sampled check
    rng = np.random.default_rng(seed)
    op = problem.operator
    sol = problem.solution_set
    rep = CheckReport()

    res = 0.0 if sol.kind == "UNKNOWN" else ops.min_norm_residual(op, sol.point)
    rep.add("solution residue <= 1e-8", 1e-8 - res)

    margins = []
    for _ in range(samples):
        a = op.domain.project(rng.standard_normal(op.dim) * 2.0)
        b = op.domain.project(rng.standard_normal(op.dim) * 2.0)
        margins.append(float((ops.single_value(op, a) - ops.single_value(op, b)) @ (a - b)) + 1e-10)
    rep.add("operator monotone on sampled pairs", *worst(margins))

    if problem.error_bound is not None and sol.kind != "UNKNOWN":
        eb = problem.error_bound
        margins = []
        for _ in range(samples):
            x = op.domain.project(sol.point + rng.standard_normal(op.dim) * 0.05)
            res = ops.min_norm_residual(op, x)
            # Outside the bound's region; a NaN residue is kept, and fails.
            if np.isinf(res) or res > eb.delta:
                continue
            margins.append(eb.kappa * res - dist_to_solutions(problem, x) + 1e-8)
        rep.add("error bound on sampled near-solutions", *worst(margins))
    return rep
