"""Randomized property suites behind the command-line check harness.

Every suite takes one integer seed and returns a CheckReport with one
outcome per invariant.  The HPE and TENSOR suites ignore the seed.  Every
hpe.run here binds its oracle (exact_oracle or lambda_window_search) with
functools.partial when the run starts.  Suites share no state and each is
deterministic given its seed, so run_suites can run them on worker processes
forked from the caller and return the same reports as one after another;
they are Python-bound, so threads would only wait for the GIL.  Margins are
oriented so that larger is safer; report.worst folds each invariant's
margins, and an outcome passes exactly when its margin is >= 0.
"""

from __future__ import annotations

import math
import sys
from functools import partial

import numpy as np

from . import operators as ops
from .errors import CertificateViolation, MonoflowError, OracleFailure
from .feedback import FeedbackParams, scaled_displacement, solve_lambda, stationarity_gauge
from .flow import check_flow_invariants, integrate
from .hpe import HpeConfig, check_discrete_lemmas, exact_oracle, run
from .metrics import dist_to_solutions, fit_rate, gap, gap_grid_oracle, residue
from .problems import (
    ProblemInstance,
    SolutionSet,
    make_bilinear_saddle,
    make_convex_gradient,
    make_cubic_1d,
    make_strongly_monotone_affine,
    validate_instance,
)
from .report import CheckOutcome, CheckReport, worst
from .tensor import TensorConfig, lambda_window_search

__all__ = ["SUITE_NAMES", "SUITES", "run_suites"]


def _operator_pool():
    return [
        ("identity-1d", make_strongly_monotone_affine(1, 1.0, seed=0)),
        ("monotone-3d", make_strongly_monotone_affine(3, 0.5, seed=1)),
        ("saddle-2d", make_bilinear_saddle(2, 1.0)),
        ("cubic-1d", make_cubic_1d()),
        ("radial-2d", make_convex_gradient(2)),
    ]


def _nonstationary(rng, problem, scale=1.0, floor=1e-3):
    op = problem.operator
    for _ in range(64):
        x = scale * rng.standard_normal(op.dim)
        if ops.min_norm_residual(op, x) > floor:
            return x
    raise MonoflowError("could not sample a point away from the solution set")


def _merge(rep, sub, prefix):
    for o in sub.outcomes:
        rep.add(f"{prefix}: {o.name}", o.margin, o.detail)


def feedback_suite(seed=0):
    rng = np.random.default_rng(seed)
    rep = CheckReport()
    pool = _operator_pool()

    margins = []
    for _ in range(100):
        tag, prob = pool[int(rng.integers(len(pool)))]
        p = int(rng.integers(2, 5))
        x = _nonstationary(rng, prob)
        lam1 = float(10.0 ** rng.uniform(-2.0, 0.5))
        ratio = float(10.0 ** rng.uniform(0.01, 1.2))
        ph1 = scaled_displacement(prob.operator, lam1, x, p)
        ph2 = scaled_displacement(prob.operator, lam1 * ratio, x, p)
        tol = 1e-8 * max(1.0, ph2)
        lo = ratio ** (1.0 / (p - 1)) * ph1
        hi = ratio ** (p / (p - 1.0)) * ph1
        margins.append((worst((ph2 - lo + tol, hi - ph2 + tol))[0], f"{tag} p={p}"))
    rep.add("scaled displacement sandwich over step ratios", *worst(margins))

    margins = []
    for _ in range(100):
        tag, prob = pool[int(rng.integers(len(pool)))]
        p = int(rng.integers(2, 5))
        lam = float(10.0 ** rng.uniform(-2.0, 0.5))
        x1 = _nonstationary(rng, prob)
        x2 = x1 + 0.7 * rng.standard_normal(x1.size)
        ph1 = scaled_displacement(prob.operator, lam, x1, p)
        ph2 = scaled_displacement(prob.operator, lam, x2, p)
        cap = lam ** (1.0 / (p - 1)) * ops.norm(x1 - x2)
        margins.append((cap - abs(ph1 - ph2) + 1e-9 * max(1.0, cap), f"{tag} p={p}"))
    rep.add("scaled displacement Lipschitz in the point", *worst(margins))

    margins = []
    for _ in range(50):
        tag, prob = pool[int(rng.integers(len(pool)))]
        params = FeedbackParams(theta=float(rng.uniform(0.05, 0.9)), p=int(rng.integers(2, 4)))
        x = _nonstationary(rng, prob)
        lam = solve_lambda(prob.operator, x, params)
        r = ops.resolvent(prob.operator, lam, x)
        g = lam * ops.norm(x - r.y) ** (params.p - 1)
        margins.append((1e-8 * params.theta - abs(g - params.theta), f"{tag} p={params.p}"))
    rep.add("law root satisfies the control equation", *worst(margins))

    margins = []
    for _ in range(1000):
        tag, prob = pool[int(rng.integers(len(pool)))]
        params = FeedbackParams(theta=float(rng.uniform(0.05, 0.9)), p=int(rng.integers(2, 4)))
        x1 = _nonstationary(rng, prob)
        x2 = x1 + float(10.0 ** rng.uniform(-2.0, 0.3)) * rng.standard_normal(x1.size)
        d = ops.norm(x1 - x2)
        if d < 1e-9:
            continue
        g1 = stationarity_gauge(prob.operator, x1, params)
        g2 = stationarity_gauge(prob.operator, x2, params)
        cap = params.theta ** (-1.0 / (params.p - 1)) * (1.0 + 1e-6)
        margins.append((cap - abs(g1 - g2) / d, f"{tag} p={params.p}"))
    rep.add("stationarity gauge Lipschitz bound over 1000 pairs", *worst(margins))

    margins, certs = [], []
    for _ in range(100):
        tag, prob = pool[int(rng.integers(len(pool)))]
        lam = float(10.0 ** rng.uniform(-2.0, 1.0))
        x1 = rng.standard_normal(prob.dim)
        x2 = x1 + rng.standard_normal(prob.dim)
        r1 = ops.resolvent(prob.operator, lam, x1)
        r2 = ops.resolvent(prob.operator, lam, x2)
        margins.append((ops.norm(x1 - x2) - ops.norm(r1.y - r2.y) + 1e-9, tag))
        for xq, rq in ((x1, r1), (x2, r2)):
            cap = 2.0 * ops.RESOLVENT_TOL * max(1.0, ops.norm(rq.y - xq))
            certs.append(cap - rq.residual + 1e-15 * (1.0 + ops.norm(xq)))
    rep.add("resolvent nonexpansive on random pairs", *worst(margins))
    rep.add("resolvent residual within its certificate", *worst(certs))

    return rep


def flow_suite(seed=0):
    rng = np.random.default_rng(seed)
    rep = CheckReport()
    ident = make_strongly_monotone_affine(1, 1.0, seed=0)

    for theta in (1.0, 0.5):
        params = FeedbackParams(theta=theta, p=1)
        traj = integrate(ident, np.array([1.0]), params, T=1.0, h=1e-3)
        exact = math.exp(-theta / (1.0 + theta))
        err = abs(float(traj.states[-1].x[0]) - exact)
        rep.add(f"single-valued identity flow matches exp(-theta t/(1+theta)) at theta={theta}", 1e-6 - err)

    margins = []
    pool = _operator_pool()
    for _ in range(25):
        tag, prob = pool[int(rng.integers(len(pool)))]
        params = FeedbackParams(theta=float(rng.uniform(0.1, 0.9)), p=int(rng.integers(2, 4)))
        x = _nonstationary(rng, prob)
        lam = solve_lambda(prob.operator, x, params)
        speed = ops.norm(ops.resolvent(prob.operator, lam, x).y - x)
        m = 1e-8 * params.theta - abs(speed ** (params.p - 1) * lam - params.theta)
        margins.append((m, f"{tag} p={params.p}"))
    rep.add("field norm ties to the control law", *worst(margins))

    runs = [
        ("saddle p=1", make_bilinear_saddle(2, 1.0), FeedbackParams(0.5, 1), np.array([0.7, 0.4])),
        ("saddle p=2", make_bilinear_saddle(2, 1.0), FeedbackParams(0.1, 2), np.array([0.7, 0.4])),
        (
            "monotone p=2",
            make_strongly_monotone_affine(2, 1.0, seed=2),
            FeedbackParams(0.25, 2),
            np.array([1.0, -0.5]),
        ),
        ("cubic p=2", make_cubic_1d(), FeedbackParams(0.2, 2), np.array([1.5])),
        ("radial p=3", make_convex_gradient(2), FeedbackParams(0.2, 3), np.array([1.0, 0.8])),
    ]
    for tag, prob, params, x0 in runs:
        traj = integrate(prob, x0, params, T=5.0, h=0.01)
        _merge(rep, check_flow_invariants(traj, prob, params), tag)

    return rep


def _slacks(cert):
    return (cert.relative_error_slack, cert.large_step_slack)


def _membership_margin(op, y, v):
    """Margin of v in A(y), A = F + N_C: -inf when y lies outside dom(A), else 1e-12 * (1 + ||v|| + ||F(y)||)
    - op.domain.residual(y, F(y) - v), a residual 0 exactly when v - F(y) is in N_C(y); NaN fails.  Exact
    membership implies v in A^eps(y) for every eps >= 0; an oracle returning v outside A(y) with eps > 0
    would need a test of its own (none does).  Contiguous copies keep ops.norm exact on strided arrays."""
    y, v = np.ascontiguousarray(y, dtype=float), np.ascontiguousarray(v, dtype=float)
    if not op.domain.contains(y):
        return -math.inf
    fy = ops.single_value(op, y)
    return 1e-12 * (1.0 + ops.norm(v) + ops.norm(fy)) - op.domain.residual(y, fy - v)


def hpe_suite(seed=0):
    rep = CheckReport()

    runs = [
        ("saddle p=1", make_bilinear_saddle(2, 1.0), HpeConfig(0.0, 0.5, 1, 300, stop_res=1e-12), np.array([0.7, 0.4])),
        ("saddle p=2", make_bilinear_saddle(2, 1.0), HpeConfig(0.0, 0.01, 2, 250, stop_res=1e-12), np.array([0.7, 0.4])),
        ("cubic p=2", make_cubic_1d(), HpeConfig(0.0, 0.2, 2, 80, stop_res=1e-12), np.array([1.5])),
        ("radial p=2", make_convex_gradient(2), HpeConfig(0.0, 0.2, 2, 80, stop_res=1e-12), np.array([1.0, 0.8])),
    ]
    for tag, prob, cfg, x0 in runs:
        records = run(prob, partial(exact_oracle, prob, cfg=cfg), cfg, x0).records
        rep.add(f"{tag}: every step certificate holds", *worst(m for r in records for m in _slacks(r.cert)))
        member = worst(_membership_margin(prob.operator, r.y, r.v) for r in records)
        rep.add(f"{tag}: output direction lies in A(y)", *member)
        _merge(rep, check_discrete_lemmas(records, prob, cfg), tag)

    mu, theta = 1.0, 0.7
    ident = make_strongly_monotone_affine(1, mu, seed=0)
    cfg = HpeConfig(0.0, theta, 1, 40, stop_res=0.0)
    records = run(ident, partial(exact_oracle, ident, cfg=cfg), cfg, np.array([1.0])).records
    factor = 1.0 / (1.0 + theta * mu)
    rep.add(
        "proximal contraction factor matches closed form",
        *worst(1e-8 - abs(ops.norm(r.x_next) / ops.norm(r.x_prev) - factor) for r in records),
    )
    rep.add(
        "strongly monotone run contracts the distance",
        *worst(
            0.999 - dist_to_solutions(ident, r.x_next) / max(dist_to_solutions(ident, r.x_prev), 1e-300)
            for r in records
        ),
    )

    return rep


def _tensor_step_audit(rep, tag, prob, tcfg, x0, iters):
    """Audits each sub-certificate over the records of an hpe.run of the oracle;
    a run cut short is audited up to the step that failed, whose certificate counts."""
    op = prob.operator
    hcfg = tcfg.drive(iters, stop_res=1e-11)
    wlo, whi = tcfg.window
    m_cert, m_win, m_hat, m_taylor, m_member = [], [], [], [], []
    try:
        records = run(prob, partial(lambda_window_search, prob, cfg=tcfg), hcfg, x0).records
    except OracleFailure as exc:
        records = exc.records
    except CertificateViolation as exc:
        records = exc.records
        m_cert.extend(_slacks(exc.certificate))
    for r in records:
        x, lam, y, v = r.x_prev, r.lam, r.y, r.v
        m_cert.extend(_slacks(r.cert))

        step_norm = ops.norm(y - x)
        if tcfg.p >= 2:
            s = lam * step_norm ** (tcfg.p - 1)
            m_win.extend((s - wlo + 1e-12, whi - s + 1e-12))

        anchor = op.domain.project(x)
        fy = ops.single_value(op, y)
        ty = ops.TaylorSurrogate(op, anchor, tcfg.p).value(y)
        u = v - fy + ty
        floor = 1e-13 * (1.0 + ops.norm(x))
        m_hat.append(tcfg.sigma_hat * step_norm + floor - ops.norm(lam * u + y - x))

        cap = tcfg.L / math.factorial(tcfg.p) * ops.norm(y - anchor) ** tcfg.p
        m_taylor.append(cap * (1.0 + 1e-8) + 1e-12 - ops.norm(fy - ty))

        m_member.append(_membership_margin(op, y, v))
    # At least one step: the margin counts the steps beyond the first.
    rep.add(f"{tag}: ran and produced steps", len(records) - 1.0)
    rep.add(f"{tag}: framework certificate on every step", *worst(m_cert))
    if tcfg.p >= 2:
        rep.add(f"{tag}: large-step product inside the window", *worst(m_win))
    rep.add(f"{tag}: surrogate solve within its inexactness budget", *worst(m_hat))
    rep.add(f"{tag}: Taylor remainder within the derivative bound", *worst(m_taylor))
    rep.add(f"{tag}: output direction lies in A(y)", *worst(m_member))


def tensor_suite(seed=0):
    rep = CheckReport()
    cases = [
        (
            "saddle p=2",
            make_bilinear_saddle(2, 1.0),
            TensorConfig(sigma_hat=0.05, sigma_l=0.3, sigma_u=0.7, L=1.0, p=2),
            np.array([0.7, 0.4]),
            30,
        ),
        (
            "monotone p=2",
            make_strongly_monotone_affine(2, 1.0, seed=2),
            TensorConfig(sigma_hat=0.05, sigma_l=0.3, sigma_u=0.7, L=1.0, p=2),
            np.array([1.0, -0.5]),
            30,
        ),
        (
            "cubic p=3",
            make_cubic_1d(),
            TensorConfig(sigma_hat=0.1, sigma_l=0.2, sigma_u=0.8, L=6.0, p=3),
            np.array([2.0]),
            40,
        ),
        (
            "radial p=3",
            make_convex_gradient(2),
            TensorConfig(sigma_hat=0.1, sigma_l=0.2, sigma_u=0.8, L=6.0, p=3),
            np.array([1.0, 0.8]),
            40,
        ),
        (
            "saddle p=1",
            make_bilinear_saddle(2, 1.0),
            TensorConfig(sigma_hat=0.2, sigma_l=0.3, sigma_u=0.7, L=1.0, p=1),
            np.array([0.7, 0.4]),
            150,
        ),
    ]
    for tag, prob, tcfg, x0, iters in cases:
        _tensor_step_audit(rep, tag, prob, tcfg, x0, iters)

    # Lemma suite over a tensor-driven run, via the shared framework loop.
    prob = make_cubic_1d()
    tcfg = TensorConfig(sigma_hat=0.1, sigma_l=0.2, sigma_u=0.8, L=6.0, p=3)
    hcfg = tcfg.drive(40, stop_res=1e-10)
    try:
        records = run(prob, partial(lambda_window_search, prob, cfg=tcfg), hcfg, np.array([2.0])).records
    except OracleFailure as exc:
        records = exc.records
    _merge(rep, check_discrete_lemmas(records, prob, hcfg), "cubic p=3 framework run")
    return rep


def _box_monotone_instance():
    # Strictly monotone affine part over the unit box: exercises the gap's
    # exact maximizer route, proximal pivoting (the support form does not apply).
    d = 2
    m = np.array([[1.0, 1.5], [-1.5, 2.0]])
    q = np.array([0.1, -0.2])
    return ProblemInstance(
        name="box-monotone",
        operator=ops.make_affine(m, q, cone=ops.BoxCone(-np.ones(d), np.ones(d))),
        solution_set=SolutionSet("UNKNOWN"),
        error_bound=None,
    )


def metrics_suite(seed=0):
    rng = np.random.default_rng(seed)
    rep = CheckReport()
    saddle = make_bilinear_saddle(2, 1.0)

    pts = [rng.uniform(-1.0, 1.0, size=2) for _ in range(50)]
    rep.add("gap nonnegative on domain samples", *worst(gap(saddle, x) + 1e-12 for x in pts))

    rep.add("gap vanishes at the solution", 1e-10 - abs(gap(saddle, np.zeros(2))))

    rep.add(
        "gap matches the dense-grid oracle",
        *worst(1e-6 - abs(gap(saddle, x) - gap_grid_oracle(saddle, x)) for x in pts),
    )

    pairs = [(rng.uniform(-1.0, 1.0, size=2), rng.uniform(-1.0, 1.0, size=2)) for _ in range(50)]
    rep.add(
        "gap midpoint convexity",
        *worst(
            0.5 * gap(saddle, x1) + 0.5 * gap(saddle, x2) - gap(saddle, 0.5 * (x1 + x2)) + 1e-8
            for x1, x2 in pairs
        ),
    )

    rep.add(
        "maximizer route agrees with the exact support form",
        *worst(1e-8 - abs(gap(saddle, x, route="maximizer") - gap(saddle, x, route="support")) for x in pts[:25]),
    )

    box = _box_monotone_instance()
    margins_lo, margins_hi = [], []
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, size=2)
        val = gap(box, x)
        grid = gap_grid_oracle(box, x)
        # The grid maximum under-estimates the true sup by at most the
        # first-order spread over one cell plus curvature.
        m, q = box.operator.affine.matrix, box.operator.affine.offset
        gbound = ops.norm(m.T @ x - q) + 2.0 * float(np.linalg.norm(m + m.T, 2))
        cell = 0.02
        tol = gbound * cell + 1e-9
        margins_lo.append(val - grid + 1e-9)
        margins_hi.append(tol - (val - grid))
    rep.add("maximizer gap dominates the grid lower bound", *worst(margins_lo))
    rep.add("maximizer gap within one grid cell of the oracle", *worst(margins_hi))

    cfg = HpeConfig(0.0, 0.01, 2, 60, stop_res=1e-12)
    records = run(saddle, partial(exact_oracle, saddle, cfg=cfg), cfg, np.array([0.7, 0.4])).records
    rep.add(
        "pointwise residue below the certified direction norm",
        *worst(ops.norm(r.v) - residue(saddle, r.y) + 1e-8 for r in records),
    )

    strong = make_strongly_monotone_affine(2, 1.0, seed=3)
    kappa = strong.error_bound.kappa
    near = [0.1 * rng.standard_normal(2) + np.asarray(strong.solution_set.point) for _ in range(50)]
    rep.add(
        "error bound holds near the solution",
        *worst(kappa * residue(strong, x) * (1.0 + 1e-6) - dist_to_solutions(strong, x) for x in near),
    )

    k = np.arange(1, 401, dtype=float)
    fit = fit_rate(3.0 * k**-1.5, tail_fraction=0.5)
    rep.add("rate fit recovers an exact power law", 1e-8 - abs(fit.slope + 1.5))
    noisy = 3.0 * k**-1.5 * (1.0 + 0.01 * np.sin(k))
    fitn = fit_rate(noisy, tail_fraction=0.5)
    rep.add("rate fit robust to small multiplicative noise", 0.02 - abs(fitn.slope + 1.5))

    for name, builder in (
        ("bilinear saddle", lambda: make_bilinear_saddle(2, 1.0)),
        ("strongly monotone affine", lambda: make_strongly_monotone_affine(2, 1.0, seed=0)),
        ("cubic", make_cubic_1d),
        ("radial gradient", lambda: make_convex_gradient(2)),
    ):
        sub = validate_instance(builder(), seed=seed)
        rep.add(f"instance {name} passes validation", *worst(o.margin for o in sub.outcomes))

    return rep


SUITES = {
    "FEEDBACK": feedback_suite,
    "FLOW": flow_suite,
    "HPE": hpe_suite,
    "TENSOR": tensor_suite,
    "METRICS": metrics_suite,
}

SUITE_NAMES = list(SUITES)


def _run_suite(name, seed):
    """SUITES[name](seed), or one outcome with margin -inf when it raises MonoflowError."""
    try:
        return SUITES[name](seed)
    except MonoflowError as exc:
        return CheckReport([CheckOutcome("suite ran to completion", -math.inf, f"{type(exc).__name__}: {exc}")])


def run_suites(names, seed=0, max_workers=1):
    """Run the named suites, each with the same seed; returns name -> report.

    A suite that raises MonoflowError reports one failing outcome, and the
    other suites still run.  By default the suites run one after another
    in the calling process.  max_workers > 1 runs them on up to that many
    worker processes (at most one per suite), forked from the caller so
    that each starts from its modules and state without importing again;
    each report comes back pickled, equal to the serial run's.  Where the
    platform cannot fork, the suites run serially.  The pool is left, and
    every worker joined, before this returns.  fork copies only the calling
    thread, so a caller running threads of its own keeps max_workers at 1.
    """
    names = list(names)
    for n in names:
        if n not in SUITES:
            raise KeyError(f"unknown suite {n!r}; known: {', '.join(SUITE_NAMES)}")
    max_workers = max(1, min(int(max_workers), len(names) or 1))
    if max_workers > 1:
        # Imported only here: a module-level import would cost every process.
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            # A forked worker flushes its copy of the caller's buffers when it exits.
            sys.stdout.flush()
            sys.stderr.flush()
            with ProcessPoolExecutor(max_workers, mp_context=multiprocessing.get_context("fork")) as pool:
                return dict(zip(names, pool.map(_run_suite, names, [seed] * len(names))))
    return {n: _run_suite(n, seed) for n in names}
