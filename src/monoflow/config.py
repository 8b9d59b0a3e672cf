"""Experiment configuration: a validated description of one run.

A config names a problem instance, the solver mode, the mode constants,
the horizon, the starting point, and the output path.  The on-disk
format is JSON with nested sections.  Parsing is strict: unknown keys,
wrong types, and violated parameter invariants raise ConfigError with a
message naming the offending field, so a config that loads is a config
that runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import problems
from .errors import ConfigError
from .feedback import FeedbackParams
from .hpe import HpeConfig
from .tensor import TensorConfig, _check_surrogate_order

MODES = ("FLOW", "HPE_EXACT", "TENSOR")
# Most RK4 steps a FLOW config may ask for (horizon.T / horizon.h).
MAX_FLOW_STEPS = 10**6

_TOP_KEYS = {"problem", "mode", "params", "horizon", "x0", "seed", "out"}
_PARAM_KEYS = {
    "FLOW": {"theta", "p"},
    "HPE_EXACT": {"sigma", "theta", "p", "stop_res"},
    "TENSOR": {"sigma_hat", "sigma_l", "sigma_u", "L", "p", "stop_res"},
}
_HORIZON_KEYS = {
    "FLOW": {"T", "h", "sample_stride"},
    "HPE_EXACT": {"max_iters"},
    "TENSOR": {"max_iters"},
}


def _section(raw, name, allowed, required):
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a mapping")
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"{name} has unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")
    missing = required - set(raw)
    if missing:
        raise ConfigError(f"{name} is missing required keys {sorted(missing)}")
    return raw


def _number(name, val, integer=False):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{name} must be a number")
    try:
        num = float(val)
    except OverflowError:  # an integer beyond the float range
        num = math.inf
    if not math.isfinite(num):
        raise ConfigError(f"{name} must be finite, got {num}")
    if integer:
        if not num.is_integer():
            raise ConfigError(f"{name} must be an integer")
        return int(val)
    return num


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description, with the objects a run is built from.

    params is the mode's parameter object (FeedbackParams, HpeConfig or
    TensorConfig) and drive the HpeConfig that drives and verifies an
    HPE_EXACT or TENSOR run (None for FLOW).  problem is the built
    ProblemInstance.
    """

    problem_name: str
    problem_params: dict
    mode: str
    params: FeedbackParams | HpeConfig | TensorConfig
    horizon: dict
    x0: object
    seed: int
    out: str | None
    problem: problems.ProblemInstance = field(compare=False)
    drive: HpeConfig | None

    @staticmethod
    def from_dict(raw):
        """Build and fully validate a config from parsed JSON data.

        Validation goes all the way down: the problem, then the mode's
        parameter object and drive, are built once, so every invariant of
        the target module is checked before any run starts, and the run
        uses the objects that were checked.
        """
        top = _section(raw, "config", _TOP_KEYS, {"problem", "mode", "horizon", "x0"})

        prob = _section(top["problem"], "problem", {"name", "params"}, {"name"})
        name = prob["name"]
        if not isinstance(name, str):
            raise ConfigError("problem.name must be a string")
        pparams = prob.get("params", {})
        if not isinstance(pparams, dict):
            raise ConfigError("problem.params must be a mapping")
        pparams = dict(pparams)

        mode = top["mode"]
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {list(MODES)}, got {mode!r}")

        params = dict(_section(top.get("params", {}), "params", _PARAM_KEYS[mode], set()))
        horizon = dict(_section(top["horizon"], "horizon", _HORIZON_KEYS[mode], set()))
        if mode == "FLOW":
            if "T" not in horizon or "h" not in horizon:
                raise ConfigError("FLOW horizon needs T and h")
            horizon["T"] = _number("horizon.T", horizon["T"])
            horizon["h"] = _number("horizon.h", horizon["h"])
            if "sample_stride" in horizon:
                horizon["sample_stride"] = _number(
                    "horizon.sample_stride", horizon["sample_stride"], integer=True
                )
                if horizon["sample_stride"] < 1:
                    raise ConfigError("horizon.sample_stride must be >= 1")
            if not horizon["T"] >= 0:
                raise ConfigError("horizon.T must be >= 0")
            if not horizon["h"] > 0:
                raise ConfigError("horizon.h must be > 0")
            if horizon["T"] / horizon["h"] > MAX_FLOW_STEPS:
                raise ConfigError(f"horizon.h gives more than {MAX_FLOW_STEPS} steps up to horizon.T")
        else:
            if "max_iters" not in horizon:
                raise ConfigError(f"{mode} horizon needs max_iters")
            horizon["max_iters"] = _number("horizon.max_iters", horizon["max_iters"], integer=True)
            if horizon["max_iters"] < 0:
                raise ConfigError("horizon.max_iters must be >= 0")

        for key in list(params):
            params[key] = _number(f"params.{key}", params[key], integer=(key == "p"))

        x0 = top["x0"]
        if isinstance(x0, dict):
            x0 = dict(_section(x0, "x0", {"random_scale"}, {"random_scale"}))
            x0["random_scale"] = _number("x0.random_scale", x0["random_scale"])
            if not x0["random_scale"] > 0:
                raise ConfigError("x0.random_scale must be > 0")
        elif isinstance(x0, list):
            x0 = [_number(f"x0[{i}]", v) for i, v in enumerate(x0)]
            if not x0:
                raise ConfigError("x0 must not be empty")
        else:
            raise ConfigError("x0 must be a coordinate list or {\"random_scale\": s}")

        seed = _number("seed", top.get("seed", 0), integer=True)
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        out = top.get("out")
        if out is not None and not isinstance(out, str):
            raise ConfigError("out must be a string path")

        try:
            problem = problems.build_problem(name, pparams)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"problem section invalid: {exc}") from None
        # Messages from the target constructors pass through unchanged, so
        # the violated invariant is named.
        kw = dict(params)
        stop_res = kw.pop("stop_res", HpeConfig.stop_res)
        try:
            if mode == "FLOW":
                built, drive = FeedbackParams(theta=kw.pop("theta"), p=kw.pop("p")), None
            elif mode == "HPE_EXACT":
                sigma = kw.pop("sigma", 0.0)
                built = drive = HpeConfig(sigma, kw.pop("theta"), kw.pop("p"), horizon["max_iters"], stop_res)
            else:
                built = TensorConfig(**{k: kw.pop(k) for k in ("sigma_hat", "sigma_l", "sigma_u", "L", "p")})
                drive = built.drive(horizon["max_iters"], stop_res)
        except KeyError as exc:
            raise ConfigError(f"params is missing required key {exc.args[0]!r} for mode {mode}") from None
        except ValueError as exc:
            raise ConfigError(f"params invalid: {exc}") from None
        if mode == "TENSOR":
            try:
                _check_surrogate_order(problem.operator, built.p)
            except ConfigError as exc:
                raise ConfigError(f"params.p = {built.p} does not fit problem {name!r}: {exc}") from None
        if isinstance(x0, list) and len(x0) != problem.operator.dim:
            raise ConfigError(f"x0 has {len(x0)} coordinates but the problem dimension is {problem.operator.dim}")
        return ExperimentConfig(name, pparams, mode, built, horizon, x0, seed, out, problem, drive)

    def problem_instance(self):
        return self.problem

    def initial_point(self):
        """Resolve x0 to coordinates; random starts are seeded and projected."""
        if isinstance(self.x0, dict):
            rng = np.random.default_rng(self.seed)
            raw = rng.standard_normal(self.problem.operator.dim) * self.x0["random_scale"]
            return self.problem.operator.domain.project(raw)
        return np.asarray(self.x0, dtype=float)


def parse_config(text):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return ExperimentConfig.from_dict(raw)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return parse_config(text)
