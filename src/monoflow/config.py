"""Experiment configuration: a round-trippable description of one run.

A config names a problem instance, the solver mode, the mode constants,
the horizon, the starting point, and the output path.  The on-disk
format is JSON with nested sections.  Parsing is strict: unknown keys,
wrong types, and violated parameter invariants raise ConfigError with a
message naming the offending field, so a config that loads is a config
that runs.  parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import operators as ops
from . import problems
from .errors import ConfigError
from .feedback import FeedbackParams
from .hpe import HpeConfig
from .tensor import TensorConfig

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
    """Validated experiment description; all fields are plain data."""

    problem_name: str
    problem_params: dict = field(default_factory=dict)
    mode: str = "HPE_EXACT"
    params: dict = field(default_factory=dict)
    horizon: dict = field(default_factory=dict)
    x0: object = None
    seed: int = 0
    out: str | None = None

    @staticmethod
    def from_dict(raw):
        """Build and fully validate a config from parsed JSON data.

        Validation goes all the way down: the problem is constructed and
        the mode parameters are instantiated once, so every invariant of
        the target module is checked before any run starts.
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

        cfg = ExperimentConfig(name, pparams, mode, params, horizon, x0, seed, out)
        problem = cfg.problem_instance()
        cfg.mode_params()
        if isinstance(cfg.x0, list) and len(cfg.x0) != problem.operator.dim:
            raise ConfigError(
                f"x0 has {len(cfg.x0)} coordinates but the problem dimension is "
                f"{problem.operator.dim}"
            )
        return cfg

    def to_dict(self):
        d = {
            "problem": {"name": self.problem_name, "params": dict(self.problem_params)},
            "mode": self.mode,
            "params": dict(self.params),
            "horizon": dict(self.horizon),
            "x0": self.x0 if isinstance(self.x0, dict) else list(self.x0),
            "seed": self.seed,
        }
        if self.out is not None:
            d["out"] = self.out
        return d

    def problem_instance(self):
        try:
            return problems.build_problem(self.problem_name, self.problem_params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"problem section invalid: {exc}") from None

    def mode_params(self):
        """Instantiate the mode's parameter object, surfacing its invariants.

        FLOW -> FeedbackParams, HPE_EXACT -> HpeConfig, TENSOR ->
        TensorConfig.  Messages from the target constructors pass through
        unchanged so the violated invariant is named.
        """
        p = dict(self.params)
        try:
            if self.mode == "FLOW":
                return FeedbackParams(theta=p.pop("theta"), p=p.pop("p"))
            if self.mode == "HPE_EXACT":
                return HpeConfig(
                    sigma=p.pop("sigma", 0.0),
                    theta=p.pop("theta"),
                    p=p.pop("p"),
                    max_iters=self.horizon["max_iters"],
                    stop_res=p.pop("stop_res", 1e-9),
                )
            p.pop("stop_res", None)
            return TensorConfig(
                sigma_hat=p.pop("sigma_hat"),
                sigma_l=p.pop("sigma_l"),
                sigma_u=p.pop("sigma_u"),
                L=p.pop("L"),
                p=p.pop("p"),
            )
        except KeyError as exc:
            raise ConfigError(f"params is missing required key {exc.args[0]!r} for mode {self.mode}") from None
        except ValueError as exc:
            raise ConfigError(f"params invalid: {exc}") from None

    def drive_config(self, tensor_cfg):
        """HpeConfig under which TENSOR-mode steps are driven and verified."""
        return HpeConfig(
            sigma=tensor_cfg.sigma,
            theta=tensor_cfg.theta,
            p=tensor_cfg.p,
            max_iters=self.horizon["max_iters"],
            stop_res=self.params.get("stop_res", 1e-9),
        )

    def initial_point(self, problem):
        """Resolve x0 to coordinates; random starts are seeded and projected."""
        if isinstance(self.x0, dict):
            rng = np.random.default_rng(self.seed)
            raw = rng.standard_normal(problem.operator.dim) * self.x0["random_scale"]
            return ops.domain_project(problem.operator, raw)
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


def serialize_config(cfg):
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"
