import re

import numpy as np
import pytest

from monoflow.config import (
    MAX_FLOW_STEPS,
    ExperimentConfig,
    load_config,
    parse_config,
    serialize_config,
)
from monoflow.errors import ConfigError
from monoflow.feedback import FeedbackParams
from monoflow.hpe import HpeConfig
from monoflow.tensor import TensorConfig


def flow_dict(**over):
    d = {
        "problem": {"name": "bilinear_saddle", "params": {"d": 2}},
        "mode": "FLOW",
        "params": {"theta": 0.1, "p": 1},
        "horizon": {"T": 1.0, "h": 0.01},
        "x0": [0.5, 0.5],
    }
    d.update(over)
    return d


def hpe_dict(**over):
    d = {
        "problem": {"name": "bilinear_saddle"},
        "mode": "HPE_EXACT",
        "params": {"sigma": 0.0, "theta": 0.1, "p": 1},
        "horizon": {"max_iters": 100},
        "x0": [0.5, 0.5],
        "seed": 3,
    }
    d.update(over)
    return d


def tensor_dict(**over):
    d = {
        "problem": {"name": "cubic_1d"},
        "mode": "TENSOR",
        "params": {"sigma_hat": 0.1, "sigma_l": 0.2, "sigma_u": 0.8, "L": 6.0, "p": 3},
        "horizon": {"max_iters": 40},
        "x0": [2.0],
    }
    d.update(over)
    return d


class TestRoundTrip:
    @pytest.mark.parametrize("build", [flow_dict, hpe_dict, tensor_dict])
    def test_parse_serialize_parse_is_identity(self, build):
        cfg = ExperimentConfig.from_dict(build())
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg
        assert serialize_config(again) == text

    def test_defaults(self):
        cfg = ExperimentConfig.from_dict(flow_dict())
        assert cfg.seed == 0
        assert cfg.out is None
        d = cfg.to_dict()
        assert "out" not in d

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(serialize_config(ExperimentConfig.from_dict(hpe_dict())))
        cfg = load_config(path)
        assert cfg.mode == "HPE_EXACT"
        assert cfg.seed == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_malformed_text(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")
        with pytest.raises(ConfigError):
            parse_config("[1, 2]")


class TestValidation:
    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(flow_dict(mode="EULER"))

    def test_unknown_problem(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(flow_dict(problem={"name": "nope"}))

    def test_unknown_param_key(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(flow_dict(params={"theta": 0.1, "p": 1, "q": 2}))

    def test_missing_required_param(self):
        with pytest.raises(ConfigError, match="p"):
            ExperimentConfig.from_dict(flow_dict(params={"theta": 0.1}))

    def test_module_invariants_checked_eagerly(self):
        bad = hpe_dict()
        bad["params"]["sigma"] = 1.0
        with pytest.raises(ConfigError, match="sigma"):
            ExperimentConfig.from_dict(bad)
        bad = tensor_dict()
        bad["params"]["sigma_hat"] = 0.9
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)

    def test_horizon_shape_per_mode(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(flow_dict(horizon={"T": 1.0, "h": 0.0}))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(flow_dict(horizon={"T": -1.0, "h": 0.1}))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(flow_dict(horizon={"max_iters": 10}))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(hpe_dict(horizon={"T": 1.0, "h": 0.1}))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(hpe_dict(horizon={"max_iters": -5}))

    def test_x0_dimension_checked(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(flow_dict(x0=[0.5, 0.5, 0.5]))

    def test_stride_validated(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                flow_dict(horizon={"T": 1.0, "h": 0.01, "sample_stride": 0})
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "over, field",
        [
            (lambda v: {"x0": [v, 0.5]}, "x0[0]"),
            (lambda v: {"horizon": {"T": v, "h": 0.01}}, "horizon.T"),
            (lambda v: {"horizon": {"T": 1.0, "h": v}}, "horizon.h"),
            (lambda v: {"params": {"theta": v, "p": 1}}, "params.theta"),
            (lambda v: {"params": {"theta": 0.1, "p": v}}, "params.p"),
        ],
    )
    def test_non_finite_numbers_rejected(self, over, field, bad):
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)} must be finite"):
            ExperimentConfig.from_dict(flow_dict(**over(bad)))

    @pytest.mark.parametrize("seed", [-1, -3])
    def test_negative_seed_rejected(self, seed):
        # numpy refuses negative seeds; a random x0 would crash at run time.
        with pytest.raises(ConfigError, match=r"^seed must be >= 0"):
            ExperimentConfig.from_dict(hpe_dict(x0={"random_scale": 1.0}, seed=seed))

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(ConfigError, match="horizon.h must be finite"):
            ExperimentConfig.from_dict(flow_dict(horizon={"T": 1.0, "h": 10**400}))

    @pytest.mark.parametrize("T, h", [(1.0, 1e-320), (1.0, 1e-9), (1e300, 1.0), (2.0, 2.0 / (MAX_FLOW_STEPS + 1))])
    def test_flow_step_count_capped(self, T, h):
        with pytest.raises(ConfigError, match=r"^horizon\.h gives .* steps"):
            ExperimentConfig.from_dict(flow_dict(horizon={"T": T, "h": h}))

    def test_flow_step_count_at_cap_accepted(self):
        cfg = ExperimentConfig.from_dict(flow_dict(horizon={"T": 2.0, "h": 2.0 / MAX_FLOW_STEPS}))
        assert cfg.horizon["h"] == 2.0 / MAX_FLOW_STEPS
        assert ExperimentConfig.from_dict(flow_dict(horizon={"T": 0.0, "h": 1e-320})).horizon["T"] == 0.0


class TestDerivedObjects:
    def test_mode_params_types(self):
        assert isinstance(ExperimentConfig.from_dict(flow_dict()).mode_params(), FeedbackParams)
        hp = ExperimentConfig.from_dict(hpe_dict()).mode_params()
        assert isinstance(hp, HpeConfig)
        assert hp.max_iters == 100
        assert hp.stop_res == 1e-9
        tc = ExperimentConfig.from_dict(tensor_dict()).mode_params()
        assert isinstance(tc, TensorConfig)

    def test_drive_config_inherits_derived_constants(self):
        cfg = ExperimentConfig.from_dict(tensor_dict())
        tc = cfg.mode_params()
        drive = cfg.drive_config(tc)
        assert drive.sigma == pytest.approx(tc.sigma)
        assert drive.theta == pytest.approx(tc.theta)
        assert drive.p == tc.p
        assert drive.max_iters == 40

    def test_explicit_x0(self):
        cfg = ExperimentConfig.from_dict(flow_dict())
        prob = cfg.problem_instance()
        assert np.allclose(cfg.initial_point(prob), [0.5, 0.5])

    def test_random_x0_is_seeded_and_projected(self):
        cfg1 = ExperimentConfig.from_dict(hpe_dict(x0={"random_scale": 5.0}, seed=11))
        cfg2 = ExperimentConfig.from_dict(hpe_dict(x0={"random_scale": 5.0}, seed=11))
        cfg3 = ExperimentConfig.from_dict(hpe_dict(x0={"random_scale": 5.0}, seed=12))
        prob = cfg1.problem_instance()
        a = cfg1.initial_point(prob)
        b = cfg2.initial_point(prob)
        c = cfg3.initial_point(prob)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all(np.abs(a) <= 1.0)  # projected into the box
