import importlib.util
import json
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from monoflow import cli, problems
from monoflow.config import (
    MAX_FLOW_STEPS,
    ExperimentConfig,
    load_config,
    parse_config,
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
    def test_defaults(self):
        cfg = ExperimentConfig.from_dict(flow_dict())
        assert cfg.seed == 0
        assert cfg.out is None

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(hpe_dict()))
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

    @pytest.mark.parametrize("make", [hpe_dict, tensor_dict])
    def test_negative_max_iters_names_the_horizon_field(self, make):
        with pytest.raises(ConfigError, match=r"^horizon\.max_iters must be >= 0$"):
            ExperimentConfig.from_dict(make(horizon={"max_iters": -1}))

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

    @pytest.mark.parametrize(
        "problem, x0, why",
        [
            ({"name": "bilinear_saddle", "params": {"d": 10}}, [0.5] * 10, "d <= 4"),
            ({"name": "convex_gradient", "params": {"d": 5}}, [0.5] * 5, "d <= 4"),
            ({"name": "strongly_monotone_affine", "params": {"d": 2}}, [0.5, 0.5], "polynomial and radial"),
            ({"name": "bilinear_saddle", "params": {"d": 2}}, [0.5, 0.5], "polynomial and radial"),
        ],
    )
    @pytest.mark.parametrize("p", [3, 4])
    def test_tensor_surrogate_order_checked(self, problem, x0, why, p):
        # The oracle refuses these at its first solve; the parser refuses
        # them before any run starts.
        raw = tensor_dict(problem=problem, x0=x0)
        raw["params"]["p"] = p
        with pytest.raises(ConfigError, match=rf"^params\.p = {p} does not fit .*{why}"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "problem, x0, p",
        [
            ({"name": "bilinear_saddle", "params": {"d": 10}}, [0.5] * 10, 2),
            ({"name": "convex_gradient", "params": {"d": 4}}, [0.5] * 4, 3),
            ({"name": "cubic_1d"}, [2.0], 4),
        ],
    )
    def test_tensor_surrogate_order_accepted(self, problem, x0, p):
        raw = tensor_dict(problem=problem, x0=x0)
        raw["params"]["p"] = p
        assert ExperimentConfig.from_dict(raw).params.p == p

    def test_flow_step_count_at_cap_accepted(self):
        cfg = ExperimentConfig.from_dict(flow_dict(horizon={"T": 2.0, "h": 2.0 / MAX_FLOW_STEPS}))
        assert cfg.horizon["h"] == 2.0 / MAX_FLOW_STEPS
        assert ExperimentConfig.from_dict(flow_dict(horizon={"T": 0.0, "h": 1e-320})).horizon["T"] == 0.0


class TestDerivedObjects:
    def test_mode_params_types(self):
        flow = ExperimentConfig.from_dict(flow_dict())
        assert isinstance(flow.params, FeedbackParams)
        assert flow.drive is None
        hp = ExperimentConfig.from_dict(hpe_dict()).params
        assert isinstance(hp, HpeConfig)
        assert hp.max_iters == 100
        assert hp.stop_res == 1e-9
        tc = ExperimentConfig.from_dict(tensor_dict()).params
        assert isinstance(tc, TensorConfig)

    def test_drive_config_inherits_derived_constants(self):
        cfg = ExperimentConfig.from_dict(tensor_dict())
        tc = cfg.params
        drive = tc.drive(cfg.horizon["max_iters"])
        assert drive == HpeConfig(sigma=tc.sigma, theta=tc.theta, p=tc.p, max_iters=40, stop_res=1e-9)
        assert drive.law == FeedbackParams(tc.theta, tc.p)
        assert tc.drive(40, stop_res=1e-6).stop_res == 1e-6
        # ExperimentConfig.drive is what cli drives a run with.
        assert cfg.drive == drive
        params = dict(tensor_dict()["params"], stop_res=1e-6)
        assert ExperimentConfig.from_dict(tensor_dict(params=params)).drive == tc.drive(40, stop_res=1e-6)
        hpe = ExperimentConfig.from_dict(hpe_dict())
        assert hpe.drive is hpe.params
        params = dict(hpe_dict()["params"], stop_res=1e-6)
        assert ExperimentConfig.from_dict(hpe_dict(params=params)).drive.stop_res == 1e-6

    def test_explicit_x0(self):
        cfg = ExperimentConfig.from_dict(flow_dict())
        assert np.allclose(cfg.initial_point(), [0.5, 0.5])

    def test_random_x0_is_seeded_and_projected(self):
        cfg1 = ExperimentConfig.from_dict(hpe_dict(x0={"random_scale": 5.0}, seed=11))
        cfg2 = ExperimentConfig.from_dict(hpe_dict(x0={"random_scale": 5.0}, seed=11))
        cfg3 = ExperimentConfig.from_dict(hpe_dict(x0={"random_scale": 5.0}, seed=12))
        a = cfg1.initial_point()
        b = cfg2.initial_point()
        c = cfg3.initial_point()
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all(np.abs(a) <= 1.0)  # projected into the box

    def test_seed_override_keeps_the_built_objects(self):
        # --seed and --out go through dataclasses.replace: the new config
        # shares the problem and parameter objects, and only a random x0 moves.
        cfg = ExperimentConfig.from_dict(hpe_dict(x0={"random_scale": 5.0}, seed=11))
        moved = replace(cfg, seed=12, out="trace.csv")
        assert moved.problem is cfg.problem
        assert moved.params is cfg.params and moved.drive is cfg.drive
        fresh = ExperimentConfig.from_dict(hpe_dict(x0={"random_scale": 5.0}, seed=12))
        assert np.array_equal(moved.initial_point(), fresh.initial_point())
        fixed = ExperimentConfig.from_dict(hpe_dict())
        assert np.array_equal(replace(fixed, seed=12).initial_point(), fixed.initial_point())


def _main(tmp_path, text, cmd, *extra):
    """cli.main's exit code for `cmd --config FILE *extra`, FILE holding text."""
    path = tmp_path / "exp.json"
    path.write_text(text)
    return cli.main([cmd, "--config", str(path), *extra])


class TestProblemParamsRejected:
    """Problem parameters no run can use exit 2 through cli.main."""

    @pytest.mark.parametrize(
        "problem, x0, why",
        [
            ({"name": "strongly_monotone_affine", "params": {"d": 0}}, [1.0], "affine matrix must be square and non-empty"),
            ({"name": "strongly_monotone_affine", "params": {"d": 2, "mu": "INF"}}, [1.0, 1.0], "mu must be finite"),
            ({"name": "bilinear_saddle", "params": {"d": 2, "scale": "INF"}}, [1.0, 1.0], "scale must be finite"),
        ],
    )
    def test_exit_2(self, tmp_path, capsys, problem, x0, why):
        # "INF" stands for the JSON number 1e400, which json reads as inf.
        text = json.dumps(hpe_dict(problem=problem, x0=x0)).replace('"INF"', "1e400")
        assert _main(tmp_path, text, "run") == 2
        assert capsys.readouterr().err == f"config error: problem section invalid: {why}\n"


class TestBuiltOnce:
    """A run builds its problem once, at parse time, and runs the very
    problem and parameter objects the parser checked."""

    @pytest.mark.parametrize("cmd", ["run", "rates"])
    @pytest.mark.parametrize("make", [flow_dict, hpe_dict, tensor_dict])
    def test_problem_built_once_and_objects_shared(self, tmp_path, capsys, monkeypatch, make, cmd):
        builds, loaded, calls = [], [], []
        real_build, real_load, real_integrate, real_run = (
            problems.build_problem, cli.load_config, cli.flow.integrate, cli.hpe.run
        )
        monkeypatch.setattr(problems, "build_problem", lambda *a: builds.append(a) or real_build(*a))
        monkeypatch.setattr(cli, "load_config", lambda path: loaded.append(real_load(path)) or loaded[-1])
        monkeypatch.setattr(cli.flow, "integrate", lambda *a: calls.append(a) or real_integrate(*a))
        monkeypatch.setattr(cli.hpe, "run", lambda *a: calls.append(a) or real_run(*a))
        rc = _main(tmp_path, json.dumps(make()), cmd, "--seed", "5")
        out = capsys.readouterr().out
        if cmd == "run":
            assert rc == 0
        else:  # a slope may miss its target on these short runs
            assert rc in (0, 1) and "residue: " in out
        assert len(builds) == len(loaded) == len(calls) == 1
        cfg = loaded[0]
        if cfg.mode == "FLOW":
            problem, _, params = calls[0][:3]
            assert problem is cfg.problem and params is cfg.params
            return
        problem, oracle, drive, _ = calls[0]
        assert problem is cfg.problem and oracle.args == (cfg.problem,)
        assert drive is cfg.drive
        assert oracle.keywords["cfg"] is (cfg.drive if cfg.mode == "HPE_EXACT" else cfg.params)


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def workloads(monkeypatch):
    """benchmarks/workloads.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("monoflow_bench_workloads", BENCHMARKS / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


class TestBenchmarkConfigs:
    def test_reference_warmup_and_setup_configs(self, workloads):
        # Every config the benchmark runs or parses goes through the config
        # layer and derives the constants it was calibrated with; a slip here
        # would otherwise show only as a refused benchmark run.
        two = TensorConfig(sigma_hat=0.05, sigma_l=0.3, sigma_u=0.7, L=1.0, p=2)
        three = TensorConfig(sigma_hat=0.1, sigma_l=0.2, sigma_u=0.8, L=6.0, p=3)

        def tensor_p2(n):
            return two, (0.6, 1.4), HpeConfig(0.75, 0.6, 2, n, stop_res=1e-9)

        def tensor_p3(n):
            return three, (0.2, 0.8), HpeConfig(0.9, 0.20000000000000004, 3, n, stop_res=1e-9)

        expected = {
            ("FLOW", "bilinear_saddle"): lambda n: FeedbackParams(theta=0.012, p=2),
            ("HPE_EXACT", "bilinear_saddle"): lambda n: HpeConfig(0.0, 1.5e-3, 2, n, stop_res=1e-9),
            ("TENSOR", "bilinear_saddle"): tensor_p2,
            ("TENSOR", "strongly_monotone_affine"): tensor_p2,
            ("TENSOR", "cubic_1d"): tensor_p3,
            ("TENSOR", "convex_gradient"): tensor_p3,
        }
        budgets = []
        for w in workloads.WORKLOADS.values():
            calls = [c.config for c in w.reference() + w.warmup() if c.config is not None]
            for raw in calls + [w.setup_config()]:
                cfg = parse_config(json.dumps(raw))
                n = cfg.horizon.get("max_iters")
                derived = cfg.params
                if cfg.mode == "TENSOR":
                    derived = derived, derived.window, cfg.drive
                assert derived == expected[cfg.mode, cfg.problem_name](n), raw
                budgets.append((cfg.mode, n))
        assert sorted(budgets, key=repr) == sorted(
            [("FLOW", None)] * 4 + [("HPE_EXACT", 3000)] * 2 + [("HPE_EXACT", 5)]
            + [("TENSOR", 60)] * 5 + [("TENSOR", 2)] * 4,
            key=repr,
        )


class TestBenchmarkReferences:
    @pytest.mark.parametrize("name", ["flow_saddle_p2", "hpe_saddle_p2", "tensor_batch"])
    def test_reference_calls_match_the_record(self, workloads, tmp_path, capsys, name):
        # The canonical calls reproduce benchmarks/references.json at the
        # benchmark's own REF_RTOL, read as benchmarks/run.py reads them, so
        # a change that moves a reference fails here before a benchmark run.
        rtol = float(re.search(r"^REF_RTOL = (\S+)$", (BENCHMARKS / "run.py").read_text(), re.M).group(1))
        refs = json.loads((BENCHMARKS / "references.json").read_text())[name]
        calls = workloads.WORKLOADS[name].reference()
        assert [c.label for c in calls] == [r["label"] for r in refs]
        cfg, out = tmp_path / "call.json", tmp_path / "call.csv"
        for call, ref in zip(calls, refs):
            cfg.write_text(json.dumps(call.config))
            assert cli.main([call.cmd, "--config", str(cfg), "--out", str(out)]) == 0, capsys.readouterr()
            summary = json.loads((tmp_path / "call.summary.json").read_text())
            rows = out.read_text().splitlines()
            lam = float(rows[-1].split(",")[rows[0].split(",").index("lambda")])
            if summary["mode"] == "FLOW":
                steps = math.ceil(summary["final"]["t"] / call.config["horizon"]["h"] - 1e-9)
            else:
                steps = summary["iterations"]
            for key, got in (("dist", summary["final"]["dist"]), ("lambda", lam), ("steps", steps)):
                want = ref[key]
                assert abs(got - want) <= rtol * max(abs(want), abs(got)), (call.label, key, got, want)
