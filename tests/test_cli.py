import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from monoflow import cli
from monoflow import operators as ops


def write_config(tmp_path, payload, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def flow_payload(out, T=0.0):
    return {
        "problem": {"name": "bilinear_saddle", "params": {"d": 2}},
        "mode": "FLOW",
        "params": {"theta": 0.1, "p": 1},
        "horizon": {"T": T, "h": 0.01},
        "x0": [0.5, 0.5],
        "out": str(out),
    }


def hpe_payload(out, iters=300, p=1, theta=0.1):
    return {
        "problem": {"name": "bilinear_saddle", "params": {"d": 2}},
        "mode": "HPE_EXACT",
        "params": {"sigma": 0.0, "theta": theta, "p": p, "stop_res": 0.0},
        "horizon": {"max_iters": iters},
        "x0": [0.7, 0.7],
        "out": str(out),
    }


class TestRun:
    def test_zero_horizon_writes_single_row(self, tmp_path, capsys):
        out = tmp_path / "flow.csv"
        cfg = write_config(tmp_path, flow_payload(out))
        rc = cli.main(["run", "--config", str(cfg)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2  # header plus one state
        assert lines[0].startswith("t,")
        summary = json.loads((tmp_path / "flow.summary.json").read_text())
        assert summary["status"] == "OK"
        assert summary["samples"] == 1
        printed = json.loads(capsys.readouterr().out)
        assert printed["problem"] == "bilinear_saddle"

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cfg1 = write_config(tmp_path, hpe_payload(out1), "a.json")
        cfg2 = write_config(tmp_path, hpe_payload(out2), "b.json")
        assert cli.main(["run", "--config", str(cfg1)]) == 0
        assert cli.main(["run", "--config", str(cfg2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_hpe_summary_content(self, tmp_path):
        out = tmp_path / "h.csv"
        cfg = write_config(tmp_path, hpe_payload(out, iters=50))
        assert cli.main(["run", "--config", str(cfg)]) == 0
        summary = json.loads((tmp_path / "h.summary.json").read_text())
        assert summary["iterations"] == 50
        assert summary["certificates"]["passed"] == 50
        assert summary["certificates"]["total"] == 50
        header = out.read_text().splitlines()[0].split(",")
        assert header[:2] == ["k", "lambda"]
        assert "gap_ergodic" in header

    def test_out_override(self, tmp_path):
        configured = tmp_path / "ignored.csv"
        actual = tmp_path / "actual.csv"
        cfg = write_config(tmp_path, flow_payload(configured))
        assert cli.main(["run", "--config", str(cfg), "--out", str(actual)]) == 0
        assert actual.exists()
        assert not configured.exists()

    def test_runtime_failure_exits_one(self, tmp_path, capsys):
        payload = flow_payload(tmp_path / "x.csv", T=1.0)
        payload["x0"] = [0.0, 0.0]  # already solves the inclusion
        cfg = write_config(tmp_path, payload)
        assert cli.main(["run", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err


class TestConfigRejection:
    def test_invalid_sigma_exits_two(self, tmp_path, capsys):
        payload = hpe_payload(tmp_path / "x.csv")
        payload["params"]["sigma"] = 1.0
        cfg = write_config(tmp_path, payload)
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "sigma" in capsys.readouterr().err

    def test_empty_tensor_window_exits_two(self, tmp_path, capsys):
        payload = {
            "problem": {"name": "cubic_1d"},
            "mode": "TENSOR",
            "params": {"sigma_hat": 0.5, "sigma_l": 0.4, "sigma_u": 0.45, "L": 6.0, "p": 2},
            "horizon": {"max_iters": 10},
            "x0": [2.0],
        }
        cfg = write_config(tmp_path, payload)
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unsupported_surrogate_order_exits_two(self, tmp_path, capsys):
        # p = 3 surrogate solves need d <= 4; the d = 10 saddle used to fail
        # at its first oracle call with exit 1.
        payload = {
            "problem": {"name": "bilinear_saddle", "params": {"d": 10}},
            "mode": "TENSOR",
            "params": {"sigma_hat": 0.1, "sigma_l": 0.2, "sigma_u": 0.8, "L": 6.0, "p": 3},
            "horizon": {"max_iters": 5},
            "x0": [0.5] * 10,
            "out": str(tmp_path / "t.csv"),
        }
        for cmd in ("run", "rates"):
            assert cli.main([cmd, "--config", str(write_config(tmp_path, payload))]) == 2
            assert "supported only for d <= 4" in capsys.readouterr().err
            assert not (tmp_path / "t.csv").exists()

    def test_non_finite_config_exits_two(self, tmp_path, capsys):
        for i, payload in enumerate(
            [
                dict(flow_payload(tmp_path / "a.csv"), x0=[float("nan"), 0.5]),
                dict(flow_payload(tmp_path / "b.csv"), horizon={"T": float("inf"), "h": 0.01}),
            ]
        ):
            cfg = write_config(tmp_path, payload, f"bad{i}.json")
            assert cli.main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "x0[0] must be finite" in err
        assert "horizon.T must be finite" in err

    def test_unbounded_step_count_exits_two(self, tmp_path, capsys):
        # h = 1e-320 used to overflow math.ceil in the flow and h = 1e-9 to
        # start a run of 1e9 steps; both are refused before any step.
        for i, h in enumerate([1e-320, 1e-9]):
            payload = dict(flow_payload(tmp_path / f"s{i}.csv", T=1.0), horizon={"T": 1.0, "h": h})
            cfg = write_config(tmp_path, payload, f"steps{i}.json")
            assert cli.main(["run", "--config", str(cfg)]) == 2
            assert not (tmp_path / f"s{i}.csv").exists()
        assert capsys.readouterr().err.count("horizon.h gives") == 2

    def test_missing_config_exits_two(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "absent.json")]) == 2

    def test_negative_config_seed_exits_two(self, tmp_path, capsys):
        payload = dict(hpe_payload(tmp_path / "x.csv"), x0={"random_scale": 0.5}, seed=-3)
        cfg = write_config(tmp_path, payload)
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("cmd", ["run", "rates", "check"])
    def test_negative_seed_flag_exits_two(self, tmp_path, capsys, cmd):
        payload = dict(hpe_payload(tmp_path / "x.csv"), x0={"random_scale": 0.5})
        argv = [cmd, "--seed", "-1"]
        if cmd != "check":
            argv += ["--config", str(write_config(tmp_path, payload))]
        assert cli.main(argv) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_usage_error_exits_two(self, capsys):
        assert cli.main(["run"]) == 2
        capsys.readouterr()


class TestCheck:
    def test_single_suite_passes(self, capsys):
        rc = cli.main(["check", "--suite", "FEEDBACK"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[FEEDBACK]" in out
        assert "check result: PASS" in out

    def test_unknown_suite_exits_two(self, capsys):
        assert cli.main(["check", "--suite", "NOPE"]) == 2
        capsys.readouterr()

    def test_sampling_failure_is_a_typed_error(self, capsys, monkeypatch):
        # No point is away from the solution set, so the suite cannot sample one.
        monkeypatch.setattr(ops, "min_norm_residual", lambda op, x: 0.0)
        assert cli.main(["check", "--suite", "FEEDBACK"]) == 1
        err = capsys.readouterr().err
        assert any(line.startswith("error: ") for line in err.splitlines()), err

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_line_passes_exactly_when_its_margin_is_nonnegative(self, capsys, seed):
        assert cli.main(["check", "--suite", "ALL", "--seed", str(seed)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "check result: PASS"
        line_re = re.compile(r"^\[[A-Z]+\] \[(PASS|FAIL)\] .+: worst margin (\S+)( \(.*\))?$")
        for line in lines[:-1]:
            m = line_re.match(line)
            assert m, line
            margin = float(m.group(2))
            assert not math.isnan(margin), line
            assert (m.group(1) == "PASS") == (margin >= 0.0), line

    def test_thread_cap_env_is_validated(self, capsys, monkeypatch):
        monkeypatch.setenv("MONOFLOW_THREADS", "zero")
        assert cli.main(["check", "--suite", "FEEDBACK"]) == 2
        monkeypatch.setenv("MONOFLOW_THREADS", "0")
        assert cli.main(["check", "--suite", "FEEDBACK"]) == 2
        capsys.readouterr()

    def test_thread_cap_env_is_used(self, capsys, monkeypatch):
        monkeypatch.setenv("MONOFLOW_THREADS", "1")
        assert cli.main(["check", "--suite", "METRICS"]) == 0
        capsys.readouterr()


class TestRates:
    def test_saddle_run_passes_both_targets(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        cfg = write_config(tmp_path, hpe_payload(out, iters=1200))
        rc = cli.main(["rates", "--config", str(cfg)])
        text = capsys.readouterr().out
        assert rc == 0
        assert text.count("PASS") == 2
        assert "gap_ergodic: slope" in text
        assert "residue: slope" in text


class TestHelp:
    def test_epilog_documents_outputs(self):
        text = cli.build_parser().format_help()
        assert "gap_ergodic" in text
        assert "17 significant digits" in text
        assert "MONOFLOW_THREADS" in text


class TestImport:
    def test_cli_import_leaves_scipy_out(self):
        # scipy is a test dependency only; a fresh interpreter importing
        # the CLI from this source tree must not load it.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, monoflow.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"
