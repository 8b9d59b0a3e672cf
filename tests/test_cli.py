import importlib
import importlib.util
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from monoflow import checks, cli, hpe, tensor
from monoflow import operators as ops
from monoflow.errors import DomainUnbounded, InnerSolverDiverged, UnsupportedMetric
from monoflow.report import CheckReport


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

    @pytest.mark.parametrize("fallback", [False, True])
    def test_flow_summary_names_the_stop_and_counts_fallbacks(self, tmp_path, capsys, monkeypatch, fallback):
        # p = 2 to T = 0.05: four evaluations of lam' a step, each falling
        # back to 0 when the law slope raises.
        if fallback:

            def singular(*args):
                raise np.linalg.LinAlgError("Singular matrix")

            monkeypatch.setattr(cli.flow, "law_slope", singular)
        out = tmp_path / "flow.csv"
        payload = dict(flow_payload(out, T=0.05), params={"theta": 0.1, "p": 2})
        assert cli.main(["run", "--config", str(write_config(tmp_path, payload))]) == 0
        summary = json.loads((tmp_path / "flow.summary.json").read_text())
        assert (summary["status"], summary["stop"]) == ("OK", "horizon")
        assert summary["lam_rate_fallbacks"] == (4 * 5 if fallback else 0)
        assert json.loads(capsys.readouterr().out) == summary

    def test_flow_summary_names_a_law_solve_stop(self, tmp_path, capsys):
        out = tmp_path / "flow.csv"
        payload = dict(
            flow_payload(out),
            problem={"name": "strongly_monotone_affine", "params": {"d": 2}},
            params={"theta": 0.5, "p": 1},
            horizon={"T": 120.0, "h": 0.05},
            x0=[1.0, 1.0],
        )
        assert cli.main(["run", "--config", str(write_config(tmp_path, payload))]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["status"], summary["stop"], summary["lam_rate_fallbacks"]) == ("STATIONARY", "law_solve", 0)

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

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out_exits_two(self, tmp_path, capsys, where):
        configured = tmp_path / "ignored.csv"
        bad = tmp_path / "absent" / "x.csv" if where == "missing directory" else tmp_path
        cfg = write_config(tmp_path, flow_payload(configured))
        assert cli.main(["run", "--config", str(cfg), "--out", str(bad)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: cannot write output: "), err
        assert not configured.exists()

    @pytest.mark.parametrize("cmd", ["run", "rates"])
    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    @pytest.mark.parametrize("given", ["config", "flag"])
    def test_unwritable_out_refused_before_any_step(self, tmp_path, capsys, monkeypatch, cmd, where, given):
        def integrate(*args, **kwargs):
            raise AssertionError("the flow ran before out was checked")

        monkeypatch.setattr(cli.flow, "integrate", integrate)
        bad = tmp_path / "absent" / "x.csv" if where == "missing directory" else tmp_path
        argv = [cmd, "--config"]
        if given == "config":
            argv.append(str(write_config(tmp_path, flow_payload(bad, T=1.0))))
        else:
            argv += [str(write_config(tmp_path, flow_payload(tmp_path / "ok.csv", T=1.0))), "--out", str(bad)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: cannot write output: "), err

    def test_flow_theta_above_one_runs(self, tmp_path, capsys):
        # The law needs only theta > 0; theta = 1.5 holds it at every state.
        payload = dict(flow_payload(tmp_path / "t.csv", T=1.0), params={"theta": 1.5, "p": 2})
        assert cli.main(["run", "--config", str(write_config(tmp_path, payload))]) == 0
        certs = json.loads(capsys.readouterr().out)["certificates"]
        assert certs["total"] == 101
        assert certs["control_law_within_tol"] == certs["total"]

    def test_nan_residue_stays_in_the_running_minimum(self, tmp_path, capsys, monkeypatch):
        # A NaN residue at k = 3 must not be folded away by the running minimum.
        real_residue, real_fit = cli.metrics.residue, cli.metrics.fit_rate
        calls, fitted = [], []

        def residue(problem, x):
            # One call takes the run's stacked y_1..y_5; its k = 3 entry is NaN.
            calls.append(None)
            out = real_residue(problem, x)
            out[2] = math.nan
            return out

        def fit_rate(values, *args, **kwargs):
            fitted.append(list(values))
            return real_fit(values, *args, **kwargs)

        monkeypatch.setattr(cli.metrics, "residue", residue)
        monkeypatch.setattr(cli.metrics, "fit_rate", fit_rate)
        out = tmp_path / "n.csv"
        cfg = write_config(tmp_path, hpe_payload(out, iters=5))
        assert cli.main(["run", "--config", str(cfg)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        col = lines[0].split(",").index("residue_min_so_far")
        column = [row.split(",")[col] for row in lines[1:]]
        assert len(column) == 5 and len(calls) == 1
        assert all(math.isfinite(float(v)) for v in column[:2])
        assert column[2:] == ["nan"] * 3
        summary = json.loads((tmp_path / "n.summary.json").read_text())
        assert summary["final"]["residue_min_so_far"] is None
        # The summary fits the gap series first, then the residue series.
        assert all(math.isnan(v) for v in fitted[-1][2:])

    # From x0 = 1e200 on cubic_1d the poly resolvent route overflows (its
    # own missed bound, ROADMAP item 10); these tests are about what the
    # law does with the result, so numpy's overflow warning is let through.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_runtime_failure_exits_one(self, tmp_path, capsys):
        payload = flow_payload(tmp_path / "x.csv", T=1.0)
        # No finite resolvent step: even at p = 1, whose law value is lam alone.
        payload.update(problem={"name": "cubic_1d"}, x0=[1e200])
        cfg = write_config(tmp_path, payload)
        assert cli.main(["run", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("payload", [flow_payload(None, T=1.0), hpe_payload(None, iters=5)], ids=["FLOW", "HPE_EXACT"])
    def test_law_value_that_overflows_is_a_typed_error(self, tmp_path, capsys, payload):
        # From x0 = 1e200 the resolvent's step ||x - y|| overflows at every
        # lam; the law cannot read a value from it, so the first solve
        # fails, instead of halving lam until the bracket budget is spent.
        payload = dict(payload, problem={"name": "cubic_1d"}, params={"theta": 0.1, "p": 2}, x0=[1e200])
        payload["out"] = str(tmp_path / "x.csv")
        assert cli.main(["run", "--config", str(write_config(tmp_path, payload))]) == 1
        assert "resolvent step ||x - y|| = inf not finite at lam 1.000e+00" in capsys.readouterr().err

    def test_flow_from_a_stationary_start_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "flow.csv"
        payload = dict(flow_payload(out, T=1.0), x0=[0.0, 0.0])  # already solves the inclusion
        assert cli.main(["run", "--config", str(write_config(tmp_path, payload))]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert out.read_text().splitlines() == [
            "t,x0,x1,lambda,speed,gap_ergodic,residue_pointwise,dist,E"
        ]
        assert (summary["status"], summary["stop"], summary["samples"]) == ("STATIONARY", "law_solve", 0)
        assert summary["certificates"] == {"control_law_within_tol": 0, "total": 0}
        assert summary["final"] == {"t": 0.0, "gap_ergodic": None, "residue_pointwise": 0.0, "dist": 0.0}


class TestConfigRejection:
    def test_invalid_sigma_exits_two(self, tmp_path, capsys):
        payload = hpe_payload(tmp_path / "x.csv")
        payload["params"]["sigma"] = 1.0
        cfg = write_config(tmp_path, payload)
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("theta", [0.0, -0.1])
    def test_nonpositive_theta_exits_two(self, tmp_path, capsys, theta):
        payload = dict(flow_payload(tmp_path / "x.csv", T=1.0), params={"theta": theta, "p": 2})
        assert cli.main(["run", "--config", str(write_config(tmp_path, payload))]) == 2
        assert "theta must be positive" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

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

    @pytest.mark.parametrize("section, key", [("params", "stop_res"), ("horizon", "max_iters")])
    def test_negative_tensor_drive_constant_exits_two(self, tmp_path, capsys, section, key):
        # Both feed the HpeConfig that drives a TENSOR run; they used to pass
        # parsing and end the run in a ValueError traceback.
        payload = {
            "problem": {"name": "cubic_1d"},
            "mode": "TENSOR",
            "params": {"sigma_hat": 0.1, "sigma_l": 0.2, "sigma_u": 0.8, "L": 6.0, "p": 3},
            "horizon": {"max_iters": 10},
            "x0": [2.0],
            "out": str(tmp_path / "t.csv"),
        }
        payload[section][key] = -1
        assert cli.main(["run", "--config", str(write_config(tmp_path, payload))]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{key} must be >= 0" in err
        assert section != "horizon" or "horizon.max_iters" in err
        assert not (tmp_path / "t.csv").exists()

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

    @pytest.mark.parametrize(
        "mode, edit, message",
        [
            ("HPE_EXACT", lambda c: c.pop("horizon"), "config is missing required keys ['horizon']"),
            ("HPE_EXACT", lambda c: c["params"].update(theta="0.1"), "params.theta must be a number"),
            ("HPE_EXACT", lambda c: c["horizon"].update(max_iters=2.5), "horizon.max_iters must be an integer"),
            ("HPE_EXACT", lambda c: c["problem"].update(name=3), "problem.name must be a string"),
            ("HPE_EXACT", lambda c: c["problem"].update(params=[2]), "problem.params must be a mapping"),
            ("FLOW", lambda c: c["horizon"].pop("h"), "FLOW horizon needs T and h"),
            ("HPE_EXACT", lambda c: c["horizon"].clear(), "HPE_EXACT horizon needs max_iters"),
            ("TENSOR", lambda c: c["horizon"].clear(), "TENSOR horizon needs max_iters"),
            ("HPE_EXACT", lambda c: c.update(x0={"random_scale": 0.0}), "x0.random_scale must be > 0"),
            ("HPE_EXACT", lambda c: c.update(x0=[]), "x0 must not be empty"),
            ("HPE_EXACT", lambda c: c.update(x0="0.7"), 'x0 must be a coordinate list or {"random_scale": s}'),
            ("HPE_EXACT", lambda c: c.update(out=3), "out must be a string path"),
        ],
        ids=[
            "missing key", "non-number", "non-integer", "problem name", "problem params", "flow horizon",
            "hpe horizon", "tensor horizon", "random scale", "empty x0", "x0 type", "out type",
        ],
    )
    def test_malformed_config_exits_two(self, tmp_path, capsys, mode, edit, message):
        out = tmp_path / "x.csv"
        payload = flow_payload(out, T=1.0) if mode == "FLOW" else hpe_payload(out)
        if mode == "TENSOR":
            payload.update(mode="TENSOR", params={"sigma_hat": 0.05, "sigma_l": 0.3, "sigma_u": 0.7, "L": 1.0, "p": 2})
        edit(payload)
        assert cli.main(["run", "--config", str(write_config(tmp_path, payload))]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

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
        # No point is away from the solution set, so the suite cannot sample
        # one; the typed error is the suite's one FAIL line.
        monkeypatch.setattr(ops, "min_norm_residual", lambda op, x: 0.0)
        assert cli.main(["check", "--suite", "FEEDBACK"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "[FEEDBACK] [FAIL] suite ran to completion: worst margin -inf "
            "(MonoflowError: could not sample a point away from the solution set)",
            "check result: FAIL",
        ]

    def test_a_suite_that_raises_is_one_fail_line(self, capsys, monkeypatch):
        # The other suites still run and report; check still fails.
        def stalls(seed):
            raise InnerSolverDiverged("resolvent newton stalled at residual 3.194e+01", residual=31.94)

        def passes(seed):
            rep = CheckReport()
            rep.add(f"seed is {seed}", 1.0)
            return rep

        monkeypatch.setattr(checks, "SUITES", {n: passes for n in checks.SUITE_NAMES} | {"FEEDBACK": stalls})
        assert cli.main(["check", "--suite", "ALL", "--seed", "7"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == (
            "[FEEDBACK] [FAIL] suite ran to completion: worst margin -inf "
            "(InnerSolverDiverged: resolvent newton stalled at residual 3.194e+01)"
        )
        assert out[1:-1] == [f"[{n}] [PASS] seed is 7: worst margin 1.000e+00" for n in checks.SUITE_NAMES[1:]]
        assert out[-1] == "check result: FAIL"

    def test_pooled_check_prints_the_serial_bytes(self, capsys, monkeypatch):
        # One usable processor runs the suites serially; the default runs
        # them on one forked worker per processor.  stdout is the same.
        assert cli.main(["check", "--suite", "ALL", "--seed", "3"]) == 0
        pooled = capsys.readouterr().out
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli.main(["check", "--suite", "ALL", "--seed", "3"]) == 0
        assert capsys.readouterr().out == pooled

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

    def test_slopes_fitted_once(self, tmp_path, capsys, monkeypatch):
        # rates prints the slopes the summary holds; it does not fit again.
        real, fitted = cli.metrics.fit_rate, []
        monkeypatch.setattr(cli.metrics, "fit_rate", lambda *a, **k: fitted.append(1) or real(*a, **k))
        out = tmp_path / "r.csv"
        cli.main(["rates", "--config", str(write_config(tmp_path, hpe_payload(out, iters=60)))])
        slopes = json.loads((tmp_path / "r.summary.json").read_text())["slopes"]
        text = capsys.readouterr().out
        assert len(fitted) == 2
        assert f"gap_ergodic: slope {slopes['gap_ergodic']['slope']:.4f} " in text
        assert f"residue: slope {slopes['residue_min_so_far']['slope']:.4f} " in text

    def test_undefined_gap_is_named(self, tmp_path, capsys):
        # The gap needs a bounded domain; convex_gradient has none, so the
        # gap line names that, not the run length, and fails.
        payload = {
            "problem": {"name": "convex_gradient", "params": {"d": 2}},
            "mode": "HPE_EXACT",
            "params": {"sigma": 0.0, "theta": 0.2, "p": 2},
            "horizon": {"max_iters": 300},
            "x0": [1.0, 0.8],
        }
        assert cli.main(["rates", "--config", str(write_config(tmp_path, payload))]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "gap_ergodic: undefined on this problem (gap needs a bounded domain) target <= -1.3 FAIL"
        assert lines[1].startswith("residue: slope ") and lines[1].endswith(" PASS")


class TestHelp:
    def test_epilog_documents_outputs(self):
        text = cli.build_parser().format_help()
        assert "gap_ergodic" in text
        assert "17 significant digits" in text


class TestImport:
    def test_every_export_resolves(self):
        # A name deleted from a module but left in its __all__ fails here.
        import monoflow

        names = [monoflow.__name__] + [
            f"{monoflow.__name__}.{m.name}" for m in pkgutil.iter_modules(monoflow.__path__)
        ]
        for name in names:
            module = importlib.import_module(name)
            missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
            assert not missing, f"{name}.__all__ names missing attributes {missing}"

    def test_dense_solves_go_through_one_helper(self):
        # Every dense solve is operators._solve, which tier-1 pins to
        # np.linalg.solve bit for bit; the LAPACK gufunc appears nowhere else.
        import ast

        import monoflow

        for path in sorted(Path(monoflow.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            outside = []

            def visit(node, where):
                if isinstance(node, ast.FunctionDef):
                    where = node.name
                field = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}.get(type(node))
                name = getattr(node, field) if field else None
                if name in ("solve", "solve1") and not (where == "_solve" and path.name == "operators.py"):
                    outside.append(f"{path.name}:{node.lineno} {name}")
                for child in ast.iter_child_nodes(node):
                    visit(child, where)

            visit(tree, None)
            assert not outside, f"dense solve outside operators._solve: {outside}"

    def test_benchmark_span_targets_resolve(self):
        # The benchmark tracer wraps these names; a renamed or deleted one
        # fails here instead of as an AttributeError inside a traced run.
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
        spec = importlib.util.spec_from_file_location("monoflow_bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        for module, attr, *_ in spans.TARGETS + [spans.SUITE_REGISTRY]:
            assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"

    def test_cli_import_leaves_scipy_out(self):
        # scipy is a test dependency only; a fresh interpreter importing
        # the CLI from this source tree must not load it.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, monoflow.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_import_leaves_numpy_polynomial_and_thread_pools_out(self):
        # None is needed to run: numpy.polynomial (operators has its own
        # polyder), and concurrent.futures and multiprocessing (imported
        # only for a suite pool), would add to every process's resident set.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys, monoflow; from monoflow import cli; print(sorted(m for m in sys.modules"
            " if m.startswith(('numpy.polynomial', 'concurrent.futures', 'multiprocessing'))))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"


class TestOracleTracerCoverage:
    """A counting wrapper put over the two oracles in every monoflow module
    namespace that holds them, the way benchmarks/spans.py puts its span
    wrappers, sees one call per verified step.  An oracle bound at import
    time would bypass the wrapper and zero the benchmark's oracle counts."""

    @staticmethod
    def _count_oracle_calls(monkeypatch):
        counts = {"returned": 0, "verified": 0}
        package = [m for n, m in sorted(sys.modules.items()) if n == "monoflow" or n.startswith("monoflow.")]
        for original in (hpe.exact_oracle, tensor.lambda_window_search):

            def counting(*args, _fn=original, **kwargs):
                out = _fn(*args, **kwargs)
                counts["returned"] += 1
                return out

            for mod in package:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        monkeypatch.setattr(mod, key, counting)
        real_verify = hpe.verify_step

        def verify(*args):
            counts["verified"] += 1
            return real_verify(*args)

        monkeypatch.setattr(hpe, "verify_step", verify)
        return counts

    @pytest.mark.parametrize("mode", ["HPE_EXACT", "TENSOR"])
    def test_cli_run(self, tmp_path, capsys, monkeypatch, mode):
        payload = hpe_payload(tmp_path / "run.csv", iters=12, p=2, theta=0.05)
        if mode == "TENSOR":
            payload.update(mode="TENSOR", params={"sigma_hat": 0.05, "sigma_l": 0.3, "sigma_u": 0.7, "L": 1.0, "p": 2})
        counts = self._count_oracle_calls(monkeypatch)
        assert cli.main(["run", "--config", str(write_config(tmp_path, payload))]) == 0
        iterations = json.loads((tmp_path / "run.summary.json").read_text())["iterations"]
        assert counts == {"returned": iterations, "verified": iterations} and iterations > 1

    @pytest.mark.parametrize("suite", ["HPE", "TENSOR"])
    def test_check_suites(self, monkeypatch, suite):
        counts = self._count_oracle_calls(monkeypatch)
        assert checks.SUITES[suite]().all_passed
        assert counts["returned"] == counts["verified"] > 0


# Reference copy of the CSV and summary pass over the records as it stood
# before the pass was batched: one metrics call per record, the ergodic
# sums accumulated with +=.  cli's batched pass must give the same bytes.


class _RefGapProbe:
    def __init__(self, problem):
        self.problem = problem
        self.off = None

    def __call__(self, x):
        if self.off is not None or x is None:
            return float("nan")
        try:
            return cli.metrics.gap(self.problem, x)
        except (UnsupportedMetric, DomainUnbounded) as exc:
            self.off = str(exc)
            return float("nan")


def _ref_dist_or_nan(problem, x):
    try:
        return cli.metrics.dist_to_solutions(problem, x)
    except cli.UnknownSolutionSet:
        return float("nan")


def _ref_run_flow(cfg):
    problem, params = cfg.problem, cfg.params
    x0 = cfg.initial_point()
    traj = cli.flow.integrate(
        problem, x0, params, cfg.horizon["T"], cfg.horizon["h"], cfg.horizon.get("sample_stride", 1)
    )
    d = problem.operator.dim
    header = ["t"] + [f"x{i}" for i in range(d)] + ["lambda", "speed", "gap_ergodic", "residue_pointwise", "dist", "E"]
    gap_at = _RefGapProbe(problem)
    rows, ts, gaps, residues = [], [], [], []
    ae_ok = 0
    for s, num, den in zip(traj.states, traj.erg_num, traj.erg_den):
        g = gap_at(num / den if den > 0 else None)
        res = cli.metrics.residue(problem, s.y)
        dist = _ref_dist_or_nan(problem, s.x)
        energy = 0.5 * dist**2
        if cli.flow.law_margin(s.lam, s.speed, s.band, params) >= 0.0:
            ae_ok += 1
        rows.append(
            [cli._fmt(s.t)]
            + [cli._fmt(c) for c in s.x]
            + [cli._fmt(v) for v in (s.lam, s.speed, g, res, dist, energy)]
        )
        ts.append(s.t)
        gaps.append(g)
        residues.append(res)
    last = traj.states[-1]
    summary = {
        "mode": cfg.mode,
        "problem": cfg.problem_name,
        "status": traj.status,
        "stop": traj.stop,
        "lam_rate_fallbacks": traj.lam_rate_fallbacks,
        "samples": len(traj.states),
        "final": {
            "t": last.t,
            "gap_ergodic": gaps[-1],
            "residue_pointwise": residues[-1],
            "dist": _ref_dist_or_nan(problem, last.x),
        },
        "slopes": {
            "gap_ergodic": cli._fit_or_none(gaps, ts),
            "residue_pointwise": cli._fit_or_none(residues, ts),
        },
        "certificates": {"control_law_within_tol": ae_ok, "total": len(traj.states)},
    }
    return header, rows, summary, gap_at.off


def _ref_run_iterative(cfg):
    problem, drive = cfg.problem, cfg.drive
    if cfg.mode == "HPE_EXACT":
        oracle = partial(cli.hpe.exact_oracle, problem, cfg=drive)
    else:
        oracle = partial(cli.tensor.lambda_window_search, problem, cfg=cfg.params)
    x0 = cfg.initial_point()
    result = cli.hpe.run(problem, oracle, drive, x0)
    header = ["k", "lambda", "v_norm", "eps", "step_norm", "gap_ergodic", "residue_min_so_far", "dist"]
    gap_at = _RefGapProbe(problem)
    rows, ks, gaps, residues = [], [], [], []
    num = np.zeros(problem.operator.dim)
    den = 0.0
    cert_ok = 0
    res_mins = cli.running_worst(cli.metrics.residue(problem, r.y) for r in result.records)
    for r, res_min in zip(result.records, res_mins):
        num += r.lam * r.y
        den += r.lam
        g = gap_at(num / den if den > 0 else None)
        dist = _ref_dist_or_nan(problem, r.x_next)
        if r.cert.ok:
            cert_ok += 1
        rows.append(
            [str(r.k)]
            + [cli._fmt(v) for v in (r.lam, ops.norm(r.v), r.eps, ops.norm(r.y - r.x_prev), g, res_min, dist)]
        )
        ks.append(float(r.k))
        gaps.append(g)
        residues.append(res_min)
    final_x = result.records[-1].x_next if result.records else x0
    summary = {
        "mode": cfg.mode,
        "problem": cfg.problem_name,
        "status": result.status,
        "iterations": len(result.records),
        "final": {
            "gap_ergodic": gaps[-1] if gaps else float("nan"),
            "residue_min_so_far": residues[-1] if residues else float("nan"),
            "dist": _ref_dist_or_nan(problem, final_x),
            "residual": ops.min_norm_residual(problem.operator, final_x),
        },
        "slopes": {
            "gap_ergodic": cli._fit_or_none(gaps, ks),
            "residue_min_so_far": cli._fit_or_none(residues, ks),
        },
        "certificates": {"passed": cert_ok, "total": len(result.records)},
    }
    return header, rows, summary, gap_at.off


_TWO_P2 = {"sigma_hat": 0.05, "sigma_l": 0.3, "sigma_u": 0.7, "L": 1.0, "p": 2}
_THREE_P3 = {"sigma_hat": 0.1, "sigma_l": 0.2, "sigma_u": 0.8, "L": 6.0, "p": 3}
_START = [0.7, -0.3, 0.5, 0.9, -0.6, 0.2, -0.8, 0.4, 0.1, -0.5]
_RECORD_PASS_RUNS = {
    "hpe saddle p=2": {
        "problem": {"name": "bilinear_saddle", "params": {"d": 10}},
        "mode": "HPE_EXACT",
        "params": {"sigma": 0.0, "theta": 1.5e-3, "p": 2},
        "horizon": {"max_iters": 150},
        "x0": _START,
    },
    "hpe gap undefined": {
        "problem": {"name": "convex_gradient", "params": {"d": 2}},
        "mode": "HPE_EXACT",
        "params": {"sigma": 0.0, "theta": 0.2, "p": 2},
        "horizon": {"max_iters": 40},
        "x0": [1.0, 0.8],
    },
    "hpe solved at x0": dict(hpe_payload(None, iters=5), x0=[0.0, 0.0]),
    **{
        f"tensor {name}": {
            "problem": {"name": name, "params": params},
            "mode": "TENSOR",
            "params": tparams,
            "horizon": {"max_iters": 60},
            "x0": _START[:d],
        }
        for name, params, tparams, d in [
            ("bilinear_saddle", {"d": 10}, _TWO_P2, 10),
            ("strongly_monotone_affine", {"d": 10}, _TWO_P2, 10),
            ("cubic_1d", {}, _THREE_P3, 1),
            ("convex_gradient", {"d": 4}, _THREE_P3, 4),
        ]
    },
    "flow saddle p=2": dict(flow_payload(None, T=1.0), params={"theta": 0.012, "p": 2}, x0=[0.7, 0.7]),
    "flow monotone p=1": dict(
        flow_payload(None, T=0.5), problem={"name": "strongly_monotone_affine", "params": {"d": 3}}, x0=[0.5, -1.0, 2.0]
    ),
}


class TestRecordPassBitIdentity:
    """run and rates write the CSV, summary and stdout bytes of the
    reference per-record pass above."""

    @staticmethod
    def _outputs(tmp_path, capsys, cmd, payload, tag):
        out = tmp_path / f"{tag}.csv"
        payload = {k: v for k, v in payload.items() if k != "out"}
        rc = cli.main([cmd, "--config", str(write_config(tmp_path, payload, f"{tag}.json")), "--out", str(out)])
        return rc, out.read_bytes(), (tmp_path / f"{tag}.summary.json").read_bytes(), capsys.readouterr().out

    @pytest.mark.parametrize("cmd", ["run", "rates"])
    @pytest.mark.parametrize("name", sorted(_RECORD_PASS_RUNS))
    def test_matches_reference_pass(self, tmp_path, capsys, monkeypatch, cmd, name):
        payload = _RECORD_PASS_RUNS[name]
        got = self._outputs(tmp_path, capsys, cmd, payload, "got")
        monkeypatch.setattr(cli, "_run_flow", _ref_run_flow)
        monkeypatch.setattr(cli, "_run_iterative", _ref_run_iterative)
        want = self._outputs(tmp_path, capsys, cmd, payload, "want")
        assert got == want

    def test_gap_turned_off_midway(self, tmp_path, capsys, monkeypatch):
        # The gap turns off at the first ergodic point where it raises:
        # the rows before keep their values, that row and all later read
        # NaN, and rates names the reason.
        real = cli.metrics.gap

        def gap(problem, x, route="auto"):
            if (np.atleast_1d(real(problem, x)) < 0.9).any():
                raise UnsupportedMetric("gap below 0.9")
            return real(problem, x)

        monkeypatch.setattr(cli.metrics, "gap", gap)
        payload = hpe_payload(None, iters=60)
        got = self._outputs(tmp_path, capsys, "rates", payload, "got")
        monkeypatch.setattr(cli, "_run_iterative", _ref_run_iterative)
        assert got == self._outputs(tmp_path, capsys, "rates", payload, "want")
        rows = [line.split(",") for line in got[1].decode().splitlines()[1:]]
        col = [float(r[5]) for r in rows]
        first_off = next(i for i, g in enumerate(col) if math.isnan(g))
        assert first_off > 1 and all(math.isnan(g) for g in col[first_off:])
        assert "undefined on this problem (gap below 0.9)" in got[3]
