"""End-to-end command-line interface tests."""

from __future__ import annotations

import csv
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from conftest import monotone_trial

from rmstgst import cli
from rmstgst.cli import main
from rmstgst.gs_design import (
    AnalysisRecord,
    DesignConfig,
    MonitoringState,
    SpendingFunction,
    boundaries,
)
from rmstgst.sim_engine import (
    InformationCalibration,
    SimScenario,
    draw_trial,
    run_study,
    _rng_for_replicate,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_typed_error(code, err, expected):
    """One ``error:`` line, the expected exit code and no traceback."""
    assert code == expected, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def write_trial_csv(path, rows, covariate_names=("z1",)):
    header = ["id", "arm", "entry_time", "followup_time", "event", *covariate_names]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def locked_trial_rows(rng, n_per_arm, lock, n_cov=1, log_rate_ratio=-0.4, beta=0.3):
    """Exponential-survival rows administratively censored at the lock."""
    rows = []
    for arm in (0, 1):
        z = rng.standard_normal((n_per_arm, n_cov))
        rate = 0.9 * np.exp(log_rate_ratio * arm + z @ np.full(n_cov, beta / math.sqrt(n_cov)))
        t = rng.exponential(1.0 / rate)
        entry = rng.uniform(0.0, 2.0, size=n_per_arm)
        for i in range(n_per_arm):
            limit = lock - entry[i]
            x = min(t[i], limit)
            d = int(t[i] <= limit)
            rows.append(
                [f"a{arm}-{i}", arm, f"{entry[i]:.6f}", f"{x:.6f}", d]
                + [f"{v:.6f}" for v in z[i]]
            )
    return rows


@pytest.fixture()
def trial_csv(tmp_path):
    rng = np.random.default_rng(31)
    path = tmp_path / "trial.csv"
    write_trial_csv(path, locked_trial_rows(rng, 120, lock=3.0))
    return str(path)


@pytest.fixture()
def design_json(tmp_path):
    path = tmp_path / "design.json"
    design = DesignConfig(
        spending=SpendingFunction("cubic_min"), planned_fractions=(0.5, 0.75, 1.0),
    )
    path.write_text(json.dumps(design.to_dict()))
    return str(path)


def _analyze_in_child(argv, barrier, holds_lock):
    """Run one ``analyze`` look in a child process and exit with its code.

    The child that ``holds_lock`` meets the other child twice inside
    ``update_monitoring``, with the state lock held: first so the other
    starts its look, then once that look has returned.
    """
    if holds_lock:
        original = cli.update_monitoring

        def paused(state, result, final=False):
            barrier.wait(timeout=60)
            barrier.wait(timeout=60)
            return original(state, result, final=final)

        cli.update_monitoring = paused
    else:
        barrier.wait(timeout=60)
    code = cli.main(argv)
    if not holds_lock:
        barrier.wait(timeout=60)
    sys.exit(code)


class TestDesignAndBoundaries:
    def test_design_writes_config_and_prints_table(self, tmp_path, capsys):
        out = tmp_path / "design.json"
        code, stdout, _ = run_cli(
            capsys, "design", "--spending", "cubic_min",
            "--fractions", "0.5,0.75,1.0", "--i-max", "800", "--out", str(out),
        )
        assert code == 0
        design = DesignConfig.from_dict(json.loads(out.read_text()))
        assert design.planned_fractions == (0.5, 0.75, 1.0)
        assert design.i_max == 800.0
        assert design.spending.kind == "cubic_min"
        assert "stage" in stdout and stdout.count("\n") >= 3
        expected = boundaries(design.spending, design.planned_fractions)
        for c in expected.critical_values:
            assert f"{c:8.5f}".strip() in stdout

    def test_design_without_out_prints_json(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "design", "--spending", "pocock_like", "--fractions", "0.5,1.0",
        )
        assert code == 0
        assert '"schema": "rmstgst.design/1"' in stdout

    def test_boundaries_round_trip(self, tmp_path, capsys):
        out = tmp_path / "bounds.json"
        code, _, _ = run_cli(
            capsys, "boundaries", "--spending", "power_family", "--rho", "3",
            "--fractions", "0.4,1.0", "--out", str(out),
        )
        assert code == 0
        stages = json.loads(out.read_text())["stages"]
        direct = boundaries(SpendingFunction("power_family", rho=3.0), (0.4, 1.0))
        np.testing.assert_allclose([s["critical_value"] for s in stages], direct.critical_values, rtol=1e-14)

    def test_invalid_spending_configuration_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "design", "--spending", "power_family", "--fractions", "0.5,1.0",
        )
        assert code == 2
        assert "error:" in err and "rho" in err

    def test_bad_fractions_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "boundaries", "--spending", "cubic_min", "--fractions", "0.5,abc",
        )
        assert code == 2
        assert "fractions" in err


class TestAnalyze:
    def test_report_only_prints_analysis(self, trial_csv, capsys):
        code, stdout, _ = run_cli(
            capsys, "analyze", "--data", trial_csv, "--u", "3.0", "--tau", "1.0",
            "--km", "--report-only",
        )
        assert code == 0
        report = json.loads(stdout)
        assert set(report) == {"analysis", "km"}
        assert report["analysis"]["tau"] == 1.0
        keys = {"u", "tau", "mu0", "mu1", "delta", "se", "z", "info"}
        assert set(report["analysis"]) == keys | {"components", "diagnostics"}
        assert set(report["km"]) == keys
        assert set(report["analysis"]["components"]) == {"B10", "B11", "B3", "var_cond"}
        diagnostics = report["analysis"]["diagnostics"]
        assert set(diagnostics) == {"iterations", "step_halvings"}
        assert diagnostics["iterations"] >= 1 and diagnostics["step_halvings"] >= 0

    def test_state_required_without_report_only(self, trial_csv, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--data", trial_csv, "--u", "3.0", "--tau", "1.0",
        )
        assert code == 2
        assert "--state" in err

    def test_i_max_flags_mutually_exclusive(self, trial_csv, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--data", trial_csv, "--u", "3.0", "--tau", "1.0",
            "--state", str(tmp_path / "s.json"), "--i-max", "100", "--i-max-from-data",
        )
        assert code == 2
        assert "mutually exclusive" in err

    def test_missing_data_file_exit_3(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "analyze", "--data", str(tmp_path / "nope.csv"),
            "--u", "1.0", "--tau", "1.0", "--report-only",
        )
        assert code == 3
        assert "cannot read" in err

    def test_monitoring_flow_and_guards(self, trial_csv, design_json, tmp_path, capsys):
        state_path = str(tmp_path / "state.json")
        code, stdout, _ = run_cli(
            capsys, "analyze", "--data", trial_csv, "--u", "1.4", "--tau", "1.0",
            "--state", state_path, "--design", design_json, "--i-max", "700",
        )
        assert code == 0
        report = json.loads(stdout)
        mon = report["monitoring"]
        assert mon["stage"] == 1
        assert mon["decision"] in ("continue", "reject")
        assert mon["info_fraction"] == pytest.approx(report["analysis"]["info"] / 700.0)
        state = MonitoringState.from_json(open(state_path).read())
        assert state.design.i_max == 700.0
        assert len(state.analyses) == 1

        code, _, err = run_cli(
            capsys, "analyze", "--data", trial_csv, "--u", "2.0", "--tau", "1.0",
            "--state", state_path, "--design", design_json,
        )
        assert code == 2
        assert "already initialized" in err

        code, _, err = run_cli(
            capsys, "analyze", "--data", trial_csv, "--u", "1.4", "--tau", "1.0",
            "--state", state_path,
        )
        assert code == 5
        assert "non-increasing analysis time" in err

        code, stdout, _ = run_cli(
            capsys, "analyze", "--data", trial_csv, "--u", "3.0", "--tau", "1.0",
            "--state", state_path, "--final",
        )
        assert code == 0
        mon = json.loads(stdout)["monitoring"]
        assert mon["stage"] == 2 and mon["final"]
        assert mon["cumulative_spend"] == pytest.approx(0.05, abs=1e-9)

    def test_lock_contention_exit_5(self, trial_csv, design_json, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        (tmp_path / "state.json.lock").touch()
        code, _, err = run_cli(
            capsys, "analyze", "--data", trial_csv, "--u", "1.4", "--tau", "1.0",
            "--state", str(state_path), "--design", design_json, "--i-max", "700",
        )
        assert code == 5
        assert "locked by another process" in err
        assert not state_path.exists()

    def test_lock_names_holder_in_contention_error(self, trial_csv, design_json, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        (tmp_path / "state.json.lock").write_text("pid 4242 since 2026-01-02T03:04:05Z\n")
        code, _, err = run_cli(
            capsys, "analyze", "--data", trial_csv, "--u", "1.4", "--tau", "1.0",
            "--state", str(state_path), "--design", design_json, "--i-max", "700",
        )
        assert code == 5
        assert "locked by another process" in err
        assert "(pid 4242 since 2026-01-02T03:04:05Z)" in err
        assert not state_path.exists()

    def test_lock_held_from_read_to_write(self, trial_csv, design_json, tmp_path, capsys, monkeypatch):
        """A second analyze could otherwise read the state before the first one writes it."""
        state_path = tmp_path / "state.json"
        lock_path = tmp_path / "state.json.lock"
        seen = []
        original = cli.update_monitoring

        def watched(state, result, final=False):
            seen.append(lock_path.read_text() if lock_path.exists() else None)
            return original(state, result, final=final)

        monkeypatch.setattr(cli, "update_monitoring", watched)
        for u in ("1.4", "2.0"):
            extra = ("--design", design_json, "--i-max", "700") if u == "1.4" else ()
            code, _, _ = run_cli(
                capsys, "analyze", "--data", trial_csv, "--u", u, "--tau", "1.0",
                "--state", str(state_path), *extra,
            )
            assert code == 0
        assert len(seen) == 2
        assert all(text is not None and text.startswith(f"pid {os.getpid()} since ") for text in seen)
        assert not lock_path.exists()
        assert len(MonitoringState.from_json(state_path.read_text()).analyses) == 2

    def test_two_processes_contend_for_state_lock(self, trial_csv, design_json, tmp_path):
        state_path = tmp_path / "state.json"
        look = ["analyze", "--data", trial_csv, "--tau", "1.0", "--state", str(state_path)]
        holder = look + ["--u", "1.4", "--design", design_json, "--i-max", "700"]
        other = look + ["--u", "2.0"]
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        children = [
            ctx.Process(target=_analyze_in_child, args=(argv, barrier, argv is holder))
            for argv in (holder, other)
        ]
        try:
            for child in children:
                child.start()
            for child in children:
                child.join(timeout=120)
            assert not any(child.is_alive() for child in children)
        finally:
            for child in children:
                if child.is_alive():
                    child.terminate()
        assert [child.exitcode for child in children] == [0, 5]
        assert len(MonitoringState.from_json(state_path.read_text()).analyses) == 1
        assert main(other) == 0
        assert len(MonitoringState.from_json(state_path.read_text()).analyses) == 2

    def test_non_finite_i_max_exit_2(self, trial_csv, design_json, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        code, _, err = run_cli(
            capsys, "analyze", "--data", trial_csv, "--u", "1.4", "--tau", "1.0",
            "--state", str(state_path), "--design", design_json, "--i-max", "inf",
        )
        assert code == 2
        assert "i_max must be finite" in err
        assert not state_path.exists()

    @pytest.mark.parametrize("change", [
        {"alpha": "0.05"},
        {"i_max": "abc"},
        {"planned_fractions": 5},
        {"spending": {"kind": "power_family", "rho": "2"}},
    ])
    def test_wrongly_typed_design_value_exit_2(self, change, trial_csv, tmp_path, capsys):
        design = DesignConfig(SpendingFunction("cubic_min"), (0.5, 0.75, 1.0), i_max=700.0).to_dict()
        path = tmp_path / "design.json"
        path.write_text(json.dumps({**design, **change}))
        code, _, err = run_cli(
            capsys, "analyze", "--data", trial_csv, "--u", "1.4", "--tau", "1.0",
            "--state", str(tmp_path / "state.json"), "--design", str(path),
        )
        assert code == 2
        assert "malformed design config" in err

    @pytest.mark.parametrize("typed", [False, True], ids=["null_design", "string_alpha"])
    def test_bad_design_inside_state_file_exit_5(self, typed, trial_csv, tmp_path, capsys):
        design = DesignConfig(SpendingFunction("cubic_min"), (0.5, 0.75, 1.0), i_max=700.0).to_dict()
        state = {"schema": "rmstgst.state/1", "design": {**design, "alpha": "0.05"} if typed else None,
                 "analyses": []}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        code, _, err = run_cli(
            capsys, "analyze", "--data", trial_csv, "--u", "1.4", "--tau", "1.0", "--state", str(path),
        )
        assert code == 5
        assert "malformed monitoring state" in err
        assert json.loads(path.read_text()) == state

    @pytest.mark.parametrize("corrupt, says", [
        (lambda text: text[:100], "monitoring state is not valid JSON"),
        (lambda text: b"\xff" + text[1:], "cannot read monitoring state"),
    ], ids=["truncated", "not_utf8"])
    def test_corrupt_state_file_exit_5(self, corrupt, says, trial_csv, design_json, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        look = ["analyze", "--data", trial_csv, "--tau", "1.0", "--state", str(state_path)]
        code, _, _ = run_cli(capsys, *look, "--u", "1.4", "--design", design_json, "--i-max", "700")
        assert code == 0
        state_path.write_bytes(corrupt(state_path.read_bytes()))
        before = state_path.read_bytes()
        code, _, err = run_cli(capsys, *look, "--u", "2.0")
        assert code == 5
        assert says in err
        assert state_path.read_bytes() == before
        assert not os.path.exists(str(state_path) + ".lock")

    @pytest.mark.parametrize("key, value", [
        ("critical_value", "2.5"), ("decision", "maybe"), ("final", "false"),
    ])
    def test_wrongly_typed_state_record_exit_5(self, key, value, trial_csv, design_json, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        look = ["analyze", "--data", trial_csv, "--tau", "1.0", "--state", str(state_path)]
        code, _, _ = run_cli(capsys, *look, "--u", "1.4", "--design", design_json, "--i-max", "700")
        assert code == 0
        doc = json.loads(state_path.read_text())
        doc["analyses"][0][key] = value
        state_path.write_text(json.dumps(doc, indent=2))
        before = state_path.read_bytes()
        code, _, err = run_cli(capsys, *look, "--u", "2.0")
        assert_typed_error(code, err, 5)
        assert "malformed monitoring state" in err and key in err
        assert state_path.read_bytes() == before

    def test_schema_file_not_an_object_exit_3(self, trial_csv, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text("3")
        code, _, err = run_cli(
            capsys, "analyze", "--data", trial_csv, "--u", "3.0", "--tau", "1.0", "--report-only",
            "--schema", str(schema),
        )
        assert_typed_error(code, err, 3)

    def test_truncated_design_file_exit_2(self, trial_csv, design_json, tmp_path, capsys):
        truncated_design = tmp_path / "truncated_design.json"
        truncated_design.write_bytes(open(design_json, "rb").read()[:40])
        code, _, err = run_cli(
            capsys, "analyze", "--data", trial_csv, "--u", "1.4", "--tau", "1.0",
            "--state", str(tmp_path / "fresh.json"), "--design", str(truncated_design),
        )
        assert code == 2
        assert "invalid JSON" in err

    def test_i_max_from_data_pins_first_fraction_to_one(self, trial_csv, design_json, tmp_path, capsys):
        state_path = str(tmp_path / "state.json")
        code, stdout, _ = run_cli(
            capsys, "analyze", "--data", trial_csv, "--u", "3.0", "--tau", "1.0",
            "--state", state_path, "--design", design_json, "--i-max-from-data",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["monitoring"]["info_fraction"] == pytest.approx(1.0)
        state = MonitoringState.from_json(open(state_path).read())
        assert state.design.i_max == pytest.approx(report["analysis"]["info"])

    def test_schema_column_overrides(self, tmp_path, capsys):
        path = tmp_path / "renamed.csv"
        rows = locked_trial_rows(np.random.default_rng(8), 60, lock=3.0)
        header = ["pid", "group", "enrolled", "followed", "died", "biomarker"]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        code, stdout, _ = run_cli(
            capsys, "analyze", "--data", str(path), "--u", "3.0", "--tau", "1.0",
            "--report-only", "--id-col", "pid", "--arm-col", "group",
            "--entry-col", "enrolled", "--time-col", "followed",
            "--event-col", "died", "--covariate-cols", "biomarker",
        )
        assert code == 0
        assert "analysis" in json.loads(stdout)


class TestKmCompare:
    def test_side_by_side_report(self, trial_csv, tmp_path, capsys):
        out = tmp_path / "compare.json"
        code, stdout, _ = run_cli(
            capsys, "km-compare", "--data", trial_csv, "--u", "3.0", "--tau", "1.0",
            "--standardize", "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert json.loads(stdout) == report
        assert set(report) == {"adjusted", "km"}
        assert report["adjusted"]["delta"] != report["km"]["delta"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFiniteAnalysis:
    """A look whose adjusted information is NaN exits 4 and writes nothing, with no numpy warning first."""

    @pytest.fixture()
    def monotone_csv(self, tmp_path):
        path = tmp_path / "monotone.csv"
        trial = monotone_trial()
        columns = (trial.arm.tolist(), trial.entry.tolist(), trial.followup.tolist(),
                   trial.event.tolist(), trial.z[:, 0].tolist())
        write_trial_csv(path, [
            [f"s{i}", arm, repr(entry), repr(followup), event, repr(z1)]
            for i, (arm, entry, followup, event, z1) in enumerate(zip(*columns))
        ])
        return str(path)

    def test_report_only_exit_4(self, monotone_csv, capsys):
        code, stdout, err = run_cli(
            capsys, "analyze", "--data", monotone_csv, "--u", "0.2", "--tau", "1.0",
            "--report-only",
        )
        assert code == 4
        assert stdout == ""
        assert "must be finite" in err

    def test_state_left_untouched(self, monotone_csv, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        design = DesignConfig(
            spending=SpendingFunction("cubic_min"), planned_fractions=(0.5, 1.0), i_max=100.0,
        )
        state_path.write_text(MonitoringState(design=design).to_json())
        before = state_path.read_bytes()
        code, stdout, err = run_cli(
            capsys, "analyze", "--data", monotone_csv, "--u", "0.2", "--tau", "1.0",
            "--state", str(state_path),
        )
        assert code == 4
        assert stdout == ""
        assert "must be finite" in err
        assert state_path.read_bytes() == before
        assert not os.path.exists(str(state_path) + ".lock")

    def test_km_compare_exit_4(self, monotone_csv, tmp_path, capsys):
        out = tmp_path / "compare.json"
        code, _, err = run_cli(
            capsys, "km-compare", "--data", monotone_csv, "--u", "0.2", "--tau", "1.0",
            "--out", str(out),
        )
        assert code == 4
        assert "must be finite" in err
        assert not out.exists()


def scenario_file(tmp_path, **overrides):
    scn = SimScenario(
        n_per_arm=40, shape_offset=-0.3, covariate_strength=math.log(1.5),
        fractions=(0.5, 1.0), **overrides,
    )
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scn.to_dict()))
    return str(path)


def design_file(tmp_path, fractions="0.5,1.0", name="sim_design.json"):
    path = tmp_path / name
    design = DesignConfig(
        spending=SpendingFunction("power_family", rho=3.0),
        planned_fractions=tuple(float(x) for x in fractions.split(",")),
    )
    path.write_text(json.dumps(design.to_dict()))
    return str(path)


@pytest.fixture(scope="module")
def calib_setup(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("sim")
    scn_path = scenario_file(tmp_path)
    calib_path = str(tmp_path / "calibration.json")
    code = main([
        "calibrate", "--scenario", scn_path, "--reps", "120", "--seed", "6",
        "--out", calib_path,
    ])
    assert code == 0
    return tmp_path, scn_path, calib_path


class TestCalibrateAndSimulate:
    def test_calibration_document_contents(self, calib_setup):
        _, scn_path, calib_path = calib_setup
        doc = json.loads(open(calib_path).read())
        assert doc["schema"] == "rmstgst.calibration/1"
        assert doc["fractions"] == [0.5, 1.0]
        assert "null_log_rate_ratio" in doc
        assert doc["power"]["target_power"] == 0.80
        assert doc["scenario"] == json.loads(open(scn_path).read())
        assert doc["analysis_times"][-1] == pytest.approx(3.0)

    def test_simulate_reuses_calibration_deterministically(self, calib_setup, capsys):
        tmp_path, scn_path, calib_path = calib_setup
        design_path = design_file(tmp_path)
        outs = []
        for name in ("out1", "out2"):
            out_dir = str(tmp_path / name)
            code, stdout, _ = run_cli(
                capsys, "simulate", "--scenario", scn_path, "--design", design_path,
                "--calibration", calib_path, "--reps", "25", "--seed", "9",
                "--methods", "adjusted,km", "--out-dir", out_dir,
            )
            assert code == 0
            assert "cum_rejection" in stdout
            outs.append(out_dir)
        for fname in ("results.csv", "curves.csv"):
            a = open(os.path.join(outs[0], fname), "rb").read()
            b = open(os.path.join(outs[1], fname), "rb").read()
            assert a == b
        manifest = json.loads(open(os.path.join(outs[0], "manifest.json")).read())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 9
        assert manifest["methods"] == ["adjusted", "km"]
        assert manifest["inputs"]["calibration"]["sha256"]
        results = open(os.path.join(outs[0], "results.csv")).read().splitlines()
        assert results[0] == "method,stage,cumulative_rejection,mc_se"
        assert len(results) == 1 + 2 * 2

    def test_simulate_effect_null_and_trace(self, calib_setup, capsys):
        tmp_path, scn_path, calib_path = calib_setup
        design_path = design_file(tmp_path)
        out_dir = str(tmp_path / "trace_run")
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", scn_path, "--design", design_path,
            "--calibration", calib_path, "--reps", "1", "--seed", "2",
            "--effect", "null", "--out-dir", out_dir,
        )
        assert code == 0
        trace = open(os.path.join(out_dir, "trace.csv")).read().splitlines()
        assert trace[0] == "method,stage,delta,info_level,z"
        assert len(trace) == 3
        manifest = json.loads(open(os.path.join(out_dir, "manifest.json")).read())
        assert manifest["effect"] == "null"
        assert "trace" in manifest["outputs"]

    def test_simulate_guards(self, calib_setup, capsys):
        tmp_path, scn_path, calib_path = calib_setup
        design_path = design_file(tmp_path)
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", scn_path, "--design", design_path,
            "--no-calibrate", "--reps", "5", "--out-dir", str(tmp_path / "g1"),
        )
        assert code == 2
        assert "--no-calibrate" in err

        mismatched = design_file(tmp_path, fractions="0.25,1.0", name="mismatch.json")
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", scn_path, "--design", mismatched,
            "--calibration", calib_path, "--reps", "5", "--out-dir", str(tmp_path / "g2"),
        )
        assert code == 2
        assert "do not match" in err

        code, _, err = run_cli(
            capsys, "simulate", "--scenario", scn_path, "--design", design_path,
            "--calibration", calib_path, "--reps", "5", "--methods", "bayes",
            "--out-dir", str(tmp_path / "g3"),
        )
        assert code == 2
        assert "unknown method" in err

    def test_simulate_zero_reps_is_a_config_error(self, calib_setup, capsys):
        tmp_path, scn_path, calib_path = calib_setup
        out_dir = tmp_path / "zero_reps"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run_cli(
                capsys, "simulate", "--scenario", scn_path, "--design", design_file(tmp_path),
                "--calibration", calib_path, "--reps", "0", "--out-dir", str(out_dir),
            )
        assert_typed_error(code, err, 2)
        assert "reps" in err
        assert not (out_dir / "results.csv").exists()

    @pytest.mark.parametrize("broken", ["reps", "fractions", "power"])
    def test_malformed_calibration_exit_2(self, broken, calib_setup, tmp_path, capsys):
        _, scn_path, calib_path = calib_setup
        doc = json.loads(open(calib_path).read())
        if broken == "power":
            del doc["power"]["log_rate_ratio"]
        else:
            doc[broken] = {"reps": "many", "fractions": 5}[broken]
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", scn_path, "--design", design_file(tmp_path),
            "--calibration", str(path), "--reps", "5", "--effect", "power",
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 2
        assert "malformed calibration" in err

    @pytest.mark.parametrize("typo", ["n_per_am", "shape_ofset"])
    def test_unknown_scenario_key_exit_2(self, typo, calib_setup, tmp_path, capsys):
        _, scn_path, calib_path = calib_setup
        doc = json.loads(open(scn_path).read())
        doc[typo] = 500
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", str(path), "--design", design_file(tmp_path),
            "--calibration", calib_path, "--reps", "5", "--out-dir", str(tmp_path / "out"),
        )
        assert code == 2
        assert f"unknown scenario keys: ['{typo}']" in err

    @pytest.mark.parametrize("name, value", [("log_rate_ratio", math.nan), ("covariate_strength", math.inf)])
    def test_non_finite_scenario_number_exit_2(self, name, value, calib_setup, tmp_path, capsys):
        _, scn_path, calib_path = calib_setup
        doc = json.loads(open(scn_path).read())
        doc[name] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", str(path), "--design", design_file(tmp_path),
            "--calibration", calib_path, "--reps", "2", "--out-dir", str(tmp_path / "out"),
        )
        assert code == 2
        assert f"{name} must be finite" in err

    @pytest.mark.parametrize("value", [2.5, True])
    def test_non_integer_n_per_arm_exit_2(self, value, calib_setup, tmp_path, capsys):
        _, scn_path, calib_path = calib_setup
        doc = json.loads(open(scn_path).read())
        doc["n_per_arm"] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", str(path), "--design", design_file(tmp_path),
            "--calibration", calib_path, "--reps", "2", "--out-dir", str(tmp_path / "out"),
        )
        assert_typed_error(code, err, 2)
        assert "n_per_arm" in err

    @pytest.mark.parametrize("broken", ["string_time", "one_time", "decreasing"])
    def test_bad_analysis_times_exit_2(self, broken, calib_setup, tmp_path, capsys):
        _, scn_path, calib_path = calib_setup
        doc = json.loads(open(calib_path).read())
        times = doc["analysis_times"]
        doc["analysis_times"] = {
            "string_time": [str(times[0]), *times[1:]], "one_time": times[-1:], "decreasing": times[::-1],
        }[broken]
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", scn_path, "--design", design_file(tmp_path),
            "--calibration", str(path), "--reps", "3", "--out-dir", str(tmp_path / "out"),
        )
        assert_typed_error(code, err, 2)
        assert "malformed calibration" in err and "analysis_times" in err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "rmstgst.scenario/1",\n  broken\n}')
        code, _, err = run_cli(capsys, "calibrate", "--scenario", str(bad))
        assert code == 2
        assert "line 2" in err and "column" in err

    def test_bad_threads_env_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RMSTGST_THREADS", "zero")
        code, _, err = run_cli(
            capsys, "calibrate", "--scenario", str(tmp_path / "whatever.json"),
        )
        assert code == 2
        assert "RMSTGST_THREADS" in err


class TestNineCovariateWorkflow:
    def test_nine_covariate_yearly_workflow(self, tmp_path, capsys):
        rng = np.random.default_rng(1904)
        rows = locked_trial_rows(
            rng, 250, lock=3.0, n_cov=9, log_rate_ratio=-0.45, beta=0.5,
        )
        data = tmp_path / "nine.csv"
        write_trial_csv(data, rows, covariate_names=[f"z{j}" for j in range(1, 10)])

        code, stdout, _ = run_cli(
            capsys, "analyze", "--data", str(data), "--u", "3.0", "--tau", "1.0",
            "--report-only",
        )
        assert code == 0
        full_info = json.loads(stdout)["analysis"]["info"]

        design_path = tmp_path / "design.json"
        code, _, _ = run_cli(
            capsys, "design", "--spending", "power_family", "--rho", "3",
            "--fractions", "0.33,0.67,1.0", "--i-max", f"{full_info:.6f}",
            "--out", str(design_path),
        )
        assert code == 0

        state_path = str(tmp_path / "state.json")
        fractions = []
        spends = []
        decisions = []
        for k, u in enumerate((1.0, 2.0, 3.0)):
            argv = [
                "analyze", "--data", str(data), "--u", f"{u}", "--tau", "1.0",
                "--lock-time", "3.0", "--state", state_path, "--standardize",
            ]
            if k == 0:
                argv += ["--design", str(design_path)]
            if u == 3.0:
                argv += ["--final", "--km"]
            code, stdout, _ = run_cli(capsys, *argv)
            assert code == 0
            report = json.loads(stdout)
            mon = report["monitoring"]
            assert mon["stage"] == k + 1
            fractions.append(mon["info_fraction"])
            spends.append(mon["cumulative_spend"])
            decisions.append(mon["decision"])
            if mon["decision"] == "reject":
                break

        assert all(b > a for a, b in zip(fractions, fractions[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(spends, spends[1:]))
        state = MonitoringState.from_json(open(state_path).read())
        assert len(state.analyses) == len(decisions)
        if len(decisions) == 3:
            assert fractions[-1] == pytest.approx(1.0, abs=0.02)
            assert spends[-1] == pytest.approx(0.05, abs=1e-9)
            assert state.analyses[-1].final


_FLOAT = re.compile(r"-?\d+\.\d+(?:e[-+]\d+)?")


def split_floats(text):
    """``text`` with each float literal replaced by ``<f>``, and those floats in order."""
    return _FLOAT.sub("<f>", text), [float(x) for x in _FLOAT.findall(text)]


GOLDEN_STATE = """{
  "schema": "rmstgst.state/1",
  "design": {
    "schema": "rmstgst.design/1",
    "alpha": 0.05,
    "sidedness": "one_sided",
    "spending": {
      "kind": "power_family",
      "rho": 2.0
    },
    "planned_fractions": [
      0.5,
      1.0
    ],
    "i_max": 120.0
  },
  "analyses": [
    {
      "stage": 1,
      "u": 1.5,
      "info_level": 60.0,
      "info_fraction": 0.5,
      "z": 1.25,
      "critical_value": 2.7,
      "cumulative_spend": 0.003,
      "decision": "continue",
      "final": false
    },
    {
      "stage": 2,
      "u": 2.0,
      "info_level": 55.0,
      "info_fraction": 0.4583333333333333,
      "z": 0.5,
      "critical_value": null,
      "cumulative_spend": 0.003,
      "decision": "skipped",
      "final": false
    },
    {
      "stage": 3,
      "u": 3.0,
      "info_level": 130.0,
      "info_fraction": 1.0833333333333333,
      "z": 2.25,
      "critical_value": null,
      "cumulative_spend": 0.025,
      "decision": "continue",
      "final": true
    }
  ]
}"""

GOLDEN_DESIGN = """{
  "alpha": 0.05,
  "i_max": 200.0,
  "planned_fractions": [
    0.5,
    1.0
  ],
  "schema": "rmstgst.design/1",
  "sidedness": "one_sided",
  "spending": {
    "kind": "power_family",
    "rho": 2.0
  }
}
"""

GOLDEN_BOUNDARIES = """{
  "alpha": <f>,
  "planned_fractions": [
    <f>,
    <f>
  ],
  "schema": "rmstgst.design/1",
  "sidedness": "two_sided",
  "spending": {
    "kind": "obrien_fleming_like"
  },
  "stages": [
    {
      "critical_value": <f>,
      "cumulative_spend": <f>,
      "fraction": <f>
    },
    {
      "critical_value": <f>,
      "cumulative_spend": <f>,
      "fraction": <f>
    }
  ]
}
"""

GOLDEN_CALIBRATION = """{
  "analysis_times": [
    <f>,
    <f>
  ],
  "failures": 0,
  "fractions": [
    <f>,
    <f>
  ],
  "grid": [
    <f>,
    <f>,
    <f>,
    <f>,
    <f>,
    <f>,
    <f>
  ],
  "i_max": <f>,
  "i_max_by_method": {
    "adjusted": <f>,
    "cox": <f>,
    "km": <f>
  },
  "master_seed": 3,
  "mean_info": [
    <f>,
    <f>,
    <f>,
    <f>,
    <f>,
    <f>,
    <f>
  ],
  "null_log_rate_ratio": <f>,
  "power": {
    "alpha": <f>,
    "delta": <f>,
    "log_rate_ratio": <f>,
    "sidedness": "two_sided",
    "target_power": <f>
  },
  "reps": 100,
  "scenario": {
    "accrual": <f>,
    "censoring": "5pct_per_year",
    "covariate_strength": <f>,
    "covariates": "normal1",
    "fractions": [
      <f>,
      <f>
    ],
    "log_rate_ratio": <f>,
    "n_per_arm": 30,
    "rate_base": <f>,
    "schema": "rmstgst.scenario/1",
    "shape_base": <f>,
    "shape_offset": <f>,
    "tau": <f>
  },
  "schema": "rmstgst.calibration/1"
}
"""


class TestGoldenBytes:
    """The exact text of each file the package writes, keys in file order.

    Floats that the boundary recursion or the simulation computes are
    masked in the text and compared to a tolerance; every other character,
    ``null``, integer and boolean included, must match.
    """

    def test_state_json(self):
        design = DesignConfig(SpendingFunction("power_family", rho=2.0, sided="one_sided"), (0.5, 1.0), i_max=120.0)
        analyses = (
            AnalysisRecord(1, 1.5, 60.0, 0.5, 1.25, 2.7, 0.003, "continue"),
            AnalysisRecord(2, 2.0, 55.0, 0.4583333333333333, 0.5, None, 0.003, "skipped"),
            AnalysisRecord(3, 3.0, 130.0, 1.0833333333333333, 2.25, math.inf, 0.025, "continue", final=True),
        )
        state = MonitoringState(design=design, analyses=analyses)
        assert state.to_json() == GOLDEN_STATE
        assert MonitoringState.from_json(GOLDEN_STATE).to_json() == GOLDEN_STATE

    def test_design_file(self, tmp_path, capsys):
        out = tmp_path / "design.json"
        code, _, _ = run_cli(
            capsys, "design", "--spending", "power_family", "--rho", "2", "--sides", "one_sided",
            "--fractions", "0.5,1.0", "--i-max", "200", "--out", str(out),
        )
        assert code == 0
        assert out.read_text() == GOLDEN_DESIGN

    def test_boundaries_file(self, tmp_path, capsys):
        out = tmp_path / "boundaries.json"
        code, _, _ = run_cli(
            capsys, "boundaries", "--spending", "obrien_fleming_like", "--fractions", "0.5,1.0",
            "--out", str(out),
        )
        assert code == 0
        text, floats = split_floats(out.read_text())
        assert text == GOLDEN_BOUNDARIES
        np.testing.assert_allclose(floats, [
            0.05, 0.5, 1.0, 2.771807648699349, 0.005574596680784529, 0.5, 1.9793113426785223,
            0.050000000000000044, 1.0,
        ], rtol=1e-9)

    def test_calibration_file(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "n_per_arm": 30, "accrual": 0.6, "tau": 0.4, "rate_base": 3.0, "shape_offset": -0.3,
            "covariate_strength": 0.4, "fractions": [0.5, 1.0],
        }))
        out = tmp_path / "calibration.json"
        code, _, _ = run_cli(
            capsys, "calibrate", "--scenario", str(scenario), "--reps", "100", "--seed", "3",
            "--out", str(out),
        )
        assert code == 0
        text, floats = split_floats(out.read_text())
        assert text == GOLDEN_CALIBRATION
        np.testing.assert_allclose(floats, [
            0.42891954860551046, 1.0, 0.5, 1.0, 0.4, 0.5, 0.6, 0.7000000000000001, 0.8, 0.9, 1.0,
            1122.9990328147185, 1122.9990328147185, 7.271642514951322, 1010.8195985953037,
            517.7521924145766, 669.0246918215931, 860.1273230812616, 1018.7722916620871,
            1102.3131194036134, 1122.9990328147185, 1122.9990328147185, -0.42928860108133904,
            0.05, 0.08360141232915343, -2.4182319553716525, 0.8, 0.6, 0.4, 0.5, 1.0, 0.0, 3.0,
            1.5, -0.3, 0.4,
        ], rtol=1e-6)


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rmstgst", "boundaries", "--spending", "cubic_min",
             "--fractions", "1.0"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "1.95996" in proc.stdout

    def test_version_flag(self, capsys):
        code, stdout, _ = run_cli(capsys, "--version")
        assert code == 0
        assert stdout.startswith("rmstgst ")
