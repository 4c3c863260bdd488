"""End-to-end command-line interface tests."""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import monotone_records

from rmstgst.cli import main
from rmstgst.gs_design import (
    BoundarySchedule,
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
        sched = BoundarySchedule.from_dict(json.loads(out.read_text()))
        direct = boundaries(SpendingFunction("power_family", rho=3.0), (0.4, 1.0))
        np.testing.assert_allclose(sched.critical_values, direct.critical_values, rtol=1e-14)

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
        assert set(report["analysis"]) == keys | {"components"}
        assert set(report["km"]) == keys
        assert set(report["analysis"]["components"]) == {"B10", "B11", "B3", "var_cond"}

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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteAnalysis:
    """A look whose adjusted information is NaN exits 4 and writes nothing."""

    @pytest.fixture()
    def monotone_csv(self, tmp_path):
        path = tmp_path / "monotone.csv"
        write_trial_csv(path, [
            [r.subject_id, r.arm, repr(r.entry_time), repr(r.followup_time), r.event,
             repr(r.covariates[0])]
            for r in monotone_records()
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
