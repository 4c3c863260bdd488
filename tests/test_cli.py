"""End-to-end command-line interface tests."""

from __future__ import annotations

import csv
import errno
import json
import math
import multiprocessing
import os
import re
import stat
import subprocess
import sys
import warnings
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest
from conftest import monotone_trial

from rmstgst import cli, sim_engine
from rmstgst.cli import main
from rmstgst.gs_design import (
    AnalysisRecord,
    DesignConfig,
    MonitoringState,
    SpendingFunction,
    boundaries,
    update_monitoring,
)
from rmstgst.sim_engine import SimScenario, draw_trial


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
        spending=SpendingFunction("cubic_min"), planned_fractions=(0.5, 0.75, 1.0), i_max=700.0,
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

        def paused(state, u, z, info_level, final=False, tau=None):
            barrier.wait(timeout=60)
            barrier.wait(timeout=60)
            return original(state, u, z, info_level, final=final, tau=tau)

        cli.update_monitoring = paused
    else:
        barrier.wait(timeout=60)
    code = cli.main(argv)
    if not holds_lock:
        barrier.wait(timeout=60)
    sys.exit(code)


def _write_in_child(path, text, times, barrier):
    """Write ``text`` to ``path`` ``times`` times with the CLI's writer, starting with the other writers."""
    barrier.wait(timeout=60)
    for _ in range(times):
        cli._write(path, text)


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
        # the design file read back gives the boundary its table printed
        out = tmp_path / "design.json"
        code, stdout, _ = run_cli(
            capsys, "design", "--spending", "power_family", "--rho", "3",
            "--fractions", "0.4,1.0", "--out", str(out),
        )
        assert code == 0
        design = DesignConfig.from_dict(json.loads(out.read_text()))
        assert design.spending == SpendingFunction("power_family", rho=3.0)
        back = boundaries(design.spending, design.planned_fractions)
        direct = boundaries(SpendingFunction("power_family", rho=3.0), (0.4, 1.0))
        np.testing.assert_allclose(back.critical_values, direct.critical_values, rtol=1e-14)
        rows = [line.split() for line in stdout.splitlines()[1:]]
        assert rows == [
            [str(k), f"{f:.4f}", f"{c:.5f}", f"{s:.6f}"]
            for k, (f, c, s) in enumerate(zip((0.4, 1.0), direct.critical_values, direct.cumulative_spend), 1)
        ]

    def test_partial_schedule_spends_its_last_fraction(self, capsys):
        code, stdout, _ = run_cli(capsys, "design", "--spending", "cubic_min", "--fractions", "0.5,0.75")
        assert code == 0
        table = stdout.split("{", 1)[0].splitlines()
        assert len(table) == 3
        assert table[-1].split()[:2] == ["2", "0.7500"]
        assert float(table[-1].split()[-1]) == pytest.approx(0.05 * 0.75**3, abs=5e-7)

    def test_infinite_critical_value_prints_inf(self, tmp_path, capsys):
        # a first look at 1e-5 of the information spends nothing, so nothing there can cross
        out = tmp_path / "design.json"
        code, stdout, _ = run_cli(
            capsys, "design", "--spending", "obrien_fleming_like", "--fractions", "1e-5,0.5,1.0",
            "--out", str(out),
        )
        assert code == 0
        rows = [line.split() for line in stdout.splitlines()[1:]]
        assert rows[0] == ["1", "0.0000", "inf", "0.000000"]
        assert [row[2] for row in rows[1:]] == ["2.77181", "1.97931"]
        assert DesignConfig.from_dict(json.loads(out.read_text())).planned_fractions == (1e-5, 0.5, 1.0)

    def test_invalid_spending_configuration_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "design", "--spending", "power_family", "--fractions", "0.5,1.0",
        )
        assert code == 2
        assert "error:" in err and "rho" in err

    @pytest.mark.parametrize("rho", ["inf", "nan", "0"])
    def test_rho_outside_zero_to_inf_exit_2(self, rho, capsys):
        code, stdout, err = run_cli(
            capsys, "design", "--spending", "power_family", "--rho", rho, "--fractions", "0.5,1", "--i-max", "100",
        )
        assert_typed_error(code, err, 2)
        assert f"power_family spending needs 0 < rho < inf, got {float(rho)!r}" in err
        assert stdout == ""  # no table and no design, so no Infinity either

    @pytest.mark.parametrize("i_max", ["0", "-3"])
    def test_i_max_not_positive_exit_2(self, i_max, tmp_path, capsys):
        out = tmp_path / "design.json"
        code, stdout, err = run_cli(capsys, "design", "--spending", "cubic_min", "--fractions", "0.5,1.0",
                                    "--i-max", i_max, "--out", str(out))
        assert_typed_error(code, err, 2)
        assert err == f"error: i_max must be > 0, got {float(i_max)!r}\n" and stdout == ""
        assert not out.exists()

    def test_json_output_refuses_nan(self):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._json_text({"x": math.nan})

    def test_bad_fractions_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "design", "--spending", "cubic_min", "--fractions", "0.5,abc",
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
        assert report["analysis"]["delta"] != report["km"]["delta"]
        assert set(report["analysis"]["components"]) == {"B10", "B11", "B3", "var_cond"}
        diagnostics = report["analysis"]["diagnostics"]
        assert set(diagnostics) == {"iterations", "step_halvings"}
        assert diagnostics["iterations"] >= 1 and diagnostics["step_halvings"] >= 0

    def test_nan_lock_time_exit_3(self, trial_csv, capsys):
        code, stdout, err = run_cli(
            capsys, "analyze", "--data", trial_csv, "--u", "3.0", "--tau", "1.0", "--lock-time", "nan",
            "--report-only",
        )
        assert_typed_error(code, err, 3)
        assert "data lock at nan must be finite" in err and stdout == ""

    def test_state_required_without_report_only(self, trial_csv, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--data", trial_csv, "--u", "3.0", "--tau", "1.0",
        )
        assert code == 2
        assert "--state" in err

    def test_design_on_existing_state_exit_2(self, trial_csv, design_json, tmp_path, capsys):
        # the state file carries the design, so a design given again is refused, not ignored
        state_path = tmp_path / "state.json"
        look = ["analyze", "--data", trial_csv, "--tau", "1.0", "--state", str(state_path), "--design", design_json]
        assert run_cli(capsys, *look, "--u", "1.4")[0] == 0
        before = state_path.read_bytes()
        code, _, err = run_cli(capsys, *look, "--u", "2.0")
        assert_typed_error(code, err, 2)
        assert f"state {state_path} already initialized; omit --design (the state file carries the design)" in err
        assert state_path.read_bytes() == before
        assert not os.path.exists(str(state_path) + ".lock")

    def test_i_max_flag_is_unrecognized_exit_2(self, trial_csv, design_json, tmp_path, capsys):
        # i_max comes only from the design file
        state_path = tmp_path / "state.json"
        code, out, err = run_cli(capsys, "analyze", "--data", trial_csv, "--u", "1.4", "--tau", "1.0",
                                 "--state", str(state_path), "--design", design_json, "--i-max", "5")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --i-max 5" in err
        assert not state_path.exists()

    def test_fresh_state_on_a_design_without_i_max_exit_2(self, trial_csv, tmp_path, capsys):
        design = tmp_path / "design.json"
        design.write_text(json.dumps(DesignConfig(SpendingFunction("cubic_min"), (0.5, 1.0)).to_dict()))
        state_path = tmp_path / "state.json"
        code, out, err = run_cli(capsys, "analyze", "--data", trial_csv, "--u", "1.4", "--tau", "1.0",
                                 "--state", str(state_path), "--design", str(design))
        assert_typed_error(code, err, 2)
        assert "monitoring requires i_max in the design config" in err and out == ""
        assert not state_path.exists() and not os.path.exists(str(state_path) + ".lock")

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
            "--state", state_path, "--design", design_json,
        )
        assert code == 0
        report = json.loads(stdout)
        mon = report["monitoring"]
        assert mon["stage"] == 1
        assert mon["decision"] in ("continue", "reject")
        assert mon["info_fraction"] == pytest.approx(report["analysis"]["info"] / 700.0)
        state = MonitoringState.read(state_path)
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

    def test_no_look_after_the_final_exit_5(self, trial_csv, design_json, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        for u, flags in (("1.4", ["--design", design_json]), ("3.0", ["--final"])):
            code, _, err = run_cli(capsys, "analyze", "--data", trial_csv, "--u", u, "--tau", "1.0",
                                   "--state", str(state_path), *flags)
            assert code == 0, err
        final = state_path.read_bytes()
        code, _, err = run_cli(capsys, "analyze", "--data", trial_csv, "--u", "3.5", "--tau", "1.0",
                               "--state", str(state_path))
        assert_typed_error(code, err, 5)
        assert "the final analysis (stage 2, u=3.0) is recorded" in err
        assert state_path.read_bytes() == final

    def test_look_at_another_tau_exit_5(self, trial_csv, design_json, tmp_path, capsys):
        # one trial's boundary is spent on one restricted mean: a look at another horizon would mix two
        state_path = tmp_path / "state.json"
        code, _, err = run_cli(capsys, "analyze", "--data", trial_csv, "--u", "1.4", "--tau", "1.0",
                               "--state", str(state_path), "--design", design_json)
        assert code == 0, err
        first = state_path.read_bytes()
        assert MonitoringState.read(state_path).analyses[0].tau == 1.0
        code, _, err = run_cli(capsys, "analyze", "--data", trial_csv, "--u", "2.0", "--tau", "2.0",
                               "--state", str(state_path), "--final")
        assert_typed_error(code, err, 5)
        assert "tau=2.0 differs from the recorded tau=1.0" in err
        assert state_path.read_bytes() == first

    def test_a_refused_look_never_reads_its_trial(self, trial_csv, design_json, tmp_path, capsys, monkeypatch):
        state_path = tmp_path / "state.json"
        code, _, err = run_cli(capsys, "analyze", "--data", trial_csv, "--u", "1.4", "--tau", "1.0",
                               "--state", str(state_path), "--design", design_json)
        assert code == 0, err
        first = state_path.read_bytes()

        def unread(*args, **kwargs):
            raise AssertionError("the trial of a refused look was read")

        monkeypatch.setattr(cli, "ingest_csv", unread)
        for u, tau in (("1.0", "1.0"), ("2.0", "2.0")):
            code, out, err = run_cli(capsys, "analyze", "--data", str(tmp_path / "missing.csv"), "--u", u,
                                     "--tau", tau, "--state", str(state_path))
            assert_typed_error(code, err, 5)
            assert out == ""
            assert state_path.read_bytes() == first
            assert not os.path.exists(str(state_path) + ".lock")

    def test_a_state_out_of_order_is_refused_when_read(self, trial_csv, design_json, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        for u, flags in (("1.4", ["--design", design_json]), ("2.0", [])):
            code, _, err = run_cli(capsys, "analyze", "--data", trial_csv, "--u", u, "--tau", "1.0",
                                   "--state", str(state_path), *flags)
            assert code == 0, err
        edited = json.loads(state_path.read_text())
        edited["analyses"][1].update(u=1.0, tau=2.0)  # the second look before the first, at another horizon
        state_path.write_text(json.dumps(edited))
        before = state_path.read_bytes()
        code, out, err = run_cli(capsys, "analyze", "--data", trial_csv, "--u", "1.5", "--tau", "1.0",
                                 "--state", str(state_path))
        assert_typed_error(code, err, 5)
        assert "malformed monitoring state: non-increasing analysis time: u=1.0 is not past the last recorded u=1.4" \
            in err and out == ""
        assert state_path.read_bytes() == before

    def test_state_written_without_tau_takes_its_next_look(self, trial_csv, design_json, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        code, _, err = run_cli(capsys, "analyze", "--data", trial_csv, "--u", "1.4", "--tau", "1.0",
                               "--state", str(state_path), "--design", design_json)
        assert code == 0, err
        old = json.loads(state_path.read_text())
        for record in old["analyses"]:  # as a state file was written before looks recorded their tau
            del record["tau"]
        state_path.write_text(json.dumps(old, indent=2))
        code, stdout, err = run_cli(capsys, "analyze", "--data", trial_csv, "--u", "2.0", "--tau", "1.0",
                                    "--state", str(state_path))
        assert code == 0, err
        assert json.loads(stdout)["monitoring"]["stage"] == 2
        assert [a.tau for a in MonitoringState.read(state_path).analyses] == [None, 1.0]

    def test_a_misspelt_record_key_is_refused_before_the_trial_is_read(self, trial_csv, design_json, tmp_path,
                                                                       capsys):
        # read as a record without its tau, the state would take a look at a second horizon
        state_path = tmp_path / "state.json"
        code, _, err = run_cli(capsys, "analyze", "--data", trial_csv, "--u", "1.4", "--tau", "1.0",
                               "--state", str(state_path), "--design", design_json)
        assert code == 0, err
        edited = json.loads(state_path.read_text())
        edited["analyses"][0]["Tau"] = edited["analyses"][0].pop("tau")
        state_path.write_text(json.dumps(edited, indent=2))
        before = state_path.read_bytes()
        for data in (trial_csv, str(tmp_path / "missing.csv")):  # a trial that is not read cannot exit 3
            code, out, err = run_cli(capsys, "analyze", "--data", data, "--u", "2.0", "--tau", "2.0",
                                     "--state", str(state_path))
            assert_typed_error(code, err, 5)
            assert err == (f"error: {state_path}: malformed monitoring state: unknown analysis record keys: "
                           "['Tau']\n") and out == ""
            assert state_path.read_bytes() == before

    def test_lock_contention_exit_5(self, trial_csv, design_json, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        (tmp_path / "state.json.lock").touch()
        code, _, err = run_cli(
            capsys, "analyze", "--data", trial_csv, "--u", "1.4", "--tau", "1.0",
            "--state", str(state_path), "--design", design_json,
        )
        assert code == 5
        assert "locked by another process" in err
        assert not state_path.exists()

    def test_lock_names_holder_in_contention_error(self, trial_csv, design_json, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        (tmp_path / "state.json.lock").write_text("pid 4242 since 2026-01-02T03:04:05Z\n")
        code, _, err = run_cli(
            capsys, "analyze", "--data", trial_csv, "--u", "1.4", "--tau", "1.0",
            "--state", str(state_path), "--design", design_json,
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

        def watched(state, u, z, info_level, final=False, tau=None):
            seen.append(lock_path.read_text() if lock_path.exists() else None)
            return original(state, u, z, info_level, final=final, tau=tau)

        monkeypatch.setattr(cli, "update_monitoring", watched)
        for u in ("1.4", "2.0"):
            extra = ("--design", design_json) if u == "1.4" else ()
            code, _, _ = run_cli(
                capsys, "analyze", "--data", trial_csv, "--u", u, "--tau", "1.0",
                "--state", str(state_path), *extra,
            )
            assert code == 0
        assert len(seen) == 2
        assert all(text is not None and text.startswith(f"pid {os.getpid()} since ") for text in seen)
        assert not lock_path.exists()
        assert len(MonitoringState.read(state_path).analyses) == 2

    def test_two_processes_contend_for_state_lock(self, trial_csv, design_json, tmp_path):
        state_path = tmp_path / "state.json"
        look = ["analyze", "--data", trial_csv, "--tau", "1.0", "--state", str(state_path)]
        holder = look + ["--u", "1.4", "--design", design_json]
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
        assert len(MonitoringState.read(state_path).analyses) == 1
        assert main(other) == 0
        assert len(MonitoringState.read(state_path).analyses) == 2

    def test_misspelt_design_key_exit_2(self, trial_csv, design_json, tmp_path, capsys):
        design = json.loads(Path(design_json).read_text())
        design["sided"] = "one_sided"
        path = tmp_path / "design.json"
        path.write_text(json.dumps(design))
        state_path = tmp_path / "state.json"
        code, out, err = run_cli(capsys, "analyze", "--data", str(tmp_path / "missing.csv"), "--u", "1.4",
                                 "--tau", "1.0", "--state", str(state_path), "--design", str(path))
        assert_typed_error(code, err, 2)
        assert "unknown design config keys: ['sided']" in err and out == ""
        assert not state_path.exists()

    def test_non_finite_i_max_exit_2(self, trial_csv, design_json, tmp_path, capsys):
        design = tmp_path / "infinite.json"
        design.write_text(json.dumps({**json.loads(Path(design_json).read_text()), "i_max": math.inf}))  # Infinity
        state_path = tmp_path / "state.json"
        code, _, err = run_cli(
            capsys, "analyze", "--data", trial_csv, "--u", "1.4", "--tau", "1.0",
            "--state", str(state_path), "--design", str(design),
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
        (lambda text: b"\xff" + text[1:], "state.json: line 1: not UTF-8 text (invalid start byte)"),
    ], ids=["truncated", "not_utf8"])
    def test_corrupt_state_file_exit_5(self, corrupt, says, trial_csv, design_json, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        look = ["analyze", "--data", trial_csv, "--tau", "1.0", "--state", str(state_path)]
        code, _, _ = run_cli(capsys, *look, "--u", "1.4", "--design", design_json)
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
        code, _, _ = run_cli(capsys, *look, "--u", "1.4", "--design", design_json)
        assert code == 0
        doc = json.loads(state_path.read_text())
        doc["analyses"][0][key] = value
        state_path.write_text(json.dumps(doc, indent=2))
        before = state_path.read_bytes()
        code, _, err = run_cli(capsys, *look, "--u", "2.0")
        assert_typed_error(code, err, 5)
        assert "malformed monitoring state" in err and key in err
        assert state_path.read_bytes() == before

    @pytest.mark.parametrize("key, value", [
        ("info_fraction", math.nan), ("info_fraction", -1.0), ("info_fraction", math.inf), ("info_fraction", 0.0),
        ("info_level", math.nan), ("info_level", 0.0), ("z", math.nan), ("z", -math.inf),
        ("critical_value", math.nan), ("critical_value", -1.0),
        ("cumulative_spend", math.nan), ("cumulative_spend", -0.01),
    ])
    def test_out_of_range_state_record_exit_5(self, key, value, trial_csv, design_json, tmp_path, capsys):
        # a recorded number the recursion cannot start from: no traceback, no decision and no NaN written
        state_path = tmp_path / "state.json"
        look = ["analyze", "--data", trial_csv, "--tau", "1.0", "--state", str(state_path)]
        code, _, _ = run_cli(capsys, *look, "--u", "1.4", "--design", design_json)
        assert code == 0
        doc = json.loads(state_path.read_text())
        doc["analyses"][0][key] = value
        state_path.write_text(json.dumps(doc, indent=2))
        before = state_path.read_bytes()
        code, _, err = run_cli(capsys, *look, "--u", "2.0")
        assert_typed_error(code, err, 5)
        assert "malformed monitoring state" in err and key in err
        assert state_path.read_bytes() == before

    @pytest.mark.parametrize("scale", [0.5, 1.0])
    def test_effective_fractions_out_of_order_exit_5(self, scale, trial_csv, design_json, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        look = ["analyze", "--data", trial_csv, "--tau", "1.0", "--state", str(state_path)]
        code, _, _ = run_cli(capsys, *look, "--u", "1.4", "--design", design_json)
        assert code == 0
        assert run_cli(capsys, *look, "--u", "2.0")[0] == 0
        doc = json.loads(state_path.read_text())
        doc["analyses"][1]["info_fraction"] = scale * doc["analyses"][0]["info_fraction"]
        state_path.write_text(json.dumps(doc, indent=2))
        code, _, err = run_cli(capsys, *look, "--u", "2.5")
        assert_typed_error(code, err, 5)
        assert "malformed monitoring state" in err and "fractions must increase" in err

    @pytest.mark.parametrize("change", [dict(stage=7, info_fraction=0.9), dict(stage=7), dict(info_fraction=0.9)])
    def test_state_record_out_of_place_exit_5(self, change, trial_csv, design_json, tmp_path, capsys):
        # the next look replays the boundary from the recorded fractions: with the second look's fraction edited
        # from 0.695 to 0.9, a look at 0.766 would be recorded as skipped
        state_path = tmp_path / "state.json"
        look = ["analyze", "--data", trial_csv, "--tau", "1.0", "--state", str(state_path)]
        assert run_cli(capsys, *look, "--u", "1.4", "--design", design_json)[0] == 0
        assert run_cli(capsys, *look, "--u", "2.0")[0] == 0
        doc = json.loads(state_path.read_text())
        doc["analyses"][1].update(change)
        state_path.write_text(json.dumps(doc, indent=2))
        before = state_path.read_bytes()
        code, _, err = run_cli(capsys, *look, "--u", "2.5")
        assert_typed_error(code, err, 5)
        stage, fraction = change.get("stage", 2), change.get("info_fraction", doc["analyses"][1]["info_fraction"])
        assert f"malformed monitoring state: analysis 2 records stage {stage} and info_fraction {fraction}; " in err
        assert state_path.read_bytes() == before

    @pytest.mark.parametrize("analysis, edit", [  # each, if trusted, would steer the next look's critical value
        (2, lambda a: a.update(cumulative_spend=0.04)),  # to infinity
        (1, lambda a: a.update(critical_value=1.2 * a["critical_value"])),  # to 2.4321
        (2, lambda a: a.update(decision="skipped", critical_value=None)),  # to 2.3769
    ], ids=["spend", "critical_value", "skipped"])
    def test_state_record_not_its_replay_exit_5(self, analysis, edit, trial_csv, tmp_path, capsys):
        # a look replays the recorded looks on the design, so an edited decision or number cannot steer it
        design = DesignConfig(spending=SpendingFunction("obrien_fleming_like"), planned_fractions=(0.5, 0.75, 1.0),
                              i_max=100.0)
        state = MonitoringState(design=design)
        for u, info in ((1.0, 40.0), (1.5, 55.0)):
            state = update_monitoring(state, u, 0.5, info, tau=1.0)
        want = update_monitoring(state, 2.0, 0.5, 68.9, tau=1.0).analyses[-1]
        assert (want.decision, round(want.critical_value, 4), round(want.cumulative_spend, 5)) == (
            "continue", 2.4277, 0.01821)
        doc = state.to_dict()
        edit(doc["analyses"][analysis - 1])
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(doc, indent=2))
        before = state_path.read_bytes()
        code, _, err = run_cli(capsys, "analyze", "--data", trial_csv, "--tau", "1.0", "--state", str(state_path),
                               "--u", "2.0")
        assert_typed_error(code, err, 5)
        assert f"analysis {analysis} records " in err and "replaying the recorded looks gives" in err
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
        truncated_design.write_bytes(Path(design_json).read_bytes()[:40])
        code, _, err = run_cli(
            capsys, "analyze", "--data", trial_csv, "--u", "1.4", "--tau", "1.0",
            "--state", str(tmp_path / "fresh.json"), "--design", str(truncated_design),
        )
        assert code == 2
        assert f"{truncated_design}: design config is not valid JSON at line 1 column 41" in err

    def test_byte_order_mark_analyzes_like_the_plain_file(self, trial_csv, tmp_path, capsys):
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(trial_csv).read_bytes())
        look = ["analyze", "--u", "3.0", "--tau", "1.0", "--km", "--report-only"]
        plain = run_cli(capsys, *look, "--data", trial_csv)
        assert run_cli(capsys, *look, "--data", str(marked)) == plain and plain[0] == 0

    def test_byte_order_mark_in_the_schema_reads_like_the_plain_file(self, trial_csv, tmp_path, capsys):
        plain, marked = tmp_path / "schema.json", tmp_path / "bom_schema.json"
        plain.write_text(json.dumps({"covariates": ["z1"]}))
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        look = ["analyze", "--data", trial_csv, "--u", "3.0", "--tau", "1.0", "--km", "--report-only", "--schema"]
        plain_run = run_cli(capsys, *look, str(plain))
        assert run_cli(capsys, *look, str(marked)) == plain_run and plain_run[0] == 0

    def test_missing_state_without_design_exit_2(self, trial_csv, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        code, _, err = run_cli(capsys, "analyze", "--data", trial_csv, "--u", "1.4", "--tau", "1.0",
                               "--state", str(state_path))
        assert_typed_error(code, err, 2)
        assert f"state {state_path} does not exist; pass --design" in err
        assert not state_path.exists()

    def test_recorded_fractions_too_close_for_the_grid_exit_2(self, trial_csv, tmp_path, capsys):
        # the replay of the recorded looks cannot place the second so close to the first
        first = 0.8529238
        design = DesignConfig(spending=SpendingFunction("cubic_min"), planned_fractions=(0.5, 0.75, 1.0),
                              i_max=700.0)
        records = tuple(AnalysisRecord(stage=k + 1, u=1.0 + 0.2 * k, info_level=700.0 * f, info_fraction=f, z=0.5,
                                       critical_value=2.5, cumulative_spend=0.01 * (k + 1), decision="continue")
                        for k, f in enumerate((first, first * (1 + 1e-7))))
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(MonitoringState(design=design, analyses=records).to_dict()))
        before = state_path.read_bytes()
        code, _, err = run_cli(capsys, "analyze", "--data", trial_csv, "--u", "2.0", "--tau", "1.0",
                               "--state", str(state_path))
        assert_typed_error(code, err, 2)
        assert "are too close: the 4000-node grid" in err
        assert state_path.read_bytes() == before

    def test_design_spending_not_an_object_exit_2(self, trial_csv, design_json, tmp_path, capsys):
        doc = json.loads(Path(design_json).read_text())
        doc["spending"] = "cubic_min"
        design = tmp_path / "string_spending.json"
        design.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "analyze", "--data", trial_csv, "--u", "1.4", "--tau", "1.0",
                               "--state", str(tmp_path / "state.json"), "--design", str(design))
        assert_typed_error(code, err, 2)
        assert "design spending must be an object with a 'kind'" in err

    @pytest.mark.parametrize("covariates", [["z1", "z1"], ["arm"]])
    def test_schema_mapping_a_column_twice_exit_3(self, covariates, trial_csv, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"covariates": covariates}))
        code, _, err = run_cli(
            capsys, "analyze", "--data", trial_csv, "--u", "3.0", "--tau", "1.0", "--report-only",
            "--schema", str(schema),
        )
        assert_typed_error(code, err, 3)
        assert f"columns mapped to more than one field: {covariates[:1]}" in err

    def test_schema_column_overrides(self, tmp_path, capsys):
        # the same rows under renamed columns, in reverse order, analyze as under the default header
        rows = locked_trial_rows(np.random.default_rng(8), 60, lock=3.0)
        plain = tmp_path / "plain.csv"
        write_trial_csv(plain, rows, covariate_names=("biomarker",))
        renamed = tmp_path / "renamed.csv"
        with open(renamed, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["biomarker", "died", "followed", "enrolled", "group", "pid"])
            writer.writerows(row[::-1] for row in rows)
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"id": "pid", "arm": "group", "entry_time": "enrolled",
                                      "followup_time": "followed", "event": "died", "covariates": ["biomarker"]}))
        look = ["analyze", "--u", "3.0", "--tau", "1.0", "--km", "--report-only"]
        code, stdout, err = run_cli(capsys, *look, "--data", str(renamed), "--schema", str(schema))
        assert code == 0, err
        assert run_cli(capsys, *look, "--data", str(plain)) == (0, stdout, "")
        assert set(json.loads(stdout)) == {"analysis", "km"}

    @pytest.mark.parametrize("flags, named", [
        (("--state", "s.json"), "--state"),
        (("--final",), "--final"),
        (("--state", ""), "--state"),
        (("--state", "s.json", "--final"), "--state, --final"),
        (("--design", "d.json"), "--design"),
    ], ids=["state", "final", "empty_state", "final_state", "design"])
    def test_report_only_refuses_monitoring_flags(self, flags, named, tmp_path, capsys, monkeypatch):
        # refused, not ignored, and before the CSV is read: a missing --data would exit 3
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "analyze", "--data", "missing.csv", "--u", "3.0", "--tau", "1.0",
                                 "--report-only", *flags)
        assert_typed_error(code, err, 2)
        assert f"--report-only records no analysis; omit {named}" in err
        assert out == "" and list(tmp_path.iterdir()) == []


def run_with_closed_stdout(*argv):
    """Run ``rmstgst`` in a child whose stdout has no reader left; return its exit code and stderr."""
    proc = subprocess.Popen([sys.executable, "-m", "rmstgst", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    proc.stdout.close()  # the reader goes before the child writes, as with `| true`
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=120), err


class TestClosedStdout:
    def test_report_only_exits_with_its_own_code_and_no_traceback(self, trial_csv):
        code, err = run_with_closed_stdout("analyze", "--data", trial_csv, "--u", "3.0", "--tau", "1.0",
                                           "--km", "--report-only")
        assert (code, err) == (0, "")

    def test_state_written_before_the_report_stays(self, trial_csv, design_json, tmp_path):
        state_path = tmp_path / "state.json"
        code, err = run_with_closed_stdout("analyze", "--data", trial_csv, "--u", "2.0", "--tau", "1.0",
                                           "--state", str(state_path), "--design", design_json)
        assert (code, err) == (0, "")
        assert len(MonitoringState.read(state_path).analyses) == 1

    def test_error_keeps_its_exit_code(self, tmp_path):
        code, err = run_with_closed_stdout("analyze", "--data", str(tmp_path / "missing.csv"), "--u", "3.0",
                                           "--tau", "1.0", "--report-only")
        assert_typed_error(code, err, 3)

    def test_error_keeps_its_exit_code_when_stderr_has_no_reader(self, tmp_path):
        read, write = os.pipe()
        os.close(read)  # the reader goes before the child writes its error line, as with `2>&1 >/dev/null | true`
        try:
            proc = subprocess.run([sys.executable, "-m", "rmstgst", "analyze", "--data", str(tmp_path / "missing.csv"),
                                   "--u", "3.0", "--tau", "1.0", "--report-only"], stdout=subprocess.DEVNULL,
                                  stderr=write, timeout=120)
        finally:
            os.close(write)
        assert proc.returncode == 3

    def test_error_keeps_its_exit_code_when_stderr_takes_no_writes(self, tmp_path):
        # a descriptor open for reading only, as `2</dev/null` leaves it: each write fails with EBADF
        with open(os.devnull) as stderr:
            proc = subprocess.run([sys.executable, "-m", "rmstgst", "analyze", "--data", str(tmp_path / "missing.csv"),
                                   "--u", "3.0", "--tau", "1.0", "--report-only"], stdout=subprocess.PIPE,
                                  stderr=stderr, timeout=120)
        assert (proc.returncode, proc.stdout) == (3, b"")

    def test_error_stays_off_stdout_when_stderr_is_closed(self, tmp_path):
        # with descriptor 2 closed at start-up, sys.stderr is None, and print(file=None) would write to stdout
        proc = subprocess.run([sys.executable, "-m", "rmstgst", "analyze", "--data", str(tmp_path / "missing.csv"),
                               "--u", "3.0", "--tau", "1.0", "--report-only"], stdout=subprocess.PIPE,
                              preexec_fn=lambda: os.close(2), timeout=120)
        assert (proc.returncode, proc.stdout) == (3, b"")


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestCovariateUnits:
    """A covariate's units change no printed analysis; a constant covariate is refused by the fit."""

    @staticmethod
    def write(path, trial, z):
        columns = (trial.arm.tolist(), trial.entry.tolist(), trial.followup.tolist(), trial.event.tolist(), z.tolist())
        write_trial_csv(path, [[f"s{i}", arm, repr(entry), repr(followup), event, *map(repr, zi)]
                               for i, (arm, entry, followup, event, zi) in enumerate(zip(*columns))],
                        covariate_names=[f"z{j + 1}" for j in range(z.shape[1])])
        return str(path)

    def test_shifted_covariate_gives_the_unshifted_analysis(self, tmp_path, capsys):
        # z1 + 1000 overflowed the risk sums before the snapshot standardized covariates: exit 4, delta 0.0512
        trial = draw_trial(SimScenario(covariates="bernoulli2", covariate_strength=1.0), np.random.default_rng(5))
        reports = []
        for name, z in (("plain", trial.z), ("shifted", trial.z + [1000.0, 0.0])):
            code, out, err = run_cli(capsys, "analyze", "--data", self.write(tmp_path / f"{name}.csv", trial, z),
                                     "--u", "3.0", "--tau", "1.0", "--report-only")
            assert code == 0 and err == ""
            reports.append(json.loads(out)["analysis"])
        plain, shifted = reports
        assert plain["delta"] == pytest.approx(0.0196714, rel=1e-5)
        for key in ("delta", "info"):
            assert shifted[key] == pytest.approx(plain[key], rel=1e-12, abs=0)

    def test_constant_covariate_exit_4(self, tmp_path, capsys):
        trial = draw_trial(SimScenario(covariates="bernoulli2", covariate_strength=1.0), np.random.default_rng(5))
        z = np.column_stack((trial.z, np.full(len(trial), 0.1)))
        code, out, err = run_cli(capsys, "analyze", "--data", self.write(tmp_path / "constant.csv", trial, z),
                                 "--u", "3.0", "--tau", "1.0", "--report-only")
        assert_typed_error(code, err, 4)
        assert "singular along direction" in err and out == ""


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
        for km in ((), ("--km",)):  # with --km the look also runs through the KM comparator
            code, stdout, err = run_cli(
                capsys, "analyze", "--data", monotone_csv, "--u", "0.2", "--tau", "1.0",
                "--report-only", *km,
            )
            assert code == 4
            assert stdout == ""
            assert "must be finite" in err

    def test_state_left_untouched(self, monotone_csv, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        design = DesignConfig(
            spending=SpendingFunction("cubic_min"), planned_fractions=(0.5, 1.0), i_max=100.0,
        )
        state_path.write_text(json.dumps(MonitoringState(design=design).to_dict()))
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


def scenario_file(tmp_path, **overrides):
    scn = SimScenario(
        n_per_arm=40, shape_offset=-0.3, covariate_strength=math.log(1.5),
        fractions=(0.5, 1.0), **overrides,
    )
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scn.to_dict()))
    return str(path)


def design_file(tmp_path, fractions="0.5,1.0", name="sim_design.json", **spending):
    path = tmp_path / name
    design = DesignConfig(
        spending=SpendingFunction("power_family", rho=3.0, **spending),
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
        doc = json.loads(Path(calib_path).read_text())
        assert doc["schema"] == "rmstgst.calibration/1"
        assert doc["fractions"] == [0.5, 1.0]
        assert "null_log_rate_ratio" in doc
        assert doc["power"]["target_power"] == 0.80
        assert doc["scenario"] == json.loads(Path(scn_path).read_text())
        assert doc["analysis_times"][-1] == pytest.approx(3.0)

    def test_calibrate_without_out_prints_the_calibration(self, calib_setup, capsys):
        _, scn_path, calib_path = calib_setup
        code, stdout, _ = run_cli(capsys, "calibrate", "--scenario", scn_path, "--reps", "120", "--seed", "6")
        assert code == 0
        assert json.loads(stdout) == json.loads(Path(calib_path).read_text())

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
            a = Path(os.path.join(outs[0], fname)).read_bytes()
            b = Path(os.path.join(outs[1], fname)).read_bytes()
            assert a == b
        manifest = json.loads(Path(os.path.join(outs[0], "manifest.json")).read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 9
        assert manifest["methods"] == ["adjusted", "km"]
        assert manifest["inputs"]["calibration"]["sha256"]
        results = Path(os.path.join(outs[0], "results.csv")).read_text().splitlines()
        assert results[0] == "method,stage,cumulative_rejection,mc_se"
        assert len(results) == 1 + 2 * 2

    def test_simulate_manifest_counts_failures_by_type(self, calib_setup, capsys):
        # at u = 0.02 about one subject an arm is enrolled and none has had an event
        tmp_path, scn_path, calib_path = calib_setup
        doc = json.loads(Path(calib_path).read_text())
        doc["analysis_times"][0] = 0.02
        early_path = tmp_path / "early_calibration.json"
        early_path.write_text(json.dumps(doc))
        out_dir = str(tmp_path / "early")
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", scn_path, "--design", design_file(tmp_path),
            "--calibration", str(early_path), "--reps", "6", "--seed", "3",
            "--methods", "adjusted,km,cox", "--out-dir", out_dir,
        )
        assert code == 0
        manifest = json.loads(Path(out_dir, "manifest.json").read_text())
        assert manifest["failures"] == {"adjusted": 6, "km": 6, "cox": 6}
        assert manifest["failures_by_type"] == {m: {"InsufficientEventsError": 6} for m in ("adjusted", "km", "cox")}
        assert manifest["failures_by_stage"] == {m: [6, 0] for m in ("adjusted", "km", "cox")}
        phases = manifest["phase_seconds"]
        assert set(phases) == {"analyses", "draws", "adjusted", "km", "cox", "monitoring"}
        assert all(v > 0 for v in phases.values())
        # one process: the draws and the methods' calls are parts of the analyses' wall time
        assert sum(phases[k] for k in ("draws", "adjusted", "km", "cox")) <= phases["analyses"]

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
        trace = Path(os.path.join(out_dir, "trace.csv")).read_text().splitlines()
        assert trace[0] == "method,stage,delta,info_level,z"
        assert len(trace) == 3
        manifest = json.loads(Path(os.path.join(out_dir, "manifest.json")).read_text())
        assert manifest["effect"] == "null"
        assert "trace" in manifest["outputs"]
        assert list(manifest["failures_by_stage"]) == ["adjusted"] and len(manifest["failures_by_stage"]["adjusted"]) == 2

    def test_simulate_guards(self, calib_setup, capsys):
        tmp_path, scn_path, calib_path = calib_setup
        design_path = design_file(tmp_path)
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", scn_path, "--design", design_path,
            "--reps", "5", "--out-dir", str(tmp_path / "g1"),
        )
        assert code == 2
        assert "the following arguments are required: --calibration" in err
        assert not (tmp_path / "g1").exists()

        mismatched = design_file(tmp_path, fractions="0.25,1.0", name="mismatch.json")
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", scn_path, "--design", mismatched,
            "--calibration", calib_path, "--reps", "5", "--out-dir", str(tmp_path / "g2"),
        )
        assert code == 2
        assert "do not match" in err
        assert not (tmp_path / "g2").exists()

        code, _, err = run_cli(
            capsys, "simulate", "--scenario", scn_path, "--design", design_path,
            "--calibration", calib_path, "--reps", "5", "--methods", "bayes",
            "--out-dir", str(tmp_path / "g3"),
        )
        assert code == 2
        assert "unknown method" in err
        assert not (tmp_path / "g3").exists()

    @pytest.mark.parametrize("methods", ["", ","])
    def test_simulate_empty_method_list_exit_2(self, methods, calib_setup, capsys):
        tmp_path, scn_path, calib_path = calib_setup
        out_dir = tmp_path / "no_methods"
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", scn_path, "--design", design_file(tmp_path),
            "--calibration", calib_path, "--reps", "2", "--methods", methods, "--out-dir", str(out_dir),
        )
        assert_typed_error(code, err, 2)
        assert "no method named; choose from ('adjusted', 'km', 'cox')" in err
        assert not out_dir.exists()

    def test_simulate_repeated_method_exit_2(self, calib_setup, capsys):
        tmp_path, scn_path, calib_path = calib_setup
        out_dir = tmp_path / "twice"
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", scn_path, "--design", design_file(tmp_path),
            "--calibration", calib_path, "--reps", "2", "--methods", "adjusted,adjusted,km",
            "--out-dir", str(out_dir),
        )
        assert_typed_error(code, err, 2)
        assert "'adjusted'" in err and "more than once" in err
        assert out == "" and not out_dir.exists()

    @pytest.mark.parametrize("command, flag", [("calibrate", "--seed"), ("simulate", "--seed")])
    def test_negative_seed_exit_2_before_calibrating(self, command, flag, calib_setup, capsys, monkeypatch):
        tmp_path, scn_path, calib_path = calib_setup
        out_dir = tmp_path / "negative_seed"

        def calibrate(*args, **kwargs):
            raise AssertionError("calibrated before the seeds were checked")

        monkeypatch.setattr(sim_engine, "calibrate", calibrate)
        argv = [command, "--scenario", scn_path, flag, "-1"]
        if command == "simulate":
            argv += ["--design", design_file(tmp_path), "--calibration", calib_path, "--reps", "2",
                     "--out-dir", str(out_dir)]
        code, out, err = run_cli(capsys, *argv)
        assert_typed_error(code, err, 2)
        assert f"{flag} must be >= 0, got -1" in err
        assert out == "" and not out_dir.exists()

    @pytest.mark.parametrize("changes, named", [
        ({"n_per_arm": 41}, "['n_per_arm']"),
        ({"tau": 0.9, "fractions": [0.4, 1.0]}, "['tau', 'fractions']"),
        ({"censoring": None}, "['censoring']"),
    ])
    def test_calibration_of_another_scenario_exit_2(self, changes, named, calib_setup, tmp_path, capsys):
        _, scn_path, calib_path = calib_setup
        doc = {**json.loads(Path(scn_path).read_text()), **changes}
        path = tmp_path / "other_scenario.json"
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", str(path), "--design", design_file(tmp_path),
            "--calibration", calib_path, "--reps", "2", "--out-dir", str(out_dir),
        )
        assert_typed_error(code, err, 2)
        assert calib_path in err and named in err
        assert not out_dir.exists()

    def test_calibration_ignores_the_scenario_log_rate_ratio(self, calib_setup, tmp_path, capsys):
        # no calibrated number depends on it, and --effect as-given simulates the scenario's own value
        _, scn_path, calib_path = calib_setup
        doc = {**json.loads(Path(scn_path).read_text()), "log_rate_ratio": -0.5}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", str(path), "--design", design_file(tmp_path),
            "--calibration", calib_path, "--reps", "2", "--out-dir", str(tmp_path / "out"),
        )
        assert code == 0, err

    @pytest.mark.parametrize("command", ["simulate", "calibrate"])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, command, threads, calib_setup, tmp_path, capsys):
        _, scn_path, calib_path = calib_setup
        argv = {"simulate": ["--design", design_file(tmp_path), "--calibration", calib_path, "--reps", "2",
                             "--out-dir", str(tmp_path / "out")],
                "calibrate": ["--reps", "100", "--out", str(tmp_path / "calibration.json")]}[command]
        code, _, err = run_cli(capsys, command, "--scenario", scn_path, "--threads", threads, *argv)
        assert_typed_error(code, err, 2)
        assert f"--threads must be >= 1, got {threads}" in err
        assert not (tmp_path / "out").exists() and not (tmp_path / "calibration.json").exists()

    def test_threads_come_only_from_the_flag(self, calib_setup, tmp_path, capsys, monkeypatch):
        # the environment names no worker count: --threads, default 1, is the only source
        _, scn_path, _ = calib_setup
        monkeypatch.setenv("RMSTGST_THREADS", "0")
        code, _, err = run_cli(capsys, "calibrate", "--scenario", scn_path, "--reps", "100",
                               "--out", str(tmp_path / "calibration.json"))
        assert code == 0, err

    @pytest.mark.parametrize("flags", [("--alpha", "1.5"), ("--target-power", "1.2"), ("--out", "missing_dir/c.json"),
                                       ("--out", ".")], ids=["alpha", "target_power", "out_directory", "out_is_directory"])
    def test_calibrate_refuses_bad_arguments_before_its_monte_carlo(self, flags, calib_setup, tmp_path, capsys,
                                                                    monkeypatch):
        _, scn_path, _ = calib_setup

        def calibrate_information(*args, **kwargs):
            raise AssertionError("the Monte Carlo ran before the arguments were checked")

        monkeypatch.setattr(sim_engine, "calibrate_information", calibrate_information)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "calibrate", "--scenario", scn_path, "--reps", "100", "--out", "c.json",
                                 *flags)
        assert_typed_error(code, err, 2)
        named = f"cannot write {flags[1]}:" if flags[0] == "--out" else "need alpha in (0,1) and target_power"
        assert named in err
        assert out == "" and list(tmp_path.iterdir()) == []

    def test_simulate_zero_reps_is_a_config_error(self, calib_setup, capsys):
        tmp_path, scn_path, calib_path = calib_setup
        out_dir = tmp_path / "zero_reps"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(
                capsys, "simulate", "--scenario", scn_path, "--design", design_file(tmp_path),
                "--calibration", calib_path, "--reps", "0", "--out-dir", str(out_dir),
            )
        assert_typed_error(code, err, 2)
        assert "--reps must be >= 1, got 0" in err
        assert out == "" and not out_dir.exists()

    @pytest.mark.parametrize("spending, named", [
        ({"alpha": 0.01}, "alpha 0.05 and sidedness two_sided do not match the design's alpha 0.01 and "
                          "sidedness two_sided"),
        ({"sided": "one_sided"}, "alpha 0.05 and sidedness two_sided do not match the design's alpha 0.05 and "
                                 "sidedness one_sided"),
    ])
    def test_power_effect_of_a_calibration_for_another_test_exit_2(self, spending, named, calib_setup, tmp_path,
                                                                   capsys):
        _, scn_path, calib_path = calib_setup
        design = design_file(tmp_path, **spending)
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", scn_path, "--design", design, "--calibration", calib_path,
            "--reps", "2", "--effect", "power", "--out-dir", str(out_dir),
        )
        assert_typed_error(code, err, 2)
        assert f"calibration power {named}" in err
        assert not out_dir.exists()
        for effect in ("null", "as-given"):  # neither offset depends on the test
            code, _, err = run_cli(
                capsys, "simulate", "--scenario", scn_path, "--design", design, "--calibration", calib_path,
                "--reps", "2", "--effect", effect, "--out-dir", str(out_dir),
            )
            assert code == 0, err

    @pytest.mark.parametrize("broken", ["reps", "fractions", "power"])
    def test_malformed_calibration_exit_2(self, broken, calib_setup, tmp_path, capsys):
        _, scn_path, calib_path = calib_setup
        doc = json.loads(Path(calib_path).read_text())
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
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("effect, value", [("null", math.nan), ("power", math.inf), ("as-given", math.nan)])
    def test_non_finite_calibrated_offset_exit_2_before_the_out_dir(self, effect, value, calib_setup, tmp_path,
                                                                   capsys):
        # json reads NaN and Infinity; the calibration refuses either offset when read, whichever --effect is used
        _, scn_path, calib_path = calib_setup
        doc = json.loads(Path(calib_path).read_text())
        if effect == "power":
            doc["power"]["log_rate_ratio"] = value
        else:
            doc["null_log_rate_ratio"] = value
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", scn_path, "--design", design_file(tmp_path),
            "--calibration", str(path), "--reps", "2", "--effect", effect, "--out-dir", str(out_dir),
        )
        assert_typed_error(code, err, 2)
        assert err.startswith(f"error: {path}: malformed calibration: ")
        assert f"log_rate_ratio must be finite, got {value!r}" in err
        assert out == "" and not out_dir.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_log_rate_ratio_past_the_rates_exit_2(self, calib_setup, tmp_path, capsys):
        # arm 1's rates underflow to 0 at this offset, which --effect as-given would simulate as given; the rest of
        # the scenario is the calibration's
        _, scn_path, calib_path = calib_setup
        doc = {**json.loads(Path(scn_path).read_text()), "log_rate_ratio": -800}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", str(path), "--design", design_file(tmp_path),
            "--calibration", calib_path, "--reps", "2", "--effect", "as-given", "--out-dir", str(out_dir),
        )
        assert_typed_error(code, err, 2)
        assert err == (f"error: {path}: malformed scenario: log_rate_ratio -800.0 gives Weibull rates that are not "
                       "finite and > 0 at treatment rate offsets in [-800.0] (rate_base 0.916290731874155)\n")
        assert out == "" and not out_dir.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_covariate_strength_past_the_rates_exit_2(self, calib_setup, tmp_path, capsys):
        _, _, calib_path = calib_setup
        scn_path = tmp_path / "scenario.json"
        scn_path.write_text(json.dumps({"schema": "rmstgst.scenario/1", "n_per_arm": 50, "covariate_strength": 800.0,
                                        "censoring": None}))
        for argv in (["calibrate", "--reps", "10", "--out", str(tmp_path / "calibration.json")],
                     ["simulate", "--design", design_file(tmp_path), "--calibration", calib_path, "--reps", "2",
                      "--out-dir", str(tmp_path / "out")]):
            code, out, err = run_cli(capsys, argv[0], "--scenario", str(scn_path), *argv[1:])
            assert_typed_error(code, err, 2)
            assert "covariate_strength 800.0 gives Weibull rates that are not finite and > 0" in err and out == ""
        assert sorted(tmp_path.iterdir()) == [scn_path, tmp_path / "sim_design.json"]  # neither output was made

    def test_overflowing_weibull_draws_exit_4(self, tmp_path):
        # at shape 0.001 the drawn event times overflow, so every replicate fails as DataError, with no warning
        scn_path = tmp_path / "scenario.json"
        scn_path.write_text(json.dumps({"n_per_arm": 50, "shape_base": 0.001, "shape_offset": 0, "censoring": None}))
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "rmstgst", "calibrate",
                               "--scenario", str(scn_path), "--reps", "100"], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 4 and proc.stdout == ""
        assert proc.stderr == ("error: information calibration failed at the trial end: 0 of 100 replicates "
                               "analyzed, 90 needed; failures {'DataError': 100}\n")

    @pytest.mark.parametrize("cap", [-1.0, 0.0, math.nan])
    def test_bad_method_cap_exit_2(self, cap, calib_setup, tmp_path, capsys):
        _, scn_path, calib_path = calib_setup
        doc = json.loads(Path(calib_path).read_text())
        doc["i_max_by_method"]["km"] = cap
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", scn_path, "--design", design_file(tmp_path),
            "--calibration", str(path), "--reps", "2", "--methods", "adjusted,km",
            "--out-dir", str(tmp_path / "out"),
        )
        assert_typed_error(code, err, 2)
        rule = (f"i_max_by_method must be finite, got {doc['i_max_by_method']!r}" if math.isnan(cap)
                else f"km i_max must be > 0, got {cap!r}")
        assert err == f"error: {path}: malformed calibration: {rule}\n"

    def test_calibration_without_a_comparator_cap_exit_2(self, calib_setup, tmp_path, capsys):
        _, scn_path, calib_path = calib_setup
        doc = json.loads(Path(calib_path).read_text())
        del doc["i_max_by_method"]["cox"]
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", scn_path, "--design", design_file(tmp_path),
            "--calibration", str(path), "--reps", "2", "--methods", "adjusted,cox",
            "--out-dir", str(tmp_path / "out"),
        )
        assert_typed_error(code, err, 2)
        assert ("calibration lacks an information cap for method 'cox': calibrate gives a comparator a cap only "
                "when at least 90% of its trial-end analyses succeed") in err
        assert not (tmp_path / "out").exists()  # refused before the output directory is made

    @pytest.mark.parametrize("typo", ["n_per_am", "shape_ofset"])
    def test_unknown_scenario_key_exit_2(self, typo, calib_setup, tmp_path, capsys):
        _, scn_path, calib_path = calib_setup
        doc = json.loads(Path(scn_path).read_text())
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
        doc = json.loads(Path(scn_path).read_text())
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
        doc = json.loads(Path(scn_path).read_text())
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
        doc = json.loads(Path(calib_path).read_text())
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


BAD_INPUTS = {
    "not_utf8": lambda path: path.write_bytes(b'{"schema": "\xff"}'),
    "directory": lambda path: path.mkdir(),
    "truncated": lambda path: path.write_text('{\n  "schema": '),
    "missing": lambda path: None,
}


class TestFileBoundary:
    """A file the CLI cannot read or write is one typed error line, never a traceback, and leaves nothing behind."""

    @pytest.mark.parametrize("broken", list(BAD_INPUTS))
    @pytest.mark.parametrize("flag, expected", [("--scenario", 2), ("--design", 2), ("--calibration", 2),
                                                ("--schema", 3)])
    def test_unreadable_input(self, flag, expected, broken, trial_csv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        BAD_INPUTS[broken](bad)
        if flag == "--schema":
            argv = ["analyze", "--data", trial_csv, "--u", "3.0", "--tau", "1.0", "--report-only"]
        else:  # the inputs are read before any calibration, so the unread one may be missing
            argv = ["simulate", "--scenario", scenario_file(tmp_path), "--design", design_file(tmp_path),
                    "--calibration", str(tmp_path / "unread.json"), "--reps", "2",
                    "--out-dir", str(tmp_path / "out")]
        code, _, err = run_cli(capsys, *argv, flag, str(bad))
        assert_typed_error(code, err, expected)
        assert str(bad) in err
        if broken == "truncated":
            assert "not valid JSON at line 2 column 13" in err
        if broken == "not_utf8":
            assert f"{bad}: line 1: not UTF-8 text (invalid start byte)" in err

    def test_design_out_in_missing_directory_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "d.json"
        code, _, err = run_cli(capsys, "design", "--spending", "cubic_min", "--fractions", "0.5,1.0",
                               "--out", str(out))
        assert_typed_error(code, err, 2)
        assert str(out) in err
        assert not out.parent.exists()

    def test_simulate_out_dir_under_a_file_exit_2(self, calib_setup, tmp_path, capsys):
        _, scn_path, calib_path = calib_setup
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out_dir = blocker / "out"
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", scn_path, "--design", design_file(tmp_path),
            "--calibration", calib_path, "--reps", "2", "--out-dir", str(out_dir),
        )
        assert_typed_error(code, err, 2)
        assert str(out_dir) in err
        assert blocker.read_text() == ""

    def test_analyze_state_in_missing_directory_exit_5(self, trial_csv, design_json, tmp_path, capsys):
        state_path = tmp_path / "missing" / "state.json"
        code, _, err = run_cli(
            capsys, "analyze", "--data", trial_csv, "--u", "1.4", "--tau", "1.0",
            "--state", str(state_path), "--design", design_json,
        )
        assert_typed_error(code, err, 5)
        assert str(state_path) in err
        assert not state_path.parent.exists()

    @pytest.mark.parametrize("fails", ["fsync", "link", "replace"])
    def test_failed_state_write_leaves_the_state_and_nothing_else(self, fails, trial_csv, design_json, tmp_path,
                                                                  capsys, monkeypatch):
        state_path = tmp_path / "state.json"
        look = ["analyze", "--data", trial_csv, "--tau", "1.0", "--state", str(state_path)]
        assert run_cli(capsys, *look, "--u", "1.4", "--design", design_json)[0] == 0
        before = state_path.read_bytes()

        def broken(*args):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(os, fails, broken)
        code, _, err = run_cli(capsys, *look, "--u", "2.0")
        monkeypatch.undo()
        assert_typed_error(code, err, 5)
        assert str(state_path) in err and "Input/output error" in err
        assert state_path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["design.json", "state.json", "trial.csv"]

    @staticmethod
    def look(capsys, trial_csv, design_json, state_path, k):
        """The monitored look ``k`` (0, 1 or 2) of one trial; the first starts the state on ``design_json``."""
        first = ["--design", design_json] if k == 0 else []
        return run_cli(capsys, "analyze", "--data", trial_csv, "--tau", "1.0", "--state", str(state_path),
                       "--u", ("1.4", "2.0", "2.5")[k], *first)

    def test_a_rewrite_keeps_the_version_it_replaced_as_the_spare(self, trial_csv, design_json, tmp_path, capsys):
        # freeing a replaced file's blocks costs tens of ms on storage with online discard, so no look frees one
        state_path, spare = tmp_path / "state.json", tmp_path / ".state.json.spare"
        inodes, texts = [], []
        for k in range(3):
            assert self.look(capsys, trial_csv, design_json, state_path, k)[0] == 0
            inodes.append(state_path.stat().st_ino)
            texts.append(state_path.read_bytes())
        assert inodes[2] == inodes[0] != inodes[1] == spare.stat().st_ino
        assert spare.read_bytes() == texts[1]
        assert sorted(os.listdir(tmp_path)) == [".state.json.spare", "design.json", "state.json", "trial.csv"]

    @pytest.mark.parametrize("fails", ["fsync", "link", "replace"])
    def test_failed_rewrite_leaves_the_state_and_its_spare(self, fails, trial_csv, design_json, tmp_path, capsys,
                                                           monkeypatch):
        state_path = tmp_path / "state.json"
        for k in range(2):
            assert self.look(capsys, trial_csv, design_json, state_path, k)[0] == 0
        before, names = state_path.read_bytes(), sorted(os.listdir(tmp_path))

        def broken(*args):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(os, fails, broken)
        code, _, err = self.look(capsys, trial_csv, design_json, state_path, 2)
        monkeypatch.undo()
        assert_typed_error(code, err, 5)
        assert str(state_path) in err and "Input/output error" in err
        assert state_path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == names == [".state.json.spare", "design.json", "state.json",
                                                         "trial.csv"]

    @pytest.mark.parametrize("make", [os.symlink, os.link], ids=["symlink", "hard_link"])
    def test_a_spare_that_reaches_the_state_is_never_written_through(self, make, trial_csv, design_json, tmp_path,
                                                                     capsys):
        fresh, here = tmp_path / "fresh", tmp_path / "here"
        fresh.mkdir()
        here.mkdir()
        for k in range(3):
            assert self.look(capsys, trial_csv, design_json, fresh / "state.json", k)[0] == 0
        for k in range(2):
            assert self.look(capsys, trial_csv, design_json, here / "state.json", k)[0] == 0
        before, spare = (here / "state.json").read_bytes(), here / ".state.json.spare"
        spare.unlink()
        make(here / "state.json", spare)
        assert self.look(capsys, trial_csv, design_json, here / "state.json", 2)[0] == 0
        assert (here / "state.json").read_bytes() == (fresh / "state.json").read_bytes()
        assert not spare.is_symlink() and spare.read_bytes() == before  # the replaced version, untouched
        assert sorted(os.listdir(here)) == [".state.json.spare", "state.json"]

    def test_a_filesystem_without_hard_links_replaces_the_state(self, trial_csv, design_json, tmp_path, capsys,
                                                                monkeypatch):
        state_path = tmp_path / "state.json"
        assert self.look(capsys, trial_csv, design_json, state_path, 0)[0] == 0

        def refused(*args):
            raise OSError(errno.EPERM, "Operation not permitted")

        monkeypatch.setattr(os, "link", refused)
        assert self.look(capsys, trial_csv, design_json, state_path, 1)[0] == 0
        monkeypatch.undo()
        assert [a.u for a in MonitoringState.read(str(state_path)).analyses] == [1.4, 2.0]
        assert sorted(os.listdir(tmp_path)) == ["design.json", "state.json", "trial.csv"]

    def test_concurrent_rewrites_publish_only_whole_versions(self, tmp_path):
        # each write renames the spare to its own name before it writes, so no two writers share a file
        path, texts = tmp_path / "out.txt", [str(k) * 4096 for k in range(3)]
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(len(texts) + 1)
        children = [ctx.Process(target=_write_in_child, args=(str(path), text, 60, barrier)) for text in texts]
        try:
            for child in children:
                child.start()
            barrier.wait(timeout=60)
            while any(child.is_alive() for child in children):
                with suppress(FileNotFoundError):
                    assert path.read_text() in texts
            for child in children:
                child.join(timeout=60)
            assert not any(child.is_alive() for child in children)
        finally:
            for child in children:
                if child.is_alive():
                    child.terminate()
        assert [child.exitcode for child in children] == [0] * len(texts)
        assert path.read_text() in texts

    def test_every_version_gets_a_new_files_mode(self, trial_csv, design_json, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        assert self.look(capsys, trial_csv, design_json, state_path, 0)[0] == 0
        mode = stat.S_IMODE(state_path.stat().st_mode)
        state_path.chmod(0o600)
        for k in (1, 2):  # look 2 reuses look 1's file
            assert self.look(capsys, trial_csv, design_json, state_path, k)[0] == 0
            assert stat.S_IMODE(state_path.stat().st_mode) == mode != 0o600

    def test_a_shorter_rewrite_leaves_no_tail(self, tmp_path, capsys):
        # the third write reuses the first's longer file as its spare
        out, fresh = tmp_path / "d.json", tmp_path / "fresh.json"
        for fractions, path in (("0.2,0.4,0.6,0.8,1.0", out), ("0.2,0.4,0.6,0.8,1.0", out), ("0.5,1.0", out),
                                ("0.5,1.0", fresh)):
            assert run_cli(capsys, "design", "--spending", "cubic_min", "--fractions", fractions,
                           "--out", str(path))[0] == 0
        assert out.read_bytes() == fresh.read_bytes()
        assert len((tmp_path / ".d.json.spare").read_bytes()) > len(out.read_bytes())


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
                "--lock-time", "3.0", "--state", state_path,
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
        state = MonitoringState.read(state_path)
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
  "analyses": [
    {
      "critical_value": 2.7,
      "cumulative_spend": 0.003,
      "decision": "continue",
      "final": false,
      "info_fraction": 0.5,
      "info_level": 60.0,
      "stage": 1,
      "tau": 1.0,
      "u": 1.5,
      "z": 1.25
    },
    {
      "critical_value": null,
      "cumulative_spend": 0.003,
      "decision": "skipped",
      "final": false,
      "info_fraction": 0.4583333333333333,
      "info_level": 55.0,
      "stage": 2,
      "tau": 1.0,
      "u": 2.0,
      "z": 0.5
    },
    {
      "critical_value": null,
      "cumulative_spend": 0.025,
      "decision": "continue",
      "final": true,
      "info_fraction": 1.0833333333333333,
      "info_level": 130.0,
      "stage": 3,
      "tau": 1.0,
      "u": 3.0,
      "z": 2.25
    }
  ],
  "design": {
    "alpha": 0.05,
    "i_max": 120.0,
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
  },
  "schema": "rmstgst.state/1"
}
"""

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

    Floats that the calibration computes are masked in the text and
    compared to a tolerance; every other character, ``null``, integer
    and boolean included, must match.
    """

    def test_state_json(self):
        design = DesignConfig(SpendingFunction("power_family", rho=2.0, sided="one_sided"), (0.5, 1.0), i_max=120.0)
        analyses = (
            AnalysisRecord(1, 1.5, 60.0, 0.5, 1.25, 2.7, 0.003, "continue", tau=1.0),
            AnalysisRecord(2, 2.0, 55.0, 0.4583333333333333, 0.5, None, 0.003, "skipped", tau=1.0),
            AnalysisRecord(3, 3.0, 130.0, 1.0833333333333333, 2.25, math.inf, 0.025, "continue", final=True,
                           tau=1.0),
        )
        state = MonitoringState(design=design, analyses=analyses)
        assert cli._json_text(state.to_dict()) + "\n" == GOLDEN_STATE  # as analyze writes it
        assert MonitoringState.from_dict(json.loads(GOLDEN_STATE)) == state

    def test_design_file(self, tmp_path, capsys):
        out = tmp_path / "design.json"
        code, _, _ = run_cli(
            capsys, "design", "--spending", "power_family", "--rho", "2", "--sides", "one_sided",
            "--fractions", "0.5,1.0", "--i-max", "200", "--out", str(out),
        )
        assert code == 0
        assert out.read_text() == GOLDEN_DESIGN

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
            [sys.executable, "-m", "rmstgst", "design", "--spending", "cubic_min",
             "--fractions", "1.0"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "1.95996" in proc.stdout

    @pytest.mark.parametrize("command", ["km-compare", "boundaries"])
    def test_deleted_command_exit_2(self, command, capsys):
        code, stdout, err = run_cli(capsys, command, "--help")
        assert code == 2 and stdout == ""
        assert f"invalid choice: '{command}'" in err

    def test_version_flag(self, capsys):
        code, stdout, _ = run_cli(capsys, "--version")
        assert code == 0
        assert stdout.startswith("rmstgst ")
