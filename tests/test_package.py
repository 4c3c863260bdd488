"""Package-level checks."""

from __future__ import annotations

import csv
import gc
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rmstgst
import rmstgst.__main__ as process_entry
from rmstgst.gs_design import DesignConfig, MonitoringState, SpendingFunction
from rmstgst.sim_engine import SimScenario

# a fresh process's code starts with BEFORE and ends with _loaded(...), so that a module the interpreter
# loaded at start-up is not counted
BEFORE = "import sys; before = set(sys.modules)\n"
SCIPY = "m == 'scipy' or m.startswith('scipy.')"
ENGINE = "m in ('rmstgst.sim_engine', 'multiprocessing', 'concurrent.futures')"  # with its process pool
HASHLIB = "m in ('hashlib', '_hashlib')"  # maps OpenSSL's libcrypto; only simulate hashes its files
POOL = "m in ('multiprocessing', 'concurrent.futures.process')"  # only a run across processes loads it


def _loaded(*kinds: str) -> str:
    """Code that prints, sorted, the modules of any of these kinds loaded since ``before``."""
    return f"print(sorted(m for m in set(sys.modules) - before if {' or '.join(kinds)}))"


def test_every_public_name_exists():
    missing = []
    for info in pkgutil.iter_modules(rmstgst.__path__):
        module = importlib.import_module(f"rmstgst.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def _fresh(code: str, check: bool = True) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's ``rmstgst``."""
    src = str(Path(rmstgst.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=check)


def _run_fresh(code: str) -> str:
    return _fresh(code).stdout.strip().splitlines()[-1]


def test_importing_the_process_entry_runs_no_command():
    out = _fresh("import rmstgst.__main__", check=False)
    assert (out.returncode, out.stdout) == (0, ""), out.stderr


def test_process_entry_freezes_the_heap_once_main_has_returned(monkeypatch):
    calls = []
    monkeypatch.setattr(process_entry, "main", lambda: calls.append("main") or 4)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    assert process_entry.run() == 4
    assert calls == ["main", "freeze"]


def test_process_entry_does_not_freeze_when_main_raises(monkeypatch):
    calls = []

    def failing():
        raise RuntimeError("main failed")

    monkeypatch.setattr(process_entry, "main", failing)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(RuntimeError, match="main failed"):
        process_entry.run()
    assert calls == []


def test_cli_import_leaves_scipy_stats_unloaded():
    # Importing scipy.special alone costs about a quarter second of every cold command;
    # the normal cdf and quantile come from math.erfc and statistics.NormalDist.
    assert _run_fresh(f"{BEFORE}import rmstgst.cli\n{_loaded(SCIPY, ENGINE, HASHLIB)}") == "[]"


def test_cold_monitored_analyze_loads_no_solver_modules(tmp_path):
    """Two monitored looks, the second solving a stage, a side-by-side report-only look and two designs
    load no scipy, not the simulation engine or its process pool, and not hashlib."""
    rng = np.random.default_rng(5)
    data = tmp_path / "trial.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "arm", "entry_time", "followup_time", "event", "z1"])
        for i in range(160):
            t, entry = rng.exponential(1.0), rng.uniform(0.0, 2.0)
            writer.writerow([f"s{i}", i % 2, entry, min(t, 3.0 - entry), int(t <= 3.0 - entry), rng.normal()])
    design = tmp_path / "design.json"
    design.write_text(json.dumps(DesignConfig(SpendingFunction("cubic_min"), (0.5, 1.0), i_max=200.0).to_dict()))
    state = tmp_path / "state.json"
    look = ["analyze", "--data", str(data), "--tau", "1.0", "--state", str(state), "--km"]
    first = look + ["--u", "1.5", "--design", str(design)]
    near_tie = ["design", "--spending", "obrien_fleming_like", "--fractions", "0.1,0.1001,1.0"]
    plan = ["design", "--spending", "pocock_like", "--fractions", "0.5,1.0", "--i-max", "200"]
    report = ["analyze", "--data", str(data), "--u", "3.0", "--tau", "1.0", "--km", "--report-only"]
    code = (
        f"{BEFORE}from rmstgst import cli\n"
        f"assert cli.main({first!r}) == 0 and cli.main({look + ['--u', '3.0']!r}) == 0\n"
        f"assert cli.main({report!r}) == 0 and cli.main({near_tie!r}) == 0 and cli.main({plan!r}) == 0\n"
        + _loaded(SCIPY, ENGINE, HASHLIB)
    )
    assert _run_fresh(code) == "[]"
    second = MonitoringState.read(state).analyses[1]
    assert second.decision != "skipped" and math.isfinite(second.critical_value)


def test_calibrate_and_simulate_load_no_scipy(tmp_path):
    """A calibration and a simulation on its output run on numpy alone, and at --threads 1 load no
    process pool."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SimScenario(
        n_per_arm=30, accrual=0.6, tau=0.4, rate_base=3.0, shape_offset=-0.3,
        covariate_strength=math.log(1.5), fractions=(0.5, 1.0),
    ).to_dict()))
    design = tmp_path / "design.json"
    design.write_text(json.dumps(DesignConfig(SpendingFunction("cubic_min"), (0.5, 1.0)).to_dict()))
    calibration = tmp_path / "calibration.json"
    # --threads 1 is the default; stated here because this test is about the serial path
    calibrate = ["calibrate", "--scenario", str(scenario), "--reps", "100", "--threads", "1",
                 "--out", str(calibration)]
    simulate = ["simulate", "--scenario", str(scenario), "--design", str(design), "--calibration",
                str(calibration), "--reps", "20", "--effect", "power", "--threads", "1",
                "--out-dir", str(tmp_path / "sim")]
    code = (
        f"{BEFORE}from rmstgst import cli\n"
        f"assert cli.main({calibrate!r}) == 0 and cli.main({simulate!r}) == 0\n"
        + _loaded(SCIPY, POOL)
    )
    assert _run_fresh(code) == "[]"
    doc = json.loads(calibration.read_text())
    assert doc["power"]["delta"] > 0 and math.isfinite(doc["null_log_rate_ratio"])
    assert (tmp_path / "sim" / "results.csv").exists()
