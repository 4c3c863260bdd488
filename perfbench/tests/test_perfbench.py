"""Tests of the benchmark's own machinery, at tiny sizes.

Run with: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import math
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
from tracer import LayerTotals, Tracer, per_layer_metrics, self_times  # noqa: E402
from workloads import write_interim_csv  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def fake_package(name: str, **modules) -> None:
    """Register ``name`` and its submodules (dicts of attributes) in sys.modules."""
    sys.modules[name] = types.ModuleType(name)
    for sub, attrs in modules.items():
        module = types.ModuleType(f"{name}.{sub}")
        module.__dict__.update(attrs)
        sys.modules[f"{name}.{sub}"] = module


def ticking_clock(step: float = 1.0):
    counter = itertools.count()
    return lambda: step * next(counter)


class TestSelfTime:
    def test_nested_calls_split_into_self_times(self):
        def inner(x):
            return x + 1

        layer = {"inner": inner}

        def outer(x):
            return sys.modules["fake_nested.layer"].inner(x) + sys.modules["fake_nested.layer"].inner(x)

        layer["outer"] = outer
        fake_package("fake_nested", layer=layer)
        tracer = Tracer(clock=ticking_clock())
        tracer.install("fake_nested", targets=(("layer", "outer"), ("layer", "inner")))
        assert sys.modules["fake_nested.layer"].outer(1) == 4

        # clock reads: outer start 0, inner 1-2, inner 3-4, outer end 5
        names = [s.name for s in tracer.spans]
        assert names == ["layer.outer", "layer.inner", "layer.inner"]
        assert self_times(tracer.spans) == [3.0, 1.0, 1.0]
        totals = LayerTotals()
        totals.add(tracer.spans, tracer.counts, tracer.absent)
        assert totals.self_s["layer.outer"] == 3.0
        assert totals.self_s["layer.inner"] == 2.0
        assert totals.calls["layer.inner"] == 2
        assert sum(totals.self_s.values()) == 5.0  # the root span's duration

    def test_failed_call_is_counted_and_reraised(self):
        def boom():
            raise ValueError("no")

        fake_package("fake_fail", layer={"boom": boom})
        tracer = Tracer(clock=ticking_clock())
        tracer.install("fake_fail", targets=(("layer", "boom"),))
        with pytest.raises(ValueError):
            sys.modules["fake_fail.layer"].boom()
        assert tracer.spans[0].failed and tracer.spans[0].end == 1.0

    def test_lookup_sites_and_registries_are_wrapped(self):
        def fit():
            return "fit"

        fake_package("fake_sites", model={"fit": fit}, user={"model_fit": fit, "REGISTRY": {"cox": fit}})
        tracer = Tracer(clock=ticking_clock())
        tracer.install("fake_sites", targets=(("model", "fit"),))
        user = sys.modules["fake_sites.user"]
        user.model_fit()
        user.REGISTRY["cox"]()
        assert [s.name for s in tracer.spans] == ["model.fit", "model.fit"]


class TestMissingNames:
    def test_missing_function_and_module_are_noted_not_fatal(self):
        fake_package("fake_missing", layer={"present": lambda: 1})
        tracer = Tracer()
        tracer.install("fake_missing", targets=(("layer", "present"), ("layer", "gone"), ("nomodule", "f")))
        assert tracer.absent == ["layer.gone", "nomodule.f"]

    def test_absent_rmstgst_target_reads_zero_with_note(self):
        totals = LayerTotals()
        totals.add([], {}, ["gs_design.update_monitoring"])
        values, notes = totals.metrics({"cli.import_s": 0.1, "traced_wall_s": 1.0, "trace_overhead_s": 0.0})
        assert values["gs_design.update_monitoring.calls"] == 0
        assert any("gs_design.update_monitoring" in n for n in notes)
        assert set(values) == {name for name, _, _ in per_layer_metrics()}


class TestGate:
    look = {"exit": 0, "delta": 0.0021, "se": 0.0058, "z": 0.362, "decision": "continue",
            "critical_value": 2.0}

    def test_identical_look_passes_and_tiny_drift_is_tolerated(self):
        assert gate.check_look("l", self.look, dict(self.look)) == (False, [])
        drifted = dict(self.look, z=self.look["z"] * (1 + 1e-9))
        assert gate.check_look("l", self.look, drifted) == (False, [])

    def test_perturbed_z_is_flagged(self):
        failed, problems = gate.check_look("l", self.look, dict(self.look, z=self.look["z"] * 1.001))
        assert failed and "z=" in problems[0]

    def test_nan_is_flagged_even_without_a_reference_value(self):
        failed, problems = gate.check_look("l", self.look, dict(self.look, se=math.nan))
        assert failed and "NaN" in problems[0]
        failed, problems = gate.check_look("l", {"exit": 4}, dict(self.look, z=math.nan))
        assert failed and problems

    def test_wrong_decision_is_flagged_unless_borderline(self):
        assert gate.check_look("l", self.look, dict(self.look, decision="reject"))[1]
        edge = dict(self.look, z=2.0 + 1e-8)
        assert gate.check_look("l", dict(edge, decision="continue"), dict(edge, decision="reject")) == (False, [])

    def test_known_failure_counts_as_failed_but_not_wrong(self):
        assert gate.check_look("l", {"exit": 4}, {"exit": 4}) == (True, [])
        assert gate.check_look("l", self.look, {"exit": 4}) == (True, [])
        assert gate.check_calibration("c", {"exit": 0}, {"exit": 1}) == (True, [])

    def test_calibration_and_simulation_perturbations(self):
        cal = {"exit": 0, "i_max": 1400.5, "analysis_times": [1.3, 1.8, 3.0], "power_log_rate_ratio": -0.6}
        assert gate.check_calibration("c", cal, dict(cal)) == (False, [])
        assert gate.check_calibration("c", cal, dict(cal, i_max=1401.0))[1]
        assert gate.check_calibration("c", cal, dict(cal, analysis_times=[1.3, 1.9, 3.0]))[1]
        sim = {"exit": 0, "rejections": {"adjusted": [20, 55, 80]}, "failures": {"adjusted": 0}}
        assert gate.check_simulation("s", sim, json.loads(json.dumps(sim))) == (False, [])
        near = {"exit": 0, "rejections": {"adjusted": [21, 55, 80]}, "failures": {"adjusted": 1}}
        assert gate.check_simulation("s", sim, near) == (False, [])
        off = {"exit": 0, "rejections": {"adjusted": [20, 60, 80]}, "failures": {"adjusted": 0}}
        assert gate.check_simulation("s", sim, off)[1]


class TestMetricNames:
    def test_names_are_valid_unique_and_within_limits(self):
        e2e = [name for name, _, _ in run.END_TO_END]
        layer = [name for name, _, _ in per_layer_metrics()]
        assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
        for name in e2e + layer:
            assert NAME.fullmatch(name), name
        assert len(set(e2e + layer)) == len(e2e) + len(layer)

    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
        assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_metrics()
        assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


class TestRunLength:
    def test_units_depend_on_seconds_not_on_the_clock(self, monkeypatch):
        class Counting(run.WORKLOADS["simulate_oc"]):
            def run_unit(self, case, traced=False):
                self.cases_run.append(case)
                return [case]

        wl = Counting()
        wl.cases_run = []
        monkeypatch.setattr(run.time, "perf_counter", ticking_clock(1000.0))
        assert len(run.timed_run(wl, 47, 25.0)) == wl.units(25.0) == 10
        assert wl.cases_run == [47, *range(9)]

    def test_every_workload_runs_at_least_one_unit(self):
        for wl_class in run.WORKLOADS.values():
            assert wl_class().units(0.1) == 1
            assert wl_class().units(25.0) >= 3


def test_traced_look_on_tiny_trial(tmp_path):
    """A real ``rmstgst analyze`` child under the tracer reports every layer it calls."""
    csv = tmp_path / "tiny.csv"
    write_interim_csv(csv, 0, n_per_arm=40)
    spans = tmp_path / "spans.json"
    argv = [sys.executable, str(BENCH / "look.py"), str(spans), "analyze", "--data", str(csv),
            "--u", "3.0", "--tau", "1.0", "--km", "--report-only"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    doc = json.loads(spans.read_text(encoding="utf-8"))
    totals = LayerTotals()
    totals.add_dump(doc)
    for name in ("cli.main", "trial_data.ingest_csv", "trial_data.snapshot", "stratified_cox.fit",
                 "adjusted_rmst.analyze", "adjusted_rmst.adjusted_survival", "adjusted_rmst.variance",
                 "km_rmst.km_rmst_test"):
        assert totals.calls[name] >= 1, name
    assert totals.counts["trial_data.ingest_csv.rows"] == 80
    assert doc["absent"] == []
    root = next(s for s in doc["spans"] if s["parent"] is None)
    assert sum(totals.self_s.values()) == pytest.approx(root["end"] - root["start"], rel=1e-9)
