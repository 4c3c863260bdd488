"""The benchmark's three workloads: inputs from a seed, timed operations, gate.

Every workload drives a real ``rmstgst`` command with ``--threads 1``.
A run with seed ``s`` runs units of work on reference cases
``s, s+1, ...`` (modulo the number of recorded cases). The number of
units is fixed by ``--seconds`` and the workload's nominal unit time, not
by the clock, so the same seed and seconds give the same operations, the
same outputs and the same failures on every run, and every output has a
reference to be checked against.

* interim_large: one unit is a monitored sequence of five looks on a
  fresh 5 000-per-arm trial, each look a cold ``rmstgst analyze`` child.
* simulate_oc: one unit is one in-process ``rmstgst simulate`` command.
* calibrate_info: one unit is one in-process ``rmstgst calibrate`` command.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import gate
from common import BENCH_DIR, DATA, REFS, BenchError, run_child, self_peak_rss_mb
from speed import SpeedProbe


@dataclass
class Op:
    """One timed operation and the output the gate checks.

    ``index`` is the operation's place in its unit of work (the look on
    interim_large, 0 elsewhere); ``seconds`` is raw wall time; ``factor``
    is the machine's speed factor around the operation (speed.py).
    """

    case: int
    index: int
    seconds: float
    factor: float
    rss_mb: float
    got: dict
    trace: dict | None = None


class Workload:
    name = ""
    cases = 0
    in_process = True
    ref_file = ""
    memory_bound = False  # picks the speed factor, see speed.py
    gate_check = None  # one of gate.check_*: (label, reference, output) -> (failed, problems)
    unit_s = 1.0  # nominal raw seconds of one unit of work on the tuning machine

    def __init__(self):
        self.work: Path | None = None
        self._units = 0
        self._refs: list | None = None
        self._speed = None
        self._factor = 1.0

    def measure_speed(self) -> float:
        """Speed factor now; the next operation averages it with the one after it."""
        if self._speed is None:
            self._speed = SpeedProbe()
        self._factor = self._speed.factor(self.memory_bound)
        return self._factor

    def close(self) -> None:
        if self._speed is not None:
            self._speed.close()
            self._speed = None

    def _factor_around(self) -> float:
        return 0.5 * (self._factor + self.measure_speed())

    def units(self, seconds: float) -> int:
        """How many units of work a run of ``seconds`` makes."""
        return max(1, round(seconds / self.unit_s))

    def setup(self, work: Path, first_case: int) -> None:
        """Prepare inputs under ``work`` and call the entry point once on a tiny input."""
        raise NotImplementedError

    def run_unit(self, case: int, traced: bool = False) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op) -> tuple[bool, list[str]]:
        if self._refs is None:
            with open(REFS / self.ref_file, encoding="utf-8") as fh:
                self._refs = json.load(fh)["cases"]
        return self.gate_check(self.label(op), self._refs[op.case][op.index], op.got)

    def label(self, op: Op) -> str:
        return f"{self.name} case {op.case} op {op.index}"


def _run_cli(argv: list[str]) -> tuple[float, int]:
    """Call ``rmstgst.cli.main`` in this process; time it, keep its stdout quiet."""
    import rmstgst.cli

    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = rmstgst.cli.main(argv)
    except Exception:  # an uncaught exception is a failed operation, not a crashed run
        traceback.print_exc()
        code = -1
    return time.perf_counter() - start, code


def _tiny_call(argv: list[str]) -> None:
    _, code = _run_cli(argv)
    if code != 0:
        raise BenchError(f"set-up call failed with exit {code}: rmstgst {' '.join(argv)}")


# --------------------------------------------------------------------------
# interim_large


INTERIM_N_PER_ARM = 5000
INTERIM_LOOKS = (1.0, 1.5, 2.0, 2.5, 3.0)
INTERIM_TAU = 1.0
INTERIM_ACCRUAL = 2.0
INTERIM_SHAPE = 1.5
INTERIM_S1 = 0.4
INTERIM_CENSOR_RATE = -math.log(0.95)
# Mean adjusted information at the final look (u = 3) over the recorded
# cases whose final look converges at the seed code (27 830, range
# 27 074-28 326); the design's i_max sits close to it.
INTERIM_I_MAX = 27800.0
INTERIM_DATA_TAG = 91


def write_interim_csv(path: Path, case: int, n_per_arm: int = INTERIM_N_PER_ARM) -> None:
    """A two-arm trial with no treatment effect, locked at accrual + tau.

    Weibull shape 1.5 with S(1) = 0.4 at average covariates; one standard
    normal covariate and Bernoulli(0.3) and Bernoulli(0.5) covariates,
    each with log hazard ratio log(1.5)/sqrt(3) per standard deviation;
    uniform entry over 2 years and exponential censoring at 5% per year.
    """
    import numpy as np

    rng = np.random.default_rng((INTERIM_DATA_TAG, case, n_per_arm))
    n = 2 * n_per_arm
    arm = np.repeat([0, 1], n_per_arm)
    x1 = rng.standard_normal(n)
    x2 = (rng.random(n) < 0.3).astype(np.int64)
    x3 = (rng.random(n) < 0.5).astype(np.int64)
    lin = math.log(1.5) / math.sqrt(3.0) * (
        x1 + (x2 - 0.3) / math.sqrt(0.21) + (x3 - 0.5) / 0.5
    )
    rate = -math.log(INTERIM_S1) * np.exp(lin)
    event_time = (-np.log1p(-rng.random(n)) / rate) ** (1.0 / INTERIM_SHAPE)
    censor = rng.exponential(1.0 / INTERIM_CENSOR_RATE, n)
    entry = rng.uniform(0.0, INTERIM_ACCRUAL, n)
    cap = np.minimum(censor, INTERIM_ACCRUAL + INTERIM_TAU - entry)
    followup = np.minimum(event_time, cap)
    event = (event_time <= cap).astype(np.int64)
    rows = zip(arm.tolist(), entry.tolist(), followup.tolist(), event.tolist(),
               x1.tolist(), x2.tolist(), x3.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,arm,entry_time,followup_time,event,x1,x2,x3\n")
        for i, (a, e, f, d, c1, c2, c3) in enumerate(rows):
            fh.write(f"s{i},{a},{e!r},{f!r},{d},{c1!r},{c2},{c3}\n")


class InterimLarge(Workload):
    name = "interim_large"
    cases = 16
    in_process = False
    memory_bound = True
    ref_file = "interim_large.json"
    gate_check = staticmethod(gate.check_look)
    unit_s = 8.5

    def setup(self, work: Path, first_case: int) -> None:
        self.work = work
        self.csv_path(first_case)
        self.design = work / "design.json"
        with open(self.design, "w", encoding="utf-8") as fh:
            json.dump({
                "schema": "rmstgst.design/1",
                "alpha": 0.05,
                "sidedness": "two_sided",
                "spending": {"kind": "obrien_fleming_like"},
                "planned_fractions": [0.2, 0.4, 0.6, 0.8, 1.0],
                "i_max": INTERIM_I_MAX,
            }, fh)
        tiny = work / "tiny.csv"
        write_interim_csv(tiny, 0, n_per_arm=20)
        run = run_child(self._command(tiny, 3.0, work / "tiny-state.json", first=True, final=False),
                        work, "tiny")
        if run.exit != 0:
            raise BenchError(f"set-up look failed with exit {run.exit}: {run.stderr.strip()}")

    def csv_path(self, case: int) -> Path:
        path = self.work / f"trial-{case}.csv"
        if not path.exists():
            write_interim_csv(path, case)
        return path

    def _command(self, csv: Path, u: float, state: Path, first: bool, final: bool,
                 spans: Path | None = None) -> list[str]:
        args = ["analyze", "--data", str(csv), "--u", repr(u), "--tau", repr(INTERIM_TAU),
                "--state", str(state), "--km"]
        if first:
            args += ["--design", str(self.design)]
        if final:
            args.append("--final")
        if spans is None:
            return [sys.executable, "-m", "rmstgst", *args]
        return [sys.executable, str(BENCH_DIR / "look.py"), str(spans), *args]

    def run_unit(self, case: int, traced: bool = False) -> list[Op]:
        csv = self.csv_path(case)
        self._units += 1
        tag = f"seq{self._units}"
        state = self.work / f"{tag}-state.json"
        ops = []
        for k, u in enumerate(INTERIM_LOOKS):
            spans = self.work / f"{tag}-look{k}-spans.json" if traced else None
            argv = self._command(csv, u, state, first=(k == 0),
                                 final=(k == len(INTERIM_LOOKS) - 1), spans=spans)
            run = run_child(argv, self.work, f"{tag}-look{k}")
            if run.exit != 0:
                sys.stderr.write(f"{self.name} case {case} look {k}: exit {run.exit}: "
                                 f"{run.stderr.strip()[-300:]}\n")
            trace = None
            if traced and spans.exists():
                with open(spans, encoding="utf-8") as fh:
                    trace = json.load(fh)
            ops.append(Op(case, k, run.seconds, self._factor_around(), run.rss_mb,
                          self._summary(run), trace))
        return ops

    @staticmethod
    def _summary(run) -> dict:
        if run.exit != 0:
            return {"exit": run.exit}
        try:
            report = json.loads(run.stdout)
            analysis, monitoring = report["analysis"], report["monitoring"]
            return {
                "exit": 0,
                "delta": analysis["delta"],
                "se": analysis["se"],
                "z": analysis["z"],
                "info": analysis["info"],
                "decision": monitoring["decision"],
                "critical_value": monitoring["critical_value"],
            }
        except (ValueError, KeyError, TypeError):
            return {"exit": 0}

    def label(self, op: Op) -> str:
        return f"{self.name} case {op.case} look u={INTERIM_LOOKS[op.index]}"


# --------------------------------------------------------------------------
# simulate_oc and calibrate_info


class SimulateOc(Workload):
    name = "simulate_oc"
    cases = 48
    ref_file = "simulate_oc.json"
    gate_check = staticmethod(gate.check_simulation)
    unit_s = 2.5
    reps = 100
    methods = ("adjusted", "km", "cox")

    def _argv(self, scenario: str, calibration: str, reps: int, seed: int, out_dir: Path) -> list[str]:
        return ["simulate", "--scenario", str(DATA / scenario), "--design", str(DATA / "sim_design.json"),
                "--calibration", str(DATA / calibration), "--reps", str(reps), "--seed", str(seed),
                "--threads", "1", "--methods", ",".join(self.methods), "--effect", "power",
                "--out-dir", str(out_dir)]

    def setup(self, work: Path, first_case: int) -> None:
        self.work = work
        _tiny_call(self._argv("tiny_sim_scenario.json", "tiny_sim_calibration.json", 2, 0, work / "tiny"))

    def run_unit(self, case: int, traced: bool = False) -> list[Op]:
        self._units += 1
        out_dir = self.work / f"sim{self._units}"
        seconds, code = _run_cli(self._argv("sim_scenario.json", "sim_calibration.json",
                                            self.reps, case, out_dir))
        return [Op(case, 0, seconds, self._factor_around(), self_peak_rss_mb(),
                   self._summary(code, out_dir))]

    def _summary(self, code: int, out_dir: Path) -> dict:
        if code != 0:
            return {"exit": code}
        rejections = {m: [] for m in self.methods}
        with open(out_dir / "results.csv", encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                method, _, cumulative, _ = line.strip().split(",")
                rejections[method].append(round(float(cumulative) * self.reps))
        with open(out_dir / "manifest.json", encoding="utf-8") as fh:
            failures = json.load(fh)["failures"]
        return {"exit": 0, "rejections": rejections,
                "failures": {m: _total(v) for m, v in failures.items()}}


def _total(value):
    """A failure count, given as an int or as a dict of counts by kind."""
    if isinstance(value, dict):
        return value["total"] if "total" in value else sum(_total(v) for v in value.values())
    return int(value)


class CalibrateInfo(Workload):
    name = "calibrate_info"
    cases = 24
    ref_file = "calibrate_info.json"
    gate_check = staticmethod(gate.check_calibration)
    unit_s = 5.0
    reps = 100

    @staticmethod
    def _argv(scenario: str, seed: int, out: Path) -> list[str]:
        return ["calibrate", "--scenario", str(DATA / scenario), "--reps", str(CalibrateInfo.reps),
                "--seed", str(seed), "--threads", "1", "--out", str(out)]

    def setup(self, work: Path, first_case: int) -> None:
        self.work = work
        _tiny_call(self._argv("tiny_cal_scenario.json", 0, work / "tiny-calibration.json"))

    def run_unit(self, case: int, traced: bool = False) -> list[Op]:
        self._units += 1
        out = self.work / f"calibration{self._units}.json"
        seconds, code = _run_cli(self._argv("cal_scenario.json", case, out))
        return [Op(case, 0, seconds, self._factor_around(), self_peak_rss_mb(),
                   self._summary(code, out))]

    @staticmethod
    def _summary(code: int, out: Path) -> dict:
        if code != 0:
            return {"exit": code}
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        return {"exit": 0, "i_max": doc["i_max"], "analysis_times": doc["analysis_times"],
                "power_log_rate_ratio": doc["power"]["log_rate_ratio"]}


WORKLOADS = {w.name: w for w in (InterimLarge, SimulateOc, CalibrateInfo)}
