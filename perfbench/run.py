"""Benchmark of rmstgst's user-facing commands, end to end and layer by layer.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S

NAME is interim_large, simulate_oc or calibrate_info (see workloads.py).
With ``--trace 0`` the run measures a fixed number of units of work,
sized to take about S seconds, and reports the end-to-end metrics; with
``--trace 1`` it times one unit of work untraced
and the same unit traced, and reports the per-layer metrics. Every
operation is checked against the recorded reference outputs. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record goes to
``perfbench/_results/``. ``--workload all`` runs each workload in its own
process and prints the end-to-end table under the per-workload names
(interim_p50_s, study_reps_per_s, calib_reps_per_s).
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from common import (  # noqa: E402
    BLAS_THREADS, RESULTS, ROOT, THREAD_VARS, WORK, BenchError, check_imported_from_checkout,
    median, pin_cpu, pin_threads, run_child, use_checkout_source,
)
from tracer import LayerTotals, Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# (name, unit, better); see end_to_end_metrics. Times are at reference
# speed (speed.py).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# Set-up is measured in this many fresh processes, each scaled by the
# speed factors measured just before and after it; the median is reported.
SETUP_PROBES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_record(seed: int, pinned_cpu: int | None) -> dict:
    """Where and with what a run was made."""
    import numpy
    import scipy

    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = done.stdout.strip() or sha
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
        "blas_threads": BLAS_THREADS,
        "pinned_cpu": pinned_cpu,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def setup_probe(wl, seed: int, work: Path) -> float:
    """Set-up time of a fresh process, as that process measured it, at reference speed."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
            "--seed", str(seed), "--setup-probe"]
    before = wl.measure_speed()
    run = run_child(argv, work, f"probe{time.perf_counter_ns()}")
    after = wl.measure_speed()
    if run.exit != 0:
        raise BenchError(f"set-up probe failed with exit {run.exit}: {run.stderr.strip()}")
    raw = float(json.loads(run.stdout.strip().splitlines()[-1])["setup_raw_s"])
    return raw / (0.5 * (before + after))


def gate_ops(wl, ops) -> tuple[list[bool], list[str]]:
    """Which operations failed, and every wrong answer found."""
    failed = []
    problems = []
    for op in ops:
        op_failed, op_problems = wl.check(op)
        failed.append(op_failed)
        problems += op_problems
    return failed, problems


def run_workload(args) -> int:
    pin_threads()
    args.cpu = pin_cpu()
    use_checkout_source()
    wl = WORKLOADS[args.workload]()
    first_case = args.seed % wl.cases
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        import rmstgst

        check_imported_from_checkout(rmstgst)
        import_s = None
        if wl.in_process:
            start = time.perf_counter()
            import rmstgst.cli  # noqa: F401

            import_s = time.perf_counter() - start
        wl.setup(work, first_case)
        if args.setup_probe:
            print(json.dumps({"setup_raw_s": time.perf_counter() - T0}))
            return 0
        setup_samples = [setup_probe(wl, args.seed, work) for _ in range(SETUP_PROBES)]
        if args.trace:
            ops, metrics, notes, spans = traced_run(wl, first_case, import_s)
        else:
            ops, notes, spans = timed_run(wl, first_case, args.seconds), [], None
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)

    failed, problems = gate_ops(wl, ops)
    if not args.trace:
        metrics = end_to_end_metrics(ops, failed, setup_samples)
    report(args, wl, ops, metrics, notes, problems, sum(failed), spans)
    return 0


def timed_run(wl, case: int, seconds: float):
    """Units of work on cases ``case, case+1, ...``; how many depends on ``seconds`` only."""
    ops = []
    for _ in range(wl.units(seconds)):
        ops += wl.run_unit(case)
        case = (case + 1) % wl.cases
    return ops


def end_to_end_metrics(ops, failed, setup_samples) -> dict:
    """``setup_s``, ``op_p50_s`` and ``peak_rss_mb`` of a timed run, with sample counts.

    ``op_p50_s`` divides each operation's raw time by the speed factor
    measured around it, takes the median of these over the operations of
    each kind that passed the gate (each look time on interim_large; the
    one command elsewhere) and averages it over the kinds. Scaling each
    operation by its own factor follows the machine's drift within a run
    more closely than one factor for the whole run. Failed operations
    count in ``failed`` instead: a look
    that gives up after 50 Newton iterations says nothing about how long an
    analysis takes. Weighting kinds equally keeps the value independent of
    how many look sequences fit in the run.
    """
    passed = [op for op, bad in zip(ops, failed) if not bad] or ops
    kinds: dict[int, list[float]] = {}
    for op in passed:
        kinds.setdefault(op.index, []).append(op.seconds / op.factor)
    typical = sum(median(times) for times in kinds.values()) / len(kinds)
    return {
        "setup_s": (median(setup_samples), len(setup_samples)),
        "op_p50_s": (typical, len(passed)),
        "peak_rss_mb": (max(op.rss_mb for op in ops), len(ops)),
    }


def traced_run(wl, case: int, import_s: float | None):
    """One unit untraced, then the same unit traced; per-layer metrics from the latter."""
    untraced = wl.run_unit(case)
    totals = LayerTotals()
    if wl.in_process:
        tracer = Tracer()
        tracer.install()
        with tracer.counting_warnings():
            traced = wl.run_unit(case)
        totals.add(tracer.spans, tracer.counts, tracer.absent)
        spans = [tracer.to_dict()]
    else:
        traced = wl.run_unit(case, traced=True)
        docs = [op.trace for op in traced if op.trace is not None]
        for op in traced:
            if op.trace is not None:
                for span in op.trace["spans"]:
                    span["op"] = op.index
                totals.add_dump(op.trace)
        spans = docs
        import_s = median(doc["import_s"] for doc in docs) if docs else 0.0
    traced_wall = sum(op.seconds for op in traced)
    values, notes = totals.metrics({
        "cli.import_s": import_s,
        "traced_wall_s": traced_wall,
        "trace_overhead_s": traced_wall - sum(op.seconds for op in untraced),
    })
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    metrics = {name: (values[name], len(traced)) for name in units}
    return untraced + traced, metrics, notes, spans


def report(args, wl, ops, metrics, notes, problems, failed, spans) -> None:
    units = {name: unit for name, unit, _ in (*END_TO_END, *per_layer_metrics())}
    print(f"{wl.name} seed={args.seed} trace={args.trace}: {len(ops)} operations, {failed} failed")
    print(f"{'metric':<44} {'value':>14} {'unit':<9} samples")
    for name, (value, samples) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {units[name]:<9} {samples}")
    for line in notes:
        print(f"note: {line}")
    for line in problems[:20]:
        print(f"gate: {line}")
    if len(problems) > 20:
        print(f"gate: ... and {len(problems) - 20} more")

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "record": run_record(args.seed, args.cpu),
        "workload": wl.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {n: {"value": v, "unit": units[n], "samples": s} for n, (v, s) in metrics.items()},
        "ops": [{"case": op.case, "index": op.index, "seconds": op.seconds, "factor": op.factor,
                 "rss_mb": op.rss_mb, "exit": op.got["exit"]} for op in ops],
        "notes": notes,
        "problems": problems,
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with open(f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, (v, _) in metrics.items()},
    }))


def run_all(args) -> int:
    """Every workload in its own process; the end-to-end table by workload."""
    rows = []
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, wl_class in WORKLOADS.items():
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(argv, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise BenchError(f"{name} exited {done.returncode}")
        sys.stdout.write("".join(f"  {line}\n" for line in done.stdout.splitlines()[:-1]))
        last = json.loads(done.stdout.strip().splitlines()[-1])
        with open(RESULTS / f"{name}-seed{args.seed}-trace0.json", encoding="utf-8") as fh:
            m = json.load(fh)["metrics"]
        for key in ("attempted", "failed"):
            summary[key] += last[key]
        summary["correct"] &= last["correct"]
        for metric, entry in last["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
        op, samples = m["op_p50_s"]["value"], m["op_p50_s"]["samples"]
        if name == "interim_large":
            rows.append((name, "interim_p50_s", op, "s", samples))
        else:
            label = "study_reps_per_s" if name == "simulate_oc" else "calib_reps_per_s"
            rows.append((name, label, wl_class.reps / op, "replicates/s", samples))
        rows.append((name, "setup_s", m["setup_s"]["value"], "s", m["setup_s"]["samples"]))
        rows.append((name, "peak_rss_mb", m["peak_rss_mb"]["value"], "MB", m["peak_rss_mb"]["samples"]))
        rows.append((name, "error_rate", last["failed"] / last["attempted"], "fraction", last["attempted"]))
    print(f"{'workload':<15} {'metric':<18} {'value':>12} {'unit':<13} samples")
    for row in rows:
        print(f"{row[0]:<15} {row[1]:<18} {row[2]:>12.6g} {row[3]:<13} {row[4]}")
    print(f"correctness gate: {'pass' if summary['correct'] else 'FAIL'}")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM unwind normally, so child processes are killed and reaped
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
