"""Command-line entry points for design, analysis, simulation, and calibration.

Commands, one for each output:
  design     build a design file and print its error-spending boundary table
  analyze    run one interim analysis of a CSV dataset and update state; with
             ``--km --report-only``, the adjusted and unadjusted analyses side by side
  simulate   estimate operating characteristics of a scenario under a design
  calibrate  calibrate a scenario's null offset, schedule, and power effect

A look's information fraction is its information over the design file's
``i_max`` (``design --i-max``), the full information; ``analyze`` starts
monitoring only on a design that has it. A simulation takes two steps:
``rmstgst calibrate --out cal.json``, the only maker of calibration files,
then ``rmstgst simulate --calibration cal.json``.

``analyze`` prints each analysis as its ``Analyses.report`` dictionary. Its
only column map is a ``--schema`` JSON file with keys ``id``, ``arm``,
``entry_time``, ``followup_time`` and ``event``, each a column name that
defaults to the key, and ``covariates``, which defaults to every remaining
column. Every output file is written atomically by ``_write``; an exclusive
lock file naming its holder's pid is held from reading the monitoring state
to writing it back. Exit codes: 0 success; 2 configuration error; 3 data
error; 4 estimation error (including an estimate or information that is not
finite, in which case the state file is left as it was); 5 state error. An
input that cannot be read (missing, a directory, not UTF-8 JSON or
malformed) exits with its record's code: 2 for a design, scenario or
calibration, 3 for a ``--schema`` file and 5 for the state file. An output
that cannot be written exits 2, or 5 for the state file or its lock. Only
``simulate`` hashes its files, for its manifest, so only it imports
``hashlib``, which maps OpenSSL's libcrypto.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import fields, replace

from . import __version__
from .adjusted_rmst import analyze
from .errors import ConfigError, DataError, EstimationError, RmstgstError, StateError
from .gs_design import (
    SIDEDNESS,
    SPENDING_KINDS,
    DesignConfig,
    MonitoringState,
    SpendingFunction,
    boundaries,
    update_monitoring,
)
from .km_rmst import km_rmst_test
from .trial_data import CsvSchema, Snapshot, ingest_csv, snapshot

EXIT_CODES = (
    (ConfigError, 2),
    (DataError, 3),
    (EstimationError, 4),
    (StateError, 5),
)


def _write(path: str, text: str, error=ConfigError) -> str:
    """Replace the file at ``path`` with ``text`` by a synced temp file beside it, renamed; return ``path``.

    A location that cannot be written raises ``error`` and leaves no temp file behind.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            try:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
    except OSError as exc:
        raise error(f"cannot write {path}: {exc.strerror or exc}") from None
    return path


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _sha256(path: str) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _print(text: str) -> None:
    """Print a line to stdout at once; if its reader has gone, send it and all later output to os.devnull.

    A closed pipe (``rmstgst ... | head -c 1``) is not the command's failure:
    the command runs on, and exits with its own code.
    """
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # the unwritten rest, flushed at exit, goes there too
        os.close(devnull)


def cmd_design(args) -> int:
    spending = SpendingFunction(kind=args.spending, alpha=args.alpha, rho=args.rho, sided=args.sides)
    try:
        fractions = tuple(float(part) for part in args.fractions.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad fractions {args.fractions!r}: expected comma-separated numbers") from exc
    design = DesignConfig(spending=spending, planned_fractions=fractions, i_max=args.i_max)
    schedule = boundaries(spending, fractions)
    if args.out:
        _write(args.out, _json_text(design.to_dict()) + "\n")
    lines = ["stage  fraction  critical   cum_spend"]
    for k, (f, c, s) in enumerate(zip(fractions, schedule.critical_values, schedule.cumulative_spend), start=1):
        crit = "   inf  " if math.isinf(c) else f"{c:8.5f}"
        lines.append(f"{k:>5}  {f:8.4f}  {crit}  {s:9.6f}")
    _print("\n".join(lines))
    if not args.out:
        _print(_json_text(design.to_dict()))
    return 0


def _snapshot_from_args(args) -> Snapshot:
    """Ingest ``--data`` by ``--schema`` and roll it back to ``--u``; the trial is freed on return."""
    trial = ingest_csv(args.data, CsvSchema.read(args.schema) if args.schema else CsvSchema())
    return snapshot(trial, u=args.u, tau=args.tau, lock_time=args.lock_time)


@contextmanager
def _state_lock(path: str):
    """Hold ``<path>.lock``, created exclusively and naming its holder, for the block."""
    lock_path = path + ".lock"
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError as exc:
        try:
            with open(lock_path, encoding="utf-8") as fh:
                holder = fh.read().strip()
        except OSError:
            holder = ""
        raise StateError(
            f"monitoring state is locked by another process: {lock_path} exists"
            + (f" ({holder})" if holder else "")
        ) from exc
    except OSError as exc:
        raise StateError(f"cannot lock monitoring state {path}: {exc.strerror}") from None
    try:
        stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        os.write(fd, f"pid {os.getpid()} since {stamp}\n".encode())
        yield
    finally:
        os.close(fd)
        os.unlink(lock_path)


def _load_or_create_state(args) -> MonitoringState:
    """The state in ``--state``, or a fresh one on ``--design``; ``--design`` on a stored state is refused."""
    if os.path.exists(args.state):
        if args.design is not None:
            raise ConfigError(f"state {args.state} already initialized; omit --design (the state file carries the "
                              "design)")
        return MonitoringState.read(args.state)
    if not args.design:
        raise ConfigError(f"state {args.state} does not exist; pass --design to start monitoring")
    return MonitoringState(design=DesignConfig.read(args.design))


def cmd_analyze(args) -> int:
    # a flag counts as given unless its value is None or False, so --state "" does
    monitoring = [f"--{name}" for name in ("state", "design", "final") if getattr(args, name) not in (None, False)]
    if args.report_only and monitoring:
        raise ConfigError(f"--report-only records no analysis; omit {', '.join(monitoring)}")
    if not args.report_only and not args.state:
        raise ConfigError("--state is required unless --report-only is given")
    snap = _snapshot_from_args(args)
    result = analyze(snap).report(0)
    report: dict = {"analysis": result}
    if args.km:
        report["km"] = km_rmst_test(snap).report(0)
    if args.report_only:
        _print(_json_text(report))
        return 0

    with _state_lock(args.state):
        state = update_monitoring(_load_or_create_state(args), result["u"], result["z"],
                                  result["info"], final=args.final)
        _write(args.state, state.to_json(), StateError)
    record = state.analyses[-1].to_dict()
    keys = ("stage", "info_fraction", "critical_value", "cumulative_spend", "decision", "final")
    report["monitoring"] = {k: record[k] for k in keys}
    _print(_json_text(report))
    return 0


def cmd_calibrate(args) -> int:
    from .sim_engine import SimScenario, calibrate  # a cold look never loads the engine and its process pool

    if args.out and os.path.isdir(args.out):  # both refused before the Monte Carlo
        raise ConfigError(f"cannot write {args.out}: it is a directory")
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        raise ConfigError(f"cannot write {args.out}: its directory does not exist")
    calib = calibrate(
        SimScenario.read(args.scenario), reps=args.reps, master_seed=args.seed, threads=args.threads,
        target_power=args.target_power, alpha=args.alpha, sided=args.sides,
    )
    if args.out:
        _write(args.out, _json_text(calib.to_dict()) + "\n")
    else:
        _print(_json_text(calib.to_dict()))
    return 0


def cmd_simulate(args) -> int:
    from .sim_engine import Calibration, SimScenario, check_methods, curve_table, run_study

    scn = SimScenario.read(args.scenario)
    design = DesignConfig.read(args.design)
    methods = tuple(m for m in args.methods.split(",") if m)
    calib = Calibration.read(args.calibration)
    # no calibrated number depends on the scenario's own offset (both offsets are solved over it and information
    # is measured at the null), and --effect as-given simulates that offset
    differ = [f.name for f in fields(scn) if f.name != "log_rate_ratio"
              and getattr(scn, f.name) != getattr(calib.scenario, f.name)]
    if differ:
        raise ConfigError(f"calibration {args.calibration} was made for another scenario: {differ} differ from "
                          f"{args.scenario}")
    if calib.info.fractions != design.planned_fractions:
        raise ConfigError(f"calibration fractions {calib.info.fractions} do not match the design's "
                          f"{design.planned_fractions}")
    power, spending = calib.power, design.spending
    if args.effect == "power" and (power.alpha, power.sided) != (spending.alpha, spending.sided):
        raise ConfigError(f"calibration power alpha {power.alpha} and sidedness {power.sided} do not match the "
                          f"design's alpha {spending.alpha} and sidedness {spending.sided}")
    check_methods(methods, calib.info.i_max_by_method)
    offset = {"as-given": scn.log_rate_ratio, "null": calib.null_log_rate_ratio,
              "power": power.log_rate_ratio}[args.effect]
    sim_scn = replace(scn, log_rate_ratio=offset)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {args.out_dir}: {exc.strerror}") from None

    oc = run_study(
        sim_scn, design.spending, calib.info, reps=args.reps, methods=methods,
        master_seed=args.seed, threads=args.threads,
    )

    def write_csv(name: str, header: str, rows) -> str:
        """One output table; numbers as ``%.10g``, labels and stages as they are."""
        lines = (",".join(str(v) if isinstance(v, (str, int)) else f"{v:.10g}" for v in row) for row in rows)
        return _write(os.path.join(args.out_dir, name), "\n".join((header, *lines)) + "\n")

    outputs = {
        "results": write_csv("results.csv", "method,stage,cumulative_rejection,mc_se",
                             (r.values() for r in oc.to_rows())),
        "curves": write_csv("curves.csv", "time,survival_0,survival_1,hazard_ratio",
                            (r.values() for r in curve_table(sim_scn))),
    }
    if args.reps == 1:
        outputs["trace"] = write_csv("trace.csv", "method,stage,delta,info_level,z", (
            (m, k + 1, d, i, d * math.sqrt(i) if i > 0 else float("nan"))
            for m in oc.methods
            for k, (d, i) in enumerate(zip(oc.estimates[m][0], oc.info_levels[m][0]))))

    manifest = {
        "version": __version__,
        "command": "simulate",
        "argv": args.recorded_argv,
        "seed": args.seed,
        "threads": args.threads,
        "effect": args.effect,
        "methods": list(methods),
        "reps": args.reps,
        "inputs": {
            "scenario": {"path": args.scenario, "sha256": _sha256(args.scenario)},
            "design": {"path": args.design, "sha256": _sha256(args.design)},
            "calibration": {"path": args.calibration, "sha256": _sha256(args.calibration)},
        },
        "outputs": {name: {"path": p, "sha256": _sha256(p)} for name, p in outputs.items()},
        "analysis_times": list(oc.analysis_times),
        "failures": dict(oc.failures),
        "failures_by_type": oc.failures_by_type,
        "failures_by_stage": oc.failures_by_stage,
        "phase_seconds": oc.phase_seconds,
    }
    _write(os.path.join(args.out_dir, "manifest.json"), _json_text(manifest) + "\n")

    _print(f"{'method':<9} {'stage':>5} {'cum_rejection':>14} {'mc_se':>9}")
    for row in oc.to_rows():
        _print(
            f"{row['method']:<9} {row['stage']:>5} "
            f"{row['cumulative_rejection']:>14.4f} {row['mc_se']:>9.4f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmstgst",
        description="Group-sequential design and analysis of covariate-adjusted "
        "restricted mean survival time differences.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="build a design file and report its boundary")
    p.add_argument("--spending", required=True, choices=SPENDING_KINDS, help="error-spending family")
    p.add_argument("--alpha", type=float, default=0.05, help="total type I error")
    p.add_argument("--rho", type=float, default=None, help="power-family exponent (power_family only)")
    p.add_argument("--sides", choices=SIDEDNESS, default="two_sided", help="one- or two-sided testing")
    p.add_argument("--fractions", required=True,
                   help="comma-separated strictly increasing information fractions in (0, 1]; a schedule "
                        "that ends below 1.0 spends only the spending function's value at its last fraction")
    p.add_argument("--i-max", type=float, default=None,
                   help="full information, the information at fraction 1; analyze needs it to start monitoring")
    p.add_argument("--out", help="design JSON output path")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("analyze", help="run one interim analysis and update monitoring state")
    p.add_argument("--data", required=True, help="subject-level CSV")
    p.add_argument("--u", type=float, required=True, help="analysis calendar time")
    p.add_argument("--tau", type=float, required=True, help="restriction horizon")
    p.add_argument("--lock-time", type=float, default=None,
                   help="calendar lock time of the dataset, for maturity checking")
    p.add_argument("--schema", help="JSON file naming the CSV's columns: id, arm, entry_time, followup_time "
                   "and event (each default: the key itself) and covariates (default: every remaining column)")
    p.add_argument("--state", help="monitoring state JSON path")
    p.add_argument("--design", help="design JSON, whose i_max sets full information (required when the state "
                   "file does not exist)")
    p.add_argument("--final", action="store_true",
                   help="declare this the final analysis (spend all remaining alpha; on a first look, "
                        "the fixed-sample test)")
    p.add_argument("--km", action="store_true", help="add an unadjusted comparator line")
    p.add_argument("--report-only", action="store_true",
                   help="print the analysis without touching monitoring state")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="estimate operating characteristics under rmstgst calibrate's calibration")
    p.add_argument("--scenario", required=True, help="scenario JSON")
    p.add_argument("--design", required=True, help="design JSON")
    p.add_argument("--reps", type=int, default=2000, help="simulation replicates")
    p.add_argument("--seed", type=int, default=0, help="master seed for study replicates")
    p.add_argument("--threads", type=int, default=1, help="worker processes (default: 1)")
    p.add_argument("--methods", default="adjusted", help="comma-separated methods to monitor")
    p.add_argument("--effect", choices=("as-given", "null", "power"), default="as-given",
                   help="simulate the scenario as given, at the calibrated null, "
                        "or at the calibrated power effect")
    p.add_argument("--calibration", required=True,
                   help="calibration JSON of the scenario: rmstgst calibrate --out cal.json, then "
                        "rmstgst simulate --calibration cal.json")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="calibrate null offset, schedule, and power effect")
    p.add_argument("--scenario", required=True, help="scenario JSON")
    p.add_argument("--reps", type=int, default=1000, help="calibration replicates")
    p.add_argument("--seed", type=int, default=20200920, help="master seed")
    p.add_argument("--threads", type=int, default=1, help="worker processes (default: 1)")
    p.add_argument("--target-power", type=float, default=0.80,
                   help="target power for the calibrated effect size")
    p.add_argument("--alpha", type=float, default=0.05, help="type I error for power targeting")
    p.add_argument("--sides", choices=SIDEDNESS, default="two_sided")
    p.add_argument("--out", help="calibration JSON output path")
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.recorded_argv = list(argv) if argv is not None else list(sys.argv[1:])
    try:
        if args.command in ("simulate", "calibrate"):
            if args.threads < 1:
                raise ConfigError(f"--threads must be >= 1, got {args.threads}")
            if args.seed < 0:
                raise ConfigError(f"--seed must be >= 0, got {args.seed}")
            if args.command == "simulate" and args.reps < 1:  # before any output exists
                raise ConfigError(f"--reps must be >= 1, got {args.reps}")
        return args.func(args)
    except RmstgstError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for klass, code in EXIT_CODES if isinstance(exc, klass)), 1)


if __name__ == "__main__":
    sys.exit(main())
