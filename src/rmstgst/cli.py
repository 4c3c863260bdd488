"""Command-line entry points for design, analysis, simulation, and calibration.

Commands:
  design      build a monitoring design file and report its planned boundary
  boundaries  compute an error-spending boundary for given fractions
  analyze     run one interim analysis of a CSV dataset and update state
  simulate    estimate operating characteristics of a scenario under a design
  calibrate   calibrate a scenario's null offset, schedule, and power effect
  km-compare  run the adjusted and unadjusted analyses side by side

``analyze`` and ``km-compare`` take the same data flags and build the
snapshot the same way; each analysis prints as its ``AnalysisResult``
dictionary. Monitoring state is a JSON file updated atomically (write to
a temp file, then rename); an exclusive lock file naming its holder's pid
is held from reading the state to writing it back. Exit codes: 0
success; 2 configuration error, a malformed design, scenario or
calibration file among them; 3 data error, a malformed CSV or
``--schema`` file among them; 4 estimation error (including an estimate
or information that is not finite, in which case the state file is left
as it was); 5 state error, a malformed state file among them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import replace

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
from .records import number
from .sim_engine import (
    METHODS,
    InformationCalibration,
    SimScenario,
    calibrate_information,
    calibrate_null,
    calibrate_power,
    curve_table,
    run_study,
)
from .trial_data import CsvSchema, Snapshot, ingest_csv, snapshot, standardize_covariates

DEFAULT_CALIBRATION_SEED = 20200920

EXIT_CODES = (
    (ConfigError, 2),
    (DataError, 3),
    (EstimationError, 4),
    (StateError, 5),
)


def _default_threads() -> int:
    raw = os.environ.get("RMSTGST_THREADS", "1")
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"RMSTGST_THREADS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ConfigError(f"RMSTGST_THREADS must be >= 1, got {value}")
    return value


def _read_json(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _spending_from_args(args) -> SpendingFunction:
    return SpendingFunction(kind=args.spending, alpha=args.alpha, rho=args.rho, sided=args.sides)


def _parse_fractions(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad fractions {text!r}: expected comma-separated numbers") from exc


def _boundary_table(schedule) -> str:
    lines = ["stage  fraction  critical   cum_spend"]
    for k, (f, c, s) in enumerate(
        zip(schedule.fractions, schedule.critical_values, schedule.cumulative_spend), start=1
    ):
        crit = "   inf  " if math.isinf(c) else f"{c:8.5f}"
        lines.append(f"{k:>5}  {f:8.4f}  {crit}  {s:9.6f}")
    return "\n".join(lines)


def cmd_design(args) -> int:
    spending = _spending_from_args(args)
    fractions = _parse_fractions(args.fractions)
    design = DesignConfig(spending=spending, planned_fractions=fractions, i_max=args.i_max)
    schedule = boundaries(spending, fractions)
    if args.out:
        _write_json(args.out, design.to_dict())
    print(_boundary_table(schedule))
    if not args.out:
        _print_json(design.to_dict())
    return 0


def cmd_boundaries(args) -> int:
    spending = _spending_from_args(args)
    fractions = _parse_fractions(args.fractions)
    schedule = boundaries(spending, fractions)
    print(_boundary_table(schedule))
    if args.out:
        _write_json(args.out, schedule.to_dict())
    return 0


def _schema_from_args(args) -> CsvSchema:
    schema = CsvSchema.from_dict(_read_json(args.schema, "schema")) if args.schema else CsvSchema()
    flags = {
        "subject_id": args.id_col,
        "arm": args.arm_col,
        "entry_time": args.entry_col,
        "followup_time": args.time_col,
        "event": args.event_col,
    }
    overrides = {name: flag for name, flag in flags.items() if flag is not None}
    if args.covariate_cols is not None:
        overrides["covariates"] = tuple(c for c in args.covariate_cols.split(",") if c)
    return replace(schema, **overrides)


def _snapshot_from_args(args) -> Snapshot:
    """Ingest ``--data``, roll it back to ``--u`` and standardize if asked."""
    trial = ingest_csv(args.data, _schema_from_args(args))
    snap = snapshot(trial, u=args.u, tau=args.tau, lock_time=args.lock_time)
    return standardize_covariates(snap) if args.standardize else snap


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
    try:
        stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        os.write(fd, f"pid {os.getpid()} since {stamp}\n".encode())
        yield
    finally:
        os.close(fd)
        os.unlink(lock_path)


def _atomic_state_write(path: str, text: str) -> None:
    """Replace the state file atomically: write a temp file, then rename it."""
    handle = tempfile.NamedTemporaryFile(
        "w", dir=os.path.dirname(os.path.abspath(path)), prefix=".state-", suffix=".tmp",
        delete=False, encoding="utf-8",
    )
    try:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    finally:
        handle.close()
    os.replace(handle.name, path)


def _load_or_create_state(args) -> MonitoringState:
    if os.path.exists(args.state):
        if args.design:
            raise ConfigError(
                f"state {args.state} already initialized; omit --design (the state file carries it)"
            )
        try:
            with open(args.state, encoding="utf-8") as fh:
                return MonitoringState.from_json(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise StateError(f"cannot read monitoring state {args.state}: {exc}") from exc
    if not args.design:
        raise ConfigError(f"state {args.state} does not exist; pass --design to start monitoring")
    design = DesignConfig.from_dict(_read_json(args.design, "design"))
    if args.i_max is not None:
        design = replace(design, i_max=args.i_max)
    return MonitoringState(design=design)


def cmd_analyze(args) -> int:
    if not args.report_only and not args.state:
        raise ConfigError("--state is required unless --report-only is given")
    if args.i_max is not None and args.i_max_from_data:
        raise ConfigError("--i-max and --i-max-from-data are mutually exclusive")
    snap = _snapshot_from_args(args)
    result = analyze(snap)[0]
    report: dict = {"analysis": result.to_dict()}
    if args.km:
        report["km"] = km_rmst_test(snap).to_dict()
    if args.report_only:
        _print_json(report)
        return 0

    with _state_lock(args.state):
        state = _load_or_create_state(args)
        if state.design.i_max is None and args.i_max_from_data:
            state = MonitoringState(design=replace(state.design, i_max=result.info_level))
        state = update_monitoring(state, result, final=args.final)
        _atomic_state_write(args.state, state.to_json())
    record = state.analyses[-1].to_dict()
    keys = ("stage", "info_fraction", "critical_value", "cumulative_spend", "decision", "final")
    report["monitoring"] = {k: record[k] for k in keys}
    _print_json(report)
    return 0


def cmd_km_compare(args) -> int:
    snap = _snapshot_from_args(args)
    report = {
        "adjusted": analyze(snap)[0].to_dict(),
        "km": km_rmst_test(snap).to_dict(),
    }
    if args.out:
        _write_json(args.out, report)
    _print_json(report)
    return 0


def _calibrate_scenario(scn: SimScenario, reps: int, seed: int, threads: int,
                        target_power: float, alpha: float, sides: str) -> dict:
    """Null offset, information schedule on the null, and power offset."""
    null_offset = calibrate_null(scn)
    null_scn = replace(scn, log_rate_ratio=null_offset)
    info = calibrate_information(null_scn, reps=reps, master_seed=seed, threads=threads)
    power = calibrate_power(scn, info, target_power=target_power, alpha=alpha, sided=sides)
    doc = info.to_dict()
    doc["null_log_rate_ratio"] = null_offset
    doc["power"] = power.to_dict()
    doc["scenario"] = scn.to_dict()
    return doc


def cmd_calibrate(args) -> int:
    scn = SimScenario.from_dict(_read_json(args.scenario, "scenario"))
    doc = _calibrate_scenario(
        scn, reps=args.reps, seed=args.seed, threads=args.threads,
        target_power=args.target_power, alpha=args.alpha, sides=args.sides,
    )
    if args.out:
        _write_json(args.out, doc)
    else:
        _print_json(doc)
    return 0


def _resolve_effect(scn: SimScenario, doc: dict, effect: str) -> SimScenario:
    if effect == "as-given":
        return scn
    try:
        offset = doc["null_log_rate_ratio"] if effect == "null" else doc["power"]["log_rate_ratio"]
        return replace(scn, log_rate_ratio=number(offset))
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed calibration {effect} offset: {exc!r}; rerun calibrate") from exc


def cmd_simulate(args) -> int:
    scn = SimScenario.from_dict(_read_json(args.scenario, "scenario"))
    design = DesignConfig.from_dict(_read_json(args.design, "design"))
    methods = tuple(m for m in args.methods.split(",") if m)
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {tuple(METHODS)}")
    os.makedirs(args.out_dir, exist_ok=True)

    if args.calibration:
        calib_doc = _read_json(args.calibration, "calibration")
        calib_path = args.calibration
    elif args.no_calibrate:
        raise ConfigError("--no-calibrate requires --calibration pointing at an existing file")
    else:
        calib_doc = _calibrate_scenario(
            scn, reps=args.calib_reps, seed=args.calib_seed, threads=args.threads,
            target_power=args.target_power, alpha=design.spending.alpha,
            sides=design.spending.sided,
        )
        calib_path = os.path.join(args.out_dir, "calibration.json")
        _write_json(calib_path, calib_doc)
    calib = InformationCalibration.from_dict(calib_doc)
    if tuple(calib.fractions) != tuple(design.planned_fractions):
        raise ConfigError(
            f"calibration fractions {calib.fractions} do not match the design's "
            f"{design.planned_fractions}"
        )

    sim_scn = _resolve_effect(scn, calib_doc, args.effect)
    oc = run_study(
        sim_scn, design.spending, calib, reps=args.reps, methods=methods,
        master_seed=args.seed, threads=args.threads, collect_estimates=(args.reps == 1),
    )

    def write_csv(name: str, header: str, rows) -> str:
        """One output table; numbers as ``%.10g``, labels and stages as they are."""
        path = os.path.join(args.out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            fh.writelines(",".join(str(v) if isinstance(v, (str, int)) else f"{v:.10g}" for v in row) + "\n"
                          for row in rows)
        return path

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
            "calibration": {"path": calib_path, "sha256": _sha256(calib_path)},
        },
        "outputs": {name: {"path": p, "sha256": _sha256(p)} for name, p in outputs.items()},
        "analysis_times": list(oc.analysis_times),
        "failures": dict(oc.failures),
    }
    _write_json(os.path.join(args.out_dir, "manifest.json"), manifest)

    print(f"{'method':<9} {'stage':>5} {'cum_rejection':>14} {'mc_se':>9}")
    for row in oc.to_rows():
        print(
            f"{row['method']:<9} {row['stage']:>5} "
            f"{row['cumulative_rejection']:>14.4f} {row['mc_se']:>9.4f}"
        )
    return 0


def _add_input_flags(parser) -> None:
    """Data flags shared by ``analyze`` and ``km-compare``."""
    parser.add_argument("--data", required=True, help="subject-level CSV")
    parser.add_argument("--u", type=float, required=True, help="analysis calendar time")
    parser.add_argument("--tau", type=float, required=True, help="restriction horizon")
    parser.add_argument("--lock-time", type=float, default=None,
                        help="calendar lock time of the dataset, for maturity checking")
    parser.add_argument("--standardize", action="store_true",
                        help="center and scale covariates before fitting")
    parser.add_argument("--schema", help="JSON file mapping record fields to CSV columns")
    parser.add_argument("--id-col", help="subject id column name")
    parser.add_argument("--arm-col", help="arm column name")
    parser.add_argument("--entry-col", help="entry time column name")
    parser.add_argument("--time-col", help="follow-up time column name")
    parser.add_argument("--event-col", help="event indicator column name")
    parser.add_argument(
        "--covariate-cols",
        help="comma-separated covariate columns (default: every remaining column)",
    )


def _add_spending_flags(parser) -> None:
    parser.add_argument("--spending", required=True, choices=SPENDING_KINDS,
                        help="error-spending family")
    parser.add_argument("--alpha", type=float, default=0.05, help="total type I error")
    parser.add_argument("--rho", type=float, default=None,
                        help="power-family exponent (power_family only)")
    parser.add_argument("--sides", choices=SIDEDNESS, default="two_sided",
                        help="one- or two-sided testing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmstgst",
        description="Group-sequential design and analysis of covariate-adjusted "
        "restricted mean survival time differences.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="build a design file and report its planned boundary")
    _add_spending_flags(p)
    p.add_argument("--fractions", required=True,
                   help="comma-separated planned information fractions, ending at 1.0")
    p.add_argument("--i-max", type=float, default=None,
                   help="target full information (from calibration)")
    p.add_argument("--out", help="design JSON output path")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("boundaries", help="compute a spending boundary for given fractions")
    _add_spending_flags(p)
    p.add_argument("--fractions", required=True, help="comma-separated information fractions")
    p.add_argument("--out", help="boundary JSON output path")
    p.set_defaults(func=cmd_boundaries)

    p = sub.add_parser("analyze", help="run one interim analysis and update monitoring state")
    _add_input_flags(p)
    p.add_argument("--state", help="monitoring state JSON path")
    p.add_argument("--design", help="design JSON (required when the state file does not exist)")
    p.add_argument("--i-max", type=float, default=None,
                   help="override the design's full information (fresh state only)")
    p.add_argument("--i-max-from-data", action="store_true",
                   help="use this analysis's observed information as the full "
                        "information (fresh state without a design i_max)")
    p.add_argument("--final", action="store_true",
                   help="declare this the final analysis (spend all remaining alpha)")
    p.add_argument("--km", action="store_true", help="add an unadjusted comparator line")
    p.add_argument("--report-only", action="store_true",
                   help="print the analysis without touching monitoring state")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="estimate operating characteristics by simulation")
    p.add_argument("--scenario", required=True, help="scenario JSON")
    p.add_argument("--design", required=True, help="design JSON")
    p.add_argument("--reps", type=int, default=2000, help="simulation replicates")
    p.add_argument("--seed", type=int, default=0, help="master seed for study replicates")
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes (default: RMSTGST_THREADS or 1)")
    p.add_argument("--methods", default="adjusted", help="comma-separated methods to monitor")
    p.add_argument("--effect", choices=("as-given", "null", "power"), default="as-given",
                   help="simulate the scenario as given, at the calibrated null, "
                        "or at the calibrated power effect")
    p.add_argument("--calibration", help="reuse an existing calibration JSON")
    p.add_argument("--no-calibrate", action="store_true",
                   help="fail instead of calibrating when --calibration is missing")
    p.add_argument("--calib-reps", type=int, default=1000, help="calibration replicates")
    p.add_argument("--calib-seed", type=int, default=DEFAULT_CALIBRATION_SEED,
                   help="master seed for calibration replicates (keep distinct "
                        "from --seed)")
    p.add_argument("--target-power", type=float, default=0.80,
                   help="target power for the calibrated effect size")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="calibrate null offset, schedule, and power effect")
    p.add_argument("--scenario", required=True, help="scenario JSON")
    p.add_argument("--reps", type=int, default=1000, help="calibration replicates")
    p.add_argument("--seed", type=int, default=DEFAULT_CALIBRATION_SEED, help="master seed")
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes (default: RMSTGST_THREADS or 1)")
    p.add_argument("--target-power", type=float, default=0.80,
                   help="target power for the calibrated effect size")
    p.add_argument("--alpha", type=float, default=0.05, help="type I error for power targeting")
    p.add_argument("--sides", choices=SIDEDNESS, default="two_sided")
    p.add_argument("--out", help="calibration JSON output path")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("km-compare", help="adjusted and unadjusted analyses side by side")
    _add_input_flags(p)
    p.add_argument("--out", help="report JSON output path")
    p.set_defaults(func=cmd_km_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.recorded_argv = list(argv) if argv is not None else list(sys.argv[1:])
    try:
        if getattr(args, "threads", None) is None and args.command in ("simulate", "calibrate"):
            args.threads = _default_threads()
        return args.func(args)
    except RmstgstError as exc:
        for klass, code in EXIT_CODES:
            if isinstance(exc, klass):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
