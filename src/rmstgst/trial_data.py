"""Trial data and calendar-time snapshots.

A :class:`Trial` holds one dataset as of the data lock as read-only
columns with one entry per subject: arm, calendar entry time, follow-up
(the time from entry to event or censoring, whichever came first), the
event indicator that says which, and the baseline covariates. CSV ingest
and the simulator both produce one; subject ids are checked on ingest
and not kept. A snapshot rolls the trial back to an earlier calendar
time ``u`` by capping each subject's follow-up at ``u - entry`` and
dropping subjects not yet enrolled. Follow-up can only be shortened this
way; a trial carries no information beyond its own lock.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "Trial",
    "CsvSchema",
    "Snapshot",
    "ingest_csv",
    "snapshot",
    "snapshot_from_arrays",
    "standardize_covariates",
]


_COLUMNS = ("arm", "entry", "followup", "event", "z")

_RULES = {  # each rule's check, and what a failure says
    "binary": (lambda v: (v == 0) | (v == 1), "must be 0 or 1"),
    "time": (lambda v: np.isfinite(v) & (v >= 0), "must be finite and >= 0"),
    "finite": (np.isfinite, "must be finite"),
}


def _bad_rows(arm, entry, followup, event, z, covariate_labels, cells=None) -> dict[int, str]:
    """The first failed check on each bad row, by row index: one vectorised check per column.

    A value that did not parse is NaN and fails its check. ``cells``, when
    given, holds each column's text, which a message quotes for the value.
    """
    columns = [("arm", "binary", arm), ("entry_time", "time", entry),
               ("followup_time", "time", followup), ("event", "binary", event)]
    columns += [(label, "finite", z[:, j]) for j, label in enumerate(covariate_labels)]
    found: dict[int, str] = {}
    for k, (label, rule, values) in enumerate(columns):
        check, says = _RULES[rule]
        for i in np.flatnonzero(~check(values)).tolist():
            shown = values[i].item() if cells is None else cells[k][i]
            found.setdefault(i, f"{label} {says}, got {shown!r}")
    return found


@dataclass(frozen=True, eq=False)
class Trial:
    """One trial as of the data lock: read-only columns over its n subjects.

    Attributes:
        arm: 0 for control, 1 for treatment (int8, shape (n,)).
        entry: calendar time of study entry (years, >= 0).
        followup: time on study until event or censoring (years, >= 0).
        event: 1 if the follow-up ended in the event, 0 if censored (int8).
        z: baseline covariates, shape (n, p); p may be 0.

    Raises:
        DataError: columns of different lengths, or a row out of range.
    """

    arm: np.ndarray
    entry: np.ndarray
    followup: np.ndarray
    event: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        columns = [np.asarray(getattr(self, name), dtype=np.float64) for name in _COLUMNS]
        *vectors, z = columns
        n = len(vectors[0]) if vectors[0].ndim == 1 else -1
        if any(v.shape != (n,) for v in vectors) or z.ndim != 2 or z.shape[0] != n:
            raise DataError(f"trial columns need one row per subject, got shapes {[c.shape for c in columns]}")
        bad = _bad_rows(*vectors, z, [f"covariates column {j}" for j in range(z.shape[1])])
        if bad:
            raise DataError(f"{len(bad)} bad row(s) in trial, first row {min(bad)}: {bad[min(bad)]}")
        for name, values in zip(_COLUMNS, columns):
            column = np.array(values, dtype=np.int8 if name in ("arm", "event") else np.float64)
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return self.arm.shape[0]

    def __eq__(self, other):
        return isinstance(other, Trial) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS
        )


_SCHEMA_KEYS = {  # JSON key -> field name
    "id": "subject_id", "arm": "arm", "entry_time": "entry_time",
    "followup_time": "followup_time", "event": "event", "covariates": "covariates",
}


@dataclass(frozen=True)
class CsvSchema:
    """Column-name map for :func:`ingest_csv`.

    ``covariates`` lists covariate column names in order; ``None`` means
    every column not otherwise mapped is a covariate, in file order. An
    empty tuple means no covariates.
    """

    subject_id: str = "id"
    arm: str = "arm"
    entry_time: str = "entry_time"
    followup_time: str = "followup_time"
    event: str = "event"
    covariates: tuple[str, ...] | None = None

    def to_dict(self) -> dict:
        d = {key: getattr(self, name) for key, name in _SCHEMA_KEYS.items()}
        if self.covariates is not None:
            d["covariates"] = list(self.covariates)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CsvSchema":
        extra = set(d) - set(_SCHEMA_KEYS)
        if extra:
            raise DataError(f"unknown schema keys: {sorted(extra)}")
        kwargs = {_SCHEMA_KEYS[key]: value for key, value in d.items()}
        if kwargs.get("covariates") is not None:
            kwargs["covariates"] = tuple(kwargs["covariates"])
        return cls(**kwargs)


def _floats(cells: list[str]) -> np.ndarray:
    """One CSV column as floats, NaN where a cell does not parse."""
    try:
        return np.array(cells, dtype=np.float64)
    except ValueError:
        values = np.full(len(cells), np.nan)
    for i, cell in enumerate(cells):
        with contextlib.suppress(ValueError):
            values[i] = float(cell)
    return values


def _csv_rows(reader, path):
    """The reader's rows, with a CSV parse error raised as a ``DataError`` naming its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from exc


def ingest_csv(path, schema: CsvSchema | None = None) -> Trial:
    """Read a trial from a CSV file with a header row.

    Every row must parse cleanly; offending rows are reported by file
    line number and all collected before raising, so one pass surfaces
    every problem. Subject ids must be present and unique; they are
    checked and then dropped.

    Raises:
        DataError: missing or duplicate columns, rows with the wrong field
            count, unparseable or invalid rows, duplicate subject ids, an
            empty file, or a file that is not UTF-8 or not CSV.
    """
    schema = schema or CsvSchema()
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        text = raw.decode("utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = _csv_rows(reader, path)
    header = next(rows, None)
    if header is None:
        raise DataError(f"{path}: empty file (no header row)")
    duplicated = sorted({c for c in header if header.count(c) > 1})
    if duplicated:
        raise DataError(f"{path}: duplicate column names {duplicated} in header")
    needed = [schema.subject_id, schema.arm, schema.entry_time, schema.followup_time, schema.event]
    if schema.covariates is None:
        cov_cols = [c for c in header if c not in needed]
    else:
        cov_cols = list(schema.covariates)
    needed += cov_cols
    missing = [c for c in needed if c not in header]
    if missing:
        raise DataError(f"{path}: missing columns {missing}; header has {header}")
    picks = [header.index(c) for c in needed]
    columns: list[list[str]] = [[] for _ in picks]
    appends = [col.append for col in columns]
    lines = array("l")  # the file line of each kept row
    problems: dict[int, str] = {}  # by file line
    for row in rows:
        if not row:
            continue
        if len(row) != len(header):
            problems[reader.line_num] = f"expected {len(header)} fields, got {len(row)}"
            continue
        lines.append(reader.line_num)
        for append, k in zip(appends, picks):
            append(row[k])

    ids, cells = columns[0], columns[1:]
    id_problems: dict[int, str] = {}
    seen: set[str] = set()
    for i, sid in enumerate(ids):
        if not sid or sid in seen:
            id_problems[i] = f"duplicate id {sid!r}" if sid else "missing id"
        seen.add(sid)
    arm, entry, followup, event, *covariates = (_floats(col) for col in cells)
    z = np.column_stack(covariates) if covariates else np.empty((len(ids), 0))
    bad = _bad_rows(arm, entry, followup, event, z, [f"covariate {c!r}" for c in cov_cols], cells)
    for i, message in {**bad, **id_problems}.items():
        problems[lines[i]] = message
    if problems:
        shown = "\n  ".join(f"line {n}: {problems[n]}" for n in sorted(problems)[:20])
        more = f"\n  ... and {len(problems) - 20} more" if len(problems) > 20 else ""
        raise DataError(f"{path}: {len(problems)} bad row(s)\n  {shown}{more}")
    if not ids:
        raise DataError(f"{path}: no data rows")
    return Trial(arm=arm, entry=entry, followup=followup, event=event, z=z)


class _ArmData:
    """Per-arm arrays sorted by follow-up time, events grouped by time."""

    __slots__ = ("n", "xs", "zs", "event_times", "event_counts", "event_z_sums", "risk_start")

    def __init__(self, times, events, z, t_max):
        order = np.argsort(times, kind="stable")
        xs = times[order]
        ds = events[order].astype(bool)
        zs = z[order]
        ds = ds & (xs <= t_max)
        self.n = xs.size
        self.xs = xs
        self.zs = zs
        ev_times = xs[ds]
        ev_z = zs[ds]
        if ev_times.size:
            uniq, starts, counts = np.unique(ev_times, return_index=True, return_counts=True)
            z_sums = np.add.reduceat(ev_z, starts, axis=0) if ev_z.shape[1] else np.zeros((uniq.size, 0))
        else:
            uniq = np.empty(0)
            counts = np.empty(0, dtype=np.int64)
            z_sums = np.zeros((0, z.shape[1]))
        self.event_times = uniq
        self.event_counts = counts.astype(np.float64)
        self.event_z_sums = z_sums
        # first index whose follow-up reaches each event time; suffix sums
        # from here are the risk-set aggregates
        self.risk_start = np.searchsorted(xs, uniq, side="left")


class Snapshot:
    """The dataset as observable at calendar time ``u``, analyzed to horizon ``tau``.

    Holds read-only arrays over the subjects enrolled strictly before
    ``u``: ``arm``, capped follow-up ``time``, event indicator ``event``,
    and the covariate matrix ``z`` of shape (n, p). ``arms`` holds each
    arm's risk-set layout at ``t_max = min(u, tau)``: its subjects sorted
    by follow-up, its distinct event times up to ``t_max`` with the events
    at each, and where each time's risk set starts. The Cox fit, the
    adjusted variance and the Kaplan-Meier curves all read it.
    """

    __slots__ = ("u", "tau", "arm", "time", "event", "z", "arms", "n0", "n1")

    def __init__(self, u, tau, arm, time, event, z):
        u = float(u)
        tau = float(tau)
        if not (math.isfinite(u) and u > 0):
            raise DataError(f"analysis time u must be finite and > 0, got {u!r}")
        if not (math.isfinite(tau) and tau > 0):
            raise DataError(f"horizon tau must be finite and > 0, got {tau!r}")
        arm = np.ascontiguousarray(arm, dtype=np.int8)
        time = np.ascontiguousarray(time, dtype=np.float64)
        event = np.ascontiguousarray(event, dtype=np.int8)
        z = np.ascontiguousarray(z, dtype=np.float64)
        if z.ndim != 2:
            raise DataError(f"covariate matrix must be 2-d, got shape {z.shape}")
        n = arm.shape[0]
        if time.shape != (n,) or event.shape != (n,) or z.shape[0] != n:
            raise DataError("snapshot arrays disagree on subject count")
        if n == 0:
            raise DataError("empty snapshot: no subjects enrolled before u")
        if np.any(time < 0) or not np.all(np.isfinite(time)):
            raise DataError("follow-up times must be finite and >= 0")
        for a in (arm, time, event, z):
            a.setflags(write=False)
        self.u = u
        self.tau = tau
        self.arm = arm
        self.time = time
        self.event = event
        self.z = z
        t_max = min(u, tau)
        self.arms = tuple(
            _ArmData(time[idx], event[idx], z[idx], t_max) for idx in (arm == 0, arm == 1)
        )
        self.n0, self.n1 = (data.n for data in self.arms)

    @property
    def n(self) -> int:
        return self.n0 + self.n1

    @property
    def n_covariates(self) -> int:
        return self.z.shape[1]


def snapshot_from_arrays(entry, time, event, arm, z, u, tau, lock_time=None) -> Snapshot:
    """Snapshot of loose columns; see :func:`snapshot` for semantics."""
    entry = np.asarray(entry, dtype=np.float64)
    time = np.asarray(time, dtype=np.float64)
    event = np.asarray(event, dtype=np.int8)
    arm = np.asarray(arm, dtype=np.int8)
    z = np.asarray(z, dtype=np.float64)
    if lock_time is not None and u > lock_time:
        raise DataError(
            f"analysis time u={u} exceeds the data lock at {lock_time}; "
            "follow-up cannot be rolled forward"
        )
    keep = entry < u
    if not np.any(keep):
        raise DataError(f"empty snapshot: no subjects enrolled before u={u}")
    entry = entry[keep]
    exposure = np.asarray(u, dtype=np.float64) - entry
    t_lock = time[keep]
    t_u = np.minimum(t_lock, exposure)
    d_u = event[keep] * (t_lock <= exposure)
    return Snapshot(u=u, tau=tau, arm=arm[keep], time=t_u, event=d_u, z=z[keep])


def snapshot(trial: Trial, u: float, tau: float, lock_time=None) -> Snapshot:
    """Roll the trial back to calendar time ``u``.

    Subjects with ``entry >= u`` are excluded. For the rest, follow-up is
    capped at ``u - entry``; an event counts only if it occurred within
    the capped window (boundary included).

    Args:
        trial: the dataset as of its data lock.
        u: analysis calendar time, > 0.
        tau: analysis horizon carried on the snapshot, > 0.
        lock_time: optional calendar time of the data lock. When given,
            ``u > lock_time`` raises since the trial cannot be matured.

    Raises:
        DataError: invalid u/tau, immature data, or nobody enrolled.
    """
    return snapshot_from_arrays(
        trial.entry, trial.followup, trial.event, trial.arm, trial.z, u, tau, lock_time=lock_time
    )


def standardize_covariates(snap: Snapshot) -> Snapshot:
    """Center and scale each covariate column over the snapshot's subjects.

    Fitted coefficients change under this map but adjusted survival,
    restricted means, and test statistics do not; it only conditions the
    Newton solve when covariates live on wild scales.

    Raises:
        DataError: a covariate column is constant (zero variance).
    """
    if snap.n_covariates == 0:
        return snap
    mean = snap.z.mean(axis=0)
    sd = snap.z.std(axis=0)
    flat = np.flatnonzero(sd == 0)
    if flat.size:
        raise DataError(f"cannot standardize constant covariate column(s) {flat.tolist()}")
    z = (snap.z - mean) / sd
    return Snapshot(u=snap.u, tau=snap.tau, arm=snap.arm, time=snap.time, event=snap.event, z=z)
