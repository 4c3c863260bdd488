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
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .records import Record, list_of, optional, string

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


@dataclass(frozen=True)
class CsvSchema(Record):
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

    _what, _error, _closed = "CSV schema", DataError, True
    _keys = (
        ("id", "subject_id", string),
        ("arm", "arm", string),
        ("entry_time", "entry_time", string),
        ("followup_time", "followup_time", string),
        ("event", "event", string),
        ("covariates", "covariates", optional(list_of(string))),
    )


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


class _Arm(NamedTuple):
    """One arm's rows of a snapshot's risk-set layout, one per distinct event time."""

    n: int
    event_times: np.ndarray
    event_counts: np.ndarray
    at_risk: np.ndarray


class Snapshot:
    """The dataset as observable at calendar time ``u``, analyzed to horizon ``tau``.

    Holds read-only arrays over the subjects enrolled strictly before
    ``u``: ``arm``, capped follow-up ``time``, event indicator ``event``,
    and the covariate matrix ``z`` of shape (n, p).

    It also holds one risk-set layout of both arms at ``t_max = min(u,
    tau)``, which the Cox fit, the adjusted variance and the Kaplan-Meier
    curves all read. Each arm with subjects is one stratum: its subjects
    sorted by follow-up and padded at the front to the larger arm's size
    m, so the s = 1 or 2 strata stack into (s, m) arrays and one reversed
    cumulative sum along the second axis gives every risk-set sum of
    both arms: a suffix sum never reaches a stratum's leading padding,
    and no total of one arm is subtracted from the other's.
    ``risk_cols`` holds the columns ``[1, z, z (x) z]`` of shape (s, m,
    1 + p + p*p), zero on padding rows; ``risk_z`` holds the covariates
    alone, its padding rows repeating a real subject so the per-stratum
    maximum of the linear predictor is the real one. Event rows, one per
    arm and distinct event time up to ``t_max`` (arm 0 first), carry
    ``event_stratum``, ``event_counts`` and ``risk_rows``, the row of the
    flattened (s m, 1 + p + p*p) reversed sum that holds their risk set;
    ``event_z_total`` sums the covariates over those events. ``arms``
    gives each arm's event rows as an ``_Arm`` view.
    """

    __slots__ = ("u", "tau", "arm", "time", "event", "z", "n0", "n1", "arms",
                 "risk_z", "risk_cols", "risk_rows", "event_stratum", "event_counts", "event_z_total")

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
        self._lay_out(min(u, tau))

    def _lay_out(self, t_max):
        order = np.lexsort((self.time, self.arm))  # by arm, then follow-up; ties keep input order
        xs = self.time[order]
        n0 = self.n0 = int(np.count_nonzero(self.arm == 0))
        self.n1 = xs.size - n0
        sizes = [n for n in (n0, self.n1) if n]  # one stratum per arm with subjects
        m, p = max(sizes), self.z.shape[1]
        slots = np.arange(m) - np.subtract(m, sizes)[:, None]  # position in the stratum, negative on padding
        zl = self.risk_z = self.z[order[np.maximum(slots, 0) + [[0], [n0]][:len(sizes)]]]
        real = (slots >= 0)[..., None]
        self.risk_cols = np.concatenate(
            (real, zl, (zl[..., :, None] * zl[..., None, :]).reshape(len(sizes), m, p * p)), axis=2) * real
        # events in range by arm then time; each arm's distinct event time is one event row
        ev = np.flatnonzero((self.event[order] != 0) & (xs <= t_max))
        ev_t = xs[ev]
        arm1 = int(np.searchsorted(ev, n0))  # arm 1's first event
        new = np.ones(ev.size + 1, dtype=np.bool_)
        np.not_equal(ev_t[1:], ev_t[:-1], out=new[1:-1])
        new[arm1] = True
        bounds = np.flatnonzero(new)
        heads = bounds[:-1]
        times = ev_t[heads]
        k0 = int(np.searchsorted(heads, arm1))
        self.event_stratum = np.repeat([0, len(sizes) - 1], [k0, heads.size - k0])
        self.event_counts = (bounds[1:] - heads).astype(np.float64)
        self.event_z_total = self.z[order[ev]].sum(axis=0)
        # an event row's risk set: its arm's subjects followed at least that long
        at_risk = np.concatenate((n0 - np.searchsorted(xs[:n0], times[:k0]),
                                  xs.size - n0 - np.searchsorted(xs[n0:], times[k0:])))
        # the reversed sum covers a row's at_risk subjects at_risk - 1 places into its stratum
        self.risk_rows = self.event_stratum * m + at_risk - 1
        self.arms = tuple(
            _Arm(n_arm, times[rows], self.event_counts[rows], at_risk[rows])
            for n_arm, rows in ((n0, slice(0, k0)), (self.n1, slice(k0, None)))
        )

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
