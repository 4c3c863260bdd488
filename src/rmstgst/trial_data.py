"""Trial data and calendar-time snapshots.

A :class:`Trial` holds one dataset as of the data lock as read-only
columns with one entry per subject: arm, calendar entry time, follow-up
(the time from entry to event or censoring, whichever came first), the
event indicator that says which, and the baseline covariates. CSV ingest
and the simulator both produce one; subject ids are checked on ingest
and not kept. A snapshot rolls the trial back to earlier calendar times
``u``, its looks, by capping each subject's follow-up at ``u - entry``
and setting aside subjects not yet enrolled. Follow-up can only be
shortened this way; a trial carries no information beyond its own lock.
A snapshot's arrays carry a leading look axis, and one risk-set layout
covers every look, so a trial's L looks are analyzed in one pass; one
look (the CLI's) is the case L = 1.
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

__all__ = ["Trial", "CsvSchema", "Snapshot", "Look", "ingest_csv", "snapshot", "snapshot_from_arrays",
           "standardize_covariates"]


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
    """One arm's rows of a look's risk-set layout, one per distinct event time."""

    n: int
    event_times: np.ndarray
    event_counts: np.ndarray
    at_risk: np.ndarray


@dataclass(frozen=True, eq=False)
class Look:
    """One look of a snapshot: its subjects in trial order, and each arm's event rows."""

    u: float
    tau: float
    n: int
    arm: np.ndarray
    time: np.ndarray
    event: np.ndarray
    z: np.ndarray
    arms: tuple[_Arm, _Arm]


class Snapshot:
    """A trial as observable at L calendar times ``u``, the looks, analyzed to horizon ``tau``.

    Holds the trial's ``arm`` and covariates ``z`` (n, p) and, per look,
    shape (L, n), the capped follow-up ``time`` (-1 before entry) and
    ``event``; ``snap[k]`` is look k. One risk-set layout of all looks
    serves the Cox fit, the variance and Kaplan-Meier: each (look, arm) is
    a stratum, look-major, holding the arm's subjects by capped follow-up
    (one stable sort per arm), those not yet enrolled first, front-padded
    to the larger arm's size m. ``risk_cols`` stores the columns ``[1, z,
    z (x) z]``, the last as its upper triangle, of the s strata longest
    follow-up first, (s, columns, m), zero on padding, so one cumulative
    sum along the last axis gives every risk-set sum without crossing a
    stratum; ``risk_z`` (s, p, m) repeats a real subject on padding so
    each stratum's largest linear predictor is real. Event rows, one per
    stratum and distinct event time up to ``min(u, tau)``, carry
    ``event_stratum``, ``event_times``, ``event_counts``, ``at_risk`` and
    ``risk_index``, their places in the flattened sum; stratum j owns rows
    ``stratum_rows[j:j + 2]``, look k ``look_rows[k:k + 2]``;
    ``event_z_total`` sums each look's event covariates; ``upper`` indexes
    the upper triangle of a p x p matrix.
    """

    __slots__ = ("u", "tau", "arm", "time", "event", "z", "orders", "stratum_n", "risk_z", "risk_cols",
                 "risk_index", "event_stratum", "event_times", "event_counts", "at_risk", "stratum_rows",
                 "look_rows", "event_z_total", "upper")

    def __init__(self, u, tau, arm, time, event, z, orders=None):
        self.u, self.tau, self.arm, self.time, self.event, self.z = u, tau, arm, time, event, z
        if orders is None:  # one stable sort per arm of those enrolled by some look; -1 sorts first
            seen = (time >= 0).any(axis=0)
            orders = [cols[np.argsort(time[:, cols], axis=1, kind="stable")]
                      for cols in (np.flatnonzero(seen & (arm == a)) for a in (0, 1))]
        self.orders = orders
        (looks, _), p, g = time.shape, z.shape[1], len(orders)
        sorted_time = [np.take_along_axis(time, order, axis=1) for order in orders]
        self.stratum_n = np.stack([np.count_nonzero(t >= 0, axis=1) for t in sorted_time], axis=1).ravel()
        m, s = int(self.stratum_n.max()), looks * g  # places before the last m are padding in every stratum
        slot = np.full((looks, g, m), -1)  # each stratum's subjects, -1 on front padding
        xs = np.full((looks, g, m), -1.0)  # their capped follow-up, ascending
        hit = np.zeros((looks, g, m), dtype=np.bool_)  # their events
        for j, (order, t) in enumerate(zip(orders, sorted_time)):
            k = min(m, order.shape[1])  # an arm without subjects is all padding
            slot[:, j, m - k:], xs[:, j, m - k:] = order[:, order.shape[1] - k:], t[:, t.shape[1] - k:]
            hit[:, j, m - k:] = np.take_along_axis(event, slot[:, j, m - k:], axis=1) != 0
        slot, xs, hit = slot.reshape(s, m), xs.reshape(s, m), hit.reshape(s, m)
        # events in range by stratum then time; each stratum's distinct event time is one event row
        pos = np.flatnonzero(hit & (xs >= 0) & (xs <= np.repeat(np.minimum(u, tau), g)[:, None]))
        ev_t, ev_s = xs.ravel()[pos], pos // m
        new = np.ones(pos.size + 1, dtype=np.bool_)
        new[1:-1] = (ev_t[1:] != ev_t[:-1]) | (ev_s[1:] != ev_s[:-1])
        bounds = np.flatnonzero(new)
        heads = bounds[:-1]
        self.event_times, self.event_stratum = ev_t[heads], ev_s[heads]
        self.event_counts = np.diff(bounds).astype(np.float64)
        self.stratum_rows = np.searchsorted(self.event_stratum, np.arange(s + 1))
        self.look_rows = self.stratum_rows[::g]
        self.event_z_total = look_sums(z[slot.ravel()[pos]].T, np.searchsorted(pos, np.arange(looks + 1) * g * m)).T
        # an event row's risk set: its stratum's places from the first with that follow-up on
        run = np.ones(s * m, dtype=np.bool_)
        run[1:] = xs.ravel()[1:] != xs.ravel()[:-1]
        run[::m] = True
        run_start = np.maximum.accumulate(np.where(run, np.arange(s * m), 0))[pos[heads]]
        self.at_risk = (self.event_stratum + 1) * m - run_start
        # stored longest follow-up first, columns outermost, so a risk set is a prefix of its stratum
        first = np.minimum(m - self.stratum_n, m - 1)[:, None]
        fill = np.take_along_axis(slot, np.maximum(np.arange(m), first), axis=1)[:, ::-1]
        zr = self.risk_z = np.ascontiguousarray(z[fill].transpose(0, 2, 1))
        upper = self.upper = np.triu_indices(p)  # z (x) z is symmetric: its upper triangle, row by row
        on = (xs >= 0)[:, None, ::-1]
        self.risk_cols = np.concatenate((on, zr, zr[:, upper[0]] * zr[:, upper[1]]), axis=1)
        self.risk_cols *= on
        # a row's risk set is the first at_risk places of each of its stratum's columns
        c = self.risk_cols.shape[1]
        self.risk_index = np.add.outer(np.arange(c) * m - 1, self.event_stratum * (c * m) + self.at_risk)

    def look_bounds(self, k: int) -> tuple[int, int, int]:
        """Where look ``k``'s event rows start, where its arm 1's start (none if pooled) and where they end."""
        g = len(self.orders)
        return tuple(self.stratum_rows[[k * g, k * g + 1, k * g + g]].tolist())

    def events_in_every_stratum(self) -> np.ndarray:
        """Per look, whether each of its strata (each arm, or a pooled look's one) has an event by ``min(u, tau)``."""
        return (np.diff(self.stratum_rows).reshape(-1, len(self.orders)) > 0).all(axis=1)

    def __getitem__(self, k: int) -> Look:
        g, bounds = len(self.orders), self.look_bounds(k)
        ns = self.stratum_n[k * g:(k + 1) * g].tolist() + [0]  # subjects of arms 0 and 1
        arms = tuple(_Arm(ns[a], self.event_times[lo:hi], self.event_counts[lo:hi], self.at_risk[lo:hi])
                     for a, (lo, hi) in enumerate(zip(bounds, bounds[1:])))
        idx = np.flatnonzero(self.time[k] >= 0)
        return Look(float(self.u[k]), self.tau, ns[0] + ns[1], self.arm[idx], self.time[k, idx],
                    self.event[k, idx], self.z[idx], arms)

    def pooled(self, looks=slice(None)) -> Snapshot:
        """The ``looks`` slice, both arms in one stratum each (the arms' sorts merged) and the arm prepended to z."""
        time = self.time[looks]
        both = np.concatenate([order[looks] for order in self.orders], axis=1)
        merged = np.argsort(np.take_along_axis(time, both, axis=1), axis=1, kind="stable")
        return Snapshot(self.u[looks], self.tau, np.zeros_like(self.arm), time, self.event[looks],
                        np.column_stack((self.arm, self.z)), [np.take_along_axis(both, merged, axis=1)])


def look_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per-look sums along the last axis, look k's entries ``bounds[k]:bounds[k + 1]`` added on their own."""
    out = np.zeros((*values.shape[:-1], bounds.size - 1))
    some = bounds[1:] > bounds[:-1]
    out[..., some] = np.add.reduceat(values, bounds[:-1][some], axis=-1)
    return out


def snapshot_from_arrays(entry, time, event, arm, z, u, tau, lock_time=None) -> Snapshot:
    """Snapshot of loose columns, checked as a :class:`Trial`; see :func:`snapshot`."""
    return snapshot(Trial(arm=arm, entry=entry, followup=time, event=event, z=z), u, tau, lock_time)


def snapshot(trial: Trial, u, tau: float, lock_time=None) -> Snapshot:
    """Roll the trial back to calendar time ``u``, or to each of a sequence of them.

    At each look, subjects with ``entry >= u`` are not yet enrolled. For
    the rest, follow-up is capped at ``u - entry``; an event counts only
    if it occurred within the capped window (boundary included).

    Args:
        trial: the dataset as of its data lock.
        u: analysis calendar time, > 0, or a sequence of them (the looks).
        tau: analysis horizon carried on the snapshot, > 0.
        lock_time: optional calendar time of the data lock. When given,
            ``u > lock_time`` raises since the trial cannot be matured.

    Raises:
        DataError: invalid u/tau, immature data, or nobody enrolled at any look.
    """
    looks, tau = np.atleast_1d(np.asarray(u, dtype=np.float64)), float(tau)
    if looks.ndim != 1 or not looks.size or not np.all(np.isfinite(looks) & (looks > 0)):
        raise DataError(f"analysis time u must be finite and > 0, got {u!r}")
    if not (math.isfinite(tau) and tau > 0):
        raise DataError(f"horizon tau must be finite and > 0, got {tau!r}")
    if lock_time is not None and looks.max() > lock_time:
        raise DataError(f"analysis time u={u} exceeds the data lock at {lock_time}; "
                        "follow-up cannot be rolled forward")
    enrolled = trial.entry < looks[:, None]
    if not np.any(enrolled):
        raise DataError(f"empty snapshot: no subjects enrolled before u={u}")
    exposure = looks[:, None] - trial.entry
    capped = np.where(enrolled, np.minimum(trial.followup, exposure), -1.0)
    seen = (enrolled & (trial.event != 0) & (trial.followup <= exposure)).astype(np.int8)
    return Snapshot(looks, tau, trial.arm, capped, seen, trial.z)


def standardize_covariates(snap: Snapshot) -> Snapshot:
    """Center and scale each covariate column over the subjects enrolled at the last look.

    Fitted coefficients change under this map but adjusted survival,
    restricted means, and test statistics do not; it only conditions the
    Newton solve when covariates live on wild scales.

    Raises:
        DataError: a covariate column is constant (zero variance).
    """
    enrolled = snap.z[snap.time[-1] >= 0]
    mean, sd = enrolled.mean(axis=0), enrolled.std(axis=0)
    flat = np.flatnonzero(sd == 0)
    if flat.size:
        raise DataError(f"cannot standardize constant covariate column(s) {flat.tolist()}")
    return Snapshot(snap.u, snap.tau, snap.arm, snap.time, snap.event, (snap.z - mean) / sd, snap.orders)
