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
look (the CLI's) is the case L = 1. The looks may come from several
trials stacked trial-major, a look's columns its own trial's subjects,
so a simulation analyzes a group of replicates in one pass too, in
memory linear in the group. The Cox fit, the adjusted pass and
Kaplan-Meier all read a look's strata of that layout, Kaplan-Meier only
their event rows; the snapshot owns the per-stratum accumulation, the
row widths and the looks no method can analyze (an arm without events).
A snapshot holds each trial's covariates standardized over that trial's
own subjects, so no result depends on the units a covariate is recorded
in, nor on which trials share a stack.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, InsufficientEventsError
from .records import Record, utf8_bytes

__all__ = ["Trial", "CsvSchema", "Snapshot", "ingest_csv", "snapshot", "snapshot_from_arrays"]


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


@dataclass(frozen=True)
class CsvSchema(Record):
    """Column-name map for :func:`ingest_csv`.

    ``covariates`` lists covariate column names in order; ``None`` means
    every column not otherwise mapped is a covariate, in file order. An
    empty tuple means no covariates.
    """

    subject_id: str = field(default="id", metadata={"key": "id"})
    arm: str = "arm"
    entry_time: str = "entry_time"
    followup_time: str = "followup_time"
    event: str = "event"
    covariates: tuple[str, ...] | None = None

    _what, _error = "CSV schema", DataError


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


_BLOCK_ROWS = 256  # kept rows parsed at a time; larger blocks left a cold look more resident memory, no less time


def _parsed_block(block, lines, picks, labels, seen: set[str], problems: dict[int, str]) -> np.ndarray:
    """One block of rows as read, at file ``lines``, as floats (rows, 4 + p) of the columns ``picks`` after the id;
    each bad row's first problem goes into ``problems`` by file line, a bad id's (against ``seen``) over the rest."""
    columns = list(zip(*block))
    ids, *cells = (columns[k] for k in picks)
    values = np.column_stack([_floats(col) for col in cells])
    found = _bad_rows(*values[:, :4].T, values[:, 4:], labels, cells)
    for i, sid in enumerate(ids):
        if not sid or sid in seen:
            found[i] = f"duplicate id {sid!r}" if sid else "missing id"
        seen.add(sid)
    for i, message in found.items():
        problems[lines[i]] = message
    return values


def ingest_csv(path, schema: CsvSchema | None = None) -> Trial:
    """Read a trial from a CSV file with a header row.

    Every row must parse cleanly; offending rows are reported by file
    line number and all collected before raising, so one pass surfaces
    every problem. Subject ids must be present and unique; they are
    checked and then dropped. A UTF-8 byte-order mark is skipped, and a
    blank row. Rows are parsed and checked ``_BLOCK_ROWS`` at a time, so
    the file's cells are never all held as text at once.

    Raises:
        DataError: missing or duplicate columns, a column mapped to more
            than one field, rows with the wrong field count, unparseable
            or invalid rows, duplicate subject ids, an empty file, or a
            file that cannot be read, is not UTF-8 or is not CSV.
    """
    schema = schema or CsvSchema()
    problems: dict[int, str] = {}  # by file line
    # csv's text stream: lines end at CR, LF or CRLF alone, as in the bytes; the file's bytes go with the stream
    with io.TextIOWrapper(io.BytesIO(utf8_bytes(path, "trial CSV", DataError)), encoding="utf-8-sig",
                          newline="") as text:
        reader = csv.reader(text)
        try:
            header = next(reader, None)
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
            twice = sorted({c for c in needed if needed.count(c) > 1})
            if twice:
                raise DataError(f"{path}: columns mapped to more than one field: {twice}")
            missing = [c for c in needed if c not in header]
            if missing:
                raise DataError(f"{path}: missing columns {missing}; header has {header}")
            picks = [header.index(c) for c in needed]
            labels = [f"covariate {c!r}" for c in cov_cols]
            seen: set[str] = set()
            blocks, block, lines = [], [], []
            for row in reader:
                if row and len(row) != len(header):
                    problems[reader.line_num] = f"expected {len(header)} fields, got {len(row)}"
                elif row:
                    block.append(row)
                    lines.append(reader.line_num)
                    if len(block) == _BLOCK_ROWS:
                        blocks.append(_parsed_block(block, lines, picks, labels, seen, problems))
                        block, lines = [], []
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from exc
    if block:
        blocks.append(_parsed_block(block, lines, picks, labels, seen, problems))
    del seen  # the ids go before the blocks are joined
    if problems:
        shown = "\n  ".join(f"line {n}: {problems[n]}" for n in sorted(problems)[:20])
        more = f"\n  ... and {len(problems) - 20} more" if len(problems) > 20 else ""
        raise DataError(f"{path}: {len(problems)} bad row(s)\n  {shown}{more}")
    if not blocks:
        raise DataError(f"{path}: no data rows")
    values = np.concatenate(blocks)
    return Trial(arm=values[:, 0], entry=values[:, 1], followup=values[:, 2], event=values[:, 3], z=values[:, 4:])


class Snapshot:
    """One or more trials as observable at L calendar times ``u``, the looks, analyzed to horizon ``tau``.

    Holds the subjects' ``arm`` and covariates ``z`` (n, p) of every
    trial in turn, each trial's covariates standardized over its own
    subjects by :func:`snapshot`, and, per look, shape (L, n_max) for the
    largest trial's size n_max, the capped follow-up ``time`` (-1 before
    entry, and past the end of a trial shorter than n_max) and ``event``:
    look k's column i is subject ``offset[k] + i``, of the look's own
    trial. One risk-set layout of all looks serves the Cox fit, the
    variance and Kaplan-Meier, which reads only the event rows: each
    (look, arm) is a stratum,
    look-major, holding the arm's subjects by capped follow-up (one stable
    sort per look and arm), padded in front to the largest stratum's size
    m; ``stratum_times`` (s, m) keeps that follow-up, ascending, -1 on
    padding. ``risk_cols`` stores the columns ``[1, z, z (x) z]``, the
    last as its upper triangle, of the s strata longest follow-up first,
    (s, columns, m); the first is 0 on padding, where the others repeat a
    real subject so each stratum's largest linear predictor is real, and
    one cumulative sum along the last axis, weighted by the first column,
    gives every risk-set sum without crossing a stratum. Event rows, one per stratum and distinct
    event time up to ``min(u, tau)``, carry ``event_stratum``,
    ``event_times``, ``event_counts``, ``at_risk``, the prefix of the
    stratum's places that is the row's risk set, and ``risk_index``, its
    place in the flattened first column; stratum j owns rows
    ``stratum_rows[j:j + 2]``, look k ``look_rows[k:k + 2]``;
    ``event_z_total`` sums each look's event covariates; ``upper`` indexes
    the upper triangle of a p x p matrix.
    """

    __slots__ = ("u", "tau", "arm", "time", "event", "z", "offset", "stratum_times", "stratum_n", "risk_cols",
                 "risk_index", "event_stratum", "event_times", "event_counts", "at_risk", "stratum_rows",
                 "look_rows", "event_z_total", "upper")

    def __init__(self, u, tau, arm, time, event, z, offset):
        self.u, self.tau, self.arm, self.time, self.event, self.z, self.offset = u, tau, arm, time, event, z, offset
        (looks, n), p, s = time.shape, z.shape[1], 2 * time.shape[0]
        # each look's capped follow-up per arm, (L, 2, n): -1 in the columns of the other arm and past its trial
        arms = np.take(arm, offset[:, None] + np.arange(n), mode="clip")
        keys = np.where(arms[:, None] == np.arange(2)[:, None], time[:, None], -1.0)
        m = int(np.count_nonzero(keys >= 0, axis=2).max())  # the largest stratum's size
        # one stable sort per look and arm, those not enrolled or of the other arm first, cropped to m places
        orders = np.argsort(keys, axis=2, kind="stable")[..., n - m:].copy()
        xs = self.stratum_times = np.take_along_axis(keys, orders, axis=2).reshape(s, m)
        del keys, arms  # each sort temporary goes once read, so a large group's snapshot peaks lower
        hit = (np.take_along_axis(event[:, None], orders, axis=2) != 0).reshape(s, m)  # events
        orders += offset[:, None, None]
        slot = orders.reshape(s, m)  # the subjects, of the look's own trial
        del orders
        self.stratum_n = np.count_nonzero(xs >= 0, axis=1)
        # events in range by stratum then time; each stratum's distinct event time is one event row
        pos = np.flatnonzero(hit & (xs >= 0) & (xs <= np.repeat(np.minimum(u, tau), 2)[:, None]))
        ev_t, ev_s = xs.ravel()[pos], pos // m
        new = np.ones(pos.size + 1, dtype=np.bool_)
        new[1:-1] = (ev_t[1:] != ev_t[:-1]) | (ev_s[1:] != ev_s[:-1])
        bounds = np.flatnonzero(new)
        heads = bounds[:-1]
        self.event_times, self.event_stratum = ev_t[heads], ev_s[heads]
        self.event_counts = np.diff(bounds).astype(np.float64)
        self.stratum_rows = np.searchsorted(self.event_stratum, np.arange(s + 1))
        self.look_rows = self.stratum_rows[::2]
        self.event_z_total = look_sums(z[slot.ravel()[pos]].T, np.searchsorted(pos, np.arange(looks + 1) * 2 * m)).T
        # an event row's risk set: its stratum's places from the first with that follow-up on
        run = np.ones(s * m, dtype=np.bool_)
        run[1:] = xs.ravel()[1:] != xs.ravel()[:-1]
        run[::m] = True
        run_start = np.maximum.accumulate(np.where(run, np.arange(s * m), 0))[pos[heads]]
        del run
        self.at_risk = (self.event_stratum + 1) * m - run_start
        # stored longest follow-up first, columns outermost, so a risk set is a prefix of its stratum; z and
        # z (x) z repeat a real subject on padding, so each stratum's largest linear predictor is real
        first = np.minimum(m - self.stratum_n, m - 1)[:, None]
        fill = np.take_along_axis(slot, np.maximum(np.arange(m), first), axis=1)[:, ::-1]
        zr = z[np.minimum(fill, len(arm) - 1)].transpose(0, 2, 1)
        del fill, slot
        upper = self.upper = np.triu_indices(p)  # z (x) z is symmetric: its upper triangle, row by row
        cols = self.risk_cols = np.empty((s, 1 + p + upper[0].size, m))
        cols[:, 0], cols[:, 1:p + 1] = (xs >= 0)[:, ::-1], zr
        for j, (a, b) in enumerate(zip(*upper), 1 + p):  # in place: no (s, columns, m) temporaries
            np.multiply(zr[:, a], zr[:, b], out=cols[:, j])
        # a row's risk set is the first at_risk places of each of its stratum's columns
        self.risk_index = self.event_stratum * self.risk_cols[0].size + self.at_risk - 1

    def look_errors(self) -> list:
        """Per look, None or the ``InsufficientEventsError`` of an arm without events by min(u, tau): no analysis."""
        empty = (np.diff(self.stratum_rows).reshape(-1, 2) == 0).tolist()  # each look's arms without events
        return [InsufficientEventsError(f"arm {arms.index(True)} has no events at or before min(u, tau)="
                                        f"{min(u, self.tau)}; the analysis needs at least one per arm")
                if True in arms else None for u, arms in zip(self.u.tolist(), empty)]

    def accumulate(self, values: np.ndarray, reverse: bool = False, op=np.add) -> np.ndarray:
        """Running sums, or ``op``'s running results, of event-row ``values`` (rows, ...) within each stratum, down
        its rows or, ``reverse``, up them: one accumulation over a (strata, rows, ...) array padded with ``op``'s
        identity after (``reverse``: before) a stratum's own terms, so each stratum's results are its rows' alone,
        bit for bit."""
        strata = self.event_stratum
        col = np.arange(strata.size) - self.stratum_rows[strata]
        pad = np.full((self.stratum_rows.size - 1, int(np.diff(self.stratum_rows).max()), *values.shape[1:]),
                      op.identity, dtype=np.float64)
        pad[strata, col] = values
        order = slice(None, None, -1 if reverse else 1)
        return op.accumulate(pad[:, order], axis=1)[:, order][strata, col]

    def row_widths(self) -> tuple[np.ndarray, np.ndarray]:
        """Each event row's width to the next row of its stratum or, for a stratum's last row, to tau; and each
        (look, arm)'s first event time (L, 2), where its curve leaves 1, tau for a stratum without events."""
        times, bounds, tau = self.event_times, self.stratum_rows, self.tau
        ends = np.append(times[1:], tau)
        ends[bounds[1:][np.diff(bounds) > 0] - 1] = tau
        return ends - times, np.where(np.diff(bounds) > 0, np.append(times, tau)[bounds[:-1]], tau).reshape(-1, 2)


def look_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per-look sums along the last axis, look k's entries ``bounds[k]:bounds[k + 1]`` added on their own."""
    out = np.zeros((*values.shape[:-1], bounds.size - 1))
    some = bounds[1:] > bounds[:-1]
    out[..., some] = np.add.reduceat(values, bounds[:-1][some], axis=-1)
    return out


def _standardized(z: np.ndarray) -> np.ndarray:
    """One trial's covariate columns centred on their mean and scaled to SD 1; a constant column is all 0."""
    if not len(z):
        return z
    # a constant column's rounded mean may miss its value, so a constant column is centred on its value
    centred = z - np.where((z == z[0]).all(axis=0), z[0], z.mean(axis=0))
    sd = np.sqrt(np.mean(centred * centred, axis=0))
    return centred / np.where(sd > 0, sd, 1.0)


def snapshot_from_arrays(entry, time, event, arm, z, u, tau, lock_time=None) -> Snapshot:
    """Snapshot of loose columns, checked as a :class:`Trial`; see :func:`snapshot`."""
    return snapshot(Trial(arm=arm, entry=entry, followup=time, event=event, z=z), u, tau, lock_time)


def snapshot(trial: Trial | Sequence[Trial], u, tau: float, lock_time=None) -> Snapshot:
    """Roll the trial back to calendar time ``u``, or to each of a sequence of them; or stack several trials.

    At each look, subjects with ``entry >= u`` are not yet enrolled. For
    the rest, follow-up is capped at ``u - entry``; an event counts only
    if it occurred within the capped window (boundary included). Given a
    sequence of R trials, the snapshot holds their subjects in turn and
    R * L looks, trial-major: look ``r * L + k`` is trial r at ``u[k]``,
    its columns trial r's subjects then never-enrolled padding, so it is
    analyzed as a snapshot of trial r alone would be. R = 1 is one trial.
    Each trial's covariate columns are centred on their mean over all the
    trial's subjects and scaled to SD 1; a constant column is only centred,
    to 0, so a fit still finds its information singular.

    Args:
        trial: the dataset as of its data lock, or a sequence of them
            with the same covariates.
        u: analysis calendar time, > 0, or a sequence of them (the looks).
        tau: analysis horizon carried on the snapshot, > 0.
        lock_time: optional calendar time of the data lock. When given,
            it must be finite and ``u <= lock_time``: data cannot mature.

    Raises:
        DataError: invalid u/tau/lock_time, immature data, no trials or trials with
            different covariates, or nobody enrolled at any look.
    """
    trials = [trial] if isinstance(trial, Trial) else list(trial)
    looks, tau = np.atleast_1d(np.asarray(u, dtype=np.float64)), float(tau)
    if looks.ndim != 1 or not looks.size or not np.all(np.isfinite(looks) & (looks > 0)):
        raise DataError(f"analysis time u must be finite and > 0, got {u!r}")
    if not (math.isfinite(tau) and tau > 0):
        raise DataError(f"horizon tau must be finite and > 0, got {tau!r}")
    if lock_time is not None and not looks.max() <= lock_time < math.inf:
        raise DataError(f"the data lock at {lock_time} must be finite and not before the analysis time u={u}; "
                        "follow-up cannot be rolled forward")
    if len({t.z.shape[1] for t in trials}) != 1:
        raise DataError("a snapshot needs one or more trials, all with the same number of covariates")
    arm = np.concatenate([t.arm for t in trials]) if len(trials) > 1 else trials[0].arm  # a lone trial's: shared
    z = np.concatenate([_standardized(t.z) for t in trials])
    sizes = np.array([len(t) for t in trials])
    n = sizes.max()  # each trial's columns, padded with subjects never enrolled: (trials, 1, n) against (looks, 1)
    entry, followup, event = (np.concatenate([x for t in trials for x in (getattr(t, name), np.full(n - len(t), fill))])
                              .reshape(-1, 1, n) for name, fill in (("entry", np.inf), ("followup", 0.0), ("event", 0)))
    enrolled = entry < looks[:, None]
    if not np.any(enrolled):
        raise DataError(f"empty snapshot: no subjects enrolled before u={u}")
    exposure = looks[:, None] - entry
    capped = np.where(enrolled, np.minimum(followup, exposure), -1.0).reshape(-1, n)
    seen = (enrolled & (event != 0) & (followup <= exposure)).astype(np.int8).reshape(-1, n)
    del enrolled, exposure, entry, followup, event  # the padded columns go before the layout is sorted
    offset = np.repeat(np.cumsum(sizes) - sizes, looks.size)  # look r * L + k: trial r's subjects from here on
    return Snapshot(np.tile(looks, len(trials)), tau, arm, capped, seen, z, offset)
