"""Trial columns, CSV ingestion and calendar-time snapshot behavior."""

from __future__ import annotations

import re

import numpy as np
import pytest
from conftest import make_trial, toy_trial
from hypothesis import given
from hypothesis import strategies as st

from rmstgst.errors import DataError
from rmstgst.sim_engine import SimScenario, draw_trial
from rmstgst.trial_data import (
    CsvSchema,
    Snapshot,
    Trial,
    ingest_csv,
    snapshot,
    snapshot_from_arrays,
    standardize_covariates,
)


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestTrial:
    def test_field_mapping(self):
        trial = make_trial((1, 0.5, 2.0, 1, (0.3,)))
        assert trial.arm[0] == 1 and trial.entry[0] == 0.5 and trial.z[0].tolist() == [0.3]

    def test_read_only_columns_and_length(self):
        trial = toy_trial()
        assert len(trial) == 8
        assert trial.arm.dtype == np.int8 and trial.event.dtype == np.int8
        assert trial.z.shape == (8, 1)
        with pytest.raises(ValueError, match="read-only"):
            trial.entry[0] = 1.0

    def test_copies_its_input(self):
        entry = np.array([0.0, 0.5])
        trial = Trial(arm=[0, 1], entry=entry, followup=[1.0, 1.0], event=[1, 0], z=np.zeros((2, 0)))
        entry[0] = 9.0
        assert trial.entry[0] == 0.0 and entry.flags.writeable

    @pytest.mark.parametrize(
        "z", [np.zeros(2), np.zeros((3, 1)), np.zeros((2, 1, 1))], ids=["1-d", "rows", "3-d"],
    )
    def test_z_must_be_two_dimensional_with_n_rows(self, z):
        with pytest.raises(DataError, match="one row per subject"):
            Trial(arm=[0, 1], entry=[0.0, 0.0], followup=[1.0, 1.0], event=[1, 0], z=z)

    def test_columns_must_agree_on_length(self):
        with pytest.raises(DataError, match="one row per subject"):
            Trial(arm=[0, 1], entry=[0.0], followup=[1.0, 1.0], event=[1, 0], z=np.zeros((2, 0)))

    @pytest.mark.parametrize(
        "kwargs,msg",
        [
            (dict(arm=2), "arm"),
            (dict(event=3), "event"),
            (dict(entry=-0.1), "entry_time"),
            (dict(time=-1.0), "followup_time"),
            (dict(cov=(float("nan"),)), "covariates"),
        ],
    )
    def test_invalid_fields(self, kwargs, msg):
        base = dict(arm=0, entry=0.0, time=1.0, event=1, cov=(0.0,))
        base.update(kwargs)
        good = (1, 0.0, 1.0, 0, (0.0,))
        bad = (base["arm"], base["entry"], base["time"], base["event"], base["cov"])
        with pytest.raises(DataError, match=rf"1 bad row\(s\) in trial, first row 1: {msg}"):
            make_trial(good, bad)


class TestIngestCsv:
    HEADER = ["id", "arm", "entry_time", "followup_time", "event", "z1"]

    def test_happy_path(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", self.HEADER, [["s1", 1, 0.5, 2.0, 1, 0.3]])
        trial = ingest_csv(path)
        assert len(trial) == 1
        assert trial.arm.tolist() == [1]
        assert trial.entry.tolist() == [0.5]
        assert trial.followup.tolist() == [2.0]
        assert trial.event.tolist() == [1]
        assert trial.z.tolist() == [[0.3]]

    def test_invalid_arm_reported_with_line(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv", self.HEADER,
            [["s1", 2, 0.5, 2.0, 1, 0.3], ["s2", 0, 0.1, 1.0, 0, 0.1]],
        )
        with pytest.raises(DataError, match=r"line 2.*arm"):
            ingest_csv(path)

    def test_all_bad_rows_collected(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv", self.HEADER,
            [
                ["s1", 2, 0.5, 2.0, 1, 0.3],
                ["s2", 0, -0.1, 1.0, 0, 0.1],
                ["s3", 0, 0.1, 1.0, 0, "oops"],
            ],
        )
        with pytest.raises(DataError) as err:
            ingest_csv(path)
        message = str(err.value)
        assert "3 bad row(s)" in message
        for line in ("line 2", "line 3", "line 4"):
            assert line in message

    def test_duplicate_id_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv", self.HEADER,
            [["s1", 0, 0.0, 1.0, 1, 0.0], ["s1", 1, 0.0, 1.0, 1, 0.0]],
        )
        with pytest.raises(DataError, match="duplicate id"):
            ingest_csv(path)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", self.HEADER[:-2], [["s1", 0, 0.0]])
        with pytest.raises(DataError, match="missing columns"):
            ingest_csv(path)

    def test_empty_and_headerless_files(self, tmp_path):
        empty = tmp_path / "e.csv"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="empty file"):
            ingest_csv(str(empty))
        headers_only = write_csv(tmp_path / "h.csv", self.HEADER, [])
        with pytest.raises(DataError, match="no data rows"):
            ingest_csv(headers_only)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            ingest_csv(str(tmp_path / "absent.csv"))

    def test_nine_covariates_autodetected_in_order(self, tmp_path):
        cov_names = [f"c{i}" for i in range(9)]
        header = ["id", "arm", "entry_time", "followup_time", "event"] + cov_names
        row = ["s1", 0, 0.0, 1.0, 1] + [float(i) for i in range(9)]
        path = write_csv(tmp_path / "t.csv", header, [row])
        trial = ingest_csv(path)
        assert len(trial) == 1
        assert trial.z.tolist() == [[float(i) for i in range(9)]]

    def test_schema_renames_and_explicit_covariates(self, tmp_path):
        header = ["pid", "grp", "enroll", "fup", "died", "age", "junk"]
        path = write_csv(tmp_path / "t.csv", header, [["p1", 1, 0.2, 1.5, 0, 63.0, "x"]])
        schema = CsvSchema(
            subject_id="pid", arm="grp", entry_time="enroll",
            followup_time="fup", event="died", covariates=("age",),
        )
        trial = ingest_csv(path, schema)
        assert len(trial) == 1
        assert trial.z.tolist() == [[63.0]]
        round_trip = CsvSchema.from_dict(schema.to_dict())
        assert round_trip == schema


    def test_line_number_counts_blank_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            ",".join(self.HEADER) + "\n" + "s1,0,0.1,1.0,0,0.1\n" + "\n" + "s2,2,0.5,2.0,1,0.3\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match=r"1 bad row\(s\)\n  line 4: arm must be 0 or 1, got '2'"):
            ingest_csv(str(path))

    @pytest.mark.parametrize("extra", [1, -1], ids=["long", "short"])
    def test_ragged_row_rejected(self, tmp_path, extra):
        row = ["s1", 0, 0.1, 1.0, 0, 0.1, 7.0][: len(self.HEADER) + extra]
        path = write_csv(tmp_path / "t.csv", self.HEADER, [["s0", 1, 0.0, 1.0, 1, 0.2], row])
        with pytest.raises(DataError, match=rf"1 bad row\(s\)\n  line 3: expected 6 fields, got {6 + extra}$"):
            ingest_csv(path)

    def test_duplicate_header_names_rejected(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", self.HEADER + ["z1"], [["s1", 0, 0.0, 1.0, 1, 7.0, 8.0]])
        with pytest.raises(DataError, match=r"duplicate column names \['z1'\]"):
            ingest_csv(path)

    def test_unparseable_cell_quoted(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", self.HEADER, [["s1", 0, "", 1.0, 1, "oops"]])
        with pytest.raises(DataError, match=r"line 2: entry_time must be finite and >= 0, got ''"):
            ingest_csv(path)

    def test_id_problem_reported_before_values(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv", self.HEADER,
            [["s1", 0, 0.0, 1.0, 1, 0.0], ["", 2, 0.0, 1.0, 1, 0.0], ["s1", 5, 0.0, 1.0, 1, 0.0]],
        )
        with pytest.raises(DataError, match=r"2 bad row\(s\)\n  line 3: missing id\n  line 4: duplicate id 's1'$"):
            ingest_csv(path)

    def test_non_utf8_byte_reported_with_line(self, tmp_path):
        path = tmp_path / "t.csv"
        lines = [",".join(self.HEADER)] + [f"s{i},0,0.1,1.0,0,0.{i}" for i in range(1, 4000)]
        lines[2500] = "s2500,0,0.1,1.0,0,0.\xff"
        path.write_bytes("\n".join(lines).encode("latin-1"))
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: line 2501: not UTF-8 text"):
            ingest_csv(str(path))

    def test_field_over_csv_limit_reported_with_line(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv", self.HEADER,
            [["s1", 0, 0.1, 1.0, 0, 0.1], ["s2", 0, 0.1, 1.0, 0, "9" * 200_000]],
        )
        with pytest.raises(DataError, match=rf"^{re.escape(path)}: line 3: field larger than field limit"):
            ingest_csv(path)


class TestCsvRoundTrip:
    @pytest.mark.parametrize("covariates", ["normal1", "bernoulli2"])
    def test_drawn_trial_survives_csv_bit_for_bit(self, tmp_path, covariates):
        scn = SimScenario(n_per_arm=60, covariates=covariates, covariate_strength=0.5, shape_offset=-0.3)
        trial = draw_trial(scn, np.random.default_rng(17))
        names = [f"z{j + 1}" for j in range(trial.z.shape[1])]
        rows = zip(trial.arm.tolist(), trial.entry.tolist(), trial.followup.tolist(),
                   trial.event.tolist(), trial.z.tolist())
        path = tmp_path / "drawn.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(["id", "arm", "entry_time", "followup_time", "event", *names]) + "\n")
            for i, (arm, entry, followup, event, z) in enumerate(rows):
                fh.write(",".join([f"s{i}", str(arm), repr(entry), repr(followup), str(event),
                                   *map(repr, z)]) + "\n")
        back = ingest_csv(str(path))
        assert back == trial
        for name in ("arm", "entry", "followup", "event", "z"):
            a, b = getattr(back, name), getattr(trial, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for u in (1.2, scn.total_duration):
            got, want = snapshot(back, u=u, tau=scn.tau)[0], snapshot(trial, u=u, tau=scn.tau)[0]
            for name in ("arm", "time", "event", "z"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSnapshot:
    def test_administrative_censoring_at_u(self):
        trial = make_trial((0, 0.5, 2.0, 1, (0.0,)), (1, 0.0, 3.0, 0, (0.0,)))
        snap = snapshot(trial, u=1.0, tau=1.0)[0]
        i = list(np.asarray(snap.arm)).index(0)
        assert snap.time[i] == pytest.approx(0.5)
        assert snap.event[i] == 0

    def test_future_enrollee_excluded(self):
        trial = make_trial((0, 2.0, 1.0, 1, (0.0,)), (1, 0.0, 1.0, 1, (0.0,)))
        snap = snapshot(trial, u=1.5, tau=1.0)[0]
        assert snap.n == 1 and snap.arms[0].n == 0 and snap.arms[1].n == 1

    def test_full_followup_observed(self):
        trial = make_trial((0, 0.0, 1.0, 1, (0.0,)), (1, 0.0, 2.0, 0, (0.0,)))
        snap = snapshot(trial, u=5.0, tau=2.0)[0]
        i = list(np.asarray(snap.arm)).index(0)
        assert snap.time[i] == pytest.approx(1.0)
        assert snap.event[i] == 1

    def test_entry_exactly_at_u_excluded(self):
        trial = make_trial((0, 1.0, 1.0, 1, (0.0,)), (1, 0.0, 1.0, 1, (0.0,)))
        snap = snapshot(trial, u=1.0, tau=1.0)[0]
        assert snap.n == 1

    def test_empty_snapshot_rejected(self):
        trial = make_trial((0, 2.0, 1.0, 1, (0.0,)))
        with pytest.raises(DataError, match="empty snapshot"):
            snapshot(trial, u=1.0, tau=1.0)

    def test_lock_time_guard(self):
        trial = toy_trial()
        snapshot(trial, u=1.0, tau=1.0, lock_time=1.0)
        with pytest.raises(DataError, match="lock"):
            snapshot(trial, u=2.0, tau=1.0, lock_time=1.5)

    def test_counts_by_arm(self):
        snap = snapshot(toy_trial(), u=5.0, tau=2.0)[0]
        assert (snap.arms[0].n, snap.arms[1].n) == (4, 4)
        assert snap.n == 8 and snap.z.shape[1] == 1

    def test_pooled_last_look_lays_out_as_its_own_snapshot(self):
        # the pooled comparator of a stack's last look is bit for bit that of a snapshot of the look alone
        scn = SimScenario(n_per_arm=60, covariate_strength=0.5, shape_offset=-0.3)
        trial = draw_trial(scn, np.random.default_rng(5))
        grid = np.round(np.arange(1, 31) * 0.1, 10)
        got = snapshot(trial, u=grid, tau=1.0).pooled(slice(-1, None))
        want = snapshot(trial, u=grid[-1], tau=1.0).pooled()
        for name in Snapshot.__slots__:
            parts = [getattr(s, name) for s in (got, want)]
            if not isinstance(parts[0], (list, tuple)):  # orders and upper hold several arrays
                parts = [[part] for part in parts]
            for a, b in zip(*parts, strict=True):
                assert np.asarray(a).dtype == np.asarray(b).dtype and np.array_equal(a, b), name

    def test_standardize_constant_column_rejected(self):
        trial = make_trial((0, 0.0, 1.0, 1, (1.0,)), (1, 0.0, 2.0, 1, (1.0,)))
        snap = snapshot(trial, u=3.0, tau=1.0)
        with pytest.raises(DataError, match="constant covariate"):
            standardize_covariates(snap)

    def test_standardize_centers_and_scales(self):
        snap = snapshot(toy_trial(), u=5.0, tau=2.0)
        std = standardize_covariates(snap)[0]
        assert abs(float(std.z.mean())) < 1e-12
        assert float(std.z.std()) == pytest.approx(1.0)


def _columns(n):
    """A strategy for trials of ``n`` subjects, drawn column by column."""
    binary = st.lists(st.integers(0, 1), min_size=n, max_size=n)

    def floats(lo, hi):
        return st.lists(st.floats(lo, hi, allow_nan=False), min_size=n, max_size=n)

    return st.builds(
        Trial,
        arm=binary,
        entry=floats(0.0, 3.0),
        followup=floats(0.0, 5.0),
        event=binary,
        z=floats(-2.0, 2.0).map(lambda v: np.reshape(v, (n, 1))),
    )


cohorts = st.integers(1, 25).flatmap(_columns)
analysis_times = st.floats(0.05, 8.0, allow_nan=False)


def _kept_rows(snap, trial, u):
    """Row indices of the trial's subjects a snapshot at ``u`` keeps, in its order."""
    kept = np.flatnonzero(trial.entry < u)
    assert snap.n == kept.size
    return kept.tolist()


class TestSnapshotProperties:
    @given(trial=cohorts, u1=analysis_times, u2=analysis_times)
    def test_monotone_in_analysis_time(self, trial, u1, u2):
        lo, hi = sorted((u1, u2))
        if lo == hi:
            hi = lo + 0.5
        try:
            early = snapshot(trial, u=lo, tau=1.0)[0]
        except DataError:
            return
        late = snapshot(trial, u=hi, tau=1.0)[0]
        kept_early = _kept_rows(early, trial, lo)
        kept_late = _kept_rows(late, trial, hi)
        index_late = {row: k for k, row in enumerate(kept_late)}
        for k, row in enumerate(kept_early):
            m = index_late[row]
            assert early.time[k] <= late.time[m] + 1e-12
            assert early.event[k] <= late.event[m]

    @given(trial=cohorts, u=analysis_times)
    def test_lock_time_idempotence(self, trial, u):
        lock = float(np.max(trial.entry + trial.followup)) + 1.0
        try:
            snap = snapshot(trial, u=lock, tau=1.0)[0]
        except DataError:
            return
        for k, row in enumerate(_kept_rows(snap, trial, lock)):
            assert snap.time[k] == pytest.approx(min(trial.followup[row], lock - trial.entry[row]))
            if trial.followup[row] <= lock - trial.entry[row]:
                assert snap.event[k] == trial.event[row]

    @given(trial=cohorts, u1=analysis_times, u2=analysis_times)
    def test_resnapshot_composition(self, trial, u1, u2):
        early_u, late_u = sorted((u1, u2))
        if early_u == late_u:
            return
        try:
            direct = snapshot(trial, u=early_u, tau=1.0)[0]
        except DataError:
            return
        late = snapshot(trial, u=late_u, tau=1.0)[0]
        kept = _kept_rows(late, trial, late_u)
        entries = trial.entry[kept]
        again = snapshot_from_arrays(
            entries, np.asarray(late.time), np.asarray(late.event),
            np.asarray(late.arm), np.asarray(late.z), u=early_u, tau=1.0,
        )[0]
        assert again.n == direct.n
        np.testing.assert_allclose(np.sort(again.time), np.sort(direct.time), atol=1e-12)
        assert int(again.event.sum()) == int(direct.event.sum())

    @given(trial=cohorts, u=analysis_times)
    def test_snapshot_invariants(self, trial, u):
        try:
            snap = snapshot(trial, u=u, tau=1.0)[0]
        except DataError:
            return
        for k, row in enumerate(_kept_rows(snap, trial, u)):
            assert 0.0 <= snap.time[k] <= min(trial.followup[row], u - trial.entry[row]) + 1e-12
            if snap.event[k]:
                assert snap.time[k] == pytest.approx(trial.followup[row])
        assert snap.arms[0].n + snap.arms[1].n == snap.n
