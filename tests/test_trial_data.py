"""Trial columns, CSV ingestion and calendar-time snapshot behavior."""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest
from conftest import enrolled, make_trial, monotone_trial, toy_trial
from hypothesis import given
from hypothesis import strategies as st

from rmstgst import trial_data
from rmstgst.adjusted_rmst import analyze
from rmstgst.errors import DataError, InsufficientEventsError
from rmstgst.km_rmst import km_rmst_test
from rmstgst.sim_engine import SimScenario, cox_hr_test, draw_trial
from rmstgst.stratified_cox import fit
from rmstgst.trial_data import (
    CsvSchema,
    Snapshot,
    Trial,
    ingest_csv,
    snapshot,
    snapshot_from_arrays,
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
        path = tmp_path / "absent.csv"
        with pytest.raises(DataError) as err:
            ingest_csv(str(path))
        assert str(err.value) == f"cannot read trial CSV {path}: No such file or directory"

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

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # spreadsheets save "CSV UTF-8" with a byte-order mark before the header
        path = write_csv(tmp_path / "t.csv", self.HEADER, [["s1", 1, 0.5, 2.0, 1, 0.3], ["s2", 0, 0.1, 1.0, 0, -0.2]])
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "t.csv").read_bytes())
        plain, trial = ingest_csv(path), ingest_csv(str(marked))
        for name in ("arm", "entry", "followup", "event", "z"):
            np.testing.assert_array_equal(getattr(trial, name), getattr(plain, name))
        marked.write_bytes(marked.read_bytes() + b"s3,0,0.1,1.0,0,0.\xff\n")  # lines still count from the mark
        with pytest.raises(DataError, match=r": line 4: not UTF-8 text"):
            ingest_csv(str(marked))

    @pytest.mark.parametrize("schema, twice", [
        (CsvSchema(covariates=("z1", "z1")), ["z1"]),
        (CsvSchema(covariates=("arm",)), ["arm"]),
        (CsvSchema(event="arm", covariates=("z1", "entry_time")), ["arm", "entry_time"]),
    ], ids=["covariate-twice", "required-as-covariate", "two-columns"])
    def test_column_mapped_twice_rejected_before_the_rows(self, tmp_path, schema, twice):
        path = write_csv(tmp_path / "t.csv", self.HEADER, [["s1", 2, 0.5, 2.0, 1, 0.3]])  # a bad arm, not reached
        with pytest.raises(DataError, match=rf"^{re.escape(path)}: columns mapped to more than one field: "
                                            rf"{re.escape(str(twice))}$"):
            ingest_csv(path, schema)

    def test_field_over_csv_limit_reported_with_line(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv", self.HEADER,
            [["s1", 0, 0.1, 1.0, 0, 0.1], ["s2", 0, 0.1, 1.0, 0, "9" * 200_000]],
        )
        with pytest.raises(DataError, match=rf"^{re.escape(path)}: line 3: field larger than field limit"):
            ingest_csv(path)


def edge_csv(path):
    """A CSV whose problems sit on the edges of 8-row blocks: 47 kept rows, a quoted id holding a newline in
    the fourth (so a row's file line is not its index + 3 from there on), and blank lines."""
    def row(k, sid=None, arm=None, entry=None, event=None, z1=None):
        return ",".join([f"s{k}" if sid is None else sid, str(k % 2) if arm is None else arm,
                         f"0.{k}" if entry is None else entry, f"{k + 1}.25",
                         str(k // 2 % 2) if event is None else event, repr(k / 7) if z1 is None else z1, f"-{k}e-3"])
    lines = ["id,arm,entry_time,followup_time,event,z1,z2", ""]
    lines += [row(k, sid='"s\n3"' if k == 3 else None) for k in range(8)]
    lines += ["s_short,0,0.5,1.0,1,0.2"]  # a wrong field count where the second block opens
    lines += [row(8, sid="")] + [row(k) for k in range(9, 11)] + ["", ""] + [row(k) for k in range(11, 15)]
    lines += [row(15, z1="oops")]  # the second block's last row
    lines += [row(16, arm="2")] + [row(k) for k in range(17, 23)]
    lines += [row(23, sid="s7", entry="-1")]  # its first copy two blocks back; the id is what the row reports
    lines += [row(k, event="3") for k in range(24, 44)] + [row(k) for k in range(44, 47)] + ["", ""]
    path.write_text("\n".join(lines), encoding="utf-8")
    return str(path)


class TestIngestBlocks:
    """Rows are parsed and checked a block at a time; the file reads as one parse of all its rows did."""

    EDGES = ("25 bad row(s)\n  line 12: expected 7 fields, got 6\n  line 13: missing id\n"
             "  line 22: covariate 'z1' must be finite, got 'oops'\n  line 23: arm must be 0 or 1, got '2'\n"
             "  line 30: duplicate id 's7'\n"
             + "".join(f"  line {n}: event must be 0 or 1, got '3'\n" for n in range(31, 46)) + "  ... and 5 more")

    @pytest.mark.parametrize("rows", [1, 3, 8, trial_data._BLOCK_ROWS])
    def test_problems_on_block_edges_read_as_one_parse(self, tmp_path, monkeypatch, rows):
        monkeypatch.setattr(trial_data, "_BLOCK_ROWS", rows)
        path = edge_csv(tmp_path / "edges.csv")
        with pytest.raises(DataError) as err:
            ingest_csv(path)
        assert str(err.value) == f"{path}: {self.EDGES}"

    def test_clean_blocks_equal_one_parse_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(41)
        n = 3 * trial_data._BLOCK_ROWS + 17
        cells = {
            "arm": [str(v) for v in rng.integers(0, 2, n).tolist()],
            "entry_time": [repr(v) for v in rng.uniform(0.0, 2.0, n).tolist()],
            "followup_time": [f"{v:.6e}" for v in rng.exponential(1.0, n).tolist()],
            "event": [str(v) for v in rng.integers(0, 2, n).tolist()],
            "z1": [repr(v) for v in rng.standard_normal(n).tolist()],
            "z2": [f" {v}" for v in rng.integers(-3, 4, n).tolist()],
        }
        path = tmp_path / "clean.csv"
        rows = [",".join(["id", *cells])] + [",".join([f"s{i}", *(c[i] for c in cells.values())]) for i in range(n)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        trial = ingest_csv(str(path))
        parsed = {name: np.array(column, dtype=np.float64) for name, column in cells.items()}
        for name, key in (("arm", "arm"), ("entry", "entry_time"), ("followup", "followup_time"), ("event", "event")):
            got = getattr(trial, name)
            assert got.tobytes() == parsed[key].astype(got.dtype).tobytes()
        assert trial.z.flags.c_contiguous and trial.z.shape == (n, 2)
        assert trial.z.tobytes() == np.column_stack([parsed["z1"], parsed["z2"]]).tobytes()

    @pytest.mark.parametrize("ending", ["\r", "\r\n", "mixed"], ids=["cr", "crlf", "mixed"])
    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_lines_end_at_cr_lf_and_crlf_alone(self, tmp_path, ending, mark):
        # quoted ids hold a line break and characters that str.splitlines would split at; each row is followed by
        # a blank line and a bad row, whose file line shows where the lines before it ended
        ids = ['"s\r\n1"', '"s\x0c2"', '"s\x853"', '"s\u20284"']
        lines = ["id,arm,entry_time,followup_time,event,z1"]
        for k, sid in enumerate(ids):
            lines += [f"{sid},{k % 2},0.{k},1.{k},1,{k}e-1", "", f"b{k},2,0.5,1.5,1,0.25"]
        ends = ["\n", "\r", "\r\n"] if ending == "mixed" else [ending]  # never a CR before an LF
        path, good = tmp_path / "ends.csv", tmp_path / "good.csv"
        for out, kept in ((path, lines), (good, [line for line in lines if not line.startswith("b")])):
            out.write_bytes(mark + "".join(line + ends[i % len(ends)] for i, line in enumerate(kept)).encode())
        with pytest.raises(DataError) as err:
            ingest_csv(str(path))
        assert str(err.value) == f"{path}: 4 bad row(s)\n" + "\n".join(
            f"  line {n}: arm must be 0 or 1, got '2'" for n in (5, 8, 11, 14))
        trial = ingest_csv(str(good))
        assert trial.arm.tolist() == [0, 1, 0, 1] and trial.event.tolist() == [1, 1, 1, 1]
        assert trial.entry.tolist() == [0.0, 0.1, 0.2, 0.3] and trial.followup.tolist() == [1.0, 1.1, 1.2, 1.3]
        assert trial.z.tolist() == [[0.0], [0.1], [0.2], [0.3]]

    def test_ingest_memory_peak(self, tmp_path):
        # 10 000 rows, 8 columns as in the interim benchmark's trials: 2.35 MiB read as one stream of the file's
        # bytes; holding the decoded text in a StringIO peaked at 4.46 MiB, and every cell as text at 8.9 MiB
        rng = np.random.default_rng(7)
        n = 10_000
        path = tmp_path / "large.csv"
        lines = ["id,arm,entry_time,followup_time,event,x1,x2,x3"]
        lines += [f"s{i},{i % 2},{e!r},{f!r},{d},{x!r},{b},{c}" for i, (e, f, d, x, b, c) in enumerate(zip(
            rng.uniform(0.0, 2.0, n).tolist(), rng.exponential(1.0, n).tolist(), rng.integers(0, 2, n).tolist(),
            rng.standard_normal(n).tolist(), rng.integers(0, 2, n).tolist(), rng.integers(0, 2, n).tolist()))]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tracemalloc.start()
        try:
            trial = ingest_csv(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trial) == n and peak < 3 * 2**20, f"ingest peaked at {peak / 2**20:.2f} MiB"


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
        for name in ("arm", "entry", "followup", "event", "z"):
            a, b = getattr(back, name), getattr(trial, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for u in (1.2, scn.total_duration):
            got, want = enrolled(snapshot(back, u=u, tau=scn.tau)), enrolled(snapshot(trial, u=u, tau=scn.tau))
            for name in ("arm", "time", "event", "z"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSnapshot:
    def test_administrative_censoring_at_u(self):
        trial = make_trial((0, 0.5, 2.0, 1, (0.0,)), (1, 0.0, 3.0, 0, (0.0,)))
        snap = enrolled(snapshot(trial, u=1.0, tau=1.0))
        i = list(np.asarray(snap.arm)).index(0)
        assert snap.time[i] == pytest.approx(0.5)
        assert snap.event[i] == 0

    def test_future_enrollee_excluded(self):
        trial = make_trial((0, 2.0, 1.0, 1, (0.0,)), (1, 0.0, 1.0, 1, (0.0,)))
        snap = snapshot(trial, u=1.5, tau=1.0)
        assert enrolled(snap).n == 1 and snap.stratum_n.tolist() == [0, 1]

    def test_full_followup_observed(self):
        trial = make_trial((0, 0.0, 1.0, 1, (0.0,)), (1, 0.0, 2.0, 0, (0.0,)))
        snap = enrolled(snapshot(trial, u=5.0, tau=2.0))
        i = list(np.asarray(snap.arm)).index(0)
        assert snap.time[i] == pytest.approx(1.0)
        assert snap.event[i] == 1

    def test_entry_exactly_at_u_excluded(self):
        trial = make_trial((0, 1.0, 1.0, 1, (0.0,)), (1, 0.0, 1.0, 1, (0.0,)))
        snap = enrolled(snapshot(trial, u=1.0, tau=1.0))
        assert snap.n == 1

    def test_empty_snapshot_rejected(self):
        trial = make_trial((0, 2.0, 1.0, 1, (0.0,)))
        with pytest.raises(DataError, match="empty snapshot"):
            snapshot(trial, u=1.0, tau=1.0)

    def test_every_method_keeps_the_snapshots_missing_arm_error(self):
        snap = snapshot(monotone_trial(), u=[0.1, 0.12, 0.5], tau=1.0)  # no events yet, then none in arm 1
        want = [f"arm {arm} has no events at or before min(u, tau)={u}; the analysis needs at least one per arm"
                for arm, u in ((0, 0.1), (1, 0.12))]
        errors = snap.look_errors()
        assert [str(error) for error in errors[:2]] == want and errors[2] is None
        assert all(type(error) is InsufficientEventsError for error in errors[:2])
        for method in (fit, km_rmst_test, cox_hr_test, analyze):
            method_errors = method(snap).errors
            assert [type(error) for error in method_errors[:2]] == [InsufficientEventsError] * 2
            assert [str(error) for error in method_errors[:2]] == want

    def test_lock_time_guard(self):
        trial = toy_trial()
        snapshot(trial, u=1.0, tau=1.0, lock_time=1.0)
        with pytest.raises(DataError, match="lock"):
            snapshot(trial, u=2.0, tau=1.0, lock_time=1.5)

    @pytest.mark.parametrize("lock_time", [float("nan"), float("inf")])
    def test_lock_time_must_be_finite(self, lock_time):
        with pytest.raises(DataError, match="lock at .* must be finite"):
            snapshot(toy_trial(), u=1.0, tau=1.0, lock_time=lock_time)

    @pytest.mark.parametrize("u", [0.0, -1.0, float("nan"), float("inf"), []])
    def test_u_must_be_finite_and_positive(self, u):
        with pytest.raises(DataError, match="analysis time u must be finite and > 0"):
            snapshot(toy_trial(), u=u, tau=1.0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
    def test_tau_must_be_finite_and_positive(self, tau):
        with pytest.raises(DataError, match="horizon tau must be finite and > 0"):
            snapshot(toy_trial(), u=1.0, tau=tau)

    def test_counts_by_arm(self):
        snap = snapshot(toy_trial(), u=5.0, tau=2.0)
        assert snap.stratum_n.tolist() == [4, 4]
        assert enrolled(snap).n == 8 and snap.z.shape[1] == 1

    def test_one_trial_stack_is_the_trial_alone(self):
        trial = draw_trial(SimScenario(n_per_arm=40, covariate_strength=0.5), np.random.default_rng(3))
        got, want = (snapshot(t, u=[0.5, 1.5, 3.0], tau=1.0) for t in ([trial], trial))
        for name in Snapshot.__slots__:
            parts = [getattr(s, name) for s in (got, want)]
            if not isinstance(parts[0], (list, tuple)):  # orders and upper hold several arrays
                parts = [[part] for part in parts]
            for a, b in zip(*parts, strict=True):
                assert np.asarray(a).dtype == np.asarray(b).dtype and np.array_equal(a, b), name

    def test_stacked_look_sees_only_its_own_trial(self):
        # look r * L + k is trial r at u[k]: its columns, strata and event rows are those of trial r alone
        trials = [draw_trial(SimScenario(n_per_arm=n, covariate_strength=0.5), np.random.default_rng(n))
                  for n in (30, 5, 50)]
        u = [0.3, 1.5, 3.0]
        stack = snapshot(trials, u=u, tau=1.0)
        assert stack.u.tolist() == u * 3 and len(stack.arm) == sum(len(t) for t in trials)
        assert stack.time.shape == stack.event.shape == (9, 100)  # the largest trial's 100 subjects
        start = 0
        for r, trial in enumerate(trials):
            alone = snapshot(trial, u=u, tau=1.0)
            own = slice(start, start + len(trial))
            start += len(trial)
            np.testing.assert_array_equal(stack.z[own], alone.z)
            for k in range(len(u)):
                j = r * len(u) + k
                assert stack.offset[j] == own.start
                np.testing.assert_array_equal(stack.time[j, :len(trial)], alone.time[k])
                np.testing.assert_array_equal(stack.event[j, :len(trial)], alone.event[k])
                # a shorter trial's padding columns: never enrolled, no events
                assert np.all(stack.time[j, len(trial):] == -1) and not stack.event[j, len(trial):].any()
                assert stack.stratum_n[2 * j:2 * j + 2].tolist() == alone.stratum_n[2 * k:2 * k + 2].tolist()
                rows = slice(*stack.stratum_rows[[2 * j, 2 * j + 2]])
                solo = slice(*alone.stratum_rows[[2 * k, 2 * k + 2]])
                for name in ("event_times", "event_counts", "at_risk"):
                    np.testing.assert_array_equal(getattr(stack, name)[rows], getattr(alone, name)[solo])
                for name in ("arm", "time", "event", "z"):
                    np.testing.assert_array_equal(getattr(enrolled(stack, j), name), getattr(enrolled(alone, k), name))

    def test_each_trial_standardized_on_its_own(self):
        # the second trial is the first with each covariate in other units; the third covariate is constant, and
        # the rounded mean of 80 copies of 0.1 is not 0.1
        first = draw_trial(SimScenario(n_per_arm=40, covariates="bernoulli2", covariate_strength=1.0),
                           np.random.default_rng(5))
        columns = {name: getattr(first, name) for name in ("arm", "entry", "followup", "event")}
        z = np.column_stack((first.z, np.full(len(first), 0.1)))
        trials = [Trial(**columns, z=z), Trial(**columns, z=z * [1e4, 1e-6, 3.0] + [1e6, 0.0, 7.0])]
        u = [0.8, 1.5, 3.0]
        stack = snapshot(trials, u=u, tau=1.0)
        n = len(first)
        for r, trial in enumerate(trials):
            alone = snapshot(trial, u=u, tau=1.0)
            block = stack.z[r * n:(r + 1) * n]
            np.testing.assert_array_equal(block, alone.z)  # bit for bit, whatever shares the stack
            for k in range(len(u)):
                np.testing.assert_array_equal(enrolled(stack, r * len(u) + k).z, enrolled(alone, k).z)
            np.testing.assert_allclose(block[:, :2].mean(axis=0), 0.0, atol=1e-13)  # 1e6's rounding over 1e4
            np.testing.assert_allclose(block[:, :2].std(axis=0), 1.0, rtol=1e-14)
            assert np.all(block[:, 2] == 0.0)
        np.testing.assert_allclose(stack.z[n:], stack.z[:n], rtol=0, atol=1e-10)  # the units drop out

    def test_a_lone_trial_covariates_are_copied(self):
        trial = toy_trial()
        snap = snapshot(trial, u=5.0, tau=2.0)
        assert not np.shares_memory(snap.z, trial.z) and snap.arm is trial.arm

    def test_stack_keeps_a_trial_with_nobody_enrolled(self):
        late = make_trial((0, 2.0, 1.0, 1, (0.0,)), (1, 2.5, 1.0, 1, (0.0,)))
        stack = snapshot([toy_trial(), late], u=[1.0, 1.5], tau=1.0)
        assert stack.stratum_n.reshape(2, -1).tolist() == [[4, 4, 4, 4], [0, 0, 0, 0]]
        assert stack.time.shape == (4, 8) and stack.offset.tolist() == [0, 0, 8, 8]
        assert np.all(stack.time[2:] == -1) and not stack.event[2:].any()  # late's two subjects and six padding
        with pytest.raises(DataError, match="empty snapshot"):
            snapshot([late, late], u=[1.0, 1.5], tau=1.0)

    @pytest.mark.parametrize("reps, n, looks", [(1, 60, 1), (8, 400, 3), (5, 60, 31)])
    def test_stack_memory_is_linear_in_the_trials(self, reps, n, looks):
        # each look holds its own trial's n columns, not the whole group's reps * n
        scn = SimScenario(n_per_arm=n // 2, covariate_strength=0.5)
        trials = [draw_trial(scn, np.random.default_rng(rep)) for rep in range(reps)]
        stack = snapshot(trials, u=np.linspace(scn.total_duration / looks, scn.total_duration, looks), tau=1.0)
        assert stack.time.shape == stack.event.shape == (reps * looks, n)
        assert stack.stratum_times.shape[0] == 2 * reps * looks and stack.stratum_times.shape[1] <= n
        assert stack.risk_cols.shape[0] == 2 * reps * looks and stack.risk_cols.shape[2] <= n

    @pytest.mark.parametrize("trials", [[], [make_trial((0, 0.0, 1.0, 1, (0.0,))),
                                             make_trial((0, 0.0, 1.0, 1, (0.0, 1.0)))]])
    def test_stack_needs_trials_with_the_same_covariates(self, trials):
        with pytest.raises(DataError, match="one or more trials, all with the same number of covariates"):
            snapshot(trials, u=1.0, tau=1.0)


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
            early = enrolled(snapshot(trial, u=lo, tau=1.0))
        except DataError:
            return
        late = enrolled(snapshot(trial, u=hi, tau=1.0))
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
            snap = enrolled(snapshot(trial, u=lock, tau=1.0))
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
            direct = enrolled(snapshot(trial, u=early_u, tau=1.0))
        except DataError:
            return
        late = enrolled(snapshot(trial, u=late_u, tau=1.0))
        kept = _kept_rows(late, trial, late_u)
        entries = trial.entry[kept]
        again = enrolled(snapshot_from_arrays(
            entries, np.asarray(late.time), np.asarray(late.event),
            np.asarray(late.arm), np.asarray(late.z), u=early_u, tau=1.0,
        ))
        assert again.n == direct.n
        np.testing.assert_allclose(np.sort(again.time), np.sort(direct.time), atol=1e-12)
        assert int(again.event.sum()) == int(direct.event.sum())

    @given(trial=cohorts, u=analysis_times)
    def test_snapshot_invariants(self, trial, u):
        try:
            full = snapshot(trial, u=u, tau=1.0)
        except DataError:
            return
        snap = enrolled(full)
        for k, row in enumerate(_kept_rows(snap, trial, u)):
            assert 0.0 <= snap.time[k] <= min(trial.followup[row], u - trial.entry[row]) + 1e-12
            if snap.event[k]:
                assert snap.time[k] == pytest.approx(trial.followup[row])
        assert full.stratum_n.sum() == snap.n
