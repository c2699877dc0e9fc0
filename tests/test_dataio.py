import hashlib
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from survscreen import dataio
from survscreen.dataio import (
    ScenarioConfig,
    build_manifest,
    float_repr,
    read_dataset,
    read_records,
    read_scenario,
    sha256_file,
    write_dataset,
    write_manifest,
    write_ranking,
    write_records,
    write_scenario,
    write_summary,
)
from survscreen.evaluate import ReplicationRecord, summarize_records
from survscreen.exceptions import ParseError, ValidationError
from survscreen.screening import SurvivalDataset, screen
from survscreen.simulate import SimScenario, generate
from survscreen.workers import JOBS_ENV_VAR, default_jobs, fork_map


def toy_dataset(rng=None, n=5, p=3):
    rng = rng or np.random.default_rng(0)
    return SurvivalDataset(
        times=rng.gamma(2.0, 1.0, n),
        status=np.array([1, 0] * (n // 2) + [1] * (n % 2), dtype=np.int8),
        covariates=rng.standard_normal((n, p)),
    )


class TestFloatRepr:
    def test_round_trips_exactly(self):
        rng = np.random.default_rng(1)
        values = list(rng.standard_normal(200)) + [
            0.1,
            1e-300,
            1e300,
            -2.5,
            12345.6789,
        ]
        for v in values:
            assert float(float_repr(v)) == float(v)

    def test_compact_for_simple_decimals(self):
        assert float_repr(0.2) == "0.2"
        assert float_repr(1.0) == "1.0"


class TestDatasetRoundTrip:
    def test_values_survive_bit_for_bit(self, tmp_path):
        data = toy_dataset()
        path = tmp_path / "d.csv"
        write_dataset(path, data)
        back = read_dataset(path)
        assert np.array_equal(back.times, data.times)
        assert np.array_equal(back.status, data.status)
        assert np.array_equal(back.covariates, data.covariates)

    def test_rewrite_is_byte_identical(self, tmp_path):
        data = toy_dataset(np.random.default_rng(2), n=7, p=4)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset(a, data)
        write_dataset(b, read_dataset(a))
        assert a.read_bytes() == b.read_bytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset(path, toy_dataset(n=4, p=2))
        lines = path.read_text().splitlines()
        assert lines[0] == "time,status,z1,z2"
        assert len(lines) == 5


class TestReadDatasetValidation:
    def write(self, tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_text(text)
        return path

    def test_well_formed(self, tmp_path):
        path = self.write(
            tmp_path,
            "time,status,z1,z2\n1.5,1,0.1,0.2\n2.5,0,0.3,0.4\n3.5,1,0.5,0.6\n",
        )
        data = read_dataset(path)
        assert data.n == 3 and data.p == 2

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError, match="empty"):
            read_dataset(self.write(tmp_path, ""))

    def test_wrong_header_field(self, tmp_path):
        with pytest.raises(ParseError, match="'time'"):
            read_dataset(self.write(tmp_path, "t,status,z1\n1,1,2\n"))
        with pytest.raises(ParseError, match="'z2'"):
            read_dataset(self.write(tmp_path, "time,status,z1,zz\n1,1,2,3\n"))

    def test_ragged_row_reports_line(self, tmp_path):
        err = None
        try:
            read_dataset(
                self.write(
                    tmp_path,
                    "time,status,z1\n1.0,1,0.5\n2.0,0\n3.0,1,0.7\n",
                )
            )
        except ParseError as exc:
            err = exc
        assert err is not None
        assert err.line == 3
        assert "expected 3 fields" in err.reason

    def test_non_numeric_time(self, tmp_path):
        with pytest.raises(ParseError, match="not a number"):
            read_dataset(
                self.write(tmp_path, "time,status,z1\nfast,1,0.5\n2.0,0,0.1\n3.0,1,0.2\n")
            )

    def test_status_two_names_row_and_column(self, tmp_path):
        with pytest.raises(ValidationError, match="line 3, column 2"):
            read_dataset(
                self.write(tmp_path, "time,status,z1\n1.0,1,0.5\n2.0,2,0.1\n3.0,1,0.2\n")
            )

    def test_negative_time_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="nonnegative"):
            read_dataset(
                self.write(tmp_path, "time,status,z1\n1.0,1,0.5\n-2.0,0,0.1\n3.0,1,0.2\n")
            )

    def test_nan_covariate_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="finite"):
            read_dataset(
                self.write(tmp_path, "time,status,z1\n1.0,1,0.5\n2.0,0,nan\n3.0,1,0.2\n")
            )

    def test_blank_interior_row(self, tmp_path):
        with pytest.raises(ParseError, match="empty row"):
            read_dataset(
                self.write(tmp_path, "time,status,z1\n1.0,1,0.5\n\n3.0,1,0.2\n")
            )


_HEADER = "time,status,z1,z2,z3"
_ROWS = ["1.5,1,0.1,0.2,0.3", "2.5,0,0.4,0.5,0.6", "3.5,1,0.7,0.8,0.9", "4.5,0,1.0,1.1,1.2"]


def _with_line_4(text):
    return "\n".join([_HEADER, *_ROWS[:2], text, _ROWS[3]]) + "\n"


# Each defect sits on line 4; the messages are frozen as released.
_DEFECTS = {
    "time_not_a_number": (
        _with_line_4("fast,1,0.7,0.8,0.9"),
        ParseError, "line 4, column 1: time 'fast' is not a number",
    ),
    "covariate_not_a_number": (
        _with_line_4("3.5,1,0.7,0..8,0.9"),
        ParseError, "line 4, column 4: z2 '0..8' is not a number",
    ),
    "covariate_empty_field": (
        _with_line_4("3.5,1,0.7,,0.9"),
        ParseError, "line 4, column 4: z2 '' is not a number",
    ),
    "time_nan": (
        _with_line_4("nan,1,0.7,0.8,0.9"),
        ValidationError, "line 4, column 1: time must be finite",
    ),
    "time_inf": (
        _with_line_4("inf,1,0.7,0.8,0.9"),
        ValidationError, "line 4, column 1: time must be finite",
    ),
    "covariate_nan": (
        _with_line_4("3.5,1,0.7,0.8,nan"),
        ValidationError, "line 4, column 5: z3 must be finite",
    ),
    "covariate_neg_inf": (
        _with_line_4("3.5,1,0.7,-inf,0.9"),
        ValidationError, "line 4, column 4: z2 must be finite",
    ),
    "covariate_overflow": (
        _with_line_4("3.5,1,1e999,0.8,0.9"),
        ValidationError, "line 4, column 3: z1 must be finite",
    ),
    "time_negative": (
        _with_line_4("-2.0,1,0.7,0.8,0.9"),
        ValidationError, "line 4, column 1: time must be nonnegative, got -2.0",
    ),
    "time_negative_spaced": (
        _with_line_4(" -2e0 ,1,0.7,0.8,0.9"),
        ValidationError, "line 4, column 1: time must be nonnegative, got  -2e0 ",
    ),
    "status_1.0": (
        _with_line_4("3.5,1.0,0.7,0.8,0.9"),
        ValidationError, "line 4, column 2: status must be 0 or 1, got '1.0'",
    ),
    "status_2": (
        _with_line_4("3.5,2,0.7,0.8,0.9"),
        ValidationError, "line 4, column 2: status must be 0 or 1, got '2'",
    ),
    "status_spaced": (
        _with_line_4("3.5, 1,0.7,0.8,0.9"),
        ValidationError, "line 4, column 2: status must be 0 or 1, got ' 1'",
    ),
    "too_few_fields": (
        _with_line_4("3.5,1,0.7,0.8"),
        ParseError, "line 4, column 1: expected 5 fields, got 4",
    ),
    "too_many_fields": (
        _with_line_4("3.5,1,0.7,0.8,0.9,1.0"),
        ParseError, "line 4, column 1: expected 5 fields, got 6",
    ),
    "one_field": (
        _with_line_4("3.5"),
        ParseError, "line 4, column 1: expected 5 fields, got 1",
    ),
    "empty_row": (
        _with_line_4(""),
        ParseError, "line 4, column 1: empty row",
    ),
    "time_before_covariate": (
        _with_line_4("x,1,0.7,y,0.9"),
        ParseError, "line 4, column 1: time 'x' is not a number",
    ),
    "status_before_covariate": (
        _with_line_4("3.5,2,0.7,nan,0.9"),
        ValidationError, "line 4, column 2: status must be 0 or 1, got '2'",
    ),
    "earlier_line_first": (
        "\n".join([_HEADER, _ROWS[0], "2.5,0,0.4,inf,0.6", "3.5,1,0.7,zz,0.9", _ROWS[3]]) + "\n",
        ValidationError, "line 3, column 4: z2 must be finite",
    ),
    "header_only": (
        _HEADER + "\n",
        ValidationError, "need at least 3 subjects, got 0",
    ),
}


@pytest.mark.usefixtures("reader")  # split, each row is a range that numbers its own line
@pytest.mark.parametrize("defect", sorted(_DEFECTS))
def test_read_dataset_error_type_and_message(tmp_path, defect):
    text, kind, message = _DEFECTS[defect]
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_dataset(path)
    assert type(info.value) is kind
    assert str(info.value) == message


@pytest.fixture(params=["one_range", "split"])
def reader(request, monkeypatch):
    """The job count ``read_dataset`` should hand ``fork_map``, and a list of the
    counts it hands: ``default_jobs()`` at the default range size, where a
    small file is one range, cast in the caller, or 2 with one-byte ranges,
    where two forked workers cast even a tiny file."""
    jobs = default_jobs()
    if request.param == "split":
        jobs = 2
        monkeypatch.setattr(dataio, "RANGE_BYTES", 1)
        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    handed = []

    def counted(fn, tasks, j):
        handed.append(j)
        return fork_map(fn, tasks, j)

    monkeypatch.setattr(dataio, "fork_map", counted)
    return jobs, handed


class TestReadDatasetOnBothPaths:
    def test_bad_header_then_a_byte_that_is_not_utf8(self, tmp_path, reader):
        path = tmp_path / "in.csv"
        path.write_bytes(b"time,stat,z1\n1,1,2\n2,0,\xff\n")
        with pytest.raises(ValidationError) as info:
            read_dataset(path)
        assert str(info.value) == f"{path}: not UTF-8 text (invalid start byte at byte 23)"
        _, handed = reader
        assert handed == []  # the header fails before any range is cast

    def test_carriage_returns_alone_break_the_lines(self, tmp_path, reader):
        path = tmp_path / "in.csv"
        path.write_bytes(b"time,status,z1\r1,1,2\r2,0,3\r3,1,4\r")
        data = read_dataset(path)
        assert data.times.tolist() == [1.0, 2.0, 3.0]
        assert data.status.tolist() == [1, 0, 1]
        assert data.covariates.tolist() == [[2.0], [3.0], [4.0]]
        jobs, handed = reader
        assert handed == [jobs]

    def test_error_after_mixed_line_breaks_names_the_file_line(self, tmp_path, reader):
        # Lines 2 and 3 share the header's physical line, so a range that
        # starts after it cannot number its rows; the error is the file's.
        path = tmp_path / "in.csv"
        path.write_bytes(b"time,status,z1\r1,1,2\r2,0,3\n3,1,4\n4,0,x\n")
        with pytest.raises(ParseError) as info:
            read_dataset(path)
        assert str(info.value) == "line 5, column 3: z1 'x' is not a number"
        jobs, handed = reader
        assert handed == [jobs]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    @pytest.mark.parametrize("ending", ["returns", "bad_row", "bad_header", "interrupted"])
    def test_every_descriptor_is_closed_however_the_read_ends(
        self, tmp_path, monkeypatch, reader, ending
    ):
        # One row per range, so the bad row on line 4 raises before line 5 is read.
        monkeypatch.setattr(dataio, "RANGE_BYTES", 1)
        if ending == "interrupted":
            def interrupted(fn, tasks, jobs):
                raise KeyboardInterrupt

            monkeypatch.setattr(dataio, "fork_map", interrupted)
        text = {
            "bad_row": _with_line_4("3.5,1,0.7,0..8,0.9"),
            "bad_header": "time,status,z1,z3\n" + "\n".join(_ROWS) + "\n",
        }.get(ending, "\n".join([_HEADER, *_ROWS]) + "\n")
        path = tmp_path / "in.csv"
        path.write_text(text, encoding="utf-8")
        before = sorted(os.listdir("/proc/self/fd"))
        if ending == "returns":
            assert read_dataset(path).n == 4
            assert sorted(os.listdir("/proc/self/fd")) == before
        else:
            # The error, and so every frame of its traceback, is still held here.
            with pytest.raises((ParseError, KeyboardInterrupt)) as info:
                read_dataset(path)
            assert sorted(os.listdir("/proc/self/fd")) == before
            assert info.type is (KeyboardInterrupt if ending == "interrupted" else ParseError)


def test_a_valid_file_that_loadtxt_refuses_counts_no_prefix(tmp_path, monkeypatch):
    # float() takes "1_0", loadtxt does not, so every range is checked row by
    # row; only a bad row makes its range count the lines before it.
    path = tmp_path / "in.csv"
    path.write_text("\n".join([_HEADER] + [f"{t}_0,{t % 2},1_0,2_0,3_0" for t in range(1, 6)]) + "\n")
    opened, text_lines = [], dataio._text_lines

    def counted(path, *span):
        opened.append(span)
        return text_lines(path, *span)

    monkeypatch.setattr(dataio, "_text_lines", counted)
    monkeypatch.setattr(dataio, "RANGE_BYTES", 1)
    monkeypatch.setenv(JOBS_ENV_VAR, "1")
    data = read_dataset(path)
    assert data.times.tolist() == [10.0, 20.0, 30.0, 40.0, 50.0]
    assert data.covariates.tolist() == [[10.0, 20.0, 30.0]] * 5
    # the header, then each of the 6 one-line ranges once, in file order
    header, *spans = opened
    assert header == () and len(spans) == 6
    assert [start for start, _ in spans] == [0] + [stop for _, stop in spans[:-1]]


class TestScenarioFile:
    def test_full_parse_with_comments(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(
            "# a scenario\n"
            "model = transformation\n"
            "n = 150\n"
            "p = 500\n\n"
            "censoring = informative\n"
            "target_cr = 0.4\n"
            "rho = 0.5\n"
            "seed = 11\n"
            "replications = 25\n"
        )
        config = read_scenario(path)
        sc = config.scenario
        assert sc.model == "transformation"
        assert (sc.n, sc.p, sc.seed) == (150, 500, 11)
        assert sc.censoring == "informative"
        assert sc.target_cr == 0.4 and sc.rho == 0.5
        assert config.replications == 25

    def test_defaults_applied(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("model = cox\nn = 100\np = 50\n")
        config = read_scenario(path)
        assert config.scenario.censoring == "random"
        assert config.scenario.target_cr == 0.20
        assert config.scenario.rho == 0.8
        assert config.scenario.seed == 0
        assert config.replications == 200

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("model = cox\nn = 100\n")
        with pytest.raises(ValidationError, match="'p'"):
            read_scenario(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("model = cox\nn = 100\np = 50\ncolor = red\n")
        with pytest.raises(ParseError, match="unknown key"):
            read_scenario(path)

    def test_duplicate_key_reports_line(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("model = cox\nn = 100\nn = 200\np = 50\n")
        with pytest.raises(ParseError, match="duplicate"):
            read_scenario(path)
        try:
            read_scenario(path)
        except ParseError as exc:
            assert exc.line == 3

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("model cox\n")
        with pytest.raises(ParseError, match="key = value"):
            read_scenario(path)

    def test_bad_int(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("model = cox\nn = many\np = 50\n")
        with pytest.raises(ValidationError, match="expected int"):
            read_scenario(path)

    def test_bad_model_value(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("model = weibull\nn = 100\np = 50\n")
        with pytest.raises(ValidationError, match="model"):
            read_scenario(path)

    def test_bad_replications(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("model = cox\nn = 100\np = 50\nreplications = 0\n")
        with pytest.raises(ValidationError, match="replications"):
            read_scenario(path)

    def test_write_read_round_trip(self, tmp_path):
        config = ScenarioConfig(
            scenario=SimScenario("nonlinear", 80, 60, "informative", 0.35, seed=3),
            replications=12,
        )
        path = tmp_path / "s.cfg"
        write_scenario(path, config)
        assert read_scenario(path) == config

    def test_write_bytes(self, tmp_path):
        config = ScenarioConfig(
            scenario=SimScenario("nonlinear", 80, 60, "informative", 0.35, seed=3),
            replications=12,
        )
        path = tmp_path / "s.cfg"
        write_scenario(path, config)
        assert path.read_bytes() == (
            b"model = nonlinear\n"
            b"n = 80\n"
            b"p = 60\n"
            b"censoring = informative\n"
            b"target_cr = 0.35\n"
            b"rho = 0.8\n"
            b"seed = 3\n"
            b"replications = 12\n"
        )


class TestRankingFile:
    def test_sorted_by_rank_with_selected_flags(self, tmp_path):
        data = toy_dataset(np.random.default_rng(3), n=30, p=6)
        result = screen(data, d_n=2)
        path = tmp_path / "r.csv"
        write_ranking(path, result)
        lines = path.read_text().splitlines()
        assert lines[0] == "covariate,utility,rank,selected"
        assert len(lines) == 7
        utilities = []
        for rank, line in enumerate(lines[1:], start=1):
            cov, util, rank_str, sel = line.split(",")
            assert int(rank_str) == rank
            assert sel == ("1" if rank <= 2 else "0")
            assert cov == f"z{result.ranking[rank - 1] + 1}"
            utilities.append(float(util))
        assert utilities == sorted(utilities, reverse=True)


class TestRecordsFile:
    def make_records(self):
        sc = SimScenario("cox", 40, 15, seed=4)
        recs = []
        from survscreen.evaluate import run_experiment

        recs, _ = run_experiment(sc, replications=3)
        return recs, sc

    def test_round_trip(self, tmp_path):
        recs, sc = self.make_records()
        path = tmp_path / "records.csv"
        write_records(path, recs, sc.active_set)
        back, active = read_records(path)
        assert active == sc.active_set
        assert back == recs

    def test_rewrite_byte_identical(self, tmp_path):
        recs, sc = self.make_records()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records(a, recs, sc.active_set)
        back, active = read_records(a)
        write_records(b, back, active)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("scenario,rep\nx,1\n")
        with pytest.raises(ParseError, match="header"):
            read_records(path)

    def test_bad_rank_column_name(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("scenario_id,rep,n,p,s,realized_cr,rank_q1\nx,0,5,2,1,0.2,1\n")
        with pytest.raises(ParseError, match="rank_z"):
            read_records(path)

    def test_non_integer_rank(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "scenario_id,rep,n,p,s,realized_cr,rank_z1\nx,0,5,2,1,0.2,first\n"
        )
        with pytest.raises(ParseError, match="not an integer"):
            read_records(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("x,0,2,15,2,0.2,1,2", "line 2, column 3: n must be at least 3, got 2"),
            ("x,0,50,15,2,0.2,2,0", "line 2, column 8: rank_z5 must lie in 1..15, got 0"),
            ("x,0,50,15,16,0.2,1,16", "line 2, column 8: rank_z5 must lie in 1..15, got 16"),
            ("x,0,50,15,1,0.2,1,6", "line 2, column 5: s must equal the largest rank, 6, got 1"),
            ("x,0,50,4,3,0.2,1,3", "line 2, column 8: rank_z5 names a covariate beyond p = 4"),
            ("x,0,50,15,3,0.2,3,3", "line 2, column 8: rank_z5 repeats rank 3 of rank_z1"),
        ],
        ids=[
            "n_below_3", "rank_zero", "rank_above_p", "s_not_largest_rank",
            "covariate_beyond_p", "duplicate_rank",
        ],
    )
    def test_row_no_screening_run_writes(self, tmp_path, row, message):
        path = tmp_path / "r.csv"
        path.write_text(f"scenario_id,rep,n,p,s,realized_cr,rank_z1,rank_z5\n{row}\n")
        with pytest.raises(ValidationError, match=re.escape(message)):
            read_records(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("scenario_id,rep,n,p,s,realized_cr,rank_z1\nx,0,5,2,1,0.2\n")
        with pytest.raises(ParseError, match="expected 7 fields"):
            read_records(path)


class TestSummaryFile:
    def test_layout(self, tmp_path):
        recs = [
            ReplicationRecord("sid", i, 50, 20, s, 0.2, {0: 1, 4: s})
            for i, s in enumerate([2, 3, 3, 40])
        ]
        summary = summarize_records(recs, [0, 4], d_n=10)
        path = tmp_path / "summary.csv"
        write_summary(path, [summary], [0, 4])
        lines = path.read_text().splitlines()
        assert lines[0] == "scenario_id,replications,d_n,s_median,s_iqr,pe_z1,pe_z5,p_a"
        fields = lines[1].split(",")
        assert fields[0] == "sid"
        assert fields[1] == "4" and fields[2] == "10"
        assert float(fields[3]) == 3.0
        assert float(fields[5]) == 1.0
        assert float(fields[6]) == 0.75
        assert float(fields[7]) == 0.75


class TestManifest:
    def test_build_and_write(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("time,status,z1\n")
        manifest = build_manifest(
            command="screen",
            version="0.1.0",
            inputs={"in.csv": sha256_file(src)},
            params={"d_n": 43},
            quantile_convention="linear interpolation between order statistics (type 7)",
        )
        path = tmp_path / "m.json"
        write_manifest(path, manifest)
        loaded = json.loads(path.read_text())
        assert loaded["params"]["d_n"] == 43
        assert loaded["inputs"]["in.csv"] == hashlib.sha256(
            src.read_bytes()
        ).hexdigest()
        assert "timestamp" in loaded

    def test_only_timestamp_differs_between_runs(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("payload")
        kwargs = dict(
            command="simulate",
            version="0.1.0",
            inputs={"in.csv": sha256_file(src)},
            params={"seed": 7},
            rng_stream="stream-id",
        )
        a = build_manifest(**kwargs)
        b = build_manifest(**kwargs)
        a.pop("timestamp")
        b.pop("timestamp")
        assert a == b


def test_generated_dataset_survives_file_round_trip(tmp_path):
    gen = generate(SimScenario("transformation", 50, 12, seed=9), 0)
    path = tmp_path / "gen.csv"
    write_dataset(path, gen.dataset)
    back = read_dataset(path)
    assert np.array_equal(back.times, gen.dataset.times)
    assert np.array_equal(back.covariates, gen.dataset.covariates)


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_dataset_holds_the_table_not_the_file(tmp_path, monkeypatch):
    # The file (about 4.7 MB) makes four ranges and is 2.5 times the
    # table; holding its text whole and split peaks near 4.9 tables.
    n, p = 60, 4000
    rng = np.random.default_rng(5)
    data = SurvivalDataset(rng.random(n), np.arange(n) % 2, rng.standard_normal((n, p)))
    path = tmp_path / "wide.csv"
    write_dataset(path, data)
    back, peak = traced_peak(read_dataset, path)
    assert back.covariates.tobytes() == data.covariates.tobytes()
    assert peak <= 3 * n * (p + 2) * 8

    # Cast by two forked workers, the caller holds the pieces they send and their join.
    splits = []

    def counted(fn, tasks, jobs):
        splits.append(min(len(tasks), jobs))
        return fork_map(fn, tasks, jobs)

    monkeypatch.setattr(dataio, "fork_map", counted)
    monkeypatch.setenv(JOBS_ENV_VAR, "2")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    back, peak = traced_peak(read_dataset, path)
    assert splits == [2]
    assert back.covariates.tobytes() == data.covariates.tobytes()
    assert peak <= 3 * n * (p + 2) * 8


def test_the_cut_and_the_casts_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    # About 5 MB, so 4 ranges of 1-2 MiB, each cast by one loadtxt call.
    n, p = 60, 4000
    rng = np.random.default_rng(6)
    data = SurvivalDataset(rng.random(n), np.arange(n) % 2, rng.standard_normal((n, p)))
    path = tmp_path / "wide.csv"
    write_dataset(path, data)
    handed, casts = [], []
    loadtxt = np.loadtxt

    def counted_map(fn, tasks, jobs):
        handed.append((tasks, jobs))
        return fork_map(fn, tasks, jobs)

    def counted_loadtxt(*args, **kwargs):
        casts.append(os.getpid())
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(dataio, "fork_map", counted_map)
    monkeypatch.setattr(np, "loadtxt", counted_loadtxt)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for jobs in ("1", "2"):
        monkeypatch.setenv(JOBS_ENV_VAR, jobs)
        assert read_dataset(path).covariates.tobytes() == data.covariates.tobytes()
    (serial, one), (split, two) = handed
    assert (one, two) == (1, 2)
    assert split == serial
    assert len(serial) == path.stat().st_size // dataio.RANGE_BYTES == 4
    # the serial read cast each range here, the split one in its workers
    assert casts == [os.getpid()] * len(serial)


def test_sha256_file_reads_in_bounded_pieces(tmp_path):
    path = tmp_path / "big.bin"
    path.write_bytes(bytes(range(256)) * (16 * 2**12))
    digest, peak = traced_peak(sha256_file, path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert peak < 4 * 2**20
