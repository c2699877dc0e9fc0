"""Property tests for the dataset CSV reader and writer."""

import os
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from survscreen import dataio, workers
from survscreen.dataio import _check_row, read_dataset, write_dataset
from survscreen.exceptions import ValidationError
from survscreen.screening import SurvivalDataset

finite = st.floats(allow_nan=False, allow_infinity=False)
edge_values = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               1.7976931348623157e308, -1.7976931348623157e308])


@settings(max_examples=100, deadline=None)
@given(
    st.data(),
    st.integers(min_value=3, max_value=6),
    st.integers(min_value=1, max_value=4),
)
def test_finite_doubles_round_trip_bit_for_bit(tmp_path_factory, data, n, p):
    times = data.draw(arrays(np.float64, n, elements=st.one_of(
        st.floats(min_value=0.0, allow_infinity=False), st.just(-0.0))))
    status = data.draw(arrays(np.int8, n, elements=st.sampled_from([0, 1])))
    covariates = data.draw(arrays(np.float64, (n, p), elements=st.one_of(finite, edge_values)))
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    write_dataset(path, SurvivalDataset(times=times, status=status, covariates=covariates))
    back = read_dataset(path)
    assert back.times.tobytes() == times.tobytes()
    assert back.status.tobytes() == status.tobytes()
    assert back.covariates.tobytes() == covariates.tobytes()


def _float_or_none(token):
    try:
        return float(token)
    except ValueError:
        return None


numeric_text = st.from_regex(r"\A[ \t +\-]*[0-9_.eE٠-٩]*(inf|nan)?[ \t]*\Z")
token = st.one_of(st.text(), numeric_text, finite.map(repr))
tokens = st.lists(token, min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(tokens)
def test_numpy_row_cast_raises_or_matches_float_bitwise(fields):
    # read_dataset casts a whole row of fields at once and trusts every
    # value the cast accepts, so the cast must never accept a token that
    # float() rejects nor read one differently.
    row = np.empty(len(fields))
    try:
        row[:] = fields
    except ValueError:
        return
    expected = [_float_or_none(token) for token in fields]
    assert None not in expected
    assert row.tobytes() == np.array(expected).tobytes()


@settings(max_examples=300, deadline=None)
@given(tokens)
def test_loadtxt_row_cast_raises_or_matches_float_bitwise(fields):
    # read_dataset casts blocks of rows with np.loadtxt and trusts every value
    # of a block that comes back with p + 2 columns. A row it hands over has
    # a status of 1 (or 0) and no line break.
    line = ",".join([fields[0], "1", *fields])
    assume(line.splitlines() == [line])
    try:
        values = np.loadtxt(
            [line], delimiter=",", comments=None, quotechar=None, dtype=np.float64, ndmin=2
        )
    except ValueError:
        return
    expected = [_float_or_none(token) for token in line.split(",")]
    assert None not in expected
    assert values.shape == (1, len(expected))
    assert values.tobytes() == np.array([expected]).tobytes()


LINE_BREAKS = ["\n", "\r", "\r\n", "\x0c", "\x85", "\u2028"]
NOT_UTF8 = [b"\xff", b"\xc3", b"\xe2\x80", b"\xed\xa0\x80", b"\xf0\x9f\x98"]


def good_rows(p):
    times = st.one_of(st.floats(min_value=0.0, allow_infinity=False), st.just(-0.0))
    covariates = st.lists(finite.map(repr), min_size=p, max_size=p)
    return st.tuples(times.map(repr), st.sampled_from(["0", "1"]), covariates).map(
        lambda row: ",".join([row[0], row[1], *row[2]])
    )


def bad_rows(p):
    # Mostly a good row with one field replaced, so that one value alone
    # decides whether a block that loadtxt accepts goes to the row checker.
    value = st.one_of(st.sampled_from(["-1.5", "nan", "-inf", "1e999", "1.0", " 1", "2"]), token)
    edited = st.tuples(good_rows(p), st.sampled_from(range(p + 2)), value).map(
        lambda edit: ",".join(
            edit[2] if i == edit[1] else field for i, field in enumerate(edit[0].split(","))
        )
    )
    return st.one_of(edited, tokens.map(",".join), st.just(""))


def read_whole(path, header):
    """The dataset as decoding the whole file, splitting it into lines and
    checking each row with ``_check_row`` gives it."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    assume(lines[0] == header)
    p = header.count(",") - 1
    rows = [_check_row(line.split(","), i, p) for i, line in enumerate(lines[1:], start=2)]
    table = np.array(rows, dtype=np.float64).reshape(len(rows), p + 2)
    return SurvivalDataset(table[:, 0], table[:, 1].astype(np.int8), table[:, 2:])


def outcome(read, *args):
    try:
        data = read(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return data.times.tobytes(), data.status.tobytes(), data.covariates.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=400))
def test_streamed_blocks_read_as_the_whole_text_would(tmp_path_factory, data, p, range_bytes):
    # range_bytes stands in for RANGE_BYTES, so that a few rows span several ranges.
    header = "time,status," + ",".join(f"z{j + 1}" for j in range(p))
    lines = [header] + data.draw(st.lists(good_rows(p), min_size=3, max_size=12))
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        at = data.draw(st.integers(min_value=1, max_value=len(lines)))
        lines.insert(at, data.draw(bad_rows(p)))
    breaks = data.draw(
        st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines), max_size=len(lines))
    )
    raw = "".join(line + end for line, end in zip(lines, breaks)).encode("utf-8")
    if data.draw(st.booleans()):
        raw = raw[: -len(breaks[-1].encode("utf-8"))]
    for _ in range(max(0, data.draw(st.integers(min_value=-4, max_value=2)))):
        at = data.draw(st.integers(min_value=0, max_value=len(raw)))
        raw = raw[:at] + data.draw(st.sampled_from(NOT_UTF8)) + raw[at:]
    path = tmp_path_factory.mktemp("blocks") / "d.csv"
    path.write_bytes(raw)
    expected = outcome(read_whole, path, header)
    with mock.patch.object(dataio, "RANGE_BYTES", range_bytes):
        # cast range by range in this process
        with mock.patch.dict(os.environ, {workers.JOBS_ENV_VAR: "1"}):
            assert outcome(read_dataset, path) == expected
        # and by two or three forked workers; one worker count per example
        # keeps the forks' cost within the test's time
        jobs = data.draw(st.sampled_from(["2", "3"]))
        with mock.patch.dict(os.environ, {workers.JOBS_ENV_VAR: jobs}):
            assert outcome(read_dataset, path) == expected
