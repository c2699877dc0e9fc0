"""CSV and config file formats, plus run manifests.

Four file kinds, all UTF-8 text:

  dataset CSV    header ``time,status,z1,...,zp``, one row per subject;
                 status is 0 (censored) or 1 (event).
  scenario file  flat ``key = value`` lines (blank lines and full-line
                 ``#`` comments allowed) with keys model, n, p,
                 censoring, target_cr, rho, seed, replications.
  records CSV    one row per replication: scenario_id, rep, n, p, s,
                 realized_cr, then rank_z{k} columns holding the 1-based
                 rank position of each active covariate.
  summary CSV    one row per scenario: replications, d_n, median and IQR
                 of S, pe_z{k} per active covariate, p_a.

Covariates are labelled z1..zp (1-based) in files and held 0-based in
memory. Reals are serialized with ``repr``, the shortest string that
round-trips to the same double, so rewriting a parsed file reproduces it
byte-for-byte. Every command output is paired with a JSON manifest
recording versions, input digests, parameters, and seeds.

Files are read as a stream of lines, split as ``str.splitlines`` splits
the whole text, and hashed in 1 MiB reads. A dataset is cut at LFs into
byte ranges of 1-2 MiB (``RANGE_BYTES``), each cast by one ``np.loadtxt``
call, through one ``fork_map`` call: a file under 2 MiB is one range, cast
in this process. A range with a bad row counts the lines before it, so
its error names the file's line in any process. Reading holds the
n x (p+2) table and one range's text per process, never the whole file.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import re
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from .evaluate import EvalSummary, ReplicationRecord
from .exceptions import ParseError, ValidationError
from .screening import ScreenResult, SurvivalDataset
from .simulate import SimScenario
from .workers import default_jobs, fork_map

_RANK_COL = re.compile(r"rank_z([1-9][0-9]*)$")
_STATUS_01 = re.compile(r"[^,]*,[01],")

#: Bytes of dataset rows in one range, cast by one ``np.loadtxt`` call: a
#: file is cut into ``max(1, size // RANGE_BYTES)`` ranges of 1-2 MiB, so
#: one under 2 MiB is one range, cast in the caller, and a larger one is
#: cast by ``default_jobs()`` forked workers, handed a range at a time, so
#: a slower core takes fewer. Two workers against one on a 2-vCPU host,
#: medians of 5-15 alternating reads at n=200: 1.0 MiB 31 -> 33 ms,
#: 1.25 MiB even, 2 MiB 54 -> 43 ms, 7.5 MiB 237 -> 140 ms, 37.5 MiB
#: 1.14 -> 0.64 s. No value depends on it.
RANGE_BYTES = 1 << 20


def float_repr(x) -> str:
    """Shortest decimal string that parses back to the exact double."""
    return repr(float(x))


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _text_lines(path, start: int = 0, stop: int | None = None):
    """Yield the lines of a UTF-8 text file, one physical line at a time.

    The lines are those of ``text.splitlines()`` on the whole text: a
    physical line ends at LF, and no other break or UTF-8 sequence spans
    an LF. A byte that is not UTF-8 raises ValidationError naming the file
    and the byte's offset in it, when the reader reaches its line. With
    ``start`` and ``stop``, which must each be 0, the file's size or just
    after an LF, only the lines of that byte range are read.
    """
    offset = start
    with open(path, "rb") as fh:
        fh.seek(start)
        for raw in fh:
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValidationError(
                    f"{path}: not UTF-8 text ({exc.reason} at byte {offset + exc.start})"
                ) from None
            offset += len(raw)
            yield from text.splitlines()
            if offset == stop:
                return


def _write_lines(path, lines) -> None:
    """Write ``lines`` as UTF-8 text, each ended by a bare LF: every file this module writes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _finite_float(token: str, line: int, column: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line, column, f"{what} {token!r} is not a number") from None
    if not math.isfinite(value):
        raise ValidationError(f"line {line}, column {column}: {what} must be finite")
    return value


# ---------------------------------------------------------------------------
# dataset CSV


def write_dataset(path, dataset: SurvivalDataset) -> None:
    """Write a dataset in the ``time,status,z1,...,zp`` format."""
    header = "time,status," + ",".join(f"z{j + 1}" for j in range(dataset.p))
    rows = zip(dataset.times.tolist(), dataset.status.tolist(), dataset.covariates)
    body = (f"{t!r},{d}," + ",".join(map(repr, z.tolist())) for t, d, z in rows)
    _write_lines(path, itertools.chain([header], body))


def read_dataset(path) -> SurvivalDataset:
    """Parse and validate a dataset CSV; errors carry 1-based line/column.

    The header is read first. The file is then cut at LFs, by its size alone,
    into ``max(1, size // RANGE_BYTES)`` byte ranges, which one ``fork_map``
    call over ``default_jobs()`` workers casts; one range runs in this
    process. A range's rows are cast by one ``np.loadtxt`` call, which parses
    a field as ``float()`` does, and kept when every row has p + 2 fields, a
    status of exactly ``0`` or ``1``, a nonnegative time and finite values;
    any other range goes row by row through ``_check_row``, so the error
    names its first bad field and its line in the file. The table is the
    same for every cut, and so is the error: ranges are handed out in file
    order. A file that is not UTF-8 is reported as such before any error in
    its header or rows, as if it had been decoded whole.

    Memory is the n x (p+2) table twice, while the ranges are joined, plus
    one range's text and values; each worker holds one range at a time.
    """
    jobs = default_jobs()  # a bad $SURVSCREEN_JOBS raises before the file is read
    lines = _text_lines(path)
    try:
        header = next(lines, None)
        if header is None:
            raise ParseError(1, 1, "empty file")
        p = _header_width(header)
        size = os.path.getsize(path)
        pieces = max(1, size // RANGE_BYTES)
        cuts, k = [0], 1
        with open(path, "rb") as fh:
            while k < pieces:
                fh.seek(size * k // pieces)
                fh.readline()
                cuts.append(fh.tell())
                # the next k whose offset is at or past this cut; those before fall inside its line
                k = -(-cuts[-1] * pieces // size)
        ranges = itertools.pairwise(sorted({*cuts, size}))
        tables = fork_map(_cast_range, [(path, *r, p) for r in ranges], jobs)
    except ValueError:
        for _ in lines:
            pass
        raise
    finally:
        lines.close()
    table = tables[0] if len(tables) == 1 else np.concatenate(tables)
    return SurvivalDataset(times=table[:, 0], status=table[:, 1], covariates=table[:, 2:])


def _header_width(header: str) -> int:
    """The p of a ``time,status,z1,...,zp`` header; ParseError if it is not one."""
    fields = header.split(",")
    if len(fields) < 3:
        raise ParseError(1, 1, "header needs time, status, and at least one covariate")
    if fields[0] != "time":
        raise ParseError(1, 1, f"expected header field 'time', got {fields[0]!r}")
    if fields[1] != "status":
        raise ParseError(1, 2, f"expected header field 'status', got {fields[1]!r}")
    for j, name in enumerate(fields[2:], start=1):
        if name != f"z{j}":
            raise ParseError(1, j + 2, f"expected header field 'z{j}', got {name!r}")
    return len(fields) - 2


def _cast_range(path, start: int, stop: int, p: int) -> np.ndarray:
    """The (rows, p + 2) values of the data rows in bytes ``start``..``stop`` (from
    byte 0, past the header); a bad row raises naming its line in the file."""
    with contextlib.closing(_text_lines(path, start, stop)) as lines:
        if start == 0:
            next(lines, None)
        rows = list(lines)
    # loadtxt warns on empty input and skips a blank line; a row the pattern
    # accepts has three fields, so only the range from byte 0 can be empty.
    if not rows:
        return np.empty((0, p + 2))
    if all(_STATUS_01.match(line) for line in rows):
        with contextlib.suppress(ValueError):
            values = np.loadtxt(rows, delimiter=",", comments=None, quotechar=None, ndmin=2)
            full = values.shape == (len(rows), p + 2)
            if full and (values[:, 0] >= 0).all() and np.isfinite(values).all():
                return values
    for i, line in enumerate(rows):
        try:
            rows[i] = _check_row(line.split(","), i, p)
        except ValueError:
            break
    else:
        return np.array(rows)
    # Numbered from the range so far: count the file's lines before it, then
    # check the bad row again, so it raises naming its line in the file.
    first = 2 if start == 0 else 1 + sum(1 for _ in _text_lines(path, 0, start))
    _check_row(rows[i].split(","), first + i, p)
    raise AssertionError("a row failed once but not twice")


def _check_row(fields: list[str], line_no: int, p: int) -> list[float]:
    """Check a data row field by field: raise on its first bad field, else return its values."""
    if fields == [""]:
        raise ParseError(line_no, 1, "empty row")
    if len(fields) != p + 2:
        raise ParseError(line_no, 1, f"expected {p + 2} fields, got {len(fields)}")
    t = _finite_float(fields[0], line_no, 1, "time")
    if t < 0:
        raise ValidationError(f"line {line_no}, column 1: time must be nonnegative, got {fields[0]}")
    if fields[1] not in ("0", "1"):
        raise ValidationError(f"line {line_no}, column 2: status must be 0 or 1, got {fields[1]!r}")
    z = [_finite_float(fields[j + 2], line_no, j + 3, f"z{j + 1}") for j in range(p)]
    return [t, float(fields[1]), *z]


# ---------------------------------------------------------------------------
# scenario config


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed scenario file: the scenario plus its replication count."""

    scenario: SimScenario
    replications: int = 200


_SCENARIO_KEYS = {
    "model": str,
    "n": int,
    "p": int,
    "censoring": str,
    "target_cr": float,
    "rho": float,
    "seed": int,
    "replications": int,
}
_REQUIRED_KEYS = ("model", "n", "p")


def read_scenario(path) -> ScenarioConfig:
    """Parse a flat ``key = value`` scenario file."""
    lines = list(_text_lines(path))

    raw: dict[str, str] = {}
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(line_no, 1, "expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCENARIO_KEYS:
            raise ParseError(
                line_no, 1, f"unknown key {key!r}; expected one of {sorted(_SCENARIO_KEYS)}"
            )
        if key in raw:
            raise ParseError(line_no, 1, f"duplicate key {key!r}")
        if not value:
            raise ParseError(line_no, 1, f"key {key!r} has no value")
        raw[key] = value

    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ValidationError(f"scenario file is missing required key {key!r}")

    parsed: dict = {}
    for key, value in raw.items():
        kind = _SCENARIO_KEYS[key]
        if kind is str:
            parsed[key] = value
            continue
        try:
            parsed[key] = kind(value)
        except ValueError:
            raise ValidationError(
                f"key {key!r}: expected {kind.__name__}, got {value!r}"
            ) from None

    replications = parsed.pop("replications", 200)
    if replications < 1:
        raise ValidationError(f"replications must be positive, got {replications}")
    try:
        scenario = SimScenario(**parsed)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    return ScenarioConfig(scenario=scenario, replications=replications)


def write_scenario(path, config: ScenarioConfig) -> None:
    """Write ``config`` in the order of ``_SCENARIO_KEYS``, which ``read_scenario`` parses."""
    values = dict(asdict(config.scenario), replications=config.replications)
    lines = (
        f"{key} = {float_repr(values[key]) if kind is float else values[key]}"
        for key, kind in _SCENARIO_KEYS.items()
    )
    _write_lines(path, lines)


# ---------------------------------------------------------------------------
# ranking CSV (screen output)


def write_ranking(path, result: ScreenResult) -> None:
    """Write a screening result as (covariate, utility, rank, selected)."""
    selected = set(int(k) for k in result.selected)
    rows = (
        f"z{k + 1},{float_repr(result.omega[k])},{position},{1 if k in selected else 0}"
        for position, k in enumerate(map(int, result.ranking), start=1)
    )
    _write_lines(path, itertools.chain(["covariate,utility,rank,selected"], rows))


# ---------------------------------------------------------------------------
# records CSV


def write_records(path, records: list[ReplicationRecord], active_set) -> None:
    """Write one CSV row per replication, rank columns per active covariate."""
    active = [int(k) for k in active_set]
    header = "scenario_id,rep,n,p,s,realized_cr," + ",".join(f"rank_z{k + 1}" for k in active)
    rows = (
        f"{r.scenario_id},{r.replication},{r.n},{r.p},{r.s},{float_repr(r.realized_cr)},"
        + ",".join(str(r.active_ranks[k]) for k in active)
        for r in records
    )
    _write_lines(path, itertools.chain([header], rows))


def read_records(path) -> tuple[list[ReplicationRecord], tuple[int, ...]]:
    """Parse a records CSV; returns the records and the 0-based active set."""
    lines = list(_text_lines(path))
    if not lines:
        raise ParseError(1, 1, "empty file")

    header = lines[0].split(",")
    fixed = ["scenario_id", "rep", "n", "p", "s", "realized_cr"]
    if header[: len(fixed)] != fixed:
        raise ParseError(1, 1, f"expected header to start with {','.join(fixed)}")
    active = []
    for j, name in enumerate(header[len(fixed) :], start=len(fixed) + 1):
        m = _RANK_COL.match(name)
        if m is None:
            raise ParseError(1, j, f"expected a rank_z<k> column, got {name!r}")
        active.append(int(m.group(1)) - 1)
    if not active:
        raise ParseError(1, len(fixed), "no rank_z<k> columns")
    if len(set(active)) != len(active):
        raise ParseError(1, len(fixed) + 1, "duplicate rank_z<k> columns")

    def _int(token: str, line: int, column: int, what: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise ParseError(line, column, f"{what} {token!r} is not an integer") from None

    records = []
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise ParseError(
                line_no, 1, f"expected {len(header)} fields, got {len(fields)}"
            )
        ranks = {
            k: _int(fields[6 + i], line_no, 7 + i, f"rank_z{k + 1}")
            for i, k in enumerate(active)
        }
        record = ReplicationRecord(
            scenario_id=fields[0],
            replication=_int(fields[1], line_no, 2, "rep"),
            n=_int(fields[2], line_no, 3, "n"),
            p=_int(fields[3], line_no, 4, "p"),
            s=_int(fields[4], line_no, 5, "s"),
            realized_cr=_finite_float(fields[5], line_no, 6, "realized_cr"),
            active_ranks=ranks,
        )
        _check_record(record, line_no)
        records.append(record)
    return records, tuple(active)


def _check_record(record: ReplicationRecord, line_no: int) -> None:
    """Reject a record no screening run could have written: n below the
    cutoff rule's minimum of 3, a rank of a covariate beyond p, a rank
    outside 1..p, two covariates at one rank, or an S that is not the
    largest active rank."""
    if record.n < 3:
        raise ValidationError(f"line {line_no}, column 3: n must be at least 3, got {record.n}")
    holders: dict[int, int] = {}
    for i, (k, rank) in enumerate(record.active_ranks.items()):
        where = f"line {line_no}, column {7 + i}: rank_z{k + 1}"
        if k >= record.p:
            raise ValidationError(f"{where} names a covariate beyond p = {record.p}")
        if not 1 <= rank <= record.p:
            raise ValidationError(f"{where} must lie in 1..{record.p}, got {rank}")
        if rank in holders:
            raise ValidationError(f"{where} repeats rank {rank} of rank_z{holders[rank] + 1}")
        holders[rank] = k
    largest = max(record.active_ranks.values())
    if record.s != largest:
        raise ValidationError(
            f"line {line_no}, column 5: s must equal the largest rank, {largest}, got {record.s}"
        )


# ---------------------------------------------------------------------------
# summary CSV


def write_summary(path, summaries: list[EvalSummary], active_set) -> None:
    """Write one summary row per scenario, pe columns per active covariate."""
    active = [int(k) for k in active_set]
    pe_columns = ",".join(f"pe_z{k + 1}" for k in active)
    header = f"scenario_id,replications,d_n,s_median,s_iqr,{pe_columns},p_a"
    rows = (
        f"{s.scenario_id},{s.replications},{s.d_n},"
        f"{float_repr(s.s_median)},{float_repr(s.s_iqr)},"
        + ",".join(float_repr(s.pe[k]) for k in active)
        + f",{float_repr(s.p_a)}"
        for s in summaries
    )
    _write_lines(path, itertools.chain([header], rows))


# ---------------------------------------------------------------------------
# run manifest


def build_manifest(
    *,
    command: str,
    version: str,
    inputs: dict[str, str],
    params: dict,
    rng_stream: str | None = None,
    quantile_convention: str | None = None,
) -> dict:
    """Assemble the reproducibility manifest written next to every result.

    ``inputs`` maps file names to their sha256 digests; ``params`` holds
    the resolved flags and derived quantities (kernels, d_n, seed,
    calibrated censoring scale). The timestamp is the only field that
    changes between identical runs.
    """
    manifest = {
        "command": command,
        "tool": "survscreen",
        "version": version,
        "inputs": dict(sorted(inputs.items())),
        "params": params,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if rng_stream is not None:
        manifest["rng_stream"] = rng_stream
    if quantile_convention is not None:
        manifest["quantile_convention"] = quantile_convention
    return manifest


def write_manifest(path, manifest: dict) -> None:
    _write_lines(path, [json.dumps(manifest, indent=2, sort_keys=True)])
