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
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .evaluate import EvalSummary, ReplicationRecord
from .exceptions import ParseError, ValidationError
from .screening import ScreenResult, SurvivalDataset
from .simulate import SimScenario

_RANK_COL = re.compile(r"rank_z([1-9][0-9]*)$")


def float_repr(x) -> str:
    """Shortest decimal string that parses back to the exact double."""
    return repr(float(x))


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; ValidationError, naming the file, if it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


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
    rows = zip(dataset.times.tolist(), dataset.status.tolist(), dataset.covariates)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time,status," + ",".join(f"z{j + 1}" for j in range(dataset.p)) + "\n")
        for t, d, z in rows:
            fh.write(f"{t!r},{d}," + ",".join(map(repr, z.tolist())) + "\n")


def read_dataset(path) -> SurvivalDataset:
    """Parse and validate a dataset CSV; errors carry 1-based line/column.

    Each row is cast in one numpy call, which parses a field as ``float()``
    does; only a row that fails the cast or a check goes through ``_check_row``.
    """
    lines = _read_lines(path)
    if not lines:
        raise ParseError(1, 1, "empty file")

    header = lines[0].split(",")
    if len(header) < 3:
        raise ParseError(1, 1, "header needs time, status, and at least one covariate")
    if header[0] != "time":
        raise ParseError(1, 1, f"expected header field 'time', got {header[0]!r}")
    if header[1] != "status":
        raise ParseError(1, 2, f"expected header field 'status', got {header[1]!r}")
    for j, name in enumerate(header[2:], start=1):
        if name != f"z{j}":
            raise ParseError(1, j + 2, f"expected header field 'z{j}', got {name!r}")
    p = len(header) - 2

    table = np.empty((len(lines) - 1, p + 2))
    for line_no, (line, row) in enumerate(zip(lines[1:], table), start=2):
        fields = line.split(",")
        try:
            if len(fields) == p + 2 and fields[1] in ("0", "1"):
                row[:] = fields
                if row[0] >= 0.0 and np.isfinite(row).all():
                    continue
        except ValueError:
            pass
        row[:] = _check_row(fields, line_no, p)

    return SurvivalDataset(
        times=table[:, 0],
        status=table[:, 1].astype(np.int8),
        covariates=table[:, 2:],
    )


def _check_row(fields: list[str], line_no: int, p: int) -> list[float]:
    """Check a data row field by field: raise on its first bad field, else return its values."""
    if fields == [""]:
        raise ParseError(line_no, 1, "empty row")
    if len(fields) != p + 2:
        raise ParseError(line_no, 1, f"expected {p + 2} fields, got {len(fields)}")
    t = _finite_float(fields[0], line_no, 1, "time")
    if t < 0:
        raise ValidationError(
            f"line {line_no}, column 1: time must be nonnegative, got {fields[0]}"
        )
    if fields[1] not in ("0", "1"):
        raise ValidationError(
            f"line {line_no}, column 2: status must be 0 or 1, got {fields[1]!r}"
        )
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
    lines = _read_lines(path)

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
    sc = config.scenario
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"model = {sc.model}\n")
        fh.write(f"n = {sc.n}\n")
        fh.write(f"p = {sc.p}\n")
        fh.write(f"censoring = {sc.censoring}\n")
        fh.write(f"target_cr = {float_repr(sc.target_cr)}\n")
        fh.write(f"rho = {float_repr(sc.rho)}\n")
        fh.write(f"seed = {sc.seed}\n")
        fh.write(f"replications = {config.replications}\n")


# ---------------------------------------------------------------------------
# ranking CSV (screen output)


def write_ranking(path, result: ScreenResult) -> None:
    """Write a screening result as (covariate, utility, rank, selected)."""
    selected = set(int(k) for k in result.selected)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("covariate,utility,rank,selected\n")
        for position, k in enumerate(result.ranking, start=1):
            k = int(k)
            fh.write(
                f"z{k + 1},{float_repr(result.omega[k])},{position},"
                f"{1 if k in selected else 0}\n"
            )


# ---------------------------------------------------------------------------
# records CSV


def write_records(path, records: list[ReplicationRecord], active_set) -> None:
    """Write one CSV row per replication, rank columns per active covariate."""
    active = [int(k) for k in active_set]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            "scenario_id,rep,n,p,s,realized_cr,"
            + ",".join(f"rank_z{k + 1}" for k in active)
            + "\n"
        )
        for r in records:
            fh.write(
                f"{r.scenario_id},{r.replication},{r.n},{r.p},{r.s},"
                f"{float_repr(r.realized_cr)},"
                + ",".join(str(r.active_ranks[k]) for k in active)
                + "\n"
            )


def read_records(path) -> tuple[list[ReplicationRecord], tuple[int, ...]]:
    """Parse a records CSV; returns the records and the 0-based active set."""
    lines = _read_lines(path)
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
        records.append(
            ReplicationRecord(
                scenario_id=fields[0],
                replication=_int(fields[1], line_no, 2, "rep"),
                n=_int(fields[2], line_no, 3, "n"),
                p=_int(fields[3], line_no, 4, "p"),
                s=_int(fields[4], line_no, 5, "s"),
                realized_cr=_finite_float(fields[5], line_no, 6, "realized_cr"),
                active_ranks=ranks,
            )
        )
    return records, tuple(active)


# ---------------------------------------------------------------------------
# summary CSV


def write_summary(path, summaries: list[EvalSummary], active_set) -> None:
    """Write one summary row per scenario, pe columns per active covariate."""
    active = [int(k) for k in active_set]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            "scenario_id,replications,d_n,s_median,s_iqr,"
            + ",".join(f"pe_z{k + 1}" for k in active)
            + ",p_a\n"
        )
        for s in summaries:
            fh.write(
                f"{s.scenario_id},{s.replications},{s.d_n},"
                f"{float_repr(s.s_median)},{float_repr(s.s_iqr)},"
                + ",".join(float_repr(s.pe[k]) for k in active)
                + f",{float_repr(s.p_a)}\n"
            )


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
