"""Checks of the CLI's outputs against the benchmark's own reference.

Each check returns a list of problems; an empty list means the output is
correct. The ranking and records formats are those documented in the
package README.
"""

from __future__ import annotations

import json

import numpy as np

import reference

RANKING_HEADER = "covariate,utility,rank,selected"


def check_ranking(text: str, ref_utilities: np.ndarray, d_n: int) -> list[str]:
    """A ranking CSV against reference utilities and the cutoff ``d_n``."""
    lines = text.splitlines()
    if not lines or lines[0] != RANKING_HEADER:
        return ["ranking: bad or missing header"]
    p = ref_utilities.shape[0]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != p:
        return [f"ranking: {len(rows)} rows for {p} covariates"]
    try:
        if any(len(r) != 4 or not r[0].startswith("z") for r in rows):
            raise ValueError
        order = np.array([int(r[0][1:]) - 1 for r in rows])
        utility = np.array([float(r[1]) for r in rows])
        rank = [int(r[2]) for r in rows]
        selected = [int(r[3]) for r in rows]
    except ValueError:
        return ["ranking: unparsable row"]
    if sorted(order.tolist()) != list(range(p)):
        return ["ranking: covariates are not a permutation of z1..zp"]

    problems = []
    expected = reference.ranking(ref_utilities)
    if not np.array_equal(order, expected):
        first = int(np.flatnonzero(order != expected)[0])
        problems.append(f"ranking: differs from the reference at rank {first + 1}")
    omega = np.empty(p)
    omega[order] = utility
    if not reference.agree(omega, ref_utilities):
        worst = float(np.max(np.abs(omega - ref_utilities)) / np.max(np.abs(ref_utilities)))
        problems.append(f"ranking: utilities off the reference by {worst:.3g} (normwise)")
    if rank != list(range(1, p + 1)):
        problems.append("ranking: rank column is not 1..p")
    d = min(d_n, p)
    if selected != [1] * d + [0] * (p - d):
        problems.append(f"ranking: selected column does not mark the top {d}")
    return problems


def active_ranks(ref_utilities: np.ndarray, active_set) -> dict[int, int]:
    """1-based position of each active covariate in the reference ranking."""
    position = np.empty(ref_utilities.shape[0], dtype=np.int64)
    position[reference.ranking(ref_utilities)] = np.arange(1, ref_utilities.shape[0] + 1)
    return {int(k): int(position[k]) for k in active_set}


def check_records(
    text: str,
    *,
    scenario_id: str,
    n: int,
    p: int,
    active_set,
    replications: int,
    expected: dict[int, tuple[dict[int, int], float]],
) -> list[str]:
    """A records CSV; ``expected`` maps replication -> (reference ranks, realized rate)."""
    lines = text.splitlines()
    active = [int(k) for k in active_set]
    header = "scenario_id,rep,n,p,s,realized_cr," + ",".join(f"rank_z{k + 1}" for k in active)
    if not lines or lines[0] != header:
        return ["records: bad or missing header"]
    if len(lines) - 1 != replications:
        return [f"records: {len(lines) - 1} rows for {replications} replications"]
    problems = []
    for rep, line in enumerate(lines[1:]):
        fields = line.split(",")
        if fields[:4] != [scenario_id, str(rep), str(n), str(p)] or len(fields) != 6 + len(active):
            problems.append(f"records: row {rep} has wrong identifying fields")
            continue
        if rep not in expected:
            continue
        ranks, rate = expected[rep]
        want = [str(max(ranks.values())), repr(float(rate))] + [str(ranks[k]) for k in active]
        if fields[4:] != want:
            problems.append(f"records: replication {rep} differs from the reference")
    return problems


def check_manifest(text: str, command: str, input_name: str, input_sha256: str) -> list[str]:
    try:
        manifest = json.loads(text)
    except ValueError:
        return ["manifest: not JSON"]
    problems = []
    if not isinstance(manifest, dict) or manifest.get("command") != command:
        problems.append(f"manifest: command is not {command!r}")
    elif manifest.get("inputs", {}).get(input_name) != input_sha256:
        problems.append("manifest: input digest does not match the input")
    return problems
