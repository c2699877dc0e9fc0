"""Replicated screening experiments and their evaluation metrics.

For each replication the screening procedure produces a full ranking of
the covariates; the metrics only look at where the truly active ones
landed:

  S    minimum model size: the largest 1-based rank position among the
       active covariates, i.e. how far down the ranking one must go to
       capture all of them.
  P_e  per-covariate selection proportion: the fraction of replications
       in which that covariate ranked within the cutoff d_n.
  P_a  all-active selection proportion: the fraction of replications in
       which S <= d_n.

S is summarized across replications by its median and interquartile
range (linear-interpolation quantiles, the numpy default).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .screening import METHODS, default_cutoff, screen
from .simulate import SimScenario, censoring_scale, generate
from .workers import fork_map

#: Quantile rule used for all summaries, recorded in run manifests.
QUANTILE_CONVENTION = "linear interpolation between order statistics (type 7)"


@dataclass
class ReplicationRecord:
    """Outcome of screening one simulated replication."""

    scenario_id: str
    replication: int
    n: int
    p: int
    s: int
    realized_cr: float
    #: 1-based rank position of each active covariate, keyed by 0-based index.
    active_ranks: dict[int, int] = field(default_factory=dict)


@dataclass
class EvalSummary:
    """Aggregate metrics for one scenario's records at one cutoff."""

    scenario_id: str
    replications: int
    d_n: int
    s_median: float
    s_iqr: float
    pe: dict[int, float]
    p_a: float


def rank_positions(ranking: np.ndarray, active_set) -> dict[int, int]:
    """1-based rank position of each active covariate under a ranking.

    ``ranking`` lists covariate indices from strongest to weakest, so the
    position of index k is one plus where k appears in it.
    """
    ranking = np.asarray(ranking)
    inverse = np.empty(ranking.shape[0], dtype=np.int64)
    inverse[ranking] = np.arange(1, ranking.shape[0] + 1)
    return {int(k): int(inverse[k]) for k in active_set}


def min_model_size(ranking: np.ndarray, active_set) -> int:
    """Smallest cutoff that would retain every active covariate."""
    if len(active_set) == 0:
        raise ValueError("active_set must be nonempty")
    return max(rank_positions(ranking, active_set).values())


def aggregate(values) -> tuple[float, float, float, float]:
    """(median, q1, q3, iqr) of a sample, by linear interpolation."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot aggregate an empty sample")
    q1, med, q3 = np.percentile(values, [25.0, 50.0, 75.0])
    return float(med), float(q1), float(q3), float(q3 - q1)


def selection_proportions(
    records: list[ReplicationRecord], active_set, d_n: int
) -> tuple[dict[int, float], float]:
    """(P_e per active covariate, P_a) at cutoff ``d_n``."""
    if not records:
        raise ValueError("no replication records to summarize")
    pe = {
        int(k): float(np.mean([r.active_ranks[k] <= d_n for r in records]))
        for k in active_set
    }
    p_a = float(np.mean([r.s <= d_n for r in records]))
    return pe, p_a


def summarize_records(records: list[ReplicationRecord], active_set, d_n: int) -> EvalSummary:
    """Aggregate existing records at a cutoff, without re-screening.

    All records must belong to one scenario; S and the stored rank
    positions are cutoff-free, so any ``d_n`` can be evaluated here.
    """
    if not records:
        raise ValueError("no replication records to summarize")
    if d_n < 1:
        raise ValueError(f"d_n must be positive, got {d_n}")
    sids = {r.scenario_id for r in records}
    if len(sids) != 1:
        raise ValueError(f"records mix scenarios: {sorted(sids)}")
    s_median, _, _, s_iqr = aggregate([r.s for r in records])
    pe, p_a = selection_proportions(records, active_set, d_n)
    return EvalSummary(
        scenario_id=records[0].scenario_id,
        replications=len(records),
        d_n=int(d_n),
        s_median=s_median,
        s_iqr=s_iqr,
        pe=pe,
        p_a=p_a,
    )


def _screen_one(scenario: SimScenario, replication: int, method: str) -> ReplicationRecord:
    data = generate(scenario, replication).dataset
    result = screen(data, method=method)
    ranks = rank_positions(result.ranking, scenario.active_set)
    return ReplicationRecord(
        scenario_id=scenario.default_id,
        replication=replication,
        n=data.n,
        p=data.p,
        s=max(ranks.values()),
        realized_cr=float(np.mean(data.status == 0)),
        active_ranks=ranks,
    )


def run_experiment(
    scenario: SimScenario,
    method: str = "hsic",
    replications: int = 200,
    parallelism: int = 1,
) -> tuple[list[ReplicationRecord], EvalSummary]:
    """Run a replicated screening experiment and summarize it at ``default_cutoff(n)``.

    Replication r is generated from its own RNG stream, so the records do
    not depend on ``parallelism``; workers only change wall time. With
    ``parallelism`` above 1, replications run in that many forked worker
    processes, at most one per replication (serially where the platform
    cannot fork), and each screens with one process. The scenario is
    calibrated here first, so the workers inherit the cached scale. Records
    are returned in replication order. When a replication raises, the error
    propagates and replications not yet started are cancelled. For other
    cutoffs, pass the records to ``summarize_records``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if replications < 1:
        raise ValueError(f"replications must be positive, got {replications}")
    if parallelism < 1:
        raise ValueError(f"parallelism must be positive, got {parallelism}")

    censoring_scale(scenario)
    tasks = [(scenario, r, method) for r in range(replications)]
    records = fork_map(_screen_one, tasks, parallelism)
    summary = summarize_records(records, scenario.active_set, default_cutoff(scenario.n))
    return records, summary
