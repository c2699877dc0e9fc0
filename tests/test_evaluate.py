import time

import numpy as np
import pytest

from survscreen import evaluate
from survscreen.evaluate import (
    ReplicationRecord,
    aggregate,
    min_model_size,
    rank_positions,
    run_experiment,
    selection_proportions,
    summarize_records,
)
from survscreen.screening import default_cutoff, screen
from survscreen.simulate import SimScenario, generate


class Boom(Exception):
    """Raised by a replication; at module level so it pickles back from a worker."""


def record(sid="s", rep=0, s=5, ranks=None, n=50, p=20, cr=0.2):
    return ReplicationRecord(
        scenario_id=sid,
        replication=rep,
        n=n,
        p=p,
        s=s,
        realized_cr=cr,
        active_ranks=ranks or {0: 1, 1: s},
    )


class TestRankPositions:
    def test_hand_case(self):
        # ranking lists covariate indices strongest first
        ranking = np.array([2, 0, 1])
        assert rank_positions(ranking, [0, 1, 2]) == {2: 1, 0: 2, 1: 3}

    def test_subset(self):
        ranking = np.array([4, 1, 3, 0, 2])
        assert rank_positions(ranking, [0, 4]) == {4: 1, 0: 4}


class TestMinModelSize:
    def test_hand_case(self):
        # active covariates sitting at positions 2, 7, 9 -> need top 9
        ranking = np.array([3, 0, 5, 6, 7, 8, 4, 9, 1, 2])
        positions = rank_positions(ranking, [0, 4, 9])
        assert positions == {0: 2, 4: 7, 9: 8}
        assert min_model_size(ranking, [0, 4, 9]) == 8

    def test_ideal_case_equals_active_count(self):
        ranking = np.array([2, 4, 1, 0, 3, 5])
        assert min_model_size(ranking, [2, 4, 1]) == 3

    def test_empty_active_set(self):
        with pytest.raises(ValueError, match="nonempty"):
            min_model_size(np.array([0, 1, 2]), [])

    def test_matches_brute_force_prefix_scan(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = int(rng.integers(5, 101))
            ranking = rng.permutation(p)
            k = int(rng.integers(1, min(6, p)))
            active = rng.choice(p, size=k, replace=False)
            fast = min_model_size(ranking, active)
            prefix = next(
                m
                for m in range(1, p + 1)
                if set(active).issubset(set(ranking[:m].tolist()))
            )
            assert fast == prefix


class TestAggregate:
    def test_constant_sample(self):
        med, q1, q3, iqr = aggregate([5, 5, 5, 5])
        assert (med, q1, q3, iqr) == (5.0, 5.0, 5.0, 0.0)

    def test_even_count_midpoint_and_interpolated_quartiles(self):
        med, q1, q3, iqr = aggregate([1, 2, 3, 4])
        assert med == 2.5
        assert q1 == 1.75
        assert q3 == 3.25
        assert iqr == 1.5

    def test_order_free(self):
        assert aggregate([4, 1, 3, 2]) == aggregate([1, 2, 3, 4])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate([])


class TestSelectionProportions:
    def test_single_record_all_within_cutoff(self):
        recs = [record(s=3, ranks={0: 1, 4: 2, 9: 3})]
        pe, p_a = selection_proportions(recs, [0, 4, 9], d_n=5)
        assert pe == {0: 1.0, 4: 1.0, 9: 1.0}
        assert p_a == 1.0

    def test_pa_never_exceeds_min_pe(self):
        rng = np.random.default_rng(1)
        recs = []
        for i in range(40):
            ranks = {k: int(rng.integers(1, 30)) for k in (0, 1, 2)}
            recs.append(record(rep=i, s=max(ranks.values()), ranks=ranks))
        for d_n in (5, 10, 20):
            pe, p_a = selection_proportions(recs, [0, 1, 2], d_n)
            assert p_a <= min(pe.values()) + 1e-12

    def test_monotone_in_cutoff(self):
        rng = np.random.default_rng(2)
        recs = []
        for i in range(30):
            ranks = {k: int(rng.integers(1, 50)) for k in (0, 1)}
            recs.append(record(rep=i, s=max(ranks.values()), ranks=ranks))
        previous = (0.0, {0: 0.0, 1: 0.0})
        for d_n in (2, 5, 10, 25, 50):
            pe, p_a = selection_proportions(recs, [0, 1], d_n)
            assert p_a >= previous[0]
            assert all(pe[k] >= previous[1][k] for k in pe)
            previous = (p_a, pe)

    def test_empty_records(self):
        with pytest.raises(ValueError, match="no replication records"):
            selection_proportions([], [0], 5)


class TestSummarizeRecords:
    def test_fields(self):
        recs = [record(rep=i, s=s, ranks={0: 1, 1: s}) for i, s in enumerate([2, 2, 3, 9])]
        summary = summarize_records(recs, [0, 1], d_n=5)
        assert summary.replications == 4
        # sorted S = [2, 2, 3, 9]: q1 = 2, q3 = 3 + 0.25 * 6 = 4.5
        assert summary.s_median == 2.5
        assert summary.s_iqr == pytest.approx(2.5)
        assert summary.pe == {0: 1.0, 1: 0.75}
        assert summary.p_a == 0.75

    def test_median_at_least_active_count(self):
        rng = np.random.default_rng(3)
        recs = []
        active = [0, 1, 2, 3]
        for i in range(25):
            positions = rng.permutation(np.arange(1, 21))[:4]
            ranks = dict(zip(active, (int(x) for x in positions)))
            recs.append(record(rep=i, s=max(ranks.values()), ranks=ranks))
        summary = summarize_records(recs, active, d_n=10)
        assert summary.s_median >= len(active)

    def test_mixed_scenarios_rejected(self):
        recs = [record(sid="a"), record(sid="b")]
        with pytest.raises(ValueError, match="mix"):
            summarize_records(recs, [0, 1], d_n=5)

    def test_bad_cutoff_rejected(self):
        with pytest.raises(ValueError, match="d_n"):
            summarize_records([record()], [0, 1], d_n=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no replication"):
            summarize_records([], [0], d_n=5)


class TestRunExperiment:
    def test_single_replication_reduces_to_screen(self):
        sc = SimScenario("cox", 60, 20, seed=5)
        records, summary = run_experiment(sc, replications=1)
        gen = generate(sc, 0)
        res = screen(gen.dataset)
        positions = rank_positions(res.ranking, sc.active_set)
        assert len(records) == 1
        assert records[0].active_ranks == positions
        assert records[0].s == max(positions.values())
        assert records[0].n == 60 and records[0].p == 20
        assert summary.s_median == records[0].s
        assert summary.d_n == default_cutoff(60)

    def test_parallel_equals_serial(self):
        sc = SimScenario("nonlinear", 40, 12, seed=6)
        serial_records, serial_summary = run_experiment(
            sc, replications=6, parallelism=1
        )
        parallel_records, parallel_summary = run_experiment(
            sc, replications=6, parallelism=4
        )
        assert serial_records == parallel_records
        assert serial_summary == parallel_summary

    def test_records_in_replication_order(self):
        sc = SimScenario("cox", 40, 15, seed=7)
        records, _ = run_experiment(sc, replications=5, parallelism=3)
        assert [r.replication for r in records] == list(range(5))

    def test_dc_method(self):
        sc = SimScenario("cox", 50, 15, seed=8)
        records, _ = run_experiment(sc, method="dc", replications=2)
        assert all(r.s >= len(sc.active_set) for r in records)

    def test_unknown_method(self):
        sc = SimScenario("cox", 40, 15)
        with pytest.raises(ValueError, match="method"):
            run_experiment(sc, method="lasso")

    def test_bad_counts(self):
        sc = SimScenario("cox", 40, 15)
        with pytest.raises(ValueError, match="replications"):
            run_experiment(sc, replications=0)
        with pytest.raises(ValueError, match="parallelism"):
            run_experiment(sc, replications=1, parallelism=0)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_failing_replication_cancels_those_not_started(
        self, monkeypatch, tmp_path, parallelism
    ):
        real_generate = evaluate.generate

        def generate_failing_first(scenario, replication):
            # one marker file per start, so starts in worker processes count too
            (tmp_path / f"started{replication}").touch()
            if replication == 0:
                raise Boom
            time.sleep(0.01)
            return real_generate(scenario, replication)

        monkeypatch.setattr(evaluate, "generate", generate_failing_first)
        with pytest.raises(Boom):
            run_experiment(
                SimScenario("cox", 30, 10, seed=4), replications=60, parallelism=parallelism
            )
        # scheduling decides the exact count; without cancellation all 60 start
        assert len(list(tmp_path.iterdir())) < 30
