import math
import os
import tracemalloc

import numpy as np
import pytest

from survscreen import screening, workers
from survscreen.exceptions import (
    DegenerateDataError,
    DegenerateStatusError,
    DegenerateTimesError,
    ValidationError,
)
from survscreen.kernels import GAUSSIAN_DEFAULT, KernelSpec, hsic_pair
from survscreen.screening import (
    METHODS,
    SurvivalDataset,
    dc_utility,
    default_cutoff,
    rank_utilities,
    screen,
    standardize,
    standardize_columns,
)


def make_dataset(rng, n=60, p=8, signal=None):
    """Random dataset; optional signal ties column 0 to the time."""
    Z = rng.standard_normal((n, p))
    times = rng.gamma(2.0, 1.0, n)
    if signal is not None:
        Z[:, 0] = times * signal + 0.05 * rng.standard_normal(n)
    status = (rng.random(n) < 0.75).astype(int)
    if status.min() == status.max():
        status[0] = 1 - status[0]
    return SurvivalDataset(times=times, status=status, covariates=Z)


class TestSurvivalDataset:
    def test_valid_construction(self):
        data = make_dataset(np.random.default_rng(0))
        assert data.n == 60 and data.p == 8
        assert data.status.dtype == np.int8

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            SurvivalDataset(
                times=np.array([1.0, -0.1, 2.0]),
                status=np.array([1, 0, 1]),
                covariates=np.zeros((3, 2)),
            )

    def test_bad_status_rejected(self):
        with pytest.raises(ValidationError, match="status"):
            SurvivalDataset(
                times=np.array([1.0, 2.0, 3.0]),
                status=np.array([1, 2, 0]),
                covariates=np.zeros((3, 2)),
            )

    def test_nan_covariate_rejected(self):
        Z = np.zeros((3, 2))
        Z[1, 1] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            SurvivalDataset(
                times=np.array([1.0, 2.0, 3.0]),
                status=np.array([1, 0, 1]),
                covariates=Z,
            )

    def test_too_few_subjects(self):
        with pytest.raises(ValidationError, match="at least 3"):
            SurvivalDataset(
                times=np.array([1.0, 2.0]),
                status=np.array([1, 0]),
                covariates=np.zeros((2, 2)),
            )

    def test_row_count_mismatch(self):
        with pytest.raises(ValidationError, match="rows"):
            SurvivalDataset(
                times=np.array([1.0, 2.0, 3.0]),
                status=np.array([1, 0, 1]),
                covariates=np.zeros((4, 2)),
            )


class TestStandardize:
    def test_hand_case(self):
        # times [1,2,3]: mean 2, sd 1 -> [-1, 0, 1]
        # status [1,0,1]: mean 2/3, sd sqrt(1/3) -> [1/sqrt(3), -2/sqrt(3), 1/sqrt(3)]
        resp = standardize([1.0, 2.0, 3.0], [1, 0, 1])
        assert np.allclose(resp.y[:, 0], [-1.0, 0.0, 1.0], atol=1e-15)
        r3 = 1.0 / math.sqrt(3.0)
        assert np.allclose(resp.y[:, 1], [r3, -2.0 * r3, r3], atol=1e-14)

    def test_columns_have_zero_mean_unit_sd(self):
        rng = np.random.default_rng(1)
        times = rng.gamma(3.0, 2.0, 40)
        status = (rng.random(40) < 0.6).astype(int)
        y = standardize(times, status).y
        assert np.abs(y.mean(axis=0)).max() < 1e-10
        assert np.abs(y.std(axis=0, ddof=1) - 1.0).max() < 1e-10

    def test_all_events_degenerate(self):
        with pytest.raises(DegenerateStatusError):
            standardize([1.0, 2.0, 3.0], [1, 1, 1])

    def test_all_censored_degenerate(self):
        with pytest.raises(DegenerateStatusError):
            standardize([1.0, 2.0, 3.0], [0, 0, 0])

    def test_constant_times_degenerate(self):
        with pytest.raises(DegenerateTimesError):
            standardize([2.0, 2.0, 2.0], [1, 0, 1])
        # the rounded mean of three 0.1s is not 0.1, so their sd is not 0
        with pytest.raises(DegenerateTimesError, match="zero variance"):
            standardize([0.1, 0.1, 0.1], [1, 0, 1])

    def test_overflowing_variance_named_without_warning(self):
        # the squared deviations overflow; that is not a zero variance
        with pytest.raises(DegenerateTimesError, match="overflows"):
            standardize([1e200, 2e200, 3e200, 4e200], [1, 0, 1, 0])

    @pytest.mark.parametrize("scale", [1e-160, 1e-320])
    def test_underflowing_variance_named_without_warning(self, scale):
        # at 1e-160 the variance is subnormal and the sd loses digits; at
        # 1e-320 the times are subnormal and the variance rounds to zero
        times = [scale, 2 * scale, 3 * scale, 4 * scale]
        with pytest.raises(DegenerateTimesError, match="underflows"):
            standardize(times, [1, 0, 1, 0])

    def test_times_just_above_the_underflow_still_standardize(self):
        y = standardize([1e-150, 2e-150, 3e-150, 4e-150], [1, 0, 1, 0]).y
        assert np.allclose(y, standardize([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0]).y, atol=1e-14)

    @pytest.mark.parametrize(
        "times, status",
        [([1.0, math.inf, 2.0], [1, 0, 1]), ([1.0, 3.0, 2.0], [1, math.nan, 1])],
        ids=["infinite_time", "nan_status"],
    )
    def test_non_finite_input_rejected_before_any_moment(self, times, status):
        # checked up front, so no moment is taken and numpy never warns
        with pytest.raises(ValueError, match="times and status must be finite"):
            standardize(times, status)


class TestDefaultCutoff:
    def test_published_values(self):
        assert default_cutoff(240) == 43
        assert default_cutoff(160) == 31
        assert default_cutoff(152) == 30

    def test_small_n(self):
        assert default_cutoff(3) == 2  # floor(3 / 1.0986)
        assert default_cutoff(200) == 37

    def test_n_below_3_rejected(self):
        with pytest.raises(ValueError, match="n >= 3"):
            default_cutoff(2)


class TestScreen:
    def test_result_shape_and_ranking_is_permutation(self):
        data = make_dataset(np.random.default_rng(2))
        res = screen(data)
        assert res.omega.shape == (data.p,)
        assert sorted(res.ranking.tolist()) == list(range(data.p))
        assert np.all(np.diff(res.omega[res.ranking]) <= 0)
        assert np.array_equal(res.selected, res.ranking[: res.d_n])

    def test_default_cutoff_used(self):
        data = make_dataset(np.random.default_rng(3), n=60, p=20)
        assert screen(data).d_n == default_cutoff(60)
        assert screen(data, d_n=5).d_n == 5

    def test_default_cutoff_capped_at_p(self):
        data = make_dataset(np.random.default_rng(3), n=60, p=8)
        assert default_cutoff(60) > 8
        assert screen(data).d_n == 8

    def test_dn_out_of_range(self, monkeypatch):
        # refused before any column is scored, under either method
        def no_scoring(*args):
            raise AssertionError("scored although d_n is out of range")

        monkeypatch.setattr(screening, "_score_chunks", no_scoring)
        data = make_dataset(np.random.default_rng(4), p=6)
        for method in METHODS:
            with pytest.raises(ValueError, match=r"^d_n must be in 1\.\.6, got 0$"):
                screen(data, d_n=0, method=method)
            with pytest.raises(ValueError, match=r"^d_n must be in 1\.\.6, got 7$"):
                screen(data, d_n=7, method=method)

    @pytest.mark.parametrize("standardize_covariates", [False, True])
    @pytest.mark.parametrize("d_n", [None, 3])
    def test_dc_method_ranks_dc_utility(self, d_n, standardize_covariates):
        data = make_dataset(np.random.default_rng(15), n=40, p=7)
        omega = dc_utility(data, standardize_covariates=standardize_covariates)
        expected = rank_utilities(omega, data.n, d_n)
        res = screen(data, d_n=d_n, method="dc", standardize_covariates=standardize_covariates)
        assert res.omega.tobytes() == omega.tobytes()
        assert np.array_equal(res.ranking, expected.ranking)
        assert np.array_equal(res.selected, expected.selected)
        assert res.d_n == expected.d_n

    def test_unknown_method_names_both_methods(self):
        data = make_dataset(np.random.default_rng(16), p=4)
        with pytest.raises(ValueError, match=r"'lasso'.*\('hsic', 'dc'\)"):
            screen(data, method="lasso")

    def test_omega_matches_hsic_pair_bitwise(self):
        data = make_dataset(np.random.default_rng(5), n=30, p=5)
        resp = standardize(data.times, data.status)
        res = screen(data)
        for k in range(data.p):
            direct = hsic_pair(
                data.covariates[:, k][:, None], resp.y, GAUSSIAN_DEFAULT, GAUSSIAN_DEFAULT
            )
            assert res.omega[k] == direct

    def test_signal_column_ranks_first(self):
        data = make_dataset(np.random.default_rng(6), n=100, p=10, signal=1.0)
        res = screen(data)
        assert res.ranking[0] == 0

    def test_constant_covariate_scores_zero_and_ranks_behind_signal(self):
        rng = np.random.default_rng(7)
        data = make_dataset(rng, n=80, p=6, signal=1.0)
        Z = data.covariates.copy()
        Z[:, 3] = 4.2
        data = SurvivalDataset(times=data.times, status=data.status, covariates=Z)
        res = screen(data)
        assert res.omega[3] <= 1e-12
        assert list(res.ranking).index(3) > list(res.ranking).index(0)

    def test_tied_utilities_rank_by_ascending_index(self):
        rng = np.random.default_rng(8)
        data = make_dataset(rng, n=40, p=4)
        Z = data.covariates.copy()
        Z[:, 2] = Z[:, 0]  # exact duplicate -> exactly tied utilities
        data = SurvivalDataset(times=data.times, status=data.status, covariates=Z)
        res = screen(data)
        assert res.omega[0] == res.omega[2]
        assert list(res.ranking).index(0) < list(res.ranking).index(2)

    def test_joint_row_permutation_leaves_omega_unchanged(self):
        rng = np.random.default_rng(9)
        data = make_dataset(rng, n=50, p=6)
        base = screen(data).omega
        perm = rng.permutation(50)
        permuted = SurvivalDataset(
            times=data.times[perm],
            status=data.status[perm],
            covariates=data.covariates[perm],
        )
        assert np.allclose(screen(permuted).omega, base, atol=1e-12)

    def test_deterministic(self):
        data = make_dataset(np.random.default_rng(10))
        a = screen(data)
        b = screen(data)
        assert np.array_equal(a.omega, b.omega)
        assert np.array_equal(a.ranking, b.ranking)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("n, p", [(50, 5), (200, 513)])
    def test_standardize_covariates_flag_matches_prescaled_data(self, n, p, method):
        # p=513 ends on a padded lone column, and at n=200 it crosses
        # SPLIT_ENTRIES, so its chunks are standardized in forked workers.
        rng = np.random.default_rng(12)
        data = make_dataset(rng, n=n, p=p)
        data.covariates *= 10.0 ** rng.uniform(-30, 30, p)
        scaled = SurvivalDataset(
            times=data.times,
            status=data.status,
            covariates=standardize_columns(data.covariates),
        )
        a = screen(data, method=method, standardize_covariates=True)
        b = screen(scaled, method=method)
        assert a.omega.tobytes() == b.omega.tobytes()

    def test_standardized_column_bits_do_not_depend_on_the_other_columns(self):
        # A lone column is standardized in a padded chunk, so it sums in row
        # order as it does among other columns.
        data = make_dataset(np.random.default_rng(26), n=40, p=3)
        whole = screen(data, standardize_covariates=True).omega
        for k in range(data.p):
            sub = SurvivalDataset(data.times, data.status, data.covariates[:, [k]])
            assert screen(sub, standardize_covariates=True).omega[0] == whole[k]

    def test_standardized_screen_holds_no_copy_of_the_table(self, monkeypatch):
        monkeypatch.setenv(workers.JOBS_ENV_VAR, "1")
        data = make_dataset(np.random.default_rng(27), n=200, p=4000)
        for method in METHODS:
            tracemalloc.start()
            try:
                screen(data, method=method, standardize_covariates=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < data.covariates.nbytes, (method, peak / data.covariates.nbytes)

    def test_degenerate_status_propagates(self):
        rng = np.random.default_rng(13)
        data = make_dataset(rng)
        with pytest.raises(DegenerateStatusError):
            screen(
                SurvivalDataset(
                    times=data.times,
                    status=np.ones(data.n, dtype=np.int8),
                    covariates=data.covariates,
                )
            )


def test_active_signal_dominates_inactive_background():
    """With planted dependence, the weakest active utility should beat the
    median inactive utility in every seeded replication."""
    rng = np.random.default_rng(14)
    for _ in range(10):
        n, p = 100, 40
        Z = rng.standard_normal((n, p))
        eta = 0.9 * Z[:, 0] + 0.9 * Z[:, 1]
        times = np.exp(0.8 * eta + 0.3 * rng.standard_normal(n))
        c = rng.uniform(0, np.quantile(times, 0.9) * 2.5, n)
        status = (times <= c).astype(int)
        data = SurvivalDataset(
            times=np.minimum(times, c), status=status, covariates=Z
        )
        omega = screen(data).omega
        assert omega[:2].min() > np.median(omega[2:])


@pytest.mark.parametrize("method", ["gaussian", "laplacian", "linear", "dc"])
def test_column_bits_do_not_depend_on_block_budget(monkeypatch, method):
    # The budget is CHUNK_COLUMNS, the columns scored together. Every column
    # is also scored at other widths and positions: in a full chunk of 256
    # and a short one after it, where an offset's slab outgrows numpy's
    # 8192-element reduction buffer; alone, padded to two; in reversed
    # order; and in chunks of 3, which leave a lone last column.
    data = make_dataset(np.random.default_rng(21), n=100, p=7)
    data.covariates[:, 5] = data.covariates[:, 1]

    def utilities(Z):
        sub = SurvivalDataset(times=data.times, status=data.status, covariates=Z)
        if method == "dc":
            return dc_utility(sub)
        spec = KernelSpec(method, 2.0)
        return screen(sub, spec, spec).omega

    reference = utilities(data.covariates)
    assert reference[1] == reference[5]
    wide = np.repeat(data.covariates, 40, axis=1)  # a full chunk of 256 and a short one
    assert np.array_equal(utilities(wide), np.repeat(reference, 40))
    for columns in (1, 3, data.p):
        monkeypatch.setattr(screening, "CHUNK_COLUMNS", columns)
        assert np.array_equal(utilities(data.covariates), reference)
        assert np.array_equal(utilities(data.covariates[:, ::-1])[::-1], reference)
        for k in range(data.p):
            assert np.array_equal(utilities(data.covariates[:, [k]]), reference[[k]])


@pytest.mark.parametrize("method", METHODS)
def test_overflowing_covariate_is_refused_from_a_forked_worker(monkeypatch, capfd, method):
    # n=200, p=600 crosses SPLIT_ENTRIES, and z401 lies in the second chunk,
    # which a forked worker scores under the map's silenced warnings.
    monkeypatch.setenv(workers.JOBS_ENV_VAR, "2")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    jobs = []
    fork_map = screening.fork_map
    monkeypatch.setattr(screening, "fork_map", lambda *a: jobs.append(a[2]) or fork_map(*a))
    data = make_dataset(np.random.default_rng(28), n=200, p=600)
    data.covariates[:, 400] = np.where(np.arange(200) % 2, -1e154, 1e154)
    linear = KernelSpec("linear", 1.0)
    message = f"^the {method.upper()} utility of covariate z401 is not finite"
    with pytest.raises(DegenerateDataError, match=message):
        screen(data, linear, linear, method=method)
    assert jobs == [2]
    assert capfd.readouterr().err == ""


def test_one_usable_cpu_scores_a_split_sized_screen_in_one_job(monkeypatch):
    # Under `taskset -c 0` the host still has two cores; nothing is forked here.
    monkeypatch.delenv(workers.JOBS_ENV_VAR, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    jobs = []
    monkeypatch.setattr(
        screening, "fork_map", lambda fn, tasks, j: jobs.append(j) or [fn(*t) for t in tasks]
    )
    data = make_dataset(np.random.default_rng(29), n=200, p=500)
    assert data.n * data.n * data.p / 2 >= screening.SPLIT_ENTRIES
    screen(data)
    assert jobs == [1]


@pytest.mark.parametrize("standardize_covariates", [False, True])
@pytest.mark.parametrize("layout", ["one_column", "fortran", "column_view"])
@pytest.mark.parametrize("method", ["hsic", "dc"])
def test_scoring_leaves_covariates_bit_identical(method, layout, standardize_covariates):
    data = make_dataset(np.random.default_rng(24), n=30, p=6)
    base = data.covariates
    before = base.copy()
    Z = {
        "one_column": base[:, 2:3].copy(),
        "fortran": np.asfortranarray(base),
        "column_view": base[:, ::2],
    }[layout]
    z_before = Z.copy()
    sub = SurvivalDataset(times=data.times, status=data.status, covariates=Z)
    assert sub.covariates is Z
    if method == "dc":
        dc_utility(sub, standardize_covariates=standardize_covariates)
    else:
        screen(sub, standardize_covariates=standardize_covariates)
    assert Z.tobytes() == z_before.tobytes()
    assert base.tobytes() == before.tobytes()


def test_omega_matches_hsic_pair_bitwise_above_reduction_buffer():
    data = make_dataset(np.random.default_rng(22), n=100, p=3)
    resp = standardize(data.times, data.status)
    omega = screen(data).omega
    for k in range(data.p):
        assert omega[k] == hsic_pair(data.covariates[:, k], resp.y)


@pytest.mark.parametrize("family", ["laplacian", "linear"])
def test_omega_matches_hsic_pair_bitwise_for_other_families(family):
    data = make_dataset(np.random.default_rng(23), n=100, p=3)
    resp = standardize(data.times, data.status)
    spec = KernelSpec(family, 1.5)
    omega = screen(data, spec, spec).omega
    for k in range(data.p):
        assert omega[k] == hsic_pair(data.covariates[:, k], resp.y, spec, spec)


class TestDcUtility:
    def test_values_in_unit_interval(self):
        data = make_dataset(np.random.default_rng(15))
        u = dc_utility(data)
        assert u.shape == (data.p,)
        assert np.all(u >= 0.0) and np.all(u <= 1.0)

    def test_matches_brute_force_estimator(self):
        data = make_dataset(np.random.default_rng(16), n=25, p=4)
        resp = standardize(data.times, data.status)
        mine = dc_utility(data)

        for k in range(data.p):
            x = data.covariates[:, k]
            a = np.abs(x[:, None] - x[None, :])
            d = resp.y[:, None, :] - resp.y[None, :, :]
            b = np.sqrt((d**2).sum(axis=-1))
            A = a - a.mean(0) - a.mean(1)[:, None] + a.mean()
            B = b - b.mean(0) - b.mean(1)[:, None] + b.mean()
            dcov2 = (A * B).mean()
            ref = math.sqrt(dcov2 / math.sqrt((A * A).mean() * (B * B).mean()))
            assert mine[k] == pytest.approx(ref, abs=1e-12)

    def test_offset_and_near_constant_columns_match_brute_force(self):
        # dVar of a covariate comes from its variance and its distance row
        # means, never from the centred distance matrix: a large offset and
        # a column that is constant but for one subject or for tiny noise
        # are where that rearrangement could lose digits.
        rng = np.random.default_rng(25)
        data = make_dataset(rng, n=25, p=5)
        Z = data.covariates.copy()
        Z[:, 1] = Z[:, 0] + 1e6
        Z[:, 2] = 0.0
        Z[7, 2] = 1e-3
        Z[:, 3] = 5.0 + 1e-9 * rng.standard_normal(data.n)
        Z[:, 4] = 0.1
        data = SurvivalDataset(times=data.times, status=data.status, covariates=Z)
        resp = standardize(data.times, data.status)
        mine = dc_utility(data)

        # the estimator of test_matches_brute_force_estimator
        d = resp.y[:, None, :] - resp.y[None, :, :]
        b = np.sqrt((d**2).sum(axis=-1))
        B = b - b.mean(0) - b.mean(1)[:, None] + b.mean()
        for k in range(4):
            a = np.abs(Z[:, k, None] - Z[None, :, k])
            A = a - a.mean(0) - a.mean(1)[:, None] + a.mean()
            dcov2 = (A * B).mean()
            ref = math.sqrt(dcov2 / math.sqrt((A * A).mean() * (B * B).mean()))
            assert mine[k] == pytest.approx(ref, abs=1e-12)
        assert mine[4] == 0.0

    def test_time_copy_scores_high_and_first(self):
        # A covariate equal to the standardized time dominates noise, but
        # cannot reach 1: the status column contributes response distance
        # variation that a single covariate never explains.
        rng = np.random.default_rng(17)
        for _ in range(5):
            n = 200
            times = rng.gamma(2.0, 1.0, n)
            status = (rng.random(n) < 0.8).astype(int)
            resp = standardize(times, status)
            Z = rng.standard_normal((n, 6))
            Z[:, 0] = resp.y[:, 0]
            data = SurvivalDataset(times=times, status=status, covariates=Z)
            u = dc_utility(data)
            assert u[0] > 0.7
            assert np.argmax(u) == 0
            assert u[0] > 2.5 * u[1:].max()

    def test_zero_variance_column_scores_zero(self):
        data = make_dataset(np.random.default_rng(18), p=5)
        Z = data.covariates.copy()
        Z[:, 2] = -1.0
        data = SurvivalDataset(times=data.times, status=data.status, covariates=Z)
        assert dc_utility(data)[2] == 0.0

    def test_joint_row_permutation_invariance(self):
        rng = np.random.default_rng(19)
        data = make_dataset(rng, n=40, p=5)
        base = dc_utility(data)
        perm = rng.permutation(40)
        permuted = SurvivalDataset(
            times=data.times[perm],
            status=data.status[perm],
            covariates=data.covariates[perm],
        )
        assert np.allclose(dc_utility(permuted), base, atol=1e-12)

    def test_null_falls_below_permutation_percentile(self):
        rng = np.random.default_rng(20)
        n, n_perm, redraws = 80, 200, 20
        hits = 0
        for _ in range(redraws):
            times = rng.gamma(2.0, 1.0, n)
            status = (rng.random(n) < 0.75).astype(int)
            Z = rng.standard_normal((n, 1))
            data = SurvivalDataset(times=times, status=status, covariates=Z)
            observed = dc_utility(data)[0]
            null = np.empty(n_perm)
            for j in range(n_perm):
                perm = rng.permutation(n)
                shuffled = SurvivalDataset(
                    times=times, status=status, covariates=Z[perm]
                )
                null[j] = dc_utility(shuffled)[0]
            if observed < np.quantile(null, 0.99):
                hits += 1
        assert hits >= int(0.95 * redraws)
