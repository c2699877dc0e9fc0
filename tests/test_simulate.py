import threading

import numpy as np
import pytest
from scipy import stats

from survscreen.exceptions import NoConvergenceError
from survscreen.screening import screen
from survscreen.simulate import (
    ACTIVE_SETS,
    DEFAULT_RHO,
    SimScenario,
    calibrate_censoring,
    censoring_scale,
    cox_baseline_cumhaz,
    expected_censoring_rate,
    generate,
    model_beta,
    replication_rng,
    sample_ar1_normal,
    sample_cox_time,
    sample_nonlinear_time,
    sample_transformation_time,
)


class TestSimScenario:
    def test_rho_defaults_per_model(self):
        assert SimScenario("cox", 50, 20).rho == DEFAULT_RHO["cox"] == 0.8
        assert SimScenario("nonlinear", 50, 20).rho == 0.8
        assert SimScenario("transformation", 50, 20).rho == 0.5

    def test_explicit_rho_kept(self):
        assert SimScenario("cox", 50, 20, rho=0.3).rho == 0.3

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="model"):
            SimScenario("weibull", 50, 20)

    def test_unknown_censoring(self):
        with pytest.raises(ValueError, match="censoring"):
            SimScenario("cox", 50, 20, censoring="exponential")

    def test_p_too_small_for_model(self):
        with pytest.raises(ValueError, match="p >= 5"):
            SimScenario("cox", 50, 4)
        with pytest.raises(ValueError, match="p >= 10"):
            SimScenario("nonlinear", 50, 9)
        with pytest.raises(ValueError, match="p >= 10"):
            SimScenario("transformation", 50, 9)

    def test_target_cr_bounds(self):
        with pytest.raises(ValueError, match="target_cr"):
            SimScenario("cox", 50, 20, target_cr=0.0)
        with pytest.raises(ValueError, match="target_cr"):
            SimScenario("cox", 50, 20, target_cr=1.0)

    def test_rho_bounds(self):
        with pytest.raises(ValueError, match="rho"):
            SimScenario("cox", 50, 20, rho=1.0)

    def test_seed_bounds(self):
        with pytest.raises(ValueError, match="seed"):
            SimScenario("cox", 50, 20, seed=-1)

    def test_active_sets(self):
        assert SimScenario("cox", 50, 20).active_set == (0, 1, 2, 3, 4)
        assert SimScenario("nonlinear", 50, 20).active_set == (0, 4, 9)
        assert SimScenario("transformation", 50, 20).active_set == (0, 1, 8, 9)

    def test_default_id_round_trips_fields(self):
        sc = SimScenario("cox", 200, 2000, "informative", 0.4, seed=42)
        assert sc.default_id == "cox_n200_p2000_informative_cr0.4_rho0.8_seed42"


class TestModelBeta:
    def test_cox_beta(self):
        beta = model_beta("cox", 12)
        assert np.array_equal(beta[:5], np.full(5, 0.35))
        assert np.array_equal(beta[5:], np.zeros(7))

    def test_transformation_beta(self):
        beta = model_beta("transformation", 14)
        expected = np.zeros(14)
        expected[[0, 1, 8, 9]] = [-1.0, -0.9, 0.8, 1.0]
        assert np.array_equal(beta, expected)

    def test_nonlinear_has_no_beta(self):
        with pytest.raises(ValueError, match="coefficient"):
            model_beta("nonlinear", 12)


class TestAr1Sampler:
    def test_shape_and_marginals(self):
        rng = np.random.default_rng(0)
        z = sample_ar1_normal(50_000, 4, 0.8, rng)
        assert z.shape == (50_000, 4)
        assert np.abs(z.mean(axis=0)).max() < 0.02
        assert np.abs(z.std(axis=0) - 1.0).max() < 0.02

    def test_autocorrelation_structure(self):
        rng = np.random.default_rng(1)
        rho = 0.8
        z = sample_ar1_normal(100_000, 6, rho, rng)
        corr = np.corrcoef(z, rowvar=False)
        for i in range(6):
            for j in range(6):
                assert corr[i, j] == pytest.approx(rho ** abs(i - j), abs=0.02)

    def test_zero_rho_gives_independent_columns(self):
        rng = np.random.default_rng(2)
        z = sample_ar1_normal(60_000, 5, 0.0, rng)
        corr = np.corrcoef(z, rowvar=False)
        off = corr[~np.eye(5, dtype=bool)]
        assert np.abs(off).max() < 0.02

    def test_invalid_rho(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="rho"):
            sample_ar1_normal(10, 3, 1.0, rng)


class TestCoxSampler:
    def test_baseline_cumhaz_values(self):
        # integral of (s - 0.5)^2 from 0 to t
        assert cox_baseline_cumhaz(0.0) == 0.0
        assert cox_baseline_cumhaz(0.5) == pytest.approx(0.125 / 3.0, abs=1e-15)
        ts = np.linspace(0.0, 3.0, 7)
        h = 1e-6
        deriv = (cox_baseline_cumhaz(ts + h) - cox_baseline_cumhaz(ts - h)) / (2 * h)
        assert np.allclose(deriv, (ts - 0.5) ** 2, atol=1e-6)

    def test_times_nonnegative(self):
        rng = np.random.default_rng(4)
        z = sample_ar1_normal(20_000, 5, 0.8, rng)
        t = sample_cox_time(z, model_beta("cox", 5), rng)
        assert t.shape == (20_000,)
        assert np.all(t >= 0.0)

    def test_probability_integral_transform(self):
        """Lambda0(T) exp(beta'Z) must be Exponential(1) if the sampler
        inverts the cumulative hazard correctly."""
        rng = np.random.default_rng(6)
        z = sample_ar1_normal(10_000, 5, 0.8, rng)
        beta = model_beta("cox", 5)
        t = sample_cox_time(z, beta, rng)
        pit = cox_baseline_cumhaz(t) * np.exp(z @ beta)
        assert stats.kstest(pit, "expon").pvalue > 0.01


class TestNonlinearSampler:
    def test_log_and_raw_agree(self):
        z = sample_ar1_normal(200, 10, 0.8, np.random.default_rng(7))
        raw = sample_nonlinear_time(z, np.random.default_rng(8))
        logt = sample_nonlinear_time(z, np.random.default_rng(8), log_scale=True)
        assert np.array_equal(raw, np.exp(logt))

    def test_log_time_formula(self):
        rng = np.random.default_rng(9)
        z = sample_ar1_normal(300, 10, 0.8, rng)
        eps_rng = np.random.default_rng(10)
        logt = sample_nonlinear_time(z, np.random.default_rng(10), log_scale=True)
        eps = eps_rng.standard_normal(300)
        expected = (
            (2.0 + np.sin(z[:, 0])) ** 2
            + (1.0 + z[:, 4]) ** 3
            + 3.0 * z[:, 9] ** 2
            + z[:, 0] * z[:, 9]
            + eps
        )
        assert np.allclose(logt, expected, atol=1e-12)

    def test_overflow_raises(self):
        z = np.zeros((3, 10))
        z[:, 4] = 9.0  # (1 + 9)^3 = 1000 > log of the double max
        with pytest.raises(OverflowError, match="log_scale"):
            sample_nonlinear_time(z, np.random.default_rng(11))
        sample_nonlinear_time(z, np.random.default_rng(11), log_scale=True)

    def test_needs_ten_covariates(self):
        with pytest.raises(ValueError, match="p >= 10"):
            sample_nonlinear_time(np.zeros((5, 9)), np.random.default_rng(12))


class TestTransformationSampler:
    def test_round_trip_through_h(self):
        """H(T) with H(t) = log(0.5 (exp(2t) - 1)) must reproduce
        -beta'z + eps."""
        beta = model_beta("transformation", 10)
        rng_a = np.random.default_rng(13)
        z = sample_ar1_normal(500, 10, 0.5, rng_a)
        t = sample_transformation_time(z, beta, rng_a)

        rng_b = np.random.default_rng(13)
        sample_ar1_normal(500, 10, 0.5, rng_b)  # consume the covariate draws
        eps = rng_b.standard_normal(500)
        w = -(z @ beta) + eps
        assert np.all(t > 0.0)
        assert np.allclose(np.log(0.5 * np.expm1(2.0 * t)), w, atol=1e-10)


@pytest.mark.parametrize(
    "sample",
    [
        lambda z, rng: sample_cox_time(z, model_beta("cox", 10), rng),
        sample_nonlinear_time,
        lambda z, rng: sample_transformation_time(z, model_beta("transformation", 10), rng),
    ],
    ids=["cox", "nonlinear", "transformation"],
)
def test_samplers_reject_a_single_covariate_vector(sample):
    with pytest.raises(ValueError, match=r"\(n, p\) covariate matrix"):
        sample(np.zeros(10), np.random.default_rng(14))


class TestCalibration:
    def test_rate_hits_target_on_fresh_sample(self):
        for censoring in ("random", "informative"):
            for target in (0.2, 0.4):
                sc = SimScenario("cox", 200, 20, censoring, target)
                scale = calibrate_censoring(sc, n_cal=50_000)
                rate = expected_censoring_rate(
                    sc, scale, 200_000, np.random.default_rng(15)
                )
                assert rate == pytest.approx(target, abs=0.01)

    def test_rate_monotone_in_scale(self):
        sc = SimScenario("transformation", 200, 20, target_cr=0.3)
        scale = calibrate_censoring(sc)
        rng = np.random.default_rng(16)
        r_small = expected_censoring_rate(sc, scale / 4, 100_000, rng)
        r_mid = expected_censoring_rate(sc, scale, 100_000, rng)
        r_large = expected_censoring_rate(sc, scale * 4, 100_000, rng)
        assert r_small > r_mid > r_large

    def test_cached_scale_is_seed_independent(self):
        a = censoring_scale(SimScenario("cox", 200, 30, seed=1))
        b = censoring_scale(SimScenario("cox", 200, 30, seed=999))
        assert a == b

    def test_rho_changes_the_scale(self):
        a = censoring_scale(SimScenario("cox", 200, 30, rho=0.8))
        b = censoring_scale(SimScenario("cox", 200, 30, rho=0.0))
        assert abs(a - b) / a > 0.01

    def test_calibration_reproducible(self):
        sc = SimScenario("nonlinear", 200, 20, target_cr=0.4)
        assert calibrate_censoring(sc) == calibrate_censoring(sc)

    def test_small_calibration_sample_rejected(self):
        with pytest.raises(ValueError, match="n_cal"):
            calibrate_censoring(SimScenario("cox", 200, 20), n_cal=100)

    def test_no_convergence_error(self):
        with pytest.raises(NoConvergenceError, match="bisection"):
            calibrate_censoring(SimScenario("cox", 200, 20), max_steps=0)

    def test_concurrent_callers_share_one_scale(self):
        sc = SimScenario("transformation", 100, 15, target_cr=0.25, rho=0.49)
        results = []

        def worker():
            results.append(censoring_scale(sc))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1


class TestGenerate:
    def test_bit_reproducible(self):
        sc = SimScenario("cox", 50, 20, seed=17)
        a = generate(sc, replication=3)
        b = generate(sc, replication=3)
        assert np.array_equal(a.dataset.times, b.dataset.times)
        assert np.array_equal(a.dataset.status, b.dataset.status)
        assert np.array_equal(a.dataset.covariates, b.dataset.covariates)
        assert np.array_equal(a.true_times, b.true_times)
        assert np.array_equal(a.censor_times, b.censor_times)

    def test_replications_differ(self):
        sc = SimScenario("cox", 50, 20, seed=17)
        a = generate(sc, replication=0)
        b = generate(sc, replication=1)
        assert not np.array_equal(a.dataset.covariates, b.dataset.covariates)

    def test_different_seeds_change_screening_outcome(self):
        a = generate(SimScenario("cox", 100, 20, seed=1))
        b = generate(SimScenario("cox", 100, 20, seed=2))
        assert not np.allclose(screen(a.dataset).omega, screen(b.dataset).omega)

    def test_observed_parts_consistent(self):
        sc = SimScenario("transformation", 200, 15, "informative", 0.3, seed=18)
        gen = generate(sc, 0)
        assert np.array_equal(
            gen.dataset.times, np.minimum(gen.true_times, gen.censor_times)
        )
        assert np.array_equal(
            gen.dataset.status, (gen.true_times <= gen.censor_times).astype(np.int8)
        )
        assert gen.active_set == ACTIVE_SETS["transformation"]

    def test_realized_rate_near_target_at_large_n(self):
        for model in ("cox", "nonlinear", "transformation"):
            sc = SimScenario(model, 4000, 12, target_cr=0.4, seed=19)
            gen = generate(sc, 0)
            assert np.mean(gen.dataset.status == 0) == pytest.approx(0.4, abs=0.03)

    def test_informative_censoring_tracks_covariate_gap(self):
        sc = SimScenario("cox", 10_000, 10, "informative", 0.4, seed=20)
        gen = generate(sc, 0)
        gap = np.abs(gen.dataset.covariates[:, 0] - gen.dataset.covariates[:, 1])
        assert np.corrcoef(gen.dataset.status, gap)[0, 1] > 0.05
        assert np.all(gen.censor_times <= censoring_scale(sc) * gap)


class TestReplicationRng:
    def test_same_key_same_stream(self):
        a = replication_rng(7, 2).random(5)
        b = replication_rng(7, 2).random(5)
        assert np.array_equal(a, b)

    def test_different_replications_different_streams(self):
        a = replication_rng(7, 0).random(5)
        b = replication_rng(7, 1).random(5)
        assert not np.array_equal(a, b)
