"""Tests for the Monte Carlo harness: sampling, determinism, accounting."""

import math
import threading

import numpy as np
import pytest
from scipy import stats

from survquant import (
    ExponentialArm,
    KdeConfig,
    LsConfig,
    PiecewiseExponentialArm,
    RejectionReport,
    SimulationPlan,
    TrialScenario,
    empirical_rejection,
    sample_trial,
    scenario_from_delta,
    scenario_sigma2,
)
from survquant.errors import ValidationError
from survquant.simulate import DEFAULT_SIM_SIGMA_EPS

NULL_SCENARIO = TrialScenario(
    ExponentialArm(1.5), ExponentialArm(1.5), censoring_rate=0.48
)


def small_plan(**overrides):
    settings = dict(
        scenario=NULL_SCENARIO,
        n_per_group=30,
        probabilities=(0.5,),
        replications=40,
        master_seed=7,
    )
    settings.update(overrides)
    return SimulationPlan(**settings)


class TestSampleTrial:
    def test_no_censoring_gives_all_events(self):
        scenario = TrialScenario(ExponentialArm(1.5), ExponentialArm(1.5))
        data = sample_trial(scenario, 50, 40, 3)
        assert data.arm1.events.all()
        assert data.arm2.events.all()
        assert data.arm1.times.size == 50
        assert data.arm2.times.size == 40

    def test_event_time_moments(self):
        scenario = TrialScenario(ExponentialArm(1.5), ExponentialArm(1.5))
        n = 100_000
        data = sample_trial(scenario, n, 1, 11)
        # exponential(1.5) has mean 2/3; allow 3 standard errors
        se = (1.0 / 1.5) / math.sqrt(n)
        assert abs(data.arm1.times.mean() - 2.0 / 3.0) < 3.0 * se

    def test_flat_piecewise_matches_exponential_law(self):
        # rate_late == rate_early makes the two-piece arm a plain
        # exponential; check the sampled law with a KS test
        scenario = TrialScenario(
            ExponentialArm(1.5), PiecewiseExponentialArm(1.5, 1.5, 0.2)
        )
        data = sample_trial(scenario, 1, 100_000, 13)
        result = stats.kstest(data.arm2.times, "expon", args=(0.0, 1.0 / 1.5))
        assert result.pvalue > 0.01

    def test_censoring_produces_both_outcomes(self):
        data = sample_trial(NULL_SCENARIO, 200, 200, 5)
        assert 0 < data.arm1.events.sum() < 200
        assert (data.arm1.times > 0).all()

    def test_seed_reproducibility(self):
        a = sample_trial(NULL_SCENARIO, 25, 25, 42)
        b = sample_trial(NULL_SCENARIO, 25, 25, 42)
        c = sample_trial(NULL_SCENARIO, 25, 25, 43)
        assert np.array_equal(a.arm1.times, b.arm1.times)
        assert np.array_equal(a.arm2.events, b.arm2.events)
        assert not np.array_equal(a.arm1.times, c.arm1.times)

    def test_rejects_empty_arm(self):
        with pytest.raises(ValidationError, match="at least one subject"):
            sample_trial(NULL_SCENARIO, 0, 10, 1)


class TestPlanValidation:
    def test_small_n(self):
        with pytest.raises(ValidationError, match="n_per_group"):
            small_plan(n_per_group=1)

    def test_replications(self):
        with pytest.raises(ValidationError, match="replications"):
            small_plan(replications=0)

    def test_alpha(self):
        with pytest.raises(ValidationError, match="alpha"):
            small_plan(alpha=0.0)

    def test_density_method(self):
        with pytest.raises(ValidationError, match="'ls' or 'kde'"):
            small_plan(density_method="kernel")

    @pytest.mark.parametrize("method,tuning", [
        ("kde", LsConfig(1.0)), ("ls", KdeConfig(0.3)),
    ])
    def test_tuning_must_match_method(self, method, tuning):
        with pytest.raises(ValidationError, match="takes a"):
            small_plan(density_method=method, tuning=tuning)

    def test_probabilities(self):
        with pytest.raises(ValidationError, match="at least one"):
            small_plan(probabilities=())
        with pytest.raises(ValidationError, match="distinct"):
            small_plan(probabilities=(0.5, 0.5))

    def test_threads(self):
        with pytest.raises(ValidationError, match="threads"):
            small_plan(threads=0)


class TestDeterminism:
    def test_repeat_run_is_identical(self):
        first = empirical_rejection(small_plan())
        second = empirical_rejection(small_plan())
        assert first.rate == second.rate
        assert np.array_equal(first.p_values, second.p_values, equal_nan=True)

    def test_thread_count_does_not_change_results(self):
        serial = empirical_rejection(small_plan(threads=1))
        pooled = empirical_rejection(small_plan(threads=4))
        assert serial.rate == pooled.rate
        assert serial.n_failures == pooled.n_failures
        assert np.array_equal(serial.p_values, pooled.p_values, equal_nan=True)

    def test_replicates_run_on_the_calling_thread(self, monkeypatch):
        import survquant.simulate as simulate

        threads = []
        run = simulate._run_replicate

        def recording(plan, rep):
            threads.append(threading.get_ident())
            return run(plan, rep)

        monkeypatch.setattr(simulate, "_run_replicate", recording)
        empirical_rejection(small_plan(replications=6, threads=4))
        assert threads == [threading.get_ident()] * 6

    def test_master_seed_matters(self):
        base = empirical_rejection(small_plan())
        other = empirical_rejection(small_plan(master_seed=8))
        assert not np.array_equal(base.p_values, other.p_values, equal_nan=True)

    def test_tuning_seed_is_owned_by_the_replicate(self):
        # the perturbation draws come from the replicate's seed chain, so a
        # user-supplied seed inside the tuning config must not matter
        by_default = empirical_rejection(small_plan(tuning=None))
        explicit = empirical_rejection(
            small_plan(tuning=LsConfig(sigma_eps=DEFAULT_SIM_SIGMA_EPS, seed=99))
        )
        assert np.array_equal(
            by_default.p_values, explicit.p_values, equal_nan=True
        )

    def test_sigma_eps_override_is_honored(self):
        by_default = empirical_rejection(small_plan())
        narrow = empirical_rejection(small_plan(tuning=LsConfig(sigma_eps=1.0)))
        assert not np.array_equal(
            by_default.p_values, narrow.p_values, equal_nan=True
        )


class TestAccounting:
    def test_report_shape(self):
        plan = small_plan()
        report = empirical_rejection(plan)
        assert isinstance(report, RejectionReport)
        assert report.replications == 40
        assert report.n_used + report.n_failures == 40
        assert report.p_values.shape == (40,)
        assert int(np.isnan(report.p_values).sum()) == report.n_failures
        finite = report.p_values[~np.isnan(report.p_values)]
        assert ((finite >= 0) & (finite <= 1)).all()

    def test_mc_se_formula(self):
        report = empirical_rejection(small_plan(replications=60))
        expected = math.sqrt(report.rate * (1.0 - report.rate) / report.n_used)
        assert report.mc_se == pytest.approx(expected, abs=1e-15)

    def test_formula_power_univariate(self):
        plan = small_plan()
        report = empirical_rejection(plan)
        # identical arms: the formula power of a two-sided level-alpha test
        # degenerates to alpha itself
        assert report.formula_power == 0.05
        sigma2, _ = scenario_sigma2(NULL_SCENARIO, 0.5)
        assert sigma2 > 0

    def test_timing_fields(self):
        report = empirical_rejection(small_plan(replications=5))
        assert report.wall_time_s > 0
        assert report.rep_time_mean_s > 0
        single = empirical_rejection(small_plan(replications=1))
        assert single.rep_time_sd_s == 0.0

    def test_heavy_censoring_counts_failures(self):
        # censoring so aggressive that the upper quantile is often out of
        # reach in small samples
        scenario = TrialScenario(
            ExponentialArm(1.5), ExponentialArm(1.5), censoring_rate=8.0
        )
        plan = SimulationPlan(
            scenario=scenario,
            n_per_group=8,
            probabilities=(0.9,),
            replications=30,
            master_seed=3,
        )
        report = empirical_rejection(plan)
        assert report.n_failures > 0
        assert report.n_used + report.n_failures == 30
        assert "invalid: failure fraction above 5%" in report.flags

    def test_all_replicates_failing(self):
        scenario = TrialScenario(
            ExponentialArm(0.1), ExponentialArm(0.1), censoring_rate=50.0
        )
        plan = SimulationPlan(
            scenario=scenario,
            n_per_group=4,
            probabilities=(0.95,),
            replications=10,
            master_seed=1,
        )
        report = empirical_rejection(plan)
        assert report.n_used == 0
        assert math.isnan(report.rate)
        assert "no usable replicates" in report.flags


class TestRejectionRates:
    def test_null_rate_stays_conservative(self):
        # with the default wide perturbation scale the small-sample test is
        # strongly conservative under the null
        plan = SimulationPlan(
            scenario=NULL_SCENARIO,
            n_per_group=50,
            probabilities=(0.5,),
            replications=400,
            master_seed=2026,
            threads=4,
        )
        report = empirical_rejection(plan)
        assert report.n_failures == 0
        assert report.rate <= 0.02

    def test_alternative_rate_tracks_formula(self):
        scenario = scenario_from_delta(1.5, 0.5, 0.3, censoring_rate=0.48)
        plan = SimulationPlan(
            scenario=scenario,
            n_per_group=200,
            probabilities=(0.5,),
            replications=400,
            master_seed=91,
            threads=4,
        )
        report = empirical_rejection(plan)
        assert report.formula_power > 0.5
        assert abs(report.rate - report.formula_power) < 0.1

    def test_multivariate_plan_runs(self):
        scenario = scenario_from_delta(1.5, 0.5, 0.2, censoring_rate=0.48)
        plan = SimulationPlan(
            scenario=scenario,
            n_per_group=80,
            probabilities=(0.25, 0.5),
            replications=30,
            master_seed=17,
        )
        report = empirical_rejection(plan)
        assert report.n_used > 0
        assert 0.0 < report.formula_power < 1.0
        finite = report.p_values[~np.isnan(report.p_values)]
        assert ((finite >= 0) & (finite <= 1)).all()

    def test_kde_method_runs(self):
        from survquant import KdeConfig

        plan = small_plan(
            replications=20,
            density_method="kde",
            tuning=KdeConfig(bandwidth=0.3),
        )
        report = empirical_rejection(plan)
        assert report.n_used > 0
