"""Tests for the Monte Carlo harness: sampling, determinism, accounting."""

import contextlib
import dataclasses
import math
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import survquant.scenarios as scenarios
import survquant.simulate as simulate
from survquant import (
    DegenerateTailError,
    ExponentialArm,
    KdeConfig,
    LsConfig,
    PiecewiseExponentialArm,
    RejectionReport,
    SimulationPlan,
    SingularCovarianceError,
    SurvivalSample,
    TooFewEventsError,
    TrialScenario,
    TwoArmData,
    UnreachableQuantileError,
    empirical_rejection,
    multivariate_test,
    sample_trial,
    scenario_from_delta,
    scenario_sigma2,
    univariate_test,
)
from survquant.density import DEFAULT_CV_GRID
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
        with pytest.raises(ValidationError, match="n1 must be at least 1, got 0"):
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

    def test_default_tuning(self):
        """tuning=None takes the documented default of each method, once."""
        assert small_plan().tuning == LsConfig(DEFAULT_SIM_SIGMA_EPS)
        kde = small_plan(density_method="kde").tuning
        assert kde.bandwidth == "select-by-cv"
        assert np.array_equal(kde.cv_grid, DEFAULT_CV_GRID)

    def test_probabilities(self):
        with pytest.raises(ValidationError, match="at least one"):
            small_plan(probabilities=())
        with pytest.raises(ValidationError, match="distinct"):
            small_plan(probabilities=(0.5, 0.5))

    def test_threads(self):
        with pytest.raises(ValidationError, match="threads"):
            small_plan(threads=0)

    @pytest.mark.parametrize("field,value", [
        ("n_per_group", 20.5), ("replications", 2.5), ("master_seed", 1.5),
        ("n_per_group", math.nan), ("replications", math.inf),
    ])
    def test_whole_numbers(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be a whole number"):
            small_plan(**{field: value})

    def test_integral_floats_are_whole(self):
        plan = small_plan(n_per_group=30.0, replications=np.int64(40), master_seed=7.0,
                          probabilities=np.array([0.5]))
        assert plan == small_plan()
        assert (plan.n_per_group, plan.replications, plan.master_seed) == (30, 40, 7)
        assert empirical_rejection(plan).rate == empirical_rejection(small_plan()).rate

    def test_probabilities_from_any_iterable(self):
        plan = small_plan(probabilities=iter([0.25, 0.5]))
        assert plan.probabilities == (0.25, 0.5)
        with pytest.raises(ValidationError, match="1-d sequence"):
            small_plan(probabilities=0.5)

    @pytest.mark.parametrize("method", ["ls", "kde"])
    def test_plans_hash_and_compare_by_value(self, method):
        a = small_plan(density_method=method)
        b = small_plan(density_method=method, probabilities=[0.5])
        assert a == b and hash(a) == hash(b)
        kde = KdeConfig("select-by-cv", np.array([0.2, 0.4]))
        c = small_plan(density_method="kde", tuning=kde)
        assert c == small_plan(density_method="kde", tuning=KdeConfig("select-by-cv", [0.2, 0.4]))
        assert len({a, b, c}) == 2

    def test_draws_must_fit_in_an_array(self):
        """A replicate draws 4n float64 uniforms; past numpy's largest array
        the plan is rejected before anything is allocated."""
        largest = np.iinfo(np.intp).max // (4 * np.dtype(float).itemsize)
        assert small_plan(n_per_group=largest).n_per_group == largest
        for n in (largest + 1, 2 ** 60):
            with pytest.raises(ValidationError, match="too large"):
                small_plan(n_per_group=n)

    def test_unequal_allocation_rejected(self):
        """The engine draws n per arm and tests at (0.5, 0.5), so a scenario
        with another mu1 would compare two different designs."""
        scenario = TrialScenario(ExponentialArm(1.5), ExponentialArm(1.5),
                                 censoring_rate=0.48, mu1=0.3)
        with pytest.raises(ValidationError, match="needs mu1 = 0.5, got 0.3"):
            small_plan(scenario=scenario)


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

    def test_replicates_start_no_thread(self, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
        report = empirical_rejection(small_plan(replications=6, threads=4))
        assert report.replications == 6
        assert started == []

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

    def test_impossible_formula_power_fails_before_any_replicate(self, monkeypatch):
        """At p = 1e-12 the planned Psi is singular: the error comes before
        a block of replicates has run."""
        blocks = []
        monkeypatch.setattr(simulate, "_block_p_values",
                            lambda *args: blocks.append(args) or np.zeros(len(args[1])))
        scenario = TrialScenario(ExponentialArm(1.5), ExponentialArm(2.0), censoring_rate=4.0)
        plan = small_plan(scenario=scenario, n_per_group=500, probabilities=(1e-12, 0.5),
                          replications=3000, master_seed=1)
        with pytest.raises(SingularCovarianceError, match="psi must be positive definite"):
            empirical_rejection(plan)
        assert blocks == []

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


# ---------------------------------------------------------------------------
# the block engine against the public test, one replicate at a time

_NOT_ESTIMABLE = (UnreachableQuantileError, DegenerateTailError, SingularCovarianceError,
                  TooFewEventsError)


def replicate_seed(plan, rep):
    return np.random.SeedSequence(plan.master_seed, spawn_key=(rep,))


def public_p_value(plan, data, rep):
    """The public test on one replicate's data, tuned as that replicate."""
    tuning = plan.tuning
    if plan.density_method == "ls":
        tuning = dataclasses.replace(tuning, seed=replicate_seed(plan, rep).spawn(1)[0])
    try:
        if len(plan.probabilities) == 1:
            return univariate_test(
                data, plan.probabilities[0], plan.density_method, tuning
            ).p_value
        return multivariate_test(
            data, plan.probabilities, plan.density_method, tuning
        ).p_value
    except _NOT_ESTIMABLE:
        return math.nan


def block_public_p_values(plan, first, times, events):
    """The public test on each row of a block whose first replicate is first."""
    return np.array([
        public_p_value(plan, TwoArmData(*(
            SurvivalSample(times[r, a], events[r, a]) for a in (0, 1)
        )), first + r)
        for r in range(times.shape[0])
    ])


def serial_p_values(plan):
    """Replicate by replicate: sample_trial, then the public test."""
    return np.array([
        public_p_value(plan, sample_trial(
            plan.scenario, plan.n_per_group, plan.n_per_group,
            replicate_seed(plan, rep),
        ), rep)
        for rep in range(plan.replications)
    ])


def outcome(run, plan):
    """The p-values, or the ValidationError's message."""
    try:
        return run(plan)
    except ValidationError as exc:
        return str(exc)


def same_outcome(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.tobytes() == b.tobytes()


@st.composite
def engine_plans(draw):
    method = draw(st.sampled_from(["ls", "kde"]))
    if method == "ls":
        tuning = draw(st.sampled_from([
            None, LsConfig(sigma_eps=1.0), LsConfig(sigma_eps=0.3, n_draws=25),
        ]))
    else:
        tuning = draw(st.sampled_from([
            KdeConfig(bandwidth=0.3),
            KdeConfig("select-by-cv", np.arange(0.1, 1.0 + 1e-12, 0.1)),
        ]))
    arm2 = draw(st.sampled_from([
        ExponentialArm(1.5), ExponentialArm(3.0), PiecewiseExponentialArm(1.5, 0.8, 0.2),
    ]))
    # no censoring, the README plan's, and heavy enough for failed replicates
    censoring = draw(st.sampled_from([0.0, 0.48, 4.0]))
    return SimulationPlan(
        scenario=TrialScenario(ExponentialArm(1.5), arm2, censoring_rate=censoring),
        n_per_group=draw(st.integers(3, 40)),
        probabilities=draw(st.sampled_from([(0.5,), (0.75,), (0.25, 0.5, 0.75)])),
        replications=draw(st.integers(1, 45)),
        density_method=method,
        tuning=tuning,
        master_seed=draw(st.integers(0, 2**32 - 1)),
    )


@st.composite
def tied_blocks(draw, method, j_count):
    """A plan, the index of a block's first replicate and the block's draws,
    with the times of random rows rounded to a grid, so those rows are tied."""
    if method == "ls":
        tuning = draw(st.sampled_from([None, LsConfig(sigma_eps=0.3, n_draws=25)]))
    else:
        tuning = KdeConfig("select-by-cv", np.arange(0.1, 1.0 + 1e-12, 0.1))
    count = draw(st.integers(1, 8))
    plan = SimulationPlan(
        scenario=TrialScenario(
            ExponentialArm(1.5), ExponentialArm(draw(st.sampled_from([1.5, 3.0]))),
            # heavy enough censoring for failed replicates
            censoring_rate=draw(st.sampled_from([0.0, 0.48, 4.0])),
        ),
        n_per_group=draw(st.integers(3, 40)),
        probabilities=(draw(st.sampled_from([(0.5,), (0.75,)])) if j_count == 1
                       else (0.25, 0.5, 0.75)),
        replications=count,
        density_method=method,
        tuning=tuning,
        master_seed=draw(st.integers(0, 2**32 - 1)),
    )
    first = draw(st.integers(0, 1000))
    times, events, eps = simulate._draw_block(plan, first, count)
    for r in range(count):
        grid = draw(st.sampled_from([None, 0.5, 0.1, 0.05, 0.02]))
        if grid is not None:
            times[r] = np.round(times[r] / grid) * grid
    return plan, first, times, events, eps


class TestBlockEngine:
    @settings(max_examples=40, deadline=None)
    @given(plan=engine_plans())
    def test_p_values_equal_the_serial_loop(self, plan):
        engine = outcome(lambda pl: empirical_rejection(pl).p_values, plan)
        assert same_outcome(engine, outcome(serial_p_values, plan))

    def test_failed_replicates_match(self):
        # under censoring at rate 1.0, some replicates at n = 50 never reach
        # the 0.75 quantile
        null = scenario_from_delta(1.5, 0.75, 0.0, censoring_rate=1.0)
        plan = SimulationPlan(null, 50, (0.75,), 100, master_seed=0)
        report = empirical_rejection(plan)
        assert report.n_failures > 0
        assert report.p_values.tobytes() == serial_p_values(plan).tobytes()

    def test_too_few_events_for_cv_match(self):
        # under censoring at rate 3, some arms of 10 reach the median on
        # a single event, too few for bandwidth selection
        plan = SimulationPlan(scenario_from_delta(1.5, 0.5, 0.1, censoring_rate=3.0),
                              10, (0.5,), 40, density_method="kde", master_seed=1)
        raised = 0
        for rep in range(plan.replications):
            data = sample_trial(plan.scenario, 10, 10, replicate_seed(plan, rep))
            try:
                univariate_test(data, 0.5, "kde")
            except TooFewEventsError:
                raised += 1
            except _NOT_ESTIMABLE:
                pass
        assert raised > 0
        report = empirical_rejection(plan)
        assert report.n_failures >= raised
        assert report.p_values.tobytes() == serial_p_values(plan).tobytes()

    def test_block_size_does_not_matter(self, monkeypatch):
        plan = small_plan(probabilities=(0.25, 0.5), replications=25)
        default = empirical_rejection(plan).p_values
        monkeypatch.setattr(simulate, "_BLOCK_VALUES", 1)
        assert simulate._block_rows(plan) == 1
        assert empirical_rejection(plan).p_values.tobytes() == default.tobytes()

    @pytest.mark.parametrize("scenario", [
        NULL_SCENARIO,
        TrialScenario(ExponentialArm(1.5), PiecewiseExponentialArm(1.5, 0.8, 0.2)),
    ], ids=["censored", "uncensored"])
    def test_rows_equal_sample_trial(self, scenario):
        plan = small_plan(scenario=scenario, n_per_group=17, replications=9)
        times, events, eps = simulate._draw_block(plan, 4, 5)
        for r in range(5):
            data = sample_trial(scenario, 17, 17, replicate_seed(plan, 4 + r))
            for arm, sample in enumerate((data.arm1, data.arm2)):
                assert times[r, arm].tobytes() == sample.times.tobytes()
                assert events[r, arm].tobytes() == sample.events.tobytes()
            child = replicate_seed(plan, 4 + r).spawn(1)[0]
            expected = np.sort(np.random.default_rng(child).normal(
                0.0, DEFAULT_SIM_SIGMA_EPS, 1000
            ))
            assert eps[r].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("sigma_eps", [1e308, 1e-320, 0.05])
    def test_perturbations_at_any_scale(self, sigma_eps):
        # the block scales sorted standard normals; at 1e308 some overflow
        # to inf, as normal() draws them, with no warning, and at 1e-320
        # the products round to 0 with normal()'s signs
        plan = small_plan(tuning=LsConfig(sigma_eps), replications=3)
        _, _, eps = simulate._draw_block(plan, 0, 3)
        for r in range(3):
            child = replicate_seed(plan, r).spawn(1)[0]
            expected = np.sort(np.random.default_rng(child).normal(0.0, sigma_eps, 1000))
            assert eps[r].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("probabilities", [(0.5,), (0.25, 0.5, 0.75)])
    def test_tied_rows_take_the_public_test(self, probabilities):
        plan = small_plan(n_per_group=40, probabilities=probabilities,
                          replications=6, master_seed=11)
        times, events, eps = simulate._draw_block(plan, 0, 6)
        # times on a grid of 0.1 in rows 1 and 4, in one arm each
        times[1, 0] = np.round(times[1, 0], 1)
        times[4, 1] = np.round(times[4, 1], 1)
        p_values = simulate._block_p_values(plan, times, events, eps)
        assert p_values.tobytes() == block_public_p_values(plan, 0, times, events).tobytes()

    @pytest.mark.parametrize("method", ["ls", "kde"])
    @pytest.mark.parametrize("j_count", [1, 3])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_tied_blocks_equal_the_public_test(self, method, j_count, data):
        plan, first, times, events, eps = data.draw(tied_blocks(method, j_count))
        engine = outcome(lambda pl: simulate._block_p_values(pl, times, events, eps), plan)
        public = outcome(lambda pl: block_public_p_values(pl, first, times, events), plan)
        assert same_outcome(engine, public)

    def test_singular_row_is_nan_only_there(self):
        # in row 2 more than half of each arm dies at one tied time, so the
        # 0.25 and 0.5 quantiles share it; a kernel estimate depends on the
        # time alone, so both densities are equal too and that row's Psi_hat
        # is singular, while the stacked Wald form serves the other rows
        plan = SimulationPlan(TrialScenario(ExponentialArm(1.5), ExponentialArm(2.0)), 40,
                              (0.25, 0.5, 0.75), 5, density_method="kde",
                              tuning=KdeConfig(bandwidth=0.3), master_seed=3)
        times, events, eps = simulate._draw_block(plan, 0, 5)
        untouched = simulate._block_p_values(plan, times, events, eps)
        for a in (0, 1):
            first = np.argsort(times[2, a])[:24]
            times[2, a, first] = times[2, a, first].max()
            events[2, a, first] = True
        p_values = simulate._block_p_values(plan, times, events, eps)
        assert np.isnan(p_values).tolist() == [False, False, True, False, False]
        assert np.delete(p_values, 2).tobytes() == np.delete(untouched, 2).tobytes()
        assert p_values.tobytes() == block_public_p_values(plan, 0, times, events).tobytes()
        with pytest.raises(SingularCovarianceError):
            multivariate_test(TwoArmData(*(SurvivalSample(times[2, a], events[2, a])
                                           for a in (0, 1))), plan.probabilities, "kde",
                              plan.tuning)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_invalid_sample_raises(self):
        # an arm so slow that every event time overflows to inf
        scenario = TrialScenario(ExponentialArm(1.5), ExponentialArm(1e-320))
        plan = SimulationPlan(scenario, 5, (0.5,), 3)
        with pytest.raises(ValidationError, match="finite and non-negative"):
            serial_p_values(plan)
        with pytest.raises(ValidationError, match="finite and non-negative"):
            simulate._block_p_values(plan, *simulate._draw_block(plan, 0, 3))
        # the plan has no formula power either, and that fails first
        with pytest.raises(ValidationError, match="densities must be positive"):
            empirical_rejection(plan)

    def test_invalid_row_raises_after_the_rows_before_it(self, monkeypatch):
        plan = small_plan(replications=4)
        times, events, eps = simulate._draw_block(plan, 0, 4)
        times[2, 1, 0] = np.inf
        blocks, run = [], simulate._block_p_values

        def recorded(plan, times, *rest):
            blocks.append(len(times))
            return run(plan, times, *rest)

        monkeypatch.setattr(simulate, "_block_p_values", recorded)
        with pytest.raises(ValidationError, match="times must be finite and non-negative"):
            simulate._block_p_values(plan, times, events, eps)
        assert blocks == [4, 2]  # rows 0 and 1 ran first


def numpy_state(master, key):
    return np.random.PCG64(np.random.SeedSequence(master, spawn_key=key)).state


def assert_rows_are_numpys(plan, first, count):
    """_draw_block's rows of replicates first .. first+count-1 equal
    sample_trial's arrays and the sorted normal() draws of the child seed."""
    times, events, eps = simulate._draw_block(plan, first, count)
    n = plan.n_per_group
    for r in range(count):
        seed = replicate_seed(plan, first + r)
        data = sample_trial(plan.scenario, n, n, seed)
        for arm, sample in enumerate((data.arm1, data.arm2)):
            assert times[r, arm].tobytes() == sample.times.tobytes()
            assert events[r, arm].tobytes() == sample.events.tobytes()
        expected = np.sort(np.random.default_rng(seed.spawn(1)[0]).normal(
            0.0, plan.tuning.sigma_eps, plan.tuning.n_draws))
        assert eps[r].tobytes() == expected.tobytes()


class TestBlockSeeder:
    """Each replicate's generators start in the states numpy's
    SeedSequence(master_seed, spawn_key=(k,)) and (k, 0) give PCG64, from
    the block seeder or, where it does not reach, from numpy's own route."""

    @settings(max_examples=300, deadline=None)
    @given(master=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**128]),
                            st.integers(0, 2**256 - 1)),
           first=st.integers(0, 2**32), count=st.integers(1, 3),
           keys=st.sampled_from([1, 2]))
    def test_states_equal_numpys(self, master, first, count, keys):
        expected = [[numpy_state(master, (k,) + (0,) * child)
                     for k in range(first, first + count)] for child in range(keys)]
        seeds = simulate._block_seeds(master, first, count, keys)
        assert [[np.random.PCG64(seed).state for seed in row] for row in seeds] == expected
        if first + count <= 2**32:  # the seeder's own words, whatever the self-check said
            words = simulate._spawn_words(master, first, count, keys)
            assert [[np.random.PCG64(simulate._SpawnWords(w)).state for w in row]
                    for row in words] == expected

    def test_self_check_passes_on_this_numpy(self, monkeypatch):
        # a numpy whose seeding stops matching fails here, not only in speed
        monkeypatch.setattr(simulate, "_seeder_ok", None)
        assert simulate._seeder_matches() is True
        words = simulate._spawn_words(7, 0, 3, 2)
        assert words.shape == (2, 3, 4) and words.dtype == np.uint64
        assert all(isinstance(seed, simulate._SpawnWords)
                   for rows in simulate._block_seeds(7, 0, 3, 2) for seed in rows)

    def test_block_reaching_2_32_takes_numpys_route(self, monkeypatch):
        plan = small_plan(n_per_group=6, tuning=LsConfig(0.3, n_draws=20))

        def unused(*args):
            raise AssertionError("the block seeder ran")

        monkeypatch.setattr(simulate, "_spawn_words", unused)
        assert_rows_are_numpys(plan, 2**32 - 2, 4)

    def test_failed_self_check_takes_numpys_route(self, monkeypatch):
        plan = small_plan(n_per_group=6, tuning=LsConfig(0.3, n_draws=20))
        before, after = simulate._STATE_STEPS
        monkeypatch.setattr(simulate, "_STATE_STEPS", (before ^ np.uint32(1), after))
        monkeypatch.setattr(simulate, "_seeder_ok", None)
        assert simulate._seeder_matches() is False
        spawn_words = simulate._spawn_words
        monkeypatch.setattr(simulate, "_spawn_words", lambda *args: pytest.fail(
            "the block seeder ran"))
        assert_rows_are_numpys(plan, 5, 4)
        # the constant is what breaks the seeder: its words are not numpy's
        monkeypatch.setattr(simulate, "_spawn_words", spawn_words)
        words = spawn_words(plan.master_seed, 5, 1, 1)[0, 0]
        assert np.random.PCG64(simulate._SpawnWords(words)).state != numpy_state(
            plan.master_seed, (5,))

    def test_two_runs_at_once_give_their_serial_bytes(self, monkeypatch):
        # no generator is shared between threads: with one kept for both,
        # one thread's rows would take draws from the other's states
        plans = [small_plan(n_per_group=1000, replications=60, master_seed=seed)
                 for seed in (21, 22)]
        serial = [empirical_rejection(plan).p_values for plan in plans]
        # one replicate per block, each drawn while the other run draws one
        barrier, draw, results = threading.Barrier(2, timeout=60), simulate._draw_block, {}

        def together(plan, first, count):
            barrier.wait()
            return draw(plan, first, count)

        monkeypatch.setattr(simulate, "_BLOCK_VALUES", 1)
        monkeypatch.setattr(simulate, "_draw_block", together)
        threads = [threading.Thread(target=lambda i=i: results.update(
            {i: empirical_rejection(plans[i]).p_values})) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        assert [results[i].tobytes() for i in (0, 1)] == [p.tobytes() for p in serial]


NPROC = simulate._usable_cpus()


@pytest.fixture
def fresh_pool():
    """No worker before or after the test, so a worker forked while a test
    patches the module never serves another test."""
    simulate._stop_workers()
    yield
    simulate._stop_workers()


@contextlib.contextmanager
def forced_pool(block_values=1):
    """Runs in small blocks, with a fork taken to cost nothing, so a plan of
    three or more blocks and threads above 1 always uses workers. The first
    pooled run inside forks its workers; workers forked here keep the small
    blocks, so they are stopped on the way out."""
    simulate._stop_workers()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_BLOCK_VALUES", block_values)
        patch.setattr(simulate, "_start_s", 0.0)
        try:
            yield
        finally:
            simulate._stop_workers()


def pooled_run(plan):
    simulate._start_s = 0.0  # a fork since the last run set it
    return empirical_rejection(plan).p_values


def exit_code(pid, seconds=10):
    """The exit code of the child pid, or None when it has not ended within
    seconds: then it is killed, as one that deadlocked would never end."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    return None


def held_span(monkeypatch, held_plan):
    """Make held_plan's runs wait in their first span until the returned
    release event is set; entered is set once one is waiting."""
    entered, release, run = threading.Event(), threading.Event(), simulate._span

    def held(plan, first, count):
        if plan is held_plan and first == 0:
            entered.set()
            release.wait(60)
        return run(plan, first, count)

    monkeypatch.setattr(simulate, "_span", held)
    return entered, release


class TestWorkers:
    """threads > 1 runs later spans of replicates on forked workers; no
    p-value byte depends on which process ran it."""

    @pytest.mark.parametrize("threads", sorted({2, NPROC}))
    @settings(max_examples=25, deadline=None)
    @given(plan=engine_plans())
    def test_p_values_equal_the_serial_run(self, threads, plan):
        serial = outcome(lambda pl: empirical_rejection(pl).p_values, plan)
        plan = dataclasses.replace(plan, threads=threads)
        with forced_pool():
            forked = outcome(pooled_run, plan)  # the caller times a block, then forks
            warm = outcome(pooled_run, plan)  # the workers are running: split from 0
        assert same_outcome(forked, serial)
        assert same_outcome(warm, serial)

    @pytest.mark.skipif(NPROC < 2, reason="one usable CPU")
    def test_one_worker_per_further_cpu(self, fresh_pool):
        plan = small_plan(replications=200, threads=NPROC)
        serial = empirical_rejection(dataclasses.replace(plan, threads=1))
        with forced_pool(simulate._BLOCK_VALUES):
            pooled = empirical_rejection(plan)
            assert len(simulate._workers) == min(NPROC - 1, 12)
        assert pooled.p_values.tobytes() == serial.p_values.tobytes()
        assert (pooled.rate, pooled.n_failures) == (serial.rate, serial.n_failures)

    def test_one_block_starts_no_worker(self, fresh_pool, monkeypatch):
        monkeypatch.setattr(simulate, "_start_s", 0.0)
        plan = small_plan(replications=simulate._block_rows(small_plan()), threads=4)
        empirical_rejection(plan)
        assert simulate._workers == []

    def test_workers_pay_for_their_start(self, fresh_pool, monkeypatch):
        # before any fork is timed, a start is charged twice the first
        # block's time; the rest of the run has to save more than that
        monkeypatch.setattr(simulate, "_start_s", None)
        assert simulate._ready_workers(1, 0.001, 3.0) == []
        assert simulate._workers == []
        assert len(simulate._ready_workers(1, 0.001, 5.0)) == 1
        # a running worker costs nothing more
        assert len(simulate._ready_workers(1, 0.001, 0.5)) == 1

    @pytest.mark.skipif(NPROC < 2, reason="one usable CPU")
    def test_worker_that_dies_mid_span(self, fresh_pool, monkeypatch):
        plan = small_plan(replications=12, threads=2)
        serial = empirical_rejection(plan)
        caller, run = os.getpid(), simulate._block_p_values

        def dying(*args):
            if os.getpid() != caller:
                os._exit(1)
            return run(*args)

        monkeypatch.setattr(simulate, "_block_p_values", dying)
        with forced_pool():
            assert pooled_run(plan).tobytes() == serial.p_values.tobytes()
            assert simulate._workers == []  # reaped, not reused

    @pytest.mark.skipif(NPROC < 2, reason="one usable CPU")
    def test_invalid_sample_in_a_late_block(self, fresh_pool, monkeypatch):
        plan = small_plan(replications=12, threads=2)
        draw = simulate._draw_block

        def invalid_from_10(plan, first, count):
            times, events, eps = draw(plan, first, count)
            for rep in range(max(first, 10), first + count):
                times[rep - first, 1, 0] = -1.0
            return times, events, eps

        monkeypatch.setattr(simulate, "_draw_block", invalid_from_10)
        blocks, run = [], simulate._block_p_values

        def recorded(plan, times, *rest):
            blocks.append((os.getpid(), len(times)))
            return run(plan, times, *rest)

        monkeypatch.setattr(simulate, "_block_p_values", recorded)
        with pytest.raises(ValidationError) as serial:
            empirical_rejection(dataclasses.replace(plan, threads=1))
        blocks.clear()
        with forced_pool():
            with pytest.raises(ValidationError) as pooled:
                pooled_run(plan)
            assert len(simulate._workers) == 1  # a span that raised keeps its worker
        assert str(pooled.value) == str(serial.value)
        # the caller ran its own span and then the worker's again, up to the
        # first invalid replicate
        assert sum(n for pid, n in blocks if pid == os.getpid()) >= 10

    @pytest.mark.skipif(NPROC < 2, reason="one usable CPU")
    def test_plan_that_does_not_pickle(self, fresh_pool):
        class LocalArm(ExponentialArm):
            pass

        plan = small_plan(scenario=TrialScenario(ExponentialArm(1.5), LocalArm(1.5),
                                                 censoring_rate=0.48),
                          replications=12, threads=2)
        serial = empirical_rejection(dataclasses.replace(plan, threads=1)).p_values
        with forced_pool():
            assert pooled_run(plan).tobytes() == serial.tobytes()
            assert simulate._workers == []  # no worker is forked for it

    @pytest.mark.skipif(NPROC < 2, reason="one usable CPU")
    def test_workers_ignore_ctrl_c(self, fresh_pool):
        plan = small_plan(replications=12, threads=2)
        with forced_pool():
            first = pooled_run(plan)
            (worker,) = simulate._workers
            os.kill(worker.pid, signal.SIGINT)
            assert pooled_run(plan).tobytes() == first.tobytes()
            assert simulate._workers == [worker]

    @pytest.mark.skipif(NPROC < 2, reason="one usable CPU")
    def test_interrupted_run_stops_busy_workers(self, fresh_pool, monkeypatch):
        plan = small_plan(replications=12, threads=2)
        serial = empirical_rejection(plan).p_values
        run = simulate._span

        def interrupted(plan, first, count):
            if first > 0 and os.getpid() == caller:
                raise KeyboardInterrupt
            return run(plan, first, count)

        caller = os.getpid()
        monkeypatch.setattr(simulate, "_span", interrupted)
        with forced_pool():
            with pytest.raises(KeyboardInterrupt):
                pooled_run(plan)
            assert simulate._workers == []
        monkeypatch.setattr(simulate, "_span", run)
        with forced_pool():
            assert pooled_run(plan).tobytes() == serial.tobytes()

    @pytest.mark.skipif(NPROC < 2, reason="one usable CPU")
    def test_redefined_arm_class(self, fresh_pool, monkeypatch):
        """pickle sends a class by name, and a worker finds under that name
        what it held at its fork. A class defined again after the workers
        started (a notebook cell run twice, a module reloaded) is not the
        one they hold, so the run stops them and runs their spans itself."""
        def plan_with_scale(scale):
            class ScaledArm(ExponentialArm):
                def inverse_cdf(self, x):
                    return scale * ExponentialArm.inverse_cdf(self, x)

            ScaledArm.__module__, ScaledArm.__qualname__ = __name__, "ScaledArm"
            monkeypatch.setattr(sys.modules[__name__], "ScaledArm", ScaledArm, raising=False)
            scenario = TrialScenario(ExponentialArm(1.5), ScaledArm(1.5), censoring_rate=0.48)
            return small_plan(scenario=scenario, replications=12, threads=2)

        with forced_pool():
            first = pooled_run(plan_with_scale(1.0))
            (worker,) = simulate._workers
            plan = plan_with_scale(2.0)
            serial = empirical_rejection(dataclasses.replace(plan, threads=1)).p_values
            assert pooled_run(plan).tobytes() == serial.tobytes()
            assert worker.pid is None  # stopped, and its span run again here
            assert pooled_run(plan).tobytes() == serial.tobytes()
            assert len(simulate._workers) == 1  # forked with the new class
        assert first.tobytes() != serial.tobytes()

    @pytest.mark.skipif(NPROC < 2, reason="one usable CPU")
    def test_patched_package_function(self, fresh_pool, monkeypatch):
        plan = small_plan(replications=12, threads=2)
        with forced_pool():
            first = pooled_run(plan)
            run = simulate._block_p_values
            monkeypatch.setattr(simulate, "_block_p_values", lambda *block: run(*block) / 2)
            serial = empirical_rejection(dataclasses.replace(plan, threads=1)).p_values
            assert pooled_run(plan).tobytes() == serial.tobytes()
        assert first.tobytes() != serial.tobytes()

    @pytest.mark.skipif(NPROC < 2, reason="one usable CPU")
    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_no_workers_without_fork_or_affinity(self, fresh_pool, monkeypatch, missing):
        # Windows has no fork; macOS has no sched_getaffinity, and a fork
        # there after numpy has loaded is not safe with its BLAS
        plan = small_plan(replications=12, threads=2)
        serial = empirical_rejection(dataclasses.replace(plan, threads=1)).p_values
        monkeypatch.delattr(os, missing)
        with forced_pool():
            assert pooled_run(plan).tobytes() == serial.tobytes()
            assert simulate._workers == []

    @pytest.mark.skipif(NPROC < 2, reason="one usable CPU")
    def test_no_fork_while_another_run_is_under_way(self, fresh_pool, monkeypatch):
        """A fork copies the process while other threads may hold locks in
        numpy or BLAS, so a pooled run forks nothing while a serial run
        goes on in another thread, and forks once it has ended."""
        pooled, other = small_plan(replications=12, threads=2), small_plan(master_seed=8)
        serial = {id(p): empirical_rejection(dataclasses.replace(p, threads=1)).p_values
                  for p in (pooled, other)}
        entered, release, results = threading.Event(), threading.Event(), {}
        run = simulate._span

        def held(plan, first, count):
            if plan is other:
                entered.set()
                release.wait(60)
            return run(plan, first, count)

        monkeypatch.setattr(simulate, "_span", held)
        thread = threading.Thread(target=lambda: results.update(
            other=empirical_rejection(other).p_values))
        with forced_pool():
            thread.start()
            try:
                assert entered.wait(60)
                assert pooled_run(pooled).tobytes() == serial[id(pooled)].tobytes()
                assert simulate._workers == []
            finally:
                release.set()
                thread.join(60)
            assert results["other"].tobytes() == serial[id(other)].tobytes()
            assert pooled_run(pooled).tobytes() == serial[id(pooled)].tobytes()
            assert len(simulate._workers) == 1

    @pytest.mark.skipif(NPROC < 2, reason="one usable CPU")
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_runs_started_together_share_no_worker(self, fresh_pool, monkeypatch, warm):
        """Of two pooled runs under way at once, only the one that started
        alone uses the workers, already running or forked for it; the other
        runs on its own thread and forks nothing."""
        first, second = small_plan(replications=12, threads=2), small_plan(
            replications=12, threads=2, master_seed=8)
        serial = [empirical_rejection(dataclasses.replace(p, threads=1)).p_values
                  for p in (first, second)]
        results = {}
        thread = threading.Thread(target=lambda: results.update(first=pooled_run(first)))
        entered, release = held_span(monkeypatch, first)
        with forced_pool():
            if warm:
                pooled_run(second)
            workers = list(simulate._workers)
            thread.start()
            try:
                assert entered.wait(60)
                assert pooled_run(second).tobytes() == serial[1].tobytes()
                assert simulate._workers == workers
            finally:
                release.set()
                thread.join(60)
            assert results["first"].tobytes() == serial[0].tobytes()
            assert len(simulate._workers) == 1

    def test_fork_while_another_thread_holds_the_run_lock(self, fresh_pool):
        """A thread that held _runs_lock at a fork is not in the copy, so the
        copy's runs take a lock of their own instead of waiting for it."""
        plan = small_plan(replications=3)
        serial = empirical_rejection(plan).p_values
        held, release = threading.Event(), threading.Event()

        def hold():
            with simulate._runs_lock:
                held.set()
                release.wait(60)

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            assert held.wait(60)
            pid = os.fork()
            if pid == 0:
                ok = False
                try:
                    ok = empirical_rejection(plan).p_values.tobytes() == serial.tobytes()
                finally:
                    os._exit(0 if ok else 1)
        finally:
            release.set()
            thread.join(60)
        assert exit_code(pid) == 0

    @pytest.mark.skipif(NPROC < 2, reason="one usable CPU")
    def test_fork_while_a_run_waits_for_its_worker(self, fresh_pool, monkeypatch):
        """A run waiting for a worker's reply holds the lock of that pipe's
        buffer. A copy forked meanwhile closes its end of the pipe without
        the lock, which no thread of the copy would ever release."""
        plan = small_plan(replications=12, threads=2)
        serial = empirical_rejection(plan).p_values
        caller, run, reply = os.getpid(), simulate._span, simulate._Worker.reply
        waiting, results = threading.Event(), {}

        def slow(plan, first, count):
            if os.getpid() != caller:
                time.sleep(1)
            return run(plan, first, count)

        def waited(worker):
            waiting.set()
            return reply(worker)

        monkeypatch.setattr(simulate, "_span", slow)
        monkeypatch.setattr(simulate._Worker, "reply", waited)
        thread = threading.Thread(target=lambda: results.update(p=pooled_run(plan)))
        with forced_pool():
            thread.start()
            try:
                assert waiting.wait(60)
                time.sleep(0.2)  # into the read
                pid = os.fork()
                if pid == 0:
                    os._exit(0)
            finally:
                thread.join(60)
            assert exit_code(pid) == 0
        assert results["p"].tobytes() == serial.tobytes()

    @pytest.mark.skipif(NPROC < 2, reason="one usable CPU")
    def test_fork_while_another_run_is_under_way(self, fresh_pool, monkeypatch):
        """A copy forked while another thread's run is under way runs
        without that thread, so its own pooled run starts alone and forks
        a worker."""
        pooled, other = small_plan(replications=12, threads=2), small_plan(master_seed=8)
        serial = empirical_rejection(dataclasses.replace(pooled, threads=1)).p_values
        entered, release = held_span(monkeypatch, other)
        thread = threading.Thread(target=empirical_rejection, args=(other,))
        with forced_pool():
            thread.start()
            try:
                assert entered.wait(60)
                pid = os.fork()
                if pid == 0:
                    ok = False
                    try:
                        ok = (pooled_run(pooled).tobytes() == serial.tobytes()
                              and len(simulate._workers) == 1)
                        simulate._stop_workers()
                    finally:
                        os._exit(0 if ok else 1)
            finally:
                release.set()
                thread.join(60)
        assert exit_code(pid) == 0


DELAYED_PLAN = scenario_from_delta(1.5, 0.5, 0.1, t_cut=0.2, censoring_rate=0.48)
HEAVY_CENSORING = scenario_from_delta(1.5, 0.5, 0.1, t_cut=0.2, censoring_rate=1.5)


class TestFrozenPValues:
    """The engine's p-values for fixed seeds, as values: LS at J=1 and J=3
    on the delayed-effect plan, KDE at J=1 on it and on a heavily censored
    variant where 4 of 40 replicates fail. Printed rates move only when a
    replicate crosses alpha; these pins move with any drift in a draw, a
    fit, a density or a tail. The values are compared at 1e-12 relative,
    not hashed, because the tails come from the platform's libm."""

    PLANS = {
        "ls-j1": SimulationPlan(DELAYED_PLAN, 200, (0.5,), 40, master_seed=11),
        "ls-j3": SimulationPlan(DELAYED_PLAN, 150, (0.25, 0.5, 0.75), 40, master_seed=12),
        "kde-j1": SimulationPlan(DELAYED_PLAN, 40, (0.75,), 40, density_method="kde",
                                 master_seed=13),
        "kde-j1-failures": SimulationPlan(HEAVY_CENSORING, 15, (0.5,), 40,
                                          density_method="kde", master_seed=13),
    }
    nan = math.nan
    EXPECTED = {
        "ls-j1": [
            0.030208433725272463, 0.5916816078121474, 0.8252047743309165, 0.14723654034210418,
            0.9767721776265442, 0.8768512879427965, 0.05711329666113206, 0.0720967436613874,
            0.49518550492274493, 0.28103483937644713, 0.12901435757943752, 0.8124465900484485,
            0.04075769604152232, 0.6028363239290694, 0.49388376901249575, 0.302113119059499,
            0.9256306983311429, 0.17866656482101717, 0.09515022833200057, 0.05451767640226144,
            0.07152346615094181, 0.013829388474452345, 0.13464085700419098, 0.14315913924158363,
            0.29097256980364283, 0.3628950365532254, 0.17692030323701413, 0.22913454457755222,
            0.019404812189377164, 0.1461751265650306, 0.06313545830166324, 0.6522152737027385,
            0.5580315644299039, 0.052966410847726034, 0.455296435637799, 0.0511797575164024,
            0.05062090688355681, 0.15489731303655568, 0.2604467196625595, 0.055495293279132836,
        ],
        "ls-j3": [
            0.7575361150113128, 0.038145652762850896, 0.4181467692157006, 0.02445447745132347,
            0.2132026447235916, 0.09524764699150766, 0.004223152402516641, 0.864455199375558,
            0.09737561123153354, 0.0016048883151165683, 0.025001769927127597,
            0.08281721885723561, 0.2081429270853274, 0.0018474092896733534, 0.37107470656893865,
            0.08664904495577525, 0.02855470742405056, 0.008721378403028076,
            0.0035613812397453687, 0.07699738079845823, 0.0036125416088662377,
            0.19269555149858764, 0.19024258396797128, 0.2103483945425366, 0.004084726791303504,
            0.028516527198360037, 0.03854173845429201, 0.03540726668314876, 0.06254023941927413,
            0.16155509160624443, 0.002823430811194307, 0.2884475636236483, 0.9717838180925831,
            0.32443264010260103, 0.03045805473751327, 0.271495085155376, 0.9284890189414178,
            0.5905090648331794, 0.43357039211463577, 0.009488001155750627,
        ],
        "kde-j1": [
            0.39657742280327046, 0.7274229648017685, 0.13188865282730353, 0.3334276939578149,
            0.03789998683616023, 0.9243815731993026, 0.9056731559047613, 0.1944484651157794,
            0.6552422926543412, 0.4620134483234697, 0.8649987892919158, 0.43412229901717814,
            0.6803349920323063, 0.03329634442770844, 0.4822988465941983, 0.18618461379120987,
            0.11166683480773093, 0.0035085261734202258, 0.011936577086315042,
            0.18564033183249473, 0.05067817764590653, 0.0008195559167386408,
            0.24807136274613917, 0.5079812410255831, 0.3345411536612529, 0.7415267229455924,
            0.0005770631399473182, 0.026773485240487737, 0.079776671516087, 0.79915656010605,
            0.11323997464768293, 0.0047800036992798195, 0.7647113337467744, 0.4418035577236351,
            0.0010262053532087544, 0.7532282769746671, 0.7914876721570454,
            8.503119930801602e-06, 0.12944797378170939, 0.03610871282189082,
        ],
        "kde-j1-failures": [
            0.9228466615862718, 0.7090736123805806, 0.3431087815298247, 0.5678150900855232,
            0.9023869191951199, 0.8514740254779176, nan, 0.6830728682787625,
            0.49584143794881363, 0.39423757423008954, nan, 0.3063703381717784,
            0.6204355882149825, 0.6324440824155559, 0.8928457166599884, 0.4758411803247572,
            0.9992330137100094, 0.3013590213021603, 0.8723518023874015, 0.7132022117141461,
            0.9475650732001375, 0.417168653257192, 0.4045730251096752, 0.8593999276588797,
            0.8089193657897544, 0.3822345573286787, nan, 0.7774271334766637,
            0.23227083454362984, 0.5387569003508961, 0.7514553499029976, 0.8309668893413599,
            0.48965340642779687, nan, 0.49488704564892083, 0.8075968393695301,
            0.5721272595886602, 0.31173214176357456, 0.9526696800084057, 0.11245042420475378,
        ],
    }

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_p_values(self, name):
        p_values = empirical_rejection(self.PLANS[name]).p_values
        expected = np.array(self.EXPECTED[name])
        assert np.array_equal(np.isnan(p_values), np.isnan(expected))
        finite = ~np.isnan(expected)
        np.testing.assert_allclose(p_values[finite], expected[finite], rtol=1e-12, atol=0)


class TestFormulaPowerMemo:
    """A plan's formula power is kept for the 8 latest designs: a warm call
    equals a cold one for every part of the design, and a design without a
    formula power raises on every call."""

    PLANS = [
        small_plan(scenario=scenario, n_per_group=n, probabilities=ps, alpha=alpha)
        for scenario in (scenario_from_delta(1.5, 0.5, 0.1, censoring_rate=0.48), DELAYED_PLAN)
        for n in (30, 200)
        for ps in ((0.5,), (0.25, 0.5, 0.75))
        for alpha in (0.05, 0.01)
    ]

    @staticmethod
    def formula_power(plan):
        """The formula power as empirical_rejection asks the planning route."""
        return scenarios._planned_power(plan.scenario, plan.probabilities, None,
                                        plan.n_per_group, plan.alpha)

    def test_warm_equals_cold(self):
        cold = []
        for plan in self.PLANS:
            scenarios._plan_design.cache_clear()
            scenarios._planned_power.cache_clear()
            cold.append(self.formula_power(plan))
        assert len(set(cold)) == len(cold)  # every part of the design matters
        for _ in range(2):
            assert [self.formula_power(plan) for plan in self.PLANS] == cold
            assert [self.formula_power(plan) for plan in self.PLANS[::-1]] == cold[::-1]
        assert scenarios._planned_power.cache_info().currsize == 8

    def test_error_raises_on_every_call(self):
        scenario = TrialScenario(ExponentialArm(1.5), ExponentialArm(2.0), censoring_rate=4.0)
        plan = small_plan(scenario=scenario, n_per_group=500, probabilities=(1e-12, 0.5))
        scenarios._planned_power.cache_clear()
        for _ in range(2):
            with pytest.raises(SingularCovarianceError, match="psi must be positive definite"):
                self.formula_power(plan)
        assert scenarios._planned_power.cache_info().currsize == 0
