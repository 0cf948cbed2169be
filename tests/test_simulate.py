"""Tests for the Monte Carlo harness: sampling, determinism, accounting."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

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
from survquant.errors import ValidationError
from survquant.simulate import DEFAULT_SIM_SIGMA_EPS, _replicate_tuning

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
    tuning = _replicate_tuning(plan, replicate_seed(plan, rep).spawn(1)[0])
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
