"""Tests for Kaplan-Meier fitting, quantile extraction, and the variance factor.

Hand-worked product-limit arithmetic is kept in comments next to each
assertion so the expected numbers can be re-derived without leaving the file.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from survquant import (
    DegenerateTailError,
    KaplanMeierFit,
    SurvivalSample,
    TwoArmData,
    ValidationError,
    fit_censoring_km,
    fit_kaplan_meier,
    phi_hat,
    quantile_at,
)
from survquant.survival import (
    _censoring_before,
    _product_limit,
    _quantiles,
    _sorted_observations,
    _step_sizes,
)

# 6 subjects, 2 censored; steps land at 1, 3, 5, 6 with Y = 6, 4, 2, 1:
#   S(1) = 5/6,  S(3) = 5/6 * 3/4 = 5/8,  S(5) = 5/16,  S(6) = 0
BASIC = SurvivalSample(
    times=np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
    events=np.array([True, False, True, False, True, True]),
)


class TestSampleValidation:
    def test_negative_zero_is_zero(self):
        sample = SurvivalSample(np.array([-0.0, 1.0]), np.array([True, True]))
        assert not np.signbit(sample.times).any()
        assert not np.signbit(fit_kaplan_meier(sample).event_times).any()

    def test_empty_sample(self):
        with pytest.raises(ValidationError, match="empty"):
            SurvivalSample(times=np.array([]), events=np.array([], dtype=bool))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="equal length"):
            SurvivalSample(times=np.array([1.0, 2.0]), events=np.array([True]))

    def test_negative_time(self):
        with pytest.raises(ValidationError, match="non-negative"):
            SurvivalSample(times=np.array([1.0, -0.5]), events=np.array([True, True]))

    def test_nonfinite_time(self):
        with pytest.raises(ValidationError, match="finite"):
            SurvivalSample(times=np.array([1.0, np.inf]), events=np.array([True, True]))

    def test_two_dimensional_input(self):
        with pytest.raises(ValidationError, match="one-dimensional"):
            SurvivalSample(times=np.ones((2, 2)), events=np.ones((2, 2), dtype=bool))


class TestKaplanMeierFit:
    def test_uncensored_is_empirical_survival(self):
        """With no censoring the product limit is 1 - ECDF at every time."""
        sample = SurvivalSample(np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4, bool))
        fit = fit_kaplan_meier(sample)
        assert_allclose(fit.survival, [0.75, 0.5, 0.25, 0.0], rtol=1e-15)
        assert fit.survival_at(2.5) == 0.5
        assert fit.survival_at(4.0) == 0.0

    def test_censored_hand_example(self):
        # times {1,2,3,4}, events {T,F,T,T}:
        #   step at 1: Y=4, d=1 -> S = 3/4
        #   step at 3: Y=2, d=1 -> S = 3/4 * 1/2 = 3/8
        #   step at 4: Y=1, d=1 -> S = 0
        sample = SurvivalSample(
            np.array([1.0, 2.0, 3.0, 4.0]), np.array([True, False, True, True])
        )
        fit = fit_kaplan_meier(sample)
        assert_allclose(fit.event_times, [1.0, 3.0, 4.0])
        assert_allclose(fit.at_risk, [4.0, 2.0, 1.0])
        assert fit.survival_at(1.0) == 0.75
        assert_allclose(fit.survival_at(3.0), 0.375)

    def test_single_censored_observation(self):
        sample = SurvivalSample(np.array([5.0]), np.array([False]))
        fit = fit_kaplan_meier(sample)
        assert fit.event_times.size == 0
        assert fit.survival_at(10.0) == 1.0
        assert fit.max_cdf == 0.0

    def test_basic_counts_and_greenwood(self):
        fit = fit_kaplan_meier(BASIC)
        assert_allclose(fit.event_times, [1.0, 3.0, 5.0, 6.0])
        assert_allclose(fit.survival, [5 / 6, 5 / 8, 5 / 16, 0.0], rtol=1e-14)
        # Greenwood terms: 1/(6*5), 1/(4*3), 1/(2*1), then Y=d -> inf sentinel
        assert_allclose(
            fit.greenwood_cumsum[:3],
            [1 / 30, 1 / 30 + 1 / 12, 1 / 30 + 1 / 12 + 1 / 2],
            rtol=1e-14,
        )
        assert np.isinf(fit.greenwood_cumsum[3])

    def test_tied_events_and_censorings(self):
        """Events happen first at a tied time, so the censored subject at 2
        is still in the risk set of the event at 2."""
        sample = SurvivalSample(
            np.array([2.0, 2.0, 3.0]), np.array([True, False, True])
        )
        fit = fit_kaplan_meier(sample)
        # step at 2: Y=3, d=1 -> 2/3; step at 3: Y=1, d=1 -> 0
        assert_allclose(fit.survival, [2 / 3, 0.0], rtol=1e-15)
        assert_allclose(fit.at_risk, [3.0, 1.0])

    def test_survival_monotone_property(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 60))
            sample = SurvivalSample(
                rng.exponential(1.0, n).round(2), rng.random(n) < 0.7
            )
            if not sample.events.any():
                continue
            fit = fit_kaplan_meier(sample)
            assert np.all(np.diff(fit.survival) <= 1e-15)
            assert np.all((fit.survival >= -1e-15) & (fit.survival <= 1.0))
            assert np.all(fit.n_events <= fit.at_risk)
            finite = fit.greenwood_cumsum[np.isfinite(fit.greenwood_cumsum)]
            assert np.all(np.diff(finite) >= 0)


class TestCensoringKm:
    def test_all_events_gives_flat_curve(self):
        sample = SurvivalSample(np.array([1.0, 2.0, 3.0]), np.ones(3, bool))
        fit = fit_censoring_km(sample)
        assert fit.event_times.size == 0
        assert fit.survival_at(99.0) == 1.0

    def test_all_censored_is_empirical(self):
        sample = SurvivalSample(np.array([1.0, 2.0, 3.0, 4.0]), np.zeros(4, bool))
        fit = fit_censoring_km(sample)
        assert_allclose(fit.survival, [0.75, 0.5, 0.25, 0.0], rtol=1e-15)

    def test_two_point_hand_example(self):
        # times {1,2}, events {T,F}: the only censoring is at 2 with risk set
        # {2} (the event at 1 already left), so S_cens drops to 0 there.
        sample = SurvivalSample(np.array([1.0, 2.0]), np.array([True, False]))
        fit = fit_censoring_km(sample)
        assert fit.survival_at(1.5) == 1.0
        assert fit.survival_at(2.0) == 0.0

    def test_tied_time_risk_set_reduction(self):
        """At a shared time the event is removed before the censoring is
        counted, so the censoring step sees a smaller risk set."""
        sample = SurvivalSample(
            np.array([2.0, 2.0, 2.0]), np.array([True, False, True])
        )
        fit = fit_censoring_km(sample)
        # 3 at risk, 2 events leave first -> censoring step has Y = 1
        assert_allclose(fit.event_times, [2.0])
        assert_allclose(fit.at_risk, [1.0])
        assert fit.survival_at(2.0) == 0.0


def brute_product_limit(times, flags, counted):
    """The product limit written out step by step, in Python floats.

    At each distinct time u with d = counted(flags at u) > 0 steps, the risk
    set is every observation with T >= u less those removed first at u
    (removed(flags at u)); S *= 1 - d/Y and the Greenwood sum grows by
    d/(Y(Y-d)), or becomes inf once Y == d.
    """
    steps, at_risk, counts, survival, greenwood = [], [], [], [], []
    s, g = 1.0, 0.0
    for u in sorted(set(times)):
        here = [f for t, f in zip(times, flags) if t == u]
        d, removed_first = counted(here)
        if d == 0:
            continue
        y = float(sum(t >= u for t in times) - removed_first)
        s *= 1.0 - d / y
        g += d / (y * (y - d)) if y > d else math.inf
        steps.append(u)
        at_risk.append(y)
        counts.append(d)
        survival.append(s)
        greenwood.append(g)
    return steps, at_risk, counts, survival, greenwood


def events_counted(flags):
    return float(sum(flags)), 0


def censorings_counted(flags):
    # events at a tied time leave the risk set before the censorings count
    return float(len(flags) - sum(flags)), sum(flags)


# subjects on a grid of 60 times in steps of 1/8, so ties are common
tied_samples = st.lists(
    st.tuples(st.integers(1, 60), st.booleans()), min_size=1, max_size=80
).map(lambda cells: SurvivalSample(
    np.array([k / 8 for k, _ in cells]), np.array([e for _, e in cells])
))


def block_from_seed(seed):
    """(rows, n) times and event flags drawn from a numpy seed; each row is
    untied or on a coarse grid of 13 times, so ties are common, and the
    share of events varies from block to block."""
    rng = np.random.default_rng(seed)
    rows, n = int(rng.integers(1, 5)), int(rng.integers(1, 31))
    tied = rng.random((rows, 1)) < 0.5
    times = np.where(tied, rng.integers(0, 13, (rows, n)) / 8, rng.uniform(0.0, 50.0, (rows, n)))
    return times, rng.random((rows, n)) < rng.random()


class TestProductLimitProperties:
    @settings(max_examples=200, deadline=None)
    @given(sample=tied_samples)
    @pytest.mark.parametrize("fit,counted", [
        (fit_kaplan_meier, events_counted),
        (fit_censoring_km, censorings_counted),
    ], ids=["events", "censoring"])
    def test_equals_brute_force(self, sample, fit, counted):
        result = fit(sample)
        steps, at_risk, counts, survival, greenwood = brute_product_limit(
            sample.times.tolist(), sample.events.tolist(), counted
        )
        # the same float operations in the same order: equal to the bit
        assert result.event_times.tolist() == steps
        assert result.at_risk.tolist() == at_risk
        assert result.n_events.tolist() == counts
        assert result.survival.tolist() == survival
        assert result.greenwood_cumsum.tolist() == greenwood
        assert result.n == sample.n

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @pytest.mark.parametrize("fit,censoring", [
        (fit_kaplan_meier, False),
        (fit_censoring_km, True),
    ], ids=["events", "censoring"])
    def test_simulation_rows_equal_the_fit(self, fit, censoring, seed):
        """The kernel over a block whose rows mix tied and untied times, as
        the simulation engine runs it: at each step of a row every entry
        equals that row's own fit, and elsewhere it repeats the entry before
        it (1 and 0 before the first step). On the censoring side every
        observation's left limit, whose inverse weighs the KDE's events, is
        fit_censoring_km's survival_before to the bit."""
        times, events = block_from_seed(seed)
        steps, flags = _sorted_observations(times, events)
        d, y = _step_sizes(steps, ~flags if censoring else flags, censoring)
        survival, greenwood = _product_limit(d, y)
        left_limits = _censoring_before(steps, flags)
        for r in range(times.shape[0]):
            result = fit(SurvivalSample(times[r], events[r]))
            at = d[r] > 0
            assert steps[r][at].tolist() == result.event_times.tolist()
            assert d[r][at].tolist() == result.n_events.tolist()
            assert y[r][at].tolist() == result.at_risk.tolist()
            assert survival[r][at].tolist() == result.survival.tolist()
            assert greenwood[r][at].tolist() == result.greenwood_cumsum.tolist()
            before = ~at
            assert (survival[r][before] == np.append(1.0, survival[r][:-1])[before]).all()
            assert (greenwood[r][before] == np.append(0.0, greenwood[r][:-1])[before]).all()
            if censoring:
                assert left_limits[r].tolist() == result.survival_before(steps[r]).tolist()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_full_row_quantiles_equal_the_fit(self, seed):
        """The quantile rule on the simulation engine's full rows, restricted
        to steps with events, finds each row's quantile_at time and phi_hat
        factor, also at p far below the 1e-9 slack (where a censored first
        observation must not count) and at p the curve never reaches."""
        probabilities = [1e-12, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
        times, events = block_from_seed(seed)
        first = times.argmin(axis=1)
        events[np.arange(times.shape[0]), first] = False
        steps, flags = _sorted_observations(times, events)
        d, y = _step_sizes(steps, flags)
        survival, greenwood = _product_limit(d, y)
        found, sums, reached = _quantiles(steps, d, survival, greenwood, probabilities)
        n = times.shape[1]
        for r in range(times.shape[0]):
            fit = fit_kaplan_meier(SurvivalSample(times[r], events[r]))
            # independent reference: the first step of the compressed fit
            # whose CDF is within 1e-9 of p
            cdf = 1.0 - fit.survival
            for j, p in enumerate(probabilities):
                q = quantile_at(fit, p)
                idx = int(np.searchsorted(cdf, p - 1e-9, side="left"))
                assert q.reachable == (idx < cdf.size)
                assert reached[r, j] == q.reachable
                if not q.reachable:
                    assert math.isnan(found[r, j]) and math.isnan(sums[r, j])
                    continue
                assert found[r, j] == q.time == fit.event_times[idx]
                assert sums[r, j] == fit.greenwood_cumsum[idx]
                try:
                    phi = phi_hat(fit, q.time)
                except DegenerateTailError:
                    phi = math.inf
                assert n * sums[r, j] == phi


class TestStepEvaluation:
    def test_right_continuity_and_left_limit(self):
        fit = fit_kaplan_meier(BASIC)
        assert fit.survival_at(1.0) == 5 / 6       # just after the jump
        assert fit.survival_before(1.0) == 1.0     # just before it
        assert fit.survival_before(3.0) == 5 / 6
        assert fit.survival_at(0.5) == 1.0

    def test_vectorized_evaluation(self):
        fit = fit_kaplan_meier(BASIC)
        out = fit.survival_at(np.array([0.0, 1.0, 2.9, 3.0, 100.0]))
        assert_allclose(out, [1.0, 5 / 6, 5 / 6, 5 / 8, 0.0])

    def test_cdf_complements_survival(self):
        fit = fit_kaplan_meier(BASIC)
        t = np.array([0.5, 1.0, 4.2])
        assert_allclose(fit.cdf_at(t), 1.0 - fit.survival_at(t))


class TestQuantileAt:
    def test_uncensored_median(self):
        """Median of {1,2,3,4} must be 2 even though the cumulative product
        1 - 0.75*(1 - 1/3) rounds a hair off 0.5."""
        fit = fit_kaplan_meier(
            SurvivalSample(np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4, bool))
        )
        q = quantile_at(fit, 0.5)
        assert q.reachable
        assert q.time == 2.0

    def test_upper_quantile(self):
        fit = fit_kaplan_meier(
            SurvivalSample(np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4, bool))
        )
        assert quantile_at(fit, 0.9).time == 4.0

    def test_unreachable_quantile(self):
        # one event then censoring: F caps at 0.25
        fit = fit_kaplan_meier(
            SurvivalSample(
                np.array([1.0, 2.0, 3.0, 4.0]),
                np.array([True, False, False, False]),
            )
        )
        q = quantile_at(fit, 0.7)
        assert not q.reachable
        assert math.isnan(q.time)
        assert fit.max_cdf == 0.25

    def test_no_events_unreachable(self):
        fit = fit_kaplan_meier(SurvivalSample(np.array([3.0]), np.array([False])))
        assert not quantile_at(fit, 0.1).reachable

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_probability_domain(self, p):
        fit = fit_kaplan_meier(SurvivalSample(np.array([1.0]), np.array([True])))
        with pytest.raises(ValidationError, match="strictly between"):
            quantile_at(fit, p)

    def test_monotone_in_p(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(5, 80))
            sample = SurvivalSample(rng.exponential(1.0, n), rng.random(n) < 0.8)
            if not sample.events.any():
                continue
            fit = fit_kaplan_meier(sample)
            grid = np.linspace(0.05, 0.95, 19)
            times = [quantile_at(fit, p) for p in grid]
            reached = [q.time for q in times if q.reachable]
            assert np.all(np.diff(reached) >= 0)


class TestPhiHat:
    def test_uncensored_single_step(self):
        # n * d/(Y(Y-d)) = 4 * 1/(4*3) = 1/3
        fit = fit_kaplan_meier(
            SurvivalSample(np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4, bool))
        )
        assert_allclose(phi_hat(fit, 1.0), 1 / 3, rtol=1e-15)

    def test_uncensored_telescoping_identity(self):
        """With distinct uncensored times the Greenwood sum telescopes:
        n * sum_{j<=k} 1/((n-j+1)(n-j)) = k/(n-k), i.e. Fhat/(1-Fhat)."""
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(3, 40))
            times = np.sort(rng.exponential(1.0, n))
            fit = fit_kaplan_meier(SurvivalSample(times, np.ones(n, bool)))
            for k in (1, n // 2, n - 1):
                if k < 1:
                    continue
                got = phi_hat(fit, times[k - 1])
                assert_allclose(got, k / (n - k), rtol=1e-12)

    def test_censored_hand_value(self):
        # BASIC Greenwood sum through t=5: 1/30 + 1/12 + 1/2 = 37/60
        # phi = 6 * 37/60 = 3.7
        fit = fit_kaplan_meier(BASIC)
        assert_allclose(phi_hat(fit, 5.0), 3.7, rtol=1e-14)

    def test_non_decreasing_in_t(self):
        fit = fit_kaplan_meier(BASIC)
        values = [phi_hat(fit, t) for t in (1.0, 2.0, 3.0, 4.9, 5.0)]
        assert np.all(np.diff(values) >= 0)

    def test_exhausted_risk_set_raises(self):
        fit = fit_kaplan_meier(BASIC)
        with pytest.raises(DegenerateTailError, match="exhausted"):
            phi_hat(fit, 6.0)

    def test_before_first_event_raises(self):
        fit = fit_kaplan_meier(BASIC)
        with pytest.raises(ValidationError, match="at least one event"):
            phi_hat(fit, 0.5)

    def test_converges_to_censored_closed_form(self):
        """Exponential events (rate 1.5) under exponential censoring (0.48):
        the population factor at the true median t = log(2)/1.5 is
        1.5/1.98 * (exp(1.98 t) - 1) = 1.1338341650024422."""
        target = 1.1338341650024422
        t_med = math.log(2.0) / 1.5
        rng = np.random.default_rng(2026)
        rel_errors = []
        for _ in range(30):
            n = 10_000
            events = rng.exponential(1 / 1.5, n)
            censor = rng.exponential(1 / 0.48, n)
            sample = SurvivalSample(np.minimum(events, censor), events <= censor)
            fit = fit_kaplan_meier(sample)
            q = quantile_at(fit, 0.5)
            rel_errors.append(abs(phi_hat(fit, q.time) - target) / target)
        assert np.mean(rel_errors) < 0.10
        assert t_med == pytest.approx(0.46209812037329684, rel=1e-15)


class TestTwoArmData:
    def test_allocation_fractions(self):
        arm1 = SurvivalSample(np.array([1.0, 2.0, 3.0]), np.ones(3, bool))
        arm2 = SurvivalSample(np.array([4.0]), np.ones(1, bool))
        data = TwoArmData(arm1, arm2)
        assert data.n == 4
        assert data.mu1_hat == 0.75
        assert data.mu1_hat + data.mu2_hat == 1.0

    def test_fit_is_frozen(self):
        fit = fit_kaplan_meier(BASIC)
        assert isinstance(fit, KaplanMeierFit)
        with pytest.raises(AttributeError):
            fit.n = 99
