"""Tests for the two density-at-quantile estimators and their selectors."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from survquant import (
    KaplanMeierFit,
    KdeConfig,
    LsConfig,
    SurvivalSample,
    TooFewEventsError,
    UnreachableQuantileError,
    ValidationError,
    cv_score,
    estimate_density_kde,
    estimate_density_ls,
    fit_censoring_km,
    fit_kaplan_meier,
    quantile_at,
    select_bandwidth_cv,
    select_sigma_ls,
)
from survquant import density
from survquant.density import (
    _cv_criterion,
    _cv_events,
    _cv_scores,
    _fourier_terms,
    _KdeMachine,
    _ls_densities,
    _ls_slopes,
    _matvec,
    _pair_sums,
    _pair_sums_exact,
    _pair_sums_fourier,
    _select_sigma,
    _sorted_rows,
    _tiled_product,
    _tiles,
)
from survquant.scenarios import scenario_from_delta
from survquant.simulate import sample_trial
from survquant.survival import _censoring_before

SQRT_2PI = math.sqrt(2.0 * math.pi)
CV_GRID = np.arange(0.1, 1.0 + 1e-12, 0.02)  # the CLI's default grid
README_PLAN = scenario_from_delta(1.5, 0.5, 0.1, t_cut=0.2, censoring_rate=0.48)


def exponential_sample(rng, n, rate=1.5, cens_rate=0.48):
    events = rng.exponential(1.0 / rate, n)
    if cens_rate > 0:
        censor = rng.exponential(1.0 / cens_rate, n)
    else:
        censor = np.full(n, np.inf)
    return SurvivalSample(np.minimum(events, censor), events <= censor)


def _sorted_events(sample):
    """The sample's event times, sorted, and their weights 1/S_cens(T-)
    from the public censoring fit."""
    times = np.sort(sample.times[sample.events])
    return times, 1.0 / fit_censoring_km(sample).survival_before(times)


def linear_cdf_fit(slope_inv, n_nodes=400, n=400):
    """A synthetic fit whose CDF at integer times t is exactly t/slope_inv.

    slope_inv is a power of two so every stored survival value is dyadic and
    the step lookups are exact, making the regression algebra exact too.
    """
    times = np.arange(1.0, n_nodes + 1.0)
    survival = 1.0 - times / slope_inv
    return KaplanMeierFit(
        event_times=times,
        at_risk=np.full(n_nodes, float(n)),
        n_events=np.ones(n_nodes),
        survival=survival,
        greenwood_cumsum=np.zeros(n_nodes),
        n=n,
    )


class TestConfigValidation:
    def test_ls_sigma_positive(self):
        with pytest.raises(ValidationError, match="sigma_eps"):
            LsConfig(sigma_eps=0.0)

    def test_ls_draws_minimum(self):
        with pytest.raises(ValidationError, match="n_draws"):
            LsConfig(sigma_eps=1.0, n_draws=1)

    def test_kde_bandwidth_positive(self):
        with pytest.raises(ValidationError, match="bandwidth"):
            KdeConfig(bandwidth=-0.5)

    def test_kde_bandwidth_finite(self):
        # an infinite bandwidth gave a density of 0 and Infinity in --json
        with pytest.raises(ValidationError, match="bandwidth must be positive and finite"):
            KdeConfig(bandwidth=math.inf)

    def test_kde_unknown_string(self):
        with pytest.raises(ValidationError, match="select-by-cv"):
            KdeConfig(bandwidth="auto")

    def test_kde_cv_needs_grid(self):
        with pytest.raises(ValidationError, match="cv_grid"):
            KdeConfig(bandwidth="select-by-cv")

    def test_kde_configs_hash_and_compare_by_value(self):
        grid = [0.1, 0.2, 0.3]
        as_list = KdeConfig("select-by-cv", grid)
        as_array = KdeConfig("select-by-cv", np.array(grid))
        assert as_list == as_array
        assert hash(as_list) == hash(as_array)
        assert as_list != KdeConfig("select-by-cv", [0.1, 0.2])
        assert len({as_list, as_array, KdeConfig(0.3), KdeConfig(0.3)}) == 2

    def test_kde_grid_strictly_increasing(self):
        with pytest.raises(ValidationError, match="increasing"):
            KdeConfig(bandwidth="select-by-cv", cv_grid=[0.3, 0.2])

    def test_kde_grid_finite(self):
        sample = exponential_sample(np.random.default_rng(12), 40)
        with pytest.raises(ValidationError, match="cv_grid values must be finite"):
            KdeConfig(bandwidth="select-by-cv", cv_grid=[0.1, math.inf])
        with pytest.raises(ValidationError, match="cv_grid values must be finite"):
            select_bandwidth_cv(sample, [0.1, math.inf])


def ls_slopes(fit, p, t0, eps):
    """_ls_slopes on the fit's curve for the sets of draws in the rows of
    eps, each sorted first: (slopes, zero numerators), one entry per row."""
    return _ls_slopes(fit.event_times, fit.survival, fit.n, p, t0, np.sort(eps, axis=-1))


class TestLsSlope:
    def test_recovers_exact_linear_cdf(self):
        """On a CDF that is exactly linear at every probed point the
        regression returns the slope itself, for any draw positions."""
        fit = linear_cdf_fit(512.0)  # slope 1/512, n=400 so sqrt(n)=20
        # eps multiples of 20 land the probes t0 + eps/sqrt(n) on integers
        eps = 20.0 * np.array([[-7.0, -3.0, 2.0, 5.0, 11.0]])
        slopes, zero = ls_slopes(fit, p=100.0 / 512.0, t0=100.0, eps=eps)
        assert zero.tolist() == [False]
        assert_allclose(slopes, [1.0 / 512.0], rtol=1e-13)

    def test_doubling_cdf_doubles_slope(self):
        eps = 20.0 * np.array([[-4.0, 1.0, 3.0, 9.0]])
        a1, _ = ls_slopes(linear_cdf_fit(512.0), 100.0 / 512.0, 100.0, eps)
        a2, _ = ls_slopes(linear_cdf_fit(256.0), 100.0 / 256.0, 100.0, eps)
        assert_allclose(a2, 2.0 * a1, rtol=1e-13)

    def test_permutation_invariance(self):
        fit = linear_cdf_fit(512.0)
        eps = np.array([-31.0, -2.5, 4.0, 17.0, 60.0, 88.0])
        (a, b), _ = ls_slopes(fit, 100.0 / 512.0, 100.0, np.stack([eps, eps[::-1]]))
        assert_allclose(a, b, rtol=1e-12)

    def test_two_point_symmetric_difference_quotient(self):
        """With draws {+c, -c} the slope collapses to the symmetric
        difference quotient of the CDF over the window 2c/sqrt(n)."""
        sample = SurvivalSample(np.arange(1.0, 17.0), np.ones(16, bool))
        fit = fit_kaplan_meier(sample)
        c, t0, p = 6.0, 8.0, 0.5
        slopes, _ = ls_slopes(fit, p, t0, np.array([[c, -c]]))
        h = c / 4.0  # c / sqrt(16)
        expected = (fit.cdf_at(t0 + h) - fit.cdf_at(t0 - h)) / (2.0 * h)
        assert_allclose(slopes, [expected], rtol=1e-12)

    def test_zero_slope_flag(self):
        # Both probes stay inside the flat step right of the median of {1,2}
        # where the CDF equals p exactly, so the numerator vanishes.
        sample = SurvivalSample(np.array([1.0, 2.0]), np.ones(2, bool))
        fit = fit_kaplan_meier(sample)
        slopes, zero = ls_slopes(fit, 0.5, 1.0, np.array([[0.1, 0.2]]))
        assert slopes.tolist() == [0.0]
        assert zero.tolist() == [True]


class TestEstimateDensityLs:
    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, math.nan])
    def test_probability_domain(self, p):
        sample = exponential_sample(np.random.default_rng(4), 50)
        with pytest.raises(ValidationError, match="strictly between"):
            estimate_density_ls(sample, p, LsConfig(sigma_eps=1.0, seed=0))
        with pytest.raises(ValidationError, match="strictly between"):
            select_sigma_ls(sample, p, [0.5, 1.0, 2.0], seed=0)

    def test_unreachable_quantile(self):
        sample = SurvivalSample(
            np.array([1.0, 2.0, 3.0]), np.array([True, False, False])
        )
        with pytest.raises(UnreachableQuantileError) as err:
            estimate_density_ls(sample, 0.9, LsConfig(sigma_eps=1.0, seed=0))
        assert err.value.max_probability == pytest.approx(1 / 3)

    def test_result_records_tuning(self):
        rng = np.random.default_rng(5)
        sample = exponential_sample(rng, 200)
        out = estimate_density_ls(sample, 0.5, LsConfig(sigma_eps=2.5, seed=3))
        assert out.method == "ls"
        assert out.tuning == 2.5
        assert out.p == 0.5
        assert math.isfinite(out.value)

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(6)
        sample = exponential_sample(rng, 300)
        cfg = LsConfig(sigma_eps=1.0, seed=42)
        assert (
            estimate_density_ls(sample, 0.5, cfg).value
            == estimate_density_ls(sample, 0.5, cfg).value
        )

    def test_exponential_consistency(self):
        """Density of Exp(1.5) at its median is 1.5 * 0.5 = 0.75; the LS
        estimate should be close at n = 10^4 under moderate censoring."""
        rng = np.random.default_rng(17)
        errors = []
        for seed in range(5):
            sample = exponential_sample(rng, 10_000)
            out = estimate_density_ls(
                sample, 0.5, LsConfig(sigma_eps=1.0, seed=seed)
            )
            errors.append(abs(out.value - 0.75) / 0.75)
        assert np.mean(errors) < 0.10

    def test_generator_seed_draws_in_probability_order(self):
        """One call at several probabilities equals one estimate per
        probability in turn, each drawing from the same Generator."""
        sample = exponential_sample(np.random.default_rng(7), 300)
        fit = fit_kaplan_meier(sample)
        ps = [0.25, 0.5, 0.75]
        times = [quantile_at(fit, p).time for p in ps]
        cfg = LsConfig(sigma_eps=1.0, seed=np.random.default_rng(11))
        together = _ls_densities(fit, ps, cfg, times)
        cfg = LsConfig(sigma_eps=1.0, seed=np.random.default_rng(11))
        assert together == [estimate_density_ls(sample, p, cfg) for p in ps]

    def test_clamped_floor(self):
        out = estimate_density_ls(
            SurvivalSample(np.array([1.0, 2.0]), np.ones(2, bool)),
            0.5,
            LsConfig(sigma_eps=1.0, seed=0),
        )
        assert out.clamped() >= 1e-8


def ls_slope_reference(fit, p, t0, eps):
    """The LS slope with the draws probed and summed in the order given,
    through the fit's own CDF."""
    root_n = math.sqrt(fit.n)
    y = root_n * (fit.cdf_at(t0 + eps / root_n) - p)
    numerator = float(np.add.reduce(eps * y))
    return 0.0 if numerator == 0.0 else numerator / float(np.add.reduce(eps * eps))


class TestSortedProbes:
    """On the sorted draws that _ls_draws and _select_sigma make, the
    searchsorted probes give the slope of probing each draw through the
    fit's CDF, bit for bit, for one draw or a whole sigma grid, and at one
    probability or at several on one curve; and the slopes do not depend on
    where the draws sit in memory."""

    @settings(max_examples=60, deadline=None)
    @given(
        cells=st.lists(st.tuples(st.integers(1, 200), st.booleans()),
                       min_size=2, max_size=120),
        p=st.sampled_from([0.1, 0.25, 0.5, 0.75]),
        seed=st.integers(0, 2**32 - 1),
        n_draws=st.integers(2, 400),
    )
    def test_equal_to_probing_in_draw_order(self, cells, p, seed, n_draws):
        # times on a grid of 1/20, so ties and probes on a step are common
        sample = SurvivalSample(np.array([k / 20 for k, _ in cells]),
                                np.array([e for _, e in cells]))
        fit = fit_kaplan_meier(sample)
        q = quantile_at(fit, p)
        if not q.reachable:
            return
        eps_std = np.sort(np.random.default_rng(seed).normal(0.0, 1.0, n_draws))
        grid = np.array([0.05, 0.5, 1.0, 3.0, 10.0])
        reference = [ls_slope_reference(fit, p, q.time, sigma * eps_std) for sigma in grid]
        values, zero = ls_slopes(fit, p, q.time, grid[:, None] * eps_std)
        assert values.tolist() == reference
        assert zero.tolist() == [value == 0.0 for value in reference]
        sel = select_sigma_ls(sample, p, grid, n_draws=n_draws, seed=seed)
        assert sel.profile.tolist() == reference
        # every reachable probability of the curve in one (J, G) call
        ps = [r for r in (0.1, 0.25, 0.5, 0.75) if quantile_at(fit, r).reachable]
        times = [quantile_at(fit, r).time for r in ps]
        selections = _select_sigma(fit, ps, times, grid, n_draws=n_draws, seed=seed)
        assert [s.profile.tolist() for s in selections] == [
            [ls_slope_reference(fit, r, t, sigma * eps_std) for sigma in grid]
            for r, t in zip(ps, times)
        ]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_draws=st.integers(2, 1000))
    def test_equal_at_every_offset_in_memory(self, seed, n_draws):
        # a BLAS dot's bits can depend on its operands' alignment (under
        # OPENBLAS_CORETYPE=Prescott they do); numpy's reduction's do not
        fit = fit_kaplan_meier(mixed_sample(seed, 200, tied=False, censored=True))
        q = quantile_at(fit, 0.5)
        if not q.reachable:
            return
        eps_std = np.sort(np.random.default_rng(seed).normal(0.0, 1.0, n_draws))
        eps = np.array([0.05, 0.5, 1.0, 3.0])[:, None] * eps_std
        slopes = []
        for offset in range(4):
            buffer = np.zeros(eps.size + 3)
            moved = buffer[offset : offset + eps.size].reshape(eps.shape)
            moved[...] = eps
            values, zero = _ls_slopes(fit.event_times, fit.survival, fit.n, 0.5, q.time, moved)
            slopes.append((values.tolist(), zero.tolist()))
        assert slopes[1:] == slopes[:1] * 3


def mixed_sample(seed, n, tied, censored):
    """n exponential times from one numpy seed, on a grid of 1/20 when tied
    (so ties, and probes on a step, are common), with about 40% of them
    censored when censored."""
    rng = np.random.default_rng(seed)
    times = rng.exponential(1.0, n)
    if tied:
        times = np.round(times * 20.0) / 20.0
    events = rng.random(n) < 0.6 if censored else np.ones(n, bool)
    return SurvivalSample(times, events)


class TestOrderIndependence:
    """Both estimators sum over sorted terms (the LS draws, the KDE events);
    a sum in draw order gives the same value up to rounding."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 150),
        tied=st.booleans(),
        censored=st.booleans(),
        p=st.sampled_from([0.1, 0.25, 0.5, 0.75]),
        sigma=st.sampled_from([0.05, 0.5, 1.0, 3.0, 10.0]),
        n_draws=st.integers(2, 400),
    )
    def test_ls_slope_equals_the_draw_order_sum(self, seed, n, tied, censored, p, sigma,
                                                n_draws):
        sample = mixed_sample(seed, n, tied, censored)
        fit = fit_kaplan_meier(sample)
        q = quantile_at(fit, p)
        if not q.reachable:
            return
        value = estimate_density_ls(sample, p, LsConfig(sigma, n_draws, seed)).value
        eps = np.random.default_rng(seed).normal(0.0, sigma, n_draws)  # draw order
        reference = ls_slope_reference(fit, p, q.time, eps)
        assert abs(value - reference) <= 1e-13 * abs(reference)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 150),
        tied=st.booleans(),
        censored=st.booleans(),
        h=st.floats(0.01, 2.0),
        t=st.floats(0.0, 3.0),
    )
    def test_kde_equals_the_draw_order_sum(self, seed, n, tied, censored, h, t):
        sample = mixed_sample(seed, n, tied, censored)
        value = estimate_density_kde(sample, t, KdeConfig(bandwidth=h)).value
        drawn = sample.times[sample.events]
        weights = 1.0 / fit_censoring_km(sample).survival_before(drawn)
        total = 0.0
        for time, weight in zip(drawn.tolist(), weights.tolist()):
            total += weight * math.exp(-0.5 * ((time - t) / h) ** 2)
        reference = total / (sample.n * h * SQRT_2PI)
        assert abs(value - reference) <= 1e-13 * reference


class TestSigmaSelection:
    def test_single_element_grid(self):
        rng = np.random.default_rng(8)
        sample = exponential_sample(rng, 100)
        sel = select_sigma_ls(sample, 0.5, [2.0], seed=0)
        assert sel.sigma_eps == 2.0
        assert sel.flags == ("short-grid",)

    def test_short_grid_falls_back_to_median(self):
        rng = np.random.default_rng(9)
        sample = exponential_sample(rng, 100)
        sel = select_sigma_ls(sample, 0.5, [0.5, 1.0, 2.0], seed=0)
        assert sel.sigma_eps == 1.0
        assert "short-grid" in sel.flags

    def test_constant_profile_picks_smallest(self, monkeypatch):
        """All windows tie when the slope profile is flat; the tie-break
        walks to the leftmost window and its smallest sigma."""
        monkeypatch.setattr(
            "survquant.density._ls_slopes",
            lambda steps, survival, n, p, t0, eps: (np.full((1, len(eps)), 0.7), None),
        )
        sample = SurvivalSample(np.arange(1.0, 30.0), np.ones(29, bool))
        sel = select_sigma_ls(sample, 0.5, np.linspace(1.0, 9.0, 9), seed=0)
        assert sel.sigma_eps == 1.0
        assert_allclose(sel.profile, 0.7)

    def test_plateau_pick_matches_the_window_loop(self, monkeypatch):
        """The vectorized window scores pick what a per-window loop picks,
        also on profiles full of ties."""
        rng = np.random.default_rng(41)
        sample = SurvivalSample(np.arange(1.0, 30.0), np.ones(29, bool))
        for trial in range(400):
            size = int(rng.integers(5, 40))
            if trial % 2:
                profile = rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3)
            else:
                profile = rng.integers(0, 4, size) * 0.1
            monkeypatch.setattr(
                "survquant.density._ls_slopes",
                lambda steps, survival, n, p, t0, eps: (profile[None], None),
            )
            grid = np.arange(1.0, size + 1.0)
            sel = select_sigma_ls(sample, 0.5, grid, seed=0)
            steps = np.abs(np.diff(profile))
            variation = [steps[i : i + 4].sum() for i in range(size - 4)]
            start = int(np.argmin(variation))
            block = profile[start : start + 5]
            offset = int(np.argmin(np.abs(block - np.median(block))))
            assert sel.sigma_eps == grid[start + offset]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 300),
        p=st.floats(0.1, 0.7),
        grid=st.lists(st.floats(0.05, 10.0), min_size=1, max_size=8, unique=True),
        draw_seed=st.integers(0, 2**32 - 1),
    )
    def test_profile_is_the_estimate_at_each_sigma(self, seed, n, p, grid, draw_seed):
        """Common random numbers: the profile entry at sigma is exactly the
        LS estimate with that sigma and the same seed, the identity the
        automatic sigma relies on."""
        sample = exponential_sample(np.random.default_rng(seed), n)
        try:
            sel = select_sigma_ls(sample, p, grid, seed=draw_seed)
        except UnreachableQuantileError:
            return
        for i, sigma in enumerate(np.sort(grid)):
            cfg = LsConfig(float(sigma), seed=draw_seed)
            assert estimate_density_ls(sample, p, cfg).value == sel.profile[i]

    def test_validation(self):
        sample = SurvivalSample(np.array([1.0, 2.0]), np.ones(2, bool))
        with pytest.raises(ValidationError, match="grid"):
            select_sigma_ls(sample, 0.5, [], seed=0)
        with pytest.raises(ValidationError, match="positive"):
            select_sigma_ls(sample, 0.5, [-1.0, 2.0], seed=0)
        with pytest.raises(ValidationError, match="n_draws"):
            select_sigma_ls(sample, 0.5, np.linspace(0.1, 10, 40), n_draws=1)

    @pytest.mark.parametrize("sigma", [1e-300, 1e200])
    def test_scale_out_of_range(self, sigma):
        # the sum of squared perturbations underflows to 0 or overflows
        sample = SurvivalSample(np.array([1.0, 2.0, 3.0]), np.ones(3, bool))
        with pytest.raises(ValidationError, match="sigma_eps is out of range"):
            select_sigma_ls(sample, 0.5, [1.0, sigma], seed=0)
        with pytest.raises(ValidationError, match="sigma_eps is out of range"):
            estimate_density_ls(sample, 0.5, LsConfig(sigma, seed=0))

    def test_beats_worst_grid_point_on_most_seeds(self):
        """The plateau pick should rarely be the grid's worst estimate of the
        Exp(1.5) median density 0.75."""
        grid = np.arange(0.1, 10.0 + 1e-9, 0.05)
        rng = np.random.default_rng(31)
        wins = 0
        for seed in range(100):
            sample = exponential_sample(rng, 400)
            sel = select_sigma_ls(sample, 0.5, grid, n_draws=1000, seed=seed)
            errors = np.abs(sel.profile - 0.75)
            chosen = errors[np.argmin(np.abs(sel.grid - sel.sigma_eps))]
            wins += chosen < errors.max()
        assert wins >= 80


class TestKdeEstimator:
    def test_single_observation_kernel_peak(self):
        sample = SurvivalSample(np.array([3.0]), np.array([True]))
        out = estimate_density_kde(sample, 3.0, KdeConfig(bandwidth=0.5))
        assert_allclose(out.value, 1.0 / (0.5 * SQRT_2PI), rtol=1e-14)
        assert out.method == "kde"
        assert out.tuning == 0.5

    def test_uncensored_reduces_to_plain_kde(self):
        rng = np.random.default_rng(12)
        times = rng.exponential(1.0, 9)
        sample = SurvivalSample(times, np.ones(9, bool))
        h, t = 0.4, 0.8
        out = estimate_density_kde(sample, t, KdeConfig(bandwidth=h))
        plain = np.mean(np.exp(-0.5 * ((times - t) / h) ** 2)) / (h * SQRT_2PI)
        assert_allclose(out.value, plain, rtol=1e-14)

    def test_censoring_weights_hand_example(self):
        # times {1,2,3}, events {T,F,T}: S_cens(3-) = 1/2, so the event at 3
        # doubles; at t=2, h=1 both kernels are exp(-1/2):
        #   (1/(3*1*sqrt(2pi))) * (1 + 2) * exp(-1/2)
        sample = SurvivalSample(
            np.array([1.0, 2.0, 3.0]), np.array([True, False, True])
        )
        out = estimate_density_kde(sample, 2.0, KdeConfig(bandwidth=1.0))
        assert_allclose(out.value, math.exp(-0.5) / SQRT_2PI, rtol=1e-14)

    def test_zero_weight_events_dropped_and_flagged(self):
        # The censoring fit of a sample can never exhaust before an event
        # (any later event keeps the risk set alive), so the truncation path
        # is exercised with handcrafted censoring left limits instead: S_cens
        # drops to 0 between the two events.
        steps, flags = np.array([0.5, 2.0]), np.array([True, True])
        before = np.array([1.0, 0.0])
        machine = _KdeMachine(steps, flags, before, KdeConfig(bandwidth=1.0))
        assert machine.flags == ("truncated-weights",)
        assert machine.times.tolist() == [0.5]
        assert machine.weights.tolist() == [1.0]
        cv_times, cv_weights = _cv_events(steps, flags, before)
        assert cv_times.tolist() == [0.5]
        assert cv_weights.tolist() == [1.0]

    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    def test_weights_equal_the_censoring_fit(self, tied):
        """The sorted event times and weights that the CV sums and values() read
        are the events' times and 1/S_cens(T-) of fit_censoring_km, bit for
        bit."""
        sample = exponential_sample(np.random.default_rng(17), 300)
        if tied:
            sample = SurvivalSample(np.round(sample.times, 1), sample.events)
        cv_times, cv_weights = _cv_events(*_sorted_rows(sample))
        sorted_times, sorted_weights = _sorted_events(sample)
        assert cv_times.tobytes() == sorted_times.tobytes()
        assert cv_weights.tobytes() == sorted_weights.tobytes()
        machine = _KdeMachine(*_sorted_rows(sample), KdeConfig(bandwidth=0.3))
        assert machine.times.tobytes() == sorted_times.tobytes()
        assert machine.weights.tobytes() == sorted_weights.tobytes()

    def test_nonnegative_output(self):
        rng = np.random.default_rng(13)
        sample = exponential_sample(rng, 50)
        for t in (0.0, 0.3, 2.0, 9.0):
            assert estimate_density_kde(sample, t, KdeConfig(bandwidth=0.3)).value >= 0


class TestCvCriterion:
    def test_single_element_grid(self):
        rng = np.random.default_rng(14)
        sample = exponential_sample(rng, 60)
        assert select_bandwidth_cv(sample, [0.33]) == 0.33

    def test_criterion_matches_the_per_bandwidth_loop(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            grid = np.sort(rng.uniform(0.01, 3.0, int(rng.integers(1, 60))))
            full_h = rng.uniform(1.0, 1e4, grid.size)
            full_h2 = rng.uniform(1.0, 1e4, grid.size)
            sum_w2, n = float(rng.uniform(0.0, 50.0)), int(rng.integers(2, 5000))
            loop = np.empty(grid.size)
            for k, h in enumerate(grid):
                integral_sq = full_h2[k] / (2.0 * h * math.sqrt(math.pi)) / (n * n)
                cross = (full_h[k] - sum_w2) / (h * SQRT_2PI)
                loop[k] = integral_sq - 2.0 * cross / (n * (n - 1))
            assert np.array_equal(_cv_criterion(full_h, full_h2, sum_w2, n, grid), loop)

    def test_grid_value_whose_square_underflows(self):
        """h * h is 0 below h = 1.5e-154: the pairwise sums run with no
        warning (the suite turns RuntimeWarning into an error) and with ties
        among the events, and the pick is the usable bandwidth."""
        times = exponential_sample(np.random.default_rng(13), 40).times
        sample = SurvivalSample(np.r_[times, times[:5]], np.ones(45, dtype=bool))
        assert select_bandwidth_cv(sample, [1e-200, 1.0]) == 1.0
        assert select_bandwidth_cv(sample, [1e-200, 1e-160, 1.0]) == 1.0

    @pytest.mark.parametrize("n, path", [(60, "exact"), (500, "fourier")])
    def test_grid_value_whose_square_overflows(self, monkeypatch, n, path):
        """h * h is inf above h = 1.3e154, but not in the unit the CV sums
        run in, so such an h takes the path the arm takes at any h, with no
        warning. Against such an h all pairs weigh exp(0) = 1, so the score
        falls as 1 / h, and the pick is the usable bandwidth."""
        scenario = scenario_from_delta(1.5, 0.5, 0.1, t_cut=0.2, censoring_rate=0.48)
        sample = sample_trial(scenario, n, n, 1).arm1
        calls = []
        for name in ("exact", "fourier"):
            original = getattr(density, f"_pair_sums_{name}")
            monkeypatch.setattr(density, f"_pair_sums_{name}",
                                lambda *a, name=name, original=original:
                                calls.append(name) or original(*a))
        score = cv_score(sample, 1e150)
        for h in (1e155, 1e200):
            assert cv_score(sample, h) == pytest.approx(score * 1e150 / h, rel=1e-12)
        assert calls == [path] * 3
        assert select_bandwidth_cv(sample, [0.5, 1e155]) == 0.5

    @pytest.mark.parametrize("h", [0.1, 0.5, 2.0])
    def test_score_scales_with_the_time_unit(self, h):
        """Times and bandwidth 2^k times larger give 2^-k times the score (a
        squared density integrated over time), also past k = 512, where the
        squared span or h would overflow in the data's unit; the sums run
        in a power-of-two unit of their own, where it cannot."""
        scenario = scenario_from_delta(1.5, 0.5, 0.1, t_cut=0.2, censoring_rate=0.48)
        arm = sample_trial(scenario, 60, 60, 1).arm1
        score = cv_score(arm, h)
        for k in (100, 500, 511, 512, 520, 600, 800, 1000):
            scaled = SurvivalSample(arm.times * 2.0 ** k, arm.events)
            assert cv_score(scaled, h * 2.0 ** k) * 2.0 ** k == pytest.approx(score, rel=1e-12)

    def test_span_and_bandwidth_whose_squares_overflow(self):
        """Times in a unit 1e-300 as small, so that the span and the
        bandwidths all square to inf: the score is finite, raises no
        warning (the suite turns RuntimeWarning into an error) and is the
        score of the unscaled times at h / 1e300, rescaled."""
        scenario = scenario_from_delta(1.5, 0.5, 0.1, t_cut=0.2, censoring_rate=0.48)
        arm = sample_trial(scenario, 60, 60, 1).arm1
        huge = SurvivalSample(arm.times * 1e300, arm.events)
        for h in (1e155, 1e200, 1e300):
            assert cv_score(huge, h) * 1e300 == pytest.approx(
                cv_score(arm, h / 1e300), rel=1e-12)

    @pytest.mark.parametrize("n", [60, 500])
    def test_score_does_not_depend_on_the_rest_of_the_grid(self, n):
        """A bandwidth's score inside a grid that also holds a value far
        above or below the data's scale is its score alone: the pairwise
        sums take their unit from the span and h_min, so no d^2 underflows
        against the bandwidths of the data's scale."""
        arm = sample_trial(README_PLAN, n, n, 2).arm1
        times, weights = _cv_events(*_sorted_rows(arm))
        usable = [0.1, 0.3, 1.0]
        alone = [cv_score(arm, h) for h in usable]
        for extra in (1e155, 1e200, 1e-300):
            grid = np.sort(np.r_[usable, extra])
            scores = _cv_scores(times, weights, n, grid)
            assert_allclose(scores[np.isin(grid, usable)], alone, rtol=1e-12)

    def test_needs_two_events(self):
        sample = SurvivalSample(
            np.array([1.0, 2.0]), np.array([True, False])
        )
        # not estimable from the data, like an unreachable quantile
        with pytest.raises(TooFewEventsError, match="2 events"):
            select_bandwidth_cv(sample, [0.2, 0.4])

    def test_closed_form_matches_quadrature(self):
        """The integral-square term is computed through the Gaussian
        convolution identity; numerical quadrature of the actual estimate
        must agree with the assembled criterion to 1e-6 relative."""
        rng = np.random.default_rng(15)
        sample = exponential_sample(rng, 60)
        times, weights = _sorted_events(sample)
        n = sample.n
        for h in (0.25, 0.6):
            def fhat(t):
                k = np.exp(-0.5 * ((times - t) / h) ** 2)
                return float(weights @ k) / (n * h * SQRT_2PI)

            integral_sq, _ = quad(lambda t: fhat(t) ** 2, -np.inf, np.inf)
            diff = times[:, None] - times[None, :]
            kern = np.exp(-0.5 * (diff / h) ** 2)
            cross = weights @ kern @ weights - float(weights @ weights)
            criterion = integral_sq - 2.0 * cross / (n * (n - 1) * h * SQRT_2PI)
            assert_allclose(cv_score(sample, h), criterion, rtol=1e-6)

    def test_uncensored_equals_classical_criterion(self):
        """With no censoring every weight is 1 and the criterion is the
        classical least-squares cross-validation score."""
        rng = np.random.default_rng(16)
        times = rng.exponential(1.0, 40)
        sample = SurvivalSample(times, np.ones(40, bool))
        n = 40
        for h in (0.2, 0.5, 1.1):
            diff = times[:, None] - times[None, :]
            integral_sq = np.exp(-(diff**2) / (4 * h * h)).sum() / (
                2 * n * n * h * math.sqrt(math.pi)
            )
            off = np.exp(-(diff**2) / (2 * h * h)).sum() - n
            classical = integral_sq - 2.0 * off / (n * (n - 1) * h * SQRT_2PI)
            assert_allclose(cv_score(sample, h), classical, rtol=1e-12)

    def test_selects_interior_point_on_smooth_data(self):
        # slower event rate so the optimal bandwidth sits inside 0.1..1.0
        rng = np.random.default_rng(0)
        sample = exponential_sample(rng, 150, rate=0.5, cens_rate=0.16)
        grid = np.arange(0.1, 1.0 + 1e-12, 0.02)
        h = select_bandwidth_cv(sample, grid)
        assert grid[0] < h < grid[-1]

    @pytest.mark.parametrize("pair_sums", [_pair_sums_exact, _pair_sums_fourier])
    @pytest.mark.parametrize("times,weights", [
        ([0.7, 0.7], [1.0, 2.5]),
        ([0.3, 1.9], [1.2, 0.4]),
        ([0.1, 0.4, 0.4, 0.4, 1.3, 2.0, 2.0], [1.0, 1.1, 1.1, 1.3, 1.6, 2.4, 2.4]),
        (np.full(300, 2.0), np.full(300, 1.5)),
        (np.sort(np.random.default_rng(22).exponential(1.0, 120)),
         np.random.default_rng(23).uniform(1.0, 3.0, 120)),
        _sorted_events(exponential_sample(np.random.default_rng(20), 1050)),
        # event times in days: the Fourier path needs some 20,000 frequencies
        (np.sort(np.random.default_rng(25).uniform(0.0, 730.0, 150)),
         np.random.default_rng(26).uniform(1.0, 3.0, 150)),
    ], ids=["tied-pair", "two", "ties", "identical", "n120", "weighted-800", "wide"])
    def test_sums_match_full_double_sum(self, pair_sums, times, weights):
        """Both pair-sum paths equal the double sum over the full matrix,
        with tied or identical times, down to two events and over a span
        thousands of bandwidths wide."""
        times, weights = np.asarray(times), np.asarray(weights)
        grid = np.r_[0.05, CV_GRID, 2.0]
        full_h, full_h2 = pair_sums(times, weights, grid)
        d2 = (times[:, None] - times[None, :]) ** 2
        ww = weights[:, None] * weights[None, :]
        for k, h in enumerate(grid):
            assert_allclose(full_h[k], np.sum(ww * np.exp(-d2 / (2 * h * h))), rtol=1e-12)
            assert_allclose(full_h2[k], np.sum(ww * np.exp(-d2 / (4 * h * h))), rtol=1e-12)

    def test_cv_resolution_through_kde_config(self):
        rng = np.random.default_rng(21)
        sample = exponential_sample(rng, 200)
        grid = np.arange(0.1, 1.0 + 1e-12, 0.05)
        cfg = KdeConfig(bandwidth="select-by-cv", cv_grid=grid)
        out = estimate_density_kde(sample, 0.46, cfg)
        assert out.tuning == select_bandwidth_cv(sample, grid)

    def test_one_censoring_fit_per_cv_estimate(self, monkeypatch):
        calls = []

        def counting(steps, flags):
            calls.append(steps)
            return _censoring_before(steps, flags)

        monkeypatch.setattr("survquant.density._censoring_before", counting)
        sample = exponential_sample(np.random.default_rng(24), 120)
        cfg = KdeConfig(bandwidth="select-by-cv", cv_grid=CV_GRID)
        estimate_density_kde(sample, 0.46, cfg)
        assert [steps.tolist() for steps in calls] == [np.sort(sample.times).tolist()]


class TestCvGridEdgeFlag:
    """A CV pick on the first or last point of the grid is flagged."""

    def test_interior_pick_is_not_flagged(self):
        rng = np.random.default_rng(0)
        sample = exponential_sample(rng, 150, rate=0.5, cens_rate=0.16)
        out = estimate_density_kde(sample, 1.0, KdeConfig("select-by-cv", CV_GRID))
        assert CV_GRID[0] < out.tuning < CV_GRID[-1]
        assert out.flags == ()

    def test_time_in_days_picks_the_top_edge(self):
        rng = np.random.default_rng(0)
        sample = exponential_sample(rng, 150)
        days = SurvivalSample(sample.times * 365.0, sample.events)
        out = estimate_density_kde(days, 150.0, KdeConfig("select-by-cv", CV_GRID))
        assert out.tuning == CV_GRID[-1]
        assert out.flags == ("cv-grid-edge",)

    def test_bottom_edge(self):
        rng = np.random.default_rng(1)
        sample = exponential_sample(rng, 500)
        out = estimate_density_kde(sample, 0.4, KdeConfig("select-by-cv", CV_GRID))
        assert out.tuning == CV_GRID[0]
        assert out.flags == ("cv-grid-edge",)

    def test_one_point_grid_and_fixed_bandwidth_are_not_flagged(self):
        rng = np.random.default_rng(2)
        sample = exponential_sample(rng, 60)
        for cfg in (KdeConfig("select-by-cv", [0.3]), KdeConfig(bandwidth=0.1)):
            assert estimate_density_kde(sample, 0.4, cfg).flags == ()


class TestFourierPairSums:
    @pytest.mark.parametrize("n", [300, 1000])
    def test_same_bandwidth_as_exact(self, n):
        for seed in range(40):
            sample = exponential_sample(np.random.default_rng(seed), n)
            times, weights = _sorted_events(sample)
            picks = [
                int(np.argmin(_cv_criterion(
                    *pair_sums(times, weights, CV_GRID),
                    float(weights @ weights), n, CV_GRID,
                )))
                for pair_sums in (_pair_sums_exact, _pair_sums_fourier)
            ]
            assert picks[0] == picks[1], (n, seed)

    def test_products_in_pieces_equal_one_product(self):
        """The Fourier products run in pieces small enough for OpenBLAS to
        keep them on the calling thread: tiles of at most 16 rows a side,
        none of one row where a side has more, and matrix-vector blocks of
        at most 2^18 entries. They equal the product of one call."""
        rng = np.random.default_rng(31)
        for rows, cols, inner in ((1, 5, 30), (17, 15, 766), (40, 33, 50), (16, 16, 3)):
            a = rng.random((rows, inner)) + 1j * rng.random((rows, inner))
            b = rng.random((cols, inner)) + 1j * rng.random((cols, inner))
            assert_allclose(_tiled_product(a, b), a @ b.T, rtol=1e-13)
            for size in (rows, cols):
                lengths = [part.stop - part.start for part in _tiles(size)]
                assert sum(lengths) == size and max(lengths) <= 16
                assert min(lengths) > 1 or size == 1
        kernel, v = rng.random((46, 9000)), rng.random(9000)  # blocks of 29 rows
        assert_allclose(_matvec(kernel, v), kernel @ v, rtol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(
        ticks=st.lists(st.integers(0, 400), min_size=2, max_size=60),
        spacing=st.sampled_from([0.001, 0.05, 1.0, 10.0]),
        weight_seed=st.integers(0, 2**32 - 1),
    )
    def test_fourier_equals_double_sum_and_picks_alike(self, ticks, spacing, weight_seed):
        """On tied integer ticks with weights 1 to 3, over spans of up to
        4,000 in a grid from 0.1 (some 60,000 frequencies), the Fourier sums
        equal the double sum over the full matrix, and the CV argmin is that
        of the pairwise sums."""
        times = np.sort(np.array(ticks, dtype=float)) * spacing
        weights = np.random.default_rng(weight_seed).integers(1, 4, times.size).astype(float)
        grid = np.array([0.1, 0.2, 0.5, 1.0])
        full_h, full_h2 = _pair_sums_fourier(times, weights, grid)
        d2 = (times[:, None] - times[None, :]) ** 2
        ww = weights[:, None] * weights[None, :]
        for k, h in enumerate(grid):
            assert_allclose(full_h[k], np.sum(ww * np.exp(-d2 / (2 * h * h))), rtol=1e-12)
            assert_allclose(full_h2[k], np.sum(ww * np.exp(-d2 / (4 * h * h))), rtol=1e-12)
        sum_w2, n = float(weights @ weights), times.size
        picks = [
            int(np.argmin(_cv_criterion(*pair_sums, sum_w2, n, grid)))
            for pair_sums in ((full_h, full_h2), _pair_sums_exact(times, weights, grid))
        ]
        assert picks[0] == picks[1]

    def test_dispatch(self, monkeypatch):
        """The cheaper path runs: pairwise for few events, also where the
        Fourier path's fixed cost alone tips the choice (20 events), and for
        a span so wide that K overflows, Fourier for an arm of the README's
        plan in years and for the same arm in days (some 11,000
        frequencies), pairwise for a 150-per-arm trial in days. The two days
        arms sit on either side of the timed break-even, where K (m + G) is
        about 4 times G m(m-1)/2."""
        scenario = scenario_from_delta(1.5, 0.5, 0.1, t_cut=0.2, censoring_rate=0.48)
        times, weights = _sorted_events(sample_trial(scenario, 300, 300, 1).arm1)
        small_times, small_weights = _sorted_events(sample_trial(scenario, 150, 150, 1).arm1)
        for arm, low, high in (((times * 365.0, weights), 1.0, 4.0),
                               ((small_times * 365.0, small_weights), 4.0, 10.0)):
            m, size = arm[0].size, CV_GRID.size
            _, n_freq = _fourier_terms(float(arm[0][-1] - arm[0][0]), CV_GRID)
            assert low < n_freq * (m + size) / (size * m * (m - 1) / 2) < high
        calls = []
        monkeypatch.setattr("survquant.density._pair_sums_exact",
                            lambda *a: calls.append("exact"))
        monkeypatch.setattr("survquant.density._pair_sums_fourier",
                            lambda *a: calls.append("fourier"))
        _pair_sums(np.linspace(0.0, 2.0, 8), np.ones(8), CV_GRID)
        _pair_sums(np.linspace(0.0, 2.0, 20), np.ones(20), CV_GRID)
        _pair_sums(np.array([0.0, 1e300]), np.ones(2), np.array([1e-10, 1.0]))
        _pair_sums(times, weights, CV_GRID)
        _pair_sums(times * 365.0, weights, CV_GRID)
        _pair_sums(small_times * 365.0, small_weights, CV_GRID)
        assert calls == ["exact", "exact", "exact", "fourier", "fourier", "exact"]


class TestCvKernelReuse:
    """The Fourier period ladder, the stored kernel matrices and the one
    (J, m) pass of an arm's densities give what building everything afresh
    gives. CV scores are not compared between warm and cold calls: the
    generic Prescott kernel's matrix-vector products depend on operand
    alignment, so only the picks must agree."""

    @settings(max_examples=300, deadline=None)
    @given(
        span=st.floats(0.0, 1e6),
        h_min=st.floats(1e-3, 1e3),
        ratio=st.floats(1.0, 100.0),
    )
    def test_period_ladder(self, span, h_min, ratio):
        """P is at least span + c sqrt(2) h_max and less than 1/16 above it,
        and times and grid 2^k times larger give 2^k times the P and the
        same K, as any rescale by a power of two must."""
        grid = np.array([h_min, h_min * ratio])
        period, n_freq = _fourier_terms(span, grid)
        least = span + density._FOURIER_C * math.sqrt(2.0) * float(grid[-1])
        assert least <= period < least * (1.0 + 1.0 / 16.0)
        for k in range(-8, 9):
            scale = 2.0 ** k
            assert _fourier_terms(span * scale, grid * scale) == (period * scale, n_freq)

    def test_span_near_the_largest_float(self, monkeypatch):
        """A span within 1/32 of the largest float, whose period would round
        up past it in the data's unit, gives finite sums with no warning on
        both paths: those of the same times and grid 2^-1000 times as
        large."""
        times = np.linspace(0.0, 1.75e308, 400)
        weights = np.random.default_rng(27).uniform(1.0, 3.0, times.size)
        stored = density._stored_kernels
        calls = []
        monkeypatch.setattr(density, "_stored_kernels",
                            lambda *a: calls.append(a) or stored(*a))
        for grid, fourier in ((np.array([1.0, 2.0]), False), (np.array([3e306, 1e307]), True)):
            sums = _pair_sums(times, weights, grid)
            assert bool(calls) == fourier
            calls.clear()
            assert np.all(np.isfinite(sums))
            small = _pair_sums(np.ldexp(times, -1000), weights, np.ldexp(grid, -1000))
            assert np.array_equal(sums, small)

    def test_periods_alike_share_a_stored_kernel(self):
        """Two arms whose spans sit on either side of 2, but whose periods
        round to one step of the ladder, share one stored kernel matrix:
        the Fourier sums take their unit from the period."""
        rng = np.random.default_rng(28)
        weights = rng.uniform(1.0, 3.0, 400)
        arms = [np.r_[0.0, np.sort(rng.uniform(0.0, span, 398)), span] + 3.0
                for span in (1.99, 2.01)]
        assert _fourier_terms(1.99, CV_GRID) == _fourier_terms(2.01, CV_GRID)
        density._stored_kernels.cache_clear()
        for times in arms:
            _pair_sums(times, weights, CV_GRID)
        info = density._stored_kernels.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_stored_kernel_equals_a_fresh_build(self):
        """The stored matrix and its square equal, bit for bit, the kernel
        built as the Fourier sums built it per call (np.exp, no BLAS)."""
        for grid in (CV_GRID, np.array([0.05, 0.3, 2.0]), np.array([0.25])):
            for span in (0.3, 2.7, 5.0, 11.0):
                period, n_freq = _fourier_terms(span, grid)
                step = 2.0 * math.pi / period
                fresh = np.multiply.outer(-0.5 * grid * grid,
                                          (np.arange(1, n_freq + 1) * step) ** 2)
                fresh = np.exp(np.maximum(fresh, density._EXP_FLOOR))
                density._stored_kernels.cache_clear()
                kernel, squared = density._stored_kernels(grid.tobytes(), period, n_freq)
                assert kernel.tobytes() == fresh.tobytes()
                assert squared.tobytes() == (fresh * fresh).tobytes()

    def test_store_is_bounded_and_read_only(self, monkeypatch):
        """At most 8 matrices are kept, none above 2^15 entries (an arm in
        days builds its own), and a kept one cannot be written to."""
        stored = density._stored_kernels
        sizes = []

        def spy(*args):
            kernel, squared = stored(*args)
            sizes.append(kernel.size)
            return kernel, squared

        monkeypatch.setattr(density, "_stored_kernels", spy)
        stored.cache_clear()
        scenario = scenario_from_delta(1.5, 0.5, 0.1, t_cut=0.2, censoring_rate=0.48)
        for seed in range(40):
            arm = sample_trial(scenario, 600, 600, seed).arm1
            times, weights = _sorted_events(arm)
            _pair_sums_fourier(times * (1.0 + seed / 10.0), weights, CV_GRID)
        assert stored.cache_info().maxsize == 8
        assert 0 < stored.cache_info().currsize <= 8
        assert len(sizes) == 40 and max(sizes) <= 1 << 15
        days = sample_trial(scenario, 300, 300, 1).arm1
        _pair_sums_fourier(*_sorted_events(SurvivalSample(days.times * 365.0, days.events)),
                           CV_GRID)
        assert len(sizes) == 40
        kernel, squared = stored(CV_GRID.tobytes(), *_fourier_terms(2.0, CV_GRID))
        for array in (kernel, squared):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(30, 2000),
        unit=st.sampled_from([1.0, 1.0 / 12.0, 12.0]),
        delayed=st.booleans(),
    )
    def test_warm_picks_equal_cold_picks(self, seed, n, unit, delayed):
        """A pick made with the store filled by other arms equals the pick
        made with the store cleared, for both planning families."""
        scenario = scenario_from_delta(1.5, 0.5, 0.1, t_cut=0.2 if delayed else None,
                                       censoring_rate=0.48)
        data = sample_trial(scenario, n, n, seed)
        arms = [SurvivalSample(arm.times * unit, arm.events) for arm in (data.arm1, data.arm2)]
        try:
            cold = []
            for arm in arms:
                density._stored_kernels.cache_clear()
                cold.append(select_bandwidth_cv(arm, CV_GRID))
        except TooFewEventsError:
            return
        warm = [select_bandwidth_cv(arm, CV_GRID) for arm in arms + arms[::-1]]
        assert warm == cold + cold[::-1]

    @pytest.mark.parametrize("n", [1, 3, 50])
    def test_one_pass_equals_one_time_at_a_time(self, n):
        """The densities at J times from one (J, m) pass equal, bit for bit,
        those at each time alone by the 1-d sum."""
        rng = np.random.default_rng(n)
        sample = exponential_sample(rng, 400)
        ts = np.sort(rng.uniform(0.0, 3.0, n)).tolist() + [0.0, 1e300]
        machine = _KdeMachine(*_sorted_rows(sample), KdeConfig("select-by-cv", CV_GRID))
        one_pass = machine.values(ts)
        for t, value in zip(ts, one_pass):
            with np.errstate(over="ignore"):
                kernel = np.exp(-0.5 * ((machine.times - t) / machine.h) ** 2)
            alone = float(np.sum(machine.weights * kernel)) / (machine.n * machine.h * SQRT_2PI)
            assert value == alone
        densities = machine.densities(ts, range(len(ts)))
        assert [d.value for d in densities] == one_pass
        assert [d.p for d in densities] == list(range(len(ts)))
        assert [d.quantile_time for d in densities] == ts


def _normal(values) -> bool:
    """Whether every value is a normal float: finite, and no smaller in
    magnitude than the least normal float (so not 0)."""
    values = np.abs(np.asarray(values, dtype=float))
    return bool(np.all((values >= np.finfo(float).tiny) & (values <= np.finfo(float).max)))


class TestPowerOfTwoEquivariance:
    """The CV sums run in a power-of-two unit of their own, so times and
    grid 2^k times larger give exactly 2^-k times the scores and the same
    pick, on both pair-sum paths, wherever the scaled values are normal
    floats."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([30, 500]),  # pairwise and Fourier on the default grid
        h=st.floats(0.05, 2.0),  # one bandwidth: pairwise at n = 30, Fourier at 500
        k=st.integers(-1000, 1000),
    )
    def test_scores_scale_exactly(self, seed, n, h, k):
        arm = sample_trial(README_PLAN, n, n, seed).arm1
        times, weights = _cv_events(*_sorted_rows(arm))
        assume(times.size >= 2)
        scores = _cv_scores(times, weights, n, CV_GRID)
        score = cv_score(arm, h)
        # the largest value the criterion forms on the way is below
        # (sum w)^2 / h_min
        largest = float(weights.sum()) ** 2 / min(h, CV_GRID[0])
        assume(_normal(np.ldexp(arm.times, k)) and _normal(np.ldexp(CV_GRID, k))
               and _normal(math.ldexp(h, k)) and _normal(math.ldexp(largest, -k))
               and _normal(np.ldexp(scores, -k)) and _normal(math.ldexp(score, -k)))
        scaled = SurvivalSample(np.ldexp(arm.times, k), arm.events)
        grid = np.ldexp(CV_GRID, k)
        assert np.array_equal(_cv_scores(np.ldexp(times, k), weights, n, grid),
                              np.ldexp(scores, -k))
        assert cv_score(scaled, math.ldexp(h, k)) == math.ldexp(score, -k)
        assert select_bandwidth_cv(scaled, grid) == math.ldexp(
            select_bandwidth_cv(arm, CV_GRID), k)
