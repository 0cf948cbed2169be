"""Tests for the univariate and multivariate quantile-equality tests."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import gammaincc, ndtr

from survquant import (
    KdeConfig,
    LsConfig,
    SingularCovarianceError,
    SurvivalSample,
    SurvQuantError,
    TwoArmData,
    UnreachableQuantileError,
    ValidationError,
    bonferroni_followup,
    fit_kaplan_meier,
    multivariate_test,
    phi_hat,
    quantile_at,
    sigma_hat_univariate,
    univariate_test,
    upsilon_matrix,
)
from survquant.quantile_tests import _chi2_sf, _normal_two_sided

KDE_FIXED = KdeConfig(bandwidth=0.3)
KDE_CV = KdeConfig("select-by-cv", np.arange(0.1, 1.0 + 1e-12, 0.02))
LS_FIXED = LsConfig(sigma_eps=1.0, seed=0)


def censored_arm(rng, n, rate=1.5, cens_rate=0.48):
    events = rng.exponential(1.0 / rate, n)
    censor = rng.exponential(1.0 / cens_rate, n)
    return SurvivalSample(np.minimum(events, censor), events <= censor)


def two_arm(seed, n=120, rate2=1.5):
    rng = np.random.default_rng(seed)
    return TwoArmData(censored_arm(rng, n), censored_arm(rng, n, rate=rate2))


def arm_strategy(n):
    """n subjects on a grid of 400 times in steps of 1/40, so ties are common."""
    cells = st.lists(st.tuples(st.integers(1, 400), st.booleans()),
                     min_size=n, max_size=n)
    return cells.map(lambda c: SurvivalSample(
        np.array([k / 40 for k, _ in c]), np.array([e for _, e in c])
    ))


@st.composite
def two_arm_data(draw):
    n1, n2 = draw(st.integers(12, 90)), draw(st.integers(12, 90))
    if draw(st.booleans()):
        n2 = n1
    return TwoArmData(draw(arm_strategy(n1)), draw(arm_strategy(n2)))


class TestProbabilityDomain:
    @pytest.mark.parametrize("method", ["ls", "kde"])
    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, math.nan])
    def test_every_entry_point_rejects(self, p, method):
        data = two_arm(8, n=60)
        tuning = LS_FIXED if method == "ls" else KDE_FIXED
        calls = [
            lambda: univariate_test(data, p, method, tuning),
            lambda: sigma_hat_univariate(data, p, method, tuning),
            lambda: multivariate_test(data, [0.5, p], method, tuning),
            lambda: bonferroni_followup(data, [0.5, p], method, tuning),
            lambda: upsilon_matrix(fit_kaplan_meier(data.arm1), [p], [1.0], 0.5),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="strictly between"):
                call()


class TestUnivariate:
    def test_identical_arms(self):
        rng = np.random.default_rng(1)
        arm = censored_arm(rng, 80)
        out = univariate_test(TwoArmData(arm, arm), 0.5, "kde", KDE_FIXED)
        assert out.delta_hat == 0.0
        assert out.statistic == 0.0
        assert out.p_value == 1.0

    def test_statistic_identity(self):
        data = two_arm(2)
        out = univariate_test(data, 0.5, "kde", KDE_FIXED)
        assert out.statistic == math.sqrt(data.n) * out.delta_hat / out.sigma_hat
        assert 0.0 <= out.p_value <= 1.0

    @pytest.mark.parametrize("method,tuning", [
        ("kde", KDE_FIXED), ("kde", KDE_CV), ("ls", LS_FIXED),
    ], ids=["kde-fixed", "kde-cv", "ls"])
    @settings(max_examples=20, deadline=None)
    @given(data=two_arm_data(), p=st.sampled_from([0.25, 0.5, 0.75]))
    def test_antisymmetry(self, method, tuning, data, p):
        """Swapping the arms flips the sign of the statistic and of delta_hat
        and keeps the p-value, exactly at equal arm sizes; an input that
        fails, fails both ways round."""
        swapped = TwoArmData(data.arm2, data.arm1)
        try:
            a = univariate_test(data, p, method, tuning)
        except SurvQuantError:
            with pytest.raises(SurvQuantError):
                univariate_test(swapped, p, method, tuning)
            return
        b = univariate_test(swapped, p, method, tuning)
        if data.arm1.n == data.arm2.n:
            assert -b.statistic == a.statistic
            assert b.p_value == a.p_value
            assert -b.delta_hat == a.delta_hat
        else:
            assert_allclose(-b.statistic, a.statistic, rtol=1e-12)
            assert_allclose(b.p_value, a.p_value, rtol=1e-12)
            assert_allclose(-b.delta_hat, a.delta_hat, rtol=1e-12)

    @pytest.mark.parametrize(
        "method,tuning,scaled",
        [
            ("kde", KDE_FIXED, KdeConfig(bandwidth=4 * 0.3)),
            ("ls", LS_FIXED, LsConfig(sigma_eps=4.0, seed=0)),
        ],
    )
    def test_time_unit_equivariance(self, method, tuning, scaled):
        """Multiplying every time by 4 (a power of two, so all float
        products are exact) scales delta_hat by 4 and leaves the statistic
        bit-identical once the tuning scale rides along."""
        data = two_arm(4, rate2=2.0)
        rescaled = TwoArmData(
            SurvivalSample(4.0 * data.arm1.times, data.arm1.events),
            SurvivalSample(4.0 * data.arm2.times, data.arm2.events),
        )
        a = univariate_test(data, 0.5, method, tuning)
        b = univariate_test(rescaled, 0.5, method, scaled)
        assert b.delta_hat == 4.0 * a.delta_hat
        assert b.statistic == a.statistic
        assert b.p_value == a.p_value

    def test_unreachable_quantile_names_arm(self):
        rng = np.random.default_rng(5)
        arm1 = censored_arm(rng, 60)
        arm2 = SurvivalSample(
            np.array([1.0, 2.0, 3.0, 4.0]), np.array([True, False, False, False])
        )
        with pytest.raises(UnreachableQuantileError) as err:
            univariate_test(TwoArmData(arm1, arm2), 0.5, "kde", KDE_FIXED)
        assert err.value.arm == 2
        assert err.value.max_probability == pytest.approx(0.25)

    def test_density_floor_clamps_and_flags(self):
        data = two_arm(6)
        out = univariate_test(data, 0.5, "kde", KDE_FIXED, density_floor=10.0)
        assert "clamped-density" in out.flags
        # with both densities clamped to 10 the variance is fully determined
        # by the phi factors and allocations
        var = 0.25 * (out.phi1 / (data.mu1_hat * 100.0)
                      + out.phi2 / (data.mu2_hat * 100.0))
        assert_allclose(out.sigma_hat, math.sqrt(var), rtol=1e-12)

    def test_result_records_method_and_tuning(self):
        data = two_arm(7)
        out = univariate_test(data, 0.5, "kde", KDE_FIXED)
        assert out.density_method == "kde"
        assert out.tuning1 == 0.3 and out.tuning2 == 0.3
        ls = univariate_test(data, 0.5, "ls", LsConfig(sigma_eps=2.0, seed=1))
        assert ls.tuning1 == 2.0 and ls.tuning2 == 2.0


class TestSigmaHat:
    def test_diagnostics_reassemble_sigma(self):
        data = two_arm(8)
        sigma, diag = sigma_hat_univariate(data, 0.5, "kde", KDE_FIXED)
        var = 0.25 * (
            diag["phi1"] / (diag["mu1"] * diag["density1_used"] ** 2)
            + diag["phi2"] / (diag["mu2"] * diag["density2_used"] ** 2)
        )
        assert_allclose(sigma * sigma, var, rtol=1e-12)

    def test_uncensored_closed_form_limit(self):
        """Two uncensored Exp(1.5) arms at p=0.5: the population variance is
        2 * p(1-p)/(mu f^2) = 2 * 0.25/(0.5 * 0.75^2) = 1.7777..."""
        n = 20_000
        rel_errors = []
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            arm1 = SurvivalSample(rng.exponential(1 / 1.5, n), np.ones(n, bool))
            arm2 = SurvivalSample(rng.exponential(1 / 1.5, n), np.ones(n, bool))
            sigma, _ = sigma_hat_univariate(
                TwoArmData(arm1, arm2), 0.5, "ls", LsConfig(sigma_eps=3.0, seed=seed)
            )
            rel_errors.append(abs(sigma * sigma - 16 / 9) / (16 / 9))
        assert np.mean(rel_errors) < 0.10


class TestUpsilonMatrix:
    def test_j1_matches_univariate_term(self):
        rng = np.random.default_rng(10)
        arm = censored_arm(rng, 150)
        fit = fit_kaplan_meier(arm)
        t = quantile_at(fit, 0.5).time
        got = upsilon_matrix(fit, [0.5], [0.8], mu_hat=0.5)
        expected = 0.25 * phi_hat(fit, t) / (0.5 * 0.64)
        assert_allclose(got, [[expected]], rtol=1e-14)

    def test_duplicate_probability_off_diagonal(self):
        rng = np.random.default_rng(11)
        fit = fit_kaplan_meier(censored_arm(rng, 150))
        m = upsilon_matrix(fit, [0.5, 0.5], [0.8, 0.8], mu_hat=0.5)
        assert_allclose(m, m[0, 0] * np.ones((2, 2)), rtol=1e-14)

    def test_validation(self):
        rng = np.random.default_rng(12)
        fit = fit_kaplan_meier(censored_arm(rng, 50))
        with pytest.raises(ValidationError, match="one density per"):
            upsilon_matrix(fit, [0.3, 0.5], [0.8], mu_hat=0.5)
        with pytest.raises(ValidationError, match="positive"):
            upsilon_matrix(fit, [0.5], [0.0], mu_hat=0.5)
        with pytest.raises(ValidationError, match="mu_hat"):
            upsilon_matrix(fit, [0.5], [0.8], mu_hat=0.0)

    def test_population_convergence(self):
        """Against the closed-form matrix for Exp(1.5) with Exp(0.48)
        censoring at p=(0.3, 0.5), allocation 1/2; true densities are fed in
        so only the quantile and phi estimates drive the error."""
        target = np.array(
            [[0.40491056991797725, 0.40491056991797725],
             [0.40491056991797725, 1.0078525911132818]]
        )
        rng = np.random.default_rng(13)
        fit = fit_kaplan_meier(censored_arm(rng, 10_000))
        true_densities = [1.5 * 0.7, 1.5 * 0.5]
        got = upsilon_matrix(fit, [0.3, 0.5], true_densities, mu_hat=0.5)
        assert np.all(np.abs(got - target) / target < 0.10)


class TestMultivariate:
    def test_identical_arms(self):
        rng = np.random.default_rng(14)
        arm = censored_arm(rng, 100)
        out = multivariate_test(
            TwoArmData(arm, arm), [0.3, 0.5], "kde", KDE_FIXED
        )
        assert out.statistic == 0.0
        assert out.p_value == 1.0
        assert out.dof == 2

    @pytest.mark.parametrize("method,tuning", [("kde", KDE_FIXED), ("ls", LS_FIXED)])
    def test_j1_squares_the_univariate(self, method, tuning):
        data = two_arm(15, rate2=1.9)
        uni = univariate_test(data, 0.5, method, tuning)
        multi = multivariate_test(data, [0.5], method, tuning)
        assert_allclose(multi.statistic, uni.statistic**2, rtol=1e-12)
        assert_allclose(multi.p_value, uni.p_value, rtol=1e-12)

    @pytest.mark.parametrize("method,tuning", [("kde", KDE_FIXED), ("ls", LS_FIXED)])
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n1=st.integers(40, 200),
        n2=st.integers(40, 200),
        rate2=st.floats(0.5, 4.0),
        ps=st.lists(st.floats(0.1, 0.6), min_size=1, max_size=3, unique=True),
    )
    def test_psi_diagonal_is_sigma_squared_exactly(self, method, tuning, seed,
                                                   n1, n2, rate2, ps):
        """Each per-quantile row (the univariate test at J=1, the Bonferroni
        rows otherwise) reads its sigma_hat and delta_hat off the joint
        test's Psi_hat and delta_hats, bit for bit."""
        rng = np.random.default_rng(seed)
        data = TwoArmData(censored_arm(rng, n1), censored_arm(rng, n2, rate=rate2))
        try:
            if len(ps) == 1:
                rows = [univariate_test(data, ps[0], method, tuning)]
            else:
                rows = bonferroni_followup(data, ps, method, tuning)
            multi = multivariate_test(data, ps, method, tuning)
        except (UnreachableQuantileError, SingularCovarianceError):
            return
        for j, row in enumerate(rows):
            assert row.sigma_hat == math.sqrt(multi.psi_hat[j, j])
            assert row.delta_hat == multi.delta_hats[j]

    @pytest.mark.parametrize("method,tuning", [
        ("kde", KdeConfig("select-by-cv", np.arange(0.1, 1.0 + 1e-12, 0.02))),
        ("ls", LsConfig(sigma_eps=1e-20, seed=0)),
    ])
    def test_flags_are_the_rows_flags_once_each(self, method, tuning):
        """The joint result carries every distinct flag of its per-quantile
        rows: clamped-density first, then arm 1's flags, then arm 2's, each in
        first-seen order."""
        arm1 = SurvivalSample(np.arange(1.0, 13.0), np.ones(12, bool))
        arm2 = SurvivalSample(np.arange(1.5, 13.5), np.arange(1, 13) % 3 > 0)
        data = TwoArmData(arm1, arm2)
        probs = [0.25, 0.5]
        multi = multivariate_test(data, probs, method, tuning)
        rows = bonferroni_followup(data, probs, method, tuning)
        expected = []
        for prefix in ("clamped", "arm1:", "arm2:"):
            for row in rows:
                expected += [f for f in row.flags
                             if f.startswith(prefix) and f not in expected]
        assert multi.flags == tuple(expected)
        assert expected  # the data trips at least one flag per method

    def test_joint_shows_the_zero_slope_of_its_rows(self):
        """At a vanishing LS spread every probe lands on the quantile
        itself, so arm 1's slope is exactly zero."""
        arm1 = SurvivalSample(np.arange(1.0, 13.0), np.ones(12, bool))
        arm2 = SurvivalSample(np.arange(1.5, 13.5), np.arange(1, 13) % 3 > 0)
        tuning = LsConfig(sigma_eps=1e-20, seed=0)
        multi = multivariate_test(TwoArmData(arm1, arm2), [0.25, 0.5], "ls", tuning)
        assert multi.flags == ("clamped-density", "arm1:zero-slope")

    def test_psi_symmetric(self):
        data = two_arm(16)
        out = multivariate_test(data, [0.25, 0.5, 0.75], "kde", KDE_FIXED)
        assert_allclose(out.psi_hat, out.psi_hat.T, rtol=0, atol=0)
        assert out.statistic >= 0.0

    def test_probabilities_on_same_jump_are_singular(self):
        """0.41 and 0.45 both resolve to the 5th order statistic of a
        10-point uncensored sample, making each arm's matrix rank one."""
        arm1 = SurvivalSample(np.arange(1.0, 11.0), np.ones(10, bool))
        arm2 = SurvivalSample(np.arange(1.5, 11.5), np.ones(10, bool))
        with pytest.raises(SingularCovarianceError) as err:
            multivariate_test(
                TwoArmData(arm1, arm2), [0.41, 0.45], "kde", KDE_FIXED
            )
        assert err.value.pair == (0.41, 0.45)

    def test_duplicate_probabilities_rejected(self):
        data = two_arm(17)
        with pytest.raises(ValidationError, match="distinct"):
            multivariate_test(data, [0.5, 0.5], "kde", KDE_FIXED)

    def test_empty_probabilities_rejected(self):
        data = two_arm(18)
        with pytest.raises(ValidationError, match="at least one"):
            multivariate_test(data, [], "kde", KDE_FIXED)

    def test_nested_probabilities_rejected(self):
        data = two_arm(18)
        with pytest.raises(ValidationError, match="1-d sequence"):
            multivariate_test(data, [[0.25, 0.5]], "kde", KDE_FIXED)

    def test_records_tunings(self):
        data = two_arm(19)
        out = multivariate_test(data, [0.3, 0.6], "kde", KDE_FIXED)
        assert out.tuning1 == 0.3 and out.tuning2 == 0.3


def tail_rtol(x):
    """The relative bound on a tail at chi-squared argument x (z^2 for the
    normal tail) against scipy: 1e-13 up to x = 100. Beyond, both sides
    exponentiate an argument of size x/2 that is rounded, each in its own
    way, and a rounding of x/2 moves e^(-x/2) by x/2 times 2^-53 relative;
    so the bound grows as 4 x 2^-52. Seen over 2e5 random points: at most
    1.9 x 2^-52 (dof 1, x = 1359) for the chi-squared tail and 0.3 x 2^-52
    for the normal one."""
    return 1e-13 if x <= 100 else max(1e-13, 4.0 * x * 2.0**-52)


class TestTails:
    """The standard-library tails of the tests against scipy.special, where
    the p-value is above 1e-300."""

    @settings(max_examples=500, deadline=None)
    @given(z=st.floats(-38.0, 38.0))
    def test_normal_two_sided(self, z):
        expected = 2.0 * ndtr(-abs(z))
        assume(expected > 1e-300)
        assert _normal_two_sided(z) == pytest.approx(expected, rel=tail_rtol(z * z), abs=0)

    @settings(max_examples=500, deadline=None)
    @given(x=st.floats(0.0, 100.0), dof=st.integers(1, 64))
    def test_chi2_sf(self, x, dof):
        expected = gammaincc(dof / 2.0, x / 2.0)
        assert _chi2_sf(x, dof) == pytest.approx(expected, rel=tail_rtol(x), abs=0)

    @settings(max_examples=500, deadline=None)
    @given(x=st.floats(100.0, 2000.0), dof=st.integers(1, 64))
    def test_chi2_sf_far_tail(self, x, dof):
        # past x = 1416, e^(-x/2) is no normal float but the sum may be
        expected = gammaincc(dof / 2.0, x / 2.0)
        assume(expected > 1e-300)
        assert _chi2_sf(x, dof) == pytest.approx(expected, rel=tail_rtol(x), abs=0)

    @pytest.mark.parametrize("dof", [1, 2, 3, 8])
    def test_ends(self, dof):
        assert _chi2_sf(0.0, dof) == 1.0
        assert _chi2_sf(math.inf, dof) == 0.0
        assert _normal_two_sided(0.0) == 1.0
        assert _normal_two_sided(-math.inf) == 0.0


class TestBonferroni:
    def test_adjustment_and_cap(self):
        data = two_arm(20, rate2=2.4)
        probs = [0.25, 0.5, 0.75]
        results = bonferroni_followup(data, probs, "kde", KDE_FIXED, alpha=0.05)
        assert [r.p for r in results] == probs
        for r in results:
            raw = univariate_test(data, r.p, "kde", KDE_FIXED).p_value
            assert r.adjusted_p_value == min(1.0, 3 * raw)
            assert r.reject_adjusted == (r.adjusted_p_value < 0.05)

    def test_large_raw_p_caps_at_one(self):
        rng = np.random.default_rng(21)
        arm = censored_arm(rng, 90)
        results = bonferroni_followup(
            TwoArmData(arm, arm), [0.3, 0.5, 0.7], "kde", KDE_FIXED
        )
        assert all(r.adjusted_p_value == 1.0 for r in results)
        assert not any(r.reject_adjusted for r in results)

    def test_needs_two_probabilities(self):
        data = two_arm(22)
        with pytest.raises(ValidationError, match="at least 2"):
            bonferroni_followup(data, [0.5], "kde", KDE_FIXED)

    def test_alpha_domain(self):
        data = two_arm(23)
        with pytest.raises(ValidationError, match="alpha"):
            bonferroni_followup(data, [0.3, 0.5], "kde", KDE_FIXED, alpha=1.5)

    def test_duplicate_probabilities_rejected(self):
        """A repeated p would be tested twice and double its adjustment."""
        data = two_arm(23)
        with pytest.raises(ValidationError, match="distinct"):
            bonferroni_followup(data, [0.5, 0.5], "kde", KDE_FIXED)

    @pytest.mark.parametrize("method,tuning", [
        ("kde", KdeConfig("select-by-cv", np.arange(0.1, 1.0 + 1e-12, 0.05))),
        ("ls", LS_FIXED),
    ])
    def test_matches_per_p_univariate_field_by_field(self, method, tuning):
        data = two_arm(24, n=200, rate2=2.0)
        probs = [0.25, 0.5, 0.75]
        results = bonferroni_followup(data, probs, method, tuning)
        for r in results:
            single = univariate_test(data, r.p, method, tuning)
            assert dataclasses.replace(
                r, adjusted_p_value=None, reject_adjusted=None
            ) == single

    def test_one_bandwidth_selection_per_arm(self, monkeypatch):
        import survquant.density as density

        calls = []
        select = density._cv_bandwidth

        def counting(times, *args):
            calls.append(times.tolist())
            return select(times, *args)

        monkeypatch.setattr(density, "_cv_bandwidth", counting)
        data = two_arm(25, n=150)
        cfg = KdeConfig("select-by-cv", np.arange(0.1, 1.0 + 1e-12, 0.05))
        bonferroni_followup(data, [0.25, 0.5, 0.75], "kde", cfg)
        assert calls == [np.sort(arm.times[arm.events]).tolist()
                         for arm in (data.arm1, data.arm2)]


class TestTuningMatchesMethod:
    @pytest.mark.parametrize("method,tuning", [("ls", KDE_FIXED), ("kde", LS_FIXED)])
    def test_other_estimators_config_is_rejected(self, method, tuning):
        data = two_arm(26)
        calls = (
            lambda: univariate_test(data, 0.5, method, tuning),
            lambda: sigma_hat_univariate(data, 0.5, method, tuning),
            lambda: multivariate_test(data, [0.3, 0.6], method, tuning),
            lambda: bonferroni_followup(data, [0.3, 0.6], method, tuning),
        )
        for call in calls:
            with pytest.raises(ValidationError, match="takes a"):
                call()

    def test_unknown_method(self):
        with pytest.raises(ValidationError, match="'ls' or 'kde'"):
            univariate_test(two_arm(27), 0.5, "kernel")
