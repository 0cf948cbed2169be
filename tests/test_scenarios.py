"""Tests for the parametric planning scenarios.

The closed forms (quantiles, phi, censored fractions) are checked against
numerical quadrature and round-trip identities; a handful of frozen
reference values pin regressions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate

from survquant import (
    ExponentialArm,
    PiecewiseExponentialArm,
    ScenarioConfig,
    TrialScenario,
    calibrate_censoring,
    exp_quantile,
    parse_scenario_config,
    parse_scenario_values,
    phi_exponential,
    phi_piecewise,
    piecewise_quantile,
    rate_from_delta_scn1,
    rate_from_delta_scn2,
    resolve_scenario,
    scenario_from_delta,
    scenario_psi,
    scenario_sigma2,
)
from survquant.errors import InfeasibleDeltaError, ValidationError
from survquant.scenarios import exp_density

# the reference setting used across the frozen values below
RATE = 1.5
CENS = 0.48
T_CUT = 0.2
MEDIAN = 0.46209812037329684  # exp_quantile(1.5, 0.5)


def phi_by_quadrature(arm, censoring_rate, t, breakpoint=None):
    """Integrate hazard(s) / (S(s) S_c(s)) numerically on [0, t]."""

    def integrand(s):
        return arm.hazard(s) / (arm.survival(s) * math.exp(-censoring_rate * s))

    knots = [0.0, t]
    if breakpoint is not None and 0.0 < breakpoint < t:
        knots.insert(1, breakpoint)
    total = 0.0
    for a, b in zip(knots, knots[1:]):
        piece, _ = integrate.quad(integrand, a, b, limit=200)
        total += piece
    return total


class TestExponentialPieces:
    def test_quantile_closed_form(self):
        assert exp_quantile(2.0, 0.5) == math.log(2.0) / 2.0
        assert exp_quantile(RATE, 0.5) == pytest.approx(MEDIAN, rel=1e-15)

    def test_quantile_round_trip(self):
        arm = ExponentialArm(0.7)
        for p in [0.1, 0.5, 0.9]:
            assert arm.survival(arm.quantile(p)) == pytest.approx(1.0 - p, rel=1e-14)

    def test_density(self):
        assert exp_density(1.5, 0.0) == 1.5
        # at the p-quantile the density is rate * (1 - p)
        assert ExponentialArm(RATE).density(MEDIAN) == pytest.approx(
            0.75, rel=1e-14
        )

    def test_censored_fraction(self):
        # c / (rate + c) = 0.48 / 1.98
        arm = ExponentialArm(RATE)
        assert arm.censored_fraction(CENS) == pytest.approx(
            0.24242424242424243, rel=1e-15
        )
        assert arm.censored_fraction(0.0) == 0.0

    def test_inverse_cdf_round_trip(self):
        arm = ExponentialArm(2.5)
        x = np.array([0.05, 0.4, 1.3, 6.0])
        assert_allclose(arm.inverse_cdf(x) * 2.5, x, rtol=1e-15)

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_rejects_bad_rate(self, rate):
        with pytest.raises(ValidationError, match="positive"):
            ExponentialArm(rate)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.2])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(ValidationError, match="strictly between"):
            exp_quantile(1.0, p)


class TestPiecewiseArm:
    def test_quantile_early_branch(self):
        # p small enough that the quantile lands before the cut, where the
        # arm is plain exponential
        arm = PiecewiseExponentialArm(2.0, 0.5, t_cut=1.0)
        assert arm.quantile(0.2) == pytest.approx(
            exp_quantile(2.0, 0.2), rel=1e-15
        )

    def test_quantile_late_branch(self):
        arm = PiecewiseExponentialArm(RATE, 6.331064099792058, T_CUT)
        assert arm.quantile(0.5) == pytest.approx(
            0.26209812037329683, rel=1e-12
        )

    def test_quantile_round_trip_random(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            early = rng.uniform(0.3, 3.0)
            late = rng.uniform(0.3, 6.0)
            cut = rng.uniform(0.1, 0.8)
            p = rng.uniform(0.05, 0.95)
            q = piecewise_quantile(early, late, cut, p)
            arm = PiecewiseExponentialArm(early, late, cut)
            assert arm.cumulative_hazard(q) == pytest.approx(
                -math.log1p(-p), rel=1e-10
            )

    def test_hazard_right_continuous_at_cut(self):
        arm = PiecewiseExponentialArm(1.0, 3.0, t_cut=0.5)
        assert arm.hazard(0.5) == 3.0
        assert arm.hazard(0.4999999) == 1.0
        assert arm.density(0.5) == pytest.approx(3.0 * arm.survival(0.5), rel=1e-15)

    def test_collapses_to_exponential(self):
        flat = PiecewiseExponentialArm(RATE, RATE, t_cut=0.7)
        plain = ExponentialArm(RATE)
        for p in [0.2, 0.5, 0.9]:
            assert flat.quantile(p) == pytest.approx(plain.quantile(p), rel=1e-13)
        for t in [0.1, 0.7, 2.0]:
            assert flat.survival(t) == pytest.approx(plain.survival(t), rel=1e-13)
            assert flat.phi(t, CENS) == pytest.approx(plain.phi(t, CENS), rel=1e-12)
        assert flat.censored_fraction(CENS) == pytest.approx(
            plain.censored_fraction(CENS), rel=1e-12
        )

    def test_censored_fraction_against_quadrature(self):
        # P(censored) = integral of c e^{-cs} S(s) ds
        arm = PiecewiseExponentialArm(RATE, 2.425365449362177, T_CUT)
        c = CENS

        def integrand(s):
            return c * math.exp(-c * s) * arm.survival(s)

        upper = T_CUT + 60.0 / (arm.rate_late + c)
        head, _ = integrate.quad(integrand, 0.0, T_CUT)
        tail, _ = integrate.quad(integrand, T_CUT, upper)
        assert arm.censored_fraction(c) == pytest.approx(head + tail, rel=1e-9)
        assert arm.censored_fraction(c) == pytest.approx(
            0.19045959981038585, rel=1e-12
        )

    def test_inverse_cdf_round_trip(self):
        arm = PiecewiseExponentialArm(2.0, 0.4, t_cut=0.3)
        # draws on both sides of the knee at rate_early * t_cut = 0.6
        x = np.array([0.1, 0.59, 0.61, 2.5])
        times = arm.inverse_cdf(x)
        hazards = np.array([arm.cumulative_hazard(t) for t in times])
        assert_allclose(hazards, x, rtol=1e-14)
        assert times[1] < arm.t_cut < times[2]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError, match="rate_early"):
            PiecewiseExponentialArm(0.0, 1.0, 0.5)
        with pytest.raises(ValidationError, match="rate_late"):
            PiecewiseExponentialArm(1.0, -2.0, 0.5)
        with pytest.raises(ValidationError, match="t_cut"):
            PiecewiseExponentialArm(1.0, 1.0, 0.0)


class TestPhi:
    def test_uncensored_exponential_identity(self):
        # without censoring phi at the p-quantile is p / (1 - p)
        for p in [0.1, 0.5, 0.75]:
            t = exp_quantile(RATE, p)
            assert phi_exponential(RATE, 0.0, t) == pytest.approx(
                p / (1.0 - p), rel=1e-13
            )

    def test_at_zero(self):
        assert phi_exponential(RATE, CENS, 0.0) == 0.0
        assert phi_piecewise(RATE, 2.0, T_CUT, CENS, 0.0) == 0.0

    def test_reference_value(self):
        assert phi_exponential(RATE, CENS, MEDIAN) == pytest.approx(
            1.1338341650024422, rel=1e-13
        )

    def test_exponential_against_quadrature(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            rate = rng.uniform(0.3, 3.0)
            c = rng.uniform(0.0, 1.0)
            t = exp_quantile(rate, rng.uniform(0.2, 0.8))
            arm = ExponentialArm(rate)
            assert phi_exponential(rate, c, t) == pytest.approx(
                phi_by_quadrature(arm, c, t), rel=1e-8
            )

    def test_piecewise_against_quadrature(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            early = rng.uniform(0.3, 3.0)
            late = rng.uniform(0.3, 6.0)
            cut = rng.uniform(0.1, 0.8)
            c = rng.uniform(0.0, 1.0)
            arm = PiecewiseExponentialArm(early, late, cut)
            t = arm.quantile(rng.uniform(0.2, 0.8))
            assert phi_piecewise(early, late, cut, c, t) == pytest.approx(
                phi_by_quadrature(arm, c, t, breakpoint=cut), rel=1e-8
            )

    def test_piecewise_continuous_at_cut(self):
        below = phi_piecewise(RATE, 4.0, T_CUT, CENS, T_CUT)
        above = phi_piecewise(RATE, 4.0, T_CUT, CENS, T_CUT * (1.0 + 1e-12))
        assert above == pytest.approx(below, rel=1e-9)
        assert above >= below

    @settings(max_examples=300, deadline=None)
    @given(
        rate_early=st.floats(1e-3, 1e3),
        rate_late=st.floats(1e-3, 1e3),
        t_cut=st.floats(1e-3, 1e3),
        censoring_rate=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
        fraction=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    )
    def test_piecewise_is_exponential_up_to_cut(self, rate_early, rate_late, t_cut,
                                                censoring_rate, fraction):
        """Up to the cut the two-piece arm is exponential(rate_early), and
        phi_piecewise returns phi_exponential's float, inf included."""
        t = min(fraction * t_cut, t_cut)
        assert phi_piecewise(rate_early, rate_late, t_cut, censoring_rate, t) == (
            phi_exponential(rate_early, censoring_rate, t)
        )

    def test_saturates_instead_of_overflowing(self):
        assert phi_exponential(0.1, 50.0, 30.0) == math.inf
        assert phi_piecewise(0.1, 0.2, 1.0, 50.0, 30.0) == math.inf

    def test_domain_errors(self):
        with pytest.raises(ValidationError, match="non-negative"):
            phi_exponential(RATE, -0.1, 1.0)
        with pytest.raises(ValidationError, match="non-negative"):
            phi_exponential(RATE, CENS, -1.0)

    def test_nan_censoring_rate_rejected(self):
        with pytest.raises(ValidationError, match="censoring_rate must be non-negative, got nan"):
            phi_exponential(RATE, math.nan, 1.0)


class TestRateSolvers:
    def test_scn1_reference_values(self):
        assert rate_from_delta_scn1(RATE, 0.5, 0.1) == pytest.approx(
            1.9142523574697405, rel=1e-12
        )
        assert rate_from_delta_scn1(RATE, 0.5, 0.2) == pytest.approx(
            2.6446095056794796, rel=1e-12
        )

    def test_scn1_round_trip(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            rate = rng.uniform(0.3, 3.0)
            p = rng.uniform(0.1, 0.9)
            delta = rng.uniform(-0.3, 0.9 * exp_quantile(rate, p))
            solved = rate_from_delta_scn1(rate, p, delta)
            assert exp_quantile(solved, p) == pytest.approx(
                exp_quantile(rate, p) - delta, rel=1e-12
            )

    def test_scn1_zero_delta_keeps_control_rate(self):
        assert rate_from_delta_scn1(RATE, 0.5, 0.0) == pytest.approx(RATE, rel=1e-14)

    def test_scn1_infeasible(self):
        # delta at least the control quantile leaves no positive quantile
        with pytest.raises(InfeasibleDeltaError, match="positive"):
            rate_from_delta_scn1(RATE, 0.5, MEDIAN)
        with pytest.raises(InfeasibleDeltaError):
            rate_from_delta_scn1(RATE, 0.5, 1.0)

    def test_scn2_reference_values(self):
        assert rate_from_delta_scn2(RATE, 0.5, 0.1, T_CUT) == pytest.approx(
            2.425365449362177, rel=1e-12
        )
        assert rate_from_delta_scn2(RATE, 0.5, 0.2, T_CUT) == pytest.approx(
            6.331064099792058, rel=1e-12
        )

    def test_scn2_round_trip(self):
        late = rate_from_delta_scn2(RATE, 0.5, 0.15, T_CUT)
        arm = PiecewiseExponentialArm(RATE, late, T_CUT)
        assert arm.quantile(0.5) == pytest.approx(MEDIAN - 0.15, rel=1e-12)

    def test_scn2_zero_delta_keeps_control_rate(self):
        assert rate_from_delta_scn2(RATE, 0.5, 0.0, T_CUT) == pytest.approx(
            RATE, rel=1e-14
        )

    def test_scn2_infeasible_past_cut(self):
        # the shifted quantile must stay beyond t_cut
        with pytest.raises(InfeasibleDeltaError, match="t_cut"):
            rate_from_delta_scn2(RATE, 0.5, MEDIAN - T_CUT, T_CUT)
        with pytest.raises(InfeasibleDeltaError):
            rate_from_delta_scn2(RATE, 0.5, 0.3, T_CUT)


class TestTrialScenario:
    def test_quantile_difference_equals_delta(self):
        for t_cut in [None, T_CUT]:
            scenario = scenario_from_delta(
                RATE, 0.5, 0.1, t_cut=t_cut, censoring_rate=CENS
            )
            assert scenario.quantile_difference(0.5) == pytest.approx(
                0.1, abs=1e-12
            )

    def test_arm_families(self):
        plain = scenario_from_delta(RATE, 0.5, 0.1, censoring_rate=CENS)
        assert isinstance(plain.arm2, ExponentialArm)
        delayed = scenario_from_delta(RATE, 0.5, 0.1, t_cut=T_CUT, censoring_rate=CENS)
        assert isinstance(delayed.arm2, PiecewiseExponentialArm)
        assert delayed.arm2.rate_early == RATE

    def test_censoring_fraction_pair(self):
        scenario = scenario_from_delta(RATE, 0.5, 0.1, t_cut=T_CUT, censoring_rate=CENS)
        frac1, frac2 = scenario.censoring_fraction()
        assert frac1 == pytest.approx(0.24242424242424243, rel=1e-12)
        assert frac2 == pytest.approx(0.19045959981038585, rel=1e-12)

    def test_mu2(self):
        scenario = TrialScenario(ExponentialArm(1.0), ExponentialArm(2.0), mu1=0.3)
        assert scenario.mu2 == 0.7

    def test_validation(self):
        with pytest.raises(ValidationError, match="censoring_rate"):
            TrialScenario(ExponentialArm(1.0), ExponentialArm(1.0), censoring_rate=-1.0)
        with pytest.raises(ValidationError, match="mu1"):
            TrialScenario(ExponentialArm(1.0), ExponentialArm(1.0), mu1=1.0)

    def test_nan_censoring_rate_rejected(self):
        with pytest.raises(ValidationError, match="censoring_rate must be non-negative, got nan"):
            TrialScenario(ExponentialArm(1.0), ExponentialArm(1.0), censoring_rate=math.nan)


class TestScenarioSigma2:
    def test_reference_value_proportional(self):
        scenario = scenario_from_delta(RATE, 0.5, 0.1, censoring_rate=CENS)
        sigma2, _ = scenario_sigma2(scenario, 0.5)
        assert sigma2 == pytest.approx(1.6098996665207, rel=1e-12)

    def test_reference_value_delayed(self):
        scenario = scenario_from_delta(RATE, 0.5, 0.1, t_cut=T_CUT, censoring_rate=CENS)
        sigma2, _ = scenario_sigma2(scenario, 0.5)
        assert sigma2 == pytest.approx(1.3866784974351445, rel=1e-12)

    def test_reference_value_heavier_censoring(self):
        scenario = scenario_from_delta(RATE, 0.5, 0.1, censoring_rate=1.2)
        sigma2, _ = scenario_sigma2(scenario, 0.5)
        assert sigma2 == pytest.approx(1.9264242426337663, rel=1e-12)

    def test_reference_value_high_quantile(self):
        scenario = scenario_from_delta(3.0, 0.9, 0.1, t_cut=T_CUT, censoring_rate=0.1)
        sigma2, _ = scenario_sigma2(scenario, 0.9)
        assert sigma2 == pytest.approx(3.5286593353953033, rel=1e-12)

    def test_uncensored_identical_arms(self):
        # phi = p/(1-p) = 1 at the median and f = rate/2, so each arm
        # contributes (1/4) / (0.5 * rate^2/4) and the total is 16/9
        scenario = TrialScenario(ExponentialArm(RATE), ExponentialArm(RATE))
        sigma2, _ = scenario_sigma2(scenario, 0.5)
        assert sigma2 == pytest.approx(1.7777777777777777, rel=1e-12)

    def test_diagnostics_reassemble(self):
        scenario = scenario_from_delta(
            RATE, 0.5, 0.1, t_cut=T_CUT, censoring_rate=CENS, mu1=0.25
        )
        sigma2, diag = scenario_sigma2(scenario, 0.5)
        p = diag["p"]
        rebuilt = (1.0 - p) ** 2 * (
            diag["phi1"] / (0.25 * diag["density1"] ** 2)
            + diag["phi2"] / (0.75 * diag["density2"] ** 2)
        )
        assert sigma2 == pytest.approx(rebuilt, rel=1e-14)
        assert diag["quantile1"] == pytest.approx(MEDIAN, rel=1e-14)
        assert diag["quantile2"] == pytest.approx(MEDIAN - 0.1, rel=1e-12)

    def test_zero_delta_delayed_matches_proportional(self):
        # with no shift the delayed comparator degenerates to the control
        # hazard, so both scenario families give the same variance
        plain = scenario_from_delta(RATE, 0.5, 0.0, censoring_rate=CENS)
        delayed = scenario_from_delta(RATE, 0.5, 0.0, t_cut=T_CUT, censoring_rate=CENS)
        s1, _ = scenario_sigma2(plain, 0.5)
        s2, _ = scenario_sigma2(delayed, 0.5)
        assert s2 == pytest.approx(s1, rel=1e-12)


class TestScenarioPsi:
    def test_single_quantile_matches_sigma2(self):
        scenario = scenario_from_delta(RATE, 0.5, 0.1, censoring_rate=CENS)
        sigma2, _ = scenario_sigma2(scenario, 0.5)
        psi = scenario_psi(scenario, [0.5])
        assert psi.shape == (1, 1)
        assert psi[0, 0] == pytest.approx(sigma2, rel=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(
        rate_a=st.floats(0.05, 5.0),
        rate_b=st.floats(0.05, 5.0),
        t_cut=st.one_of(st.none(), st.floats(0.01, 3.0)),
        censoring_rate=st.floats(0.0, 3.0),
        mu1=st.floats(0.05, 0.95),
        p=st.floats(0.01, 0.99),
    )
    def test_single_quantile_is_sigma2_exactly(self, rate_a, rate_b, t_cut,
                                               censoring_rate, mu1, p):
        arm2 = (ExponentialArm(rate_b) if t_cut is None
                else PiecewiseExponentialArm(rate_a, rate_b, t_cut))
        scenario = TrialScenario(
            ExponentialArm(rate_a), arm2, censoring_rate=censoring_rate, mu1=mu1
        )
        assert scenario_psi(scenario, [p])[0, 0] == scenario_sigma2(scenario, p)[0]

    def test_identical_arms_reference_matrix(self):
        scenario = TrialScenario(
            ExponentialArm(RATE), ExponentialArm(RATE), censoring_rate=CENS
        )
        psi = scenario_psi(scenario, [0.3, 0.5])
        # both arms contribute the same upsilon, and for an exponential arm
        # (1-p)/f(t_p) = 1/rate makes the off-diagonal equal the smaller
        # quantile's diagonal entry
        expected = np.array(
            [
                [0.40491056991797725, 0.40491056991797725],
                [0.40491056991797725, 1.0078525911132818],
            ]
        )
        assert_allclose(psi / 2.0, expected, rtol=1e-12)

    def test_symmetric(self):
        scenario = scenario_from_delta(
            RATE, 0.5, 0.1, t_cut=T_CUT, censoring_rate=CENS, mu1=0.4
        )
        psi = scenario_psi(scenario, [0.25, 0.5, 0.75])
        assert_allclose(psi, psi.T, rtol=1e-14)

    def test_permutation_consistency(self):
        scenario = scenario_from_delta(RATE, 0.5, 0.1, censoring_rate=CENS)
        forward = scenario_psi(scenario, [0.3, 0.6])
        swapped = scenario_psi(scenario, [0.6, 0.3])
        assert_allclose(swapped, forward[::-1, ::-1], rtol=1e-14)

    def test_validation(self):
        scenario = scenario_from_delta(RATE, 0.5, 0.1, censoring_rate=CENS)
        with pytest.raises(ValidationError, match="distinct"):
            scenario_psi(scenario, [0.5, 0.5])
        with pytest.raises(ValidationError, match="at least one"):
            scenario_psi(scenario, [])
        with pytest.raises(ValidationError, match="strictly between"):
            scenario_psi(scenario, [0.5, 1.5])

    def test_numpy_entry_reported_as_a_float(self):
        scenario = scenario_from_delta(RATE, 0.5, 0.1, censoring_rate=CENS)
        with pytest.raises(ValidationError) as err:
            scenario_psi(scenario, np.array([0.5, 1.5]))
        assert str(err.value) == "p must lie strictly between 0 and 1, got 1.5"
        with pytest.raises(ValidationError) as err:
            exp_quantile(RATE, np.float64(1.5))
        assert str(err.value) == "p must lie strictly between 0 and 1, got 1.5"


class TestCalibrateCensoring:
    def test_exponential_round_trip(self):
        rate = calibrate_censoring(ExponentialArm(RATE), 0.24242424242424243)
        assert rate == pytest.approx(CENS, abs=1e-6)

    def test_piecewise_round_trip(self):
        arm = PiecewiseExponentialArm(RATE, 2.425365449362177, T_CUT)
        rate = calibrate_censoring(arm, 0.19045959981038585)
        assert rate == pytest.approx(CENS, abs=1e-6)

    def test_hits_target_fraction(self):
        for target in [0.05, 0.3, 0.7]:
            arm = ExponentialArm(0.8)
            rate = calibrate_censoring(arm, target)
            assert arm.censored_fraction(rate) == pytest.approx(target, abs=1e-7)

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.1])
    def test_target_domain(self, target):
        with pytest.raises(ValidationError, match="strictly between"):
            calibrate_censoring(ExponentialArm(1.0), target)


class TestScenarioConfigParsing:
    def test_parse_values(self):
        text = """
        # planning inputs
        lambda_a = 1.5
        delta = 0.1   # quantile shift
        p_list = 0.25, 0.5, 0.75
        lambda_cens = 0.48
        """
        values = parse_scenario_values(text)
        assert values["lambda_a"] == 1.5
        assert values["delta"] == 0.1
        assert values["p_list"] == (0.25, 0.5, 0.75)
        assert values["lambda_cens"] == 0.48

    def test_line_numbers_in_errors(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_scenario_values("lambda_a = 1.0\nnot a pair\n")

    def test_duplicate_key(self):
        with pytest.raises(ValidationError, match="duplicate key lambda_a"):
            parse_scenario_values("lambda_a = 1.0\nlambda_a = 2.0\n")

    def test_unknown_key(self):
        with pytest.raises(ValidationError, match="unknown key 'lambda_c'"):
            parse_scenario_values("lambda_c = 1.0\n")

    def test_non_numeric_scalar(self):
        with pytest.raises(ValidationError, match="needs a number"):
            parse_scenario_values("lambda_a = fast\n")

    def test_bad_list_entry(self):
        with pytest.raises(ValidationError, match="comma-separated"):
            parse_scenario_values("p_list = 0.5, soon\n")

    def test_config_requires_lambda_a(self):
        with pytest.raises(ValidationError, match="missing lambda_a"):
            parse_scenario_config("p = 0.5\ndelta = 0.1\n")

    def test_full_config(self):
        config = parse_scenario_config(
            "lambda_a = 1.5\nlambda_b = 2.0\np = 0.5\nmu1 = 0.4\n"
        )
        assert config.lambda_b == 2.0
        assert config.probabilities == (0.5,)
        assert config.mu1 == 0.4


class TestScenarioConfigValidation:
    def test_lambda_a_required(self):
        with pytest.raises(ValidationError, match="missing lambda_a"):
            ScenarioConfig(delta=0.1, p=0.5)

    def test_exactly_one_comparator(self):
        with pytest.raises(ValidationError, match="lambda_b or delta"):
            ScenarioConfig(lambda_a=1.0, lambda_b=2.0, delta=0.1, p=0.5)
        with pytest.raises(ValidationError, match="lambda_b or delta"):
            ScenarioConfig(lambda_a=1.0, p=0.5)

    def test_at_most_one_censoring(self):
        with pytest.raises(ValidationError, match="at most one"):
            ScenarioConfig(
                lambda_a=1.0, lambda_b=2.0, p=0.5,
                lambda_cens=0.4, target_censoring=0.2,
            )

    def test_exactly_one_probability_form(self):
        with pytest.raises(ValidationError, match="p or p_list"):
            ScenarioConfig(lambda_a=1.0, lambda_b=2.0)
        with pytest.raises(ValidationError, match="p or p_list"):
            ScenarioConfig(lambda_a=1.0, lambda_b=2.0, p=0.5, p_list=(0.5,))

    def test_p_list_contents(self):
        with pytest.raises(ValidationError, match="at least one"):
            ScenarioConfig(lambda_a=1.0, lambda_b=2.0, p_list=())
        with pytest.raises(ValidationError, match="distinct"):
            ScenarioConfig(lambda_a=1.0, lambda_b=2.0, p_list=(0.5, 0.5))
        with pytest.raises(ValidationError, match="strictly between"):
            ScenarioConfig(lambda_a=1.0, lambda_b=2.0, p_list=(0.5, 1.5))

    def test_probabilities_property(self):
        config = ScenarioConfig(lambda_a=1.0, lambda_b=2.0, p_list=(0.3, 0.6))
        assert config.probabilities == (0.3, 0.6)


class TestResolveScenario:
    def test_explicit_rates(self):
        config = ScenarioConfig(lambda_a=1.5, lambda_b=2.0, p=0.5)
        scenario = resolve_scenario(config)
        assert isinstance(scenario.arm2, ExponentialArm)
        assert scenario.arm2.rate == 2.0
        assert scenario.censoring_rate == 0.0

    def test_explicit_late_rate_with_cut(self):
        config = ScenarioConfig(lambda_a=1.5, lambda_b=4.0, t_cut=0.2, p=0.5)
        scenario = resolve_scenario(config)
        assert isinstance(scenario.arm2, PiecewiseExponentialArm)
        assert scenario.arm2.rate_early == 1.5
        assert scenario.arm2.rate_late == 4.0

    def test_delta_form_uses_first_probability(self):
        config = ScenarioConfig(lambda_a=1.5, delta=0.1, p_list=(0.5, 0.25))
        scenario = resolve_scenario(config)
        assert scenario.arm2.rate == pytest.approx(
            rate_from_delta_scn1(1.5, 0.5, 0.1), rel=1e-15
        )

    @pytest.mark.parametrize("t_cut", [None, 0.2])
    def test_delta_form_is_scenario_from_delta(self, t_cut):
        config = ScenarioConfig(
            lambda_a=1.5, delta=0.1, p_list=(0.5, 0.25), t_cut=t_cut,
            lambda_cens=0.48, mu1=0.4,
        )
        assert resolve_scenario(config) == scenario_from_delta(
            1.5, 0.5, 0.1, t_cut=t_cut, censoring_rate=0.48, mu1=0.4
        )

    def test_target_censoring_is_calibrated(self):
        config = ScenarioConfig(
            lambda_a=1.5, delta=0.1, p=0.5, target_censoring=0.24242424242424243
        )
        scenario = resolve_scenario(config)
        assert scenario.censoring_rate == pytest.approx(CENS, abs=1e-6)

    def test_negative_lambda_cens_rejected(self):
        config = ScenarioConfig(lambda_a=1.5, lambda_b=2.0, p=0.5, lambda_cens=-0.1)
        with pytest.raises(ValidationError, match="non-negative"):
            resolve_scenario(config)
