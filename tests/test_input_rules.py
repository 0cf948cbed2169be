"""Every scalar input rule of the library, probed at its edges.

Each case names a parameter, a call that feeds it one value with every
other input valid, and the values the rule accepts. A rejected value must
raise ValidationError naming the parameter; an accepted one must return a
value that is not nan. Where a docstring keeps inf as a saturated limit
(sigma, phi's t, noncentral_chi2_cdf's x) the call returns that limit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survquant import (
    ExponentialArm,
    KdeConfig,
    LsConfig,
    PiecewiseExponentialArm,
    PowerSpec,
    ScenarioConfig,
    SimulationPlan,
    TrialScenario,
    calibrate_censoring,
    chi2_cdf,
    chi2_quantile,
    cv_score,
    min_sample_size,
    noncentral_chi2_cdf,
    normal_quantile,
    phi_exponential,
    power_univariate,
    resolve_scenario,
    sample_trial,
    scenario_from_delta,
    scenario_sigma2,
    select_bandwidth_cv,
    select_sigma_ls,
)
from survquant.errors import ValidationError
from survquant.scenarios import exp_quantile
from test_cli import time_budget

VALUES = [math.nan, math.inf, -math.inf, -1.0, 0.0, 1.5]

SCENARIO = TrialScenario(ExponentialArm(1.0), ExponentialArm(1.5))
SAMPLE = sample_trial(SCENARIO, 30, 30, 1).arm1
MEDIAN = exp_quantile(1.5, 0.5)  # the control median of the delta cases


def open_unit(v):
    return 0 < v < 1


def positive_finite(v):
    return 0 < v < math.inf


def non_negative(v):
    return v >= 0


def finite_non_negative(v):
    return 0 <= v < math.inf


def count(least):
    return lambda v: math.isfinite(v) and v == int(v) and v >= least


def sigma2(scenario):
    return scenario_sigma2(scenario, 0.5)[0]


def power_at(**inputs):
    return power_univariate(PowerSpec(**{"alpha": 0.05, "deltas": 0.1, "sigma": 1.0,
                                         "per_group_n": 100, **inputs}))


# (parameter, value) -> the documented limit the call returns
SATURATED = {("x", math.inf): 1.0, ("t", math.inf): math.inf,
             ("sigma", math.inf): pytest.approx(0.05, rel=1e-12)}


# (parameter, call with the value, accepted values)
CASES = [
    ("p", normal_quantile, open_unit),
    ("p", lambda v: chi2_quantile(v, 2), open_unit),
    ("dof", lambda v: chi2_quantile(0.5, v), count(1)),
    ("dof", lambda v: float(chi2_cdf(1.0, v)), count(1)),
    ("dof", lambda v: noncentral_chi2_cdf(1.0, v, 1.0), count(1)),
    ("x", lambda v: noncentral_chi2_cdf(v, 2, 1.0), non_negative),
    ("noncentrality", lambda v: noncentral_chi2_cdf(1.0, 2, v), finite_non_negative),
    ("delta", lambda v: power_at(deltas=v), math.isfinite),
    ("sigma", lambda v: power_at(sigma=v), lambda v: v > 0),
    # delta = 0 has no sample size
    ("delta", lambda v: min_sample_size(0.8, v, sigma=1.0).achieved_power,
     lambda v: math.isfinite(v) and v != 0),
    ("per_group_n", lambda v: PowerSpec(alpha=0.05, deltas=0.1, sigma=1.0,
                                        per_group_n=v).n_total, count(1)),
    ("total_n", lambda v: PowerSpec(alpha=0.05, deltas=0.1, sigma=1.0,
                                    total_n=v).n_total, count(2)),
    ("rate", lambda v: ExponentialArm(v).quantile(0.5), positive_finite),
    ("rate_early", lambda v: PiecewiseExponentialArm(v, 1.0, 0.5).quantile(0.5),
     positive_finite),
    ("rate_late", lambda v: PiecewiseExponentialArm(1.0, v, 0.5).quantile(0.5),
     positive_finite),
    ("t_cut", lambda v: PiecewiseExponentialArm(1.0, 1.0, v).quantile(0.5), positive_finite),
    ("censoring_rate", lambda v: phi_exponential(1.0, v, 1.0), finite_non_negative),
    ("t", lambda v: phi_exponential(1.0, 0.5, v), non_negative),
    ("censoring_rate", lambda v: sigma2(TrialScenario(ExponentialArm(1.0), ExponentialArm(2.0),
                                                      censoring_rate=v)), finite_non_negative),
    ("lambda_a", lambda v: sigma2(resolve_scenario(ScenarioConfig(lambda_a=v, lambda_b=1.0,
                                                                  p=0.5))), positive_finite),
    ("lambda_b", lambda v: sigma2(resolve_scenario(ScenarioConfig(lambda_a=1.0, lambda_b=v,
                                                                  p=0.5))), positive_finite),
    ("lambda_cens", lambda v: sigma2(resolve_scenario(
        ScenarioConfig(lambda_a=1.5, delta=0.1, p=0.5, lambda_cens=v))), finite_non_negative),
    # a shift past the control median, or past the cut, is infeasible and says so
    ("delta", lambda v: sigma2(scenario_from_delta(1.5, 0.5, v)),
     lambda v: math.isfinite(v) and v < MEDIAN),
    ("t_cut", lambda v: sigma2(scenario_from_delta(1.5, 0.5, 0.1, t_cut=v)),
     lambda v: 0 < v < MEDIAN - 0.1),
    ("target censored fraction", lambda v: calibrate_censoring(ExponentialArm(1.0), v),
     open_unit),
    ("n_per_group", lambda v: SimulationPlan(SCENARIO, v, (0.5,), 5).n_per_group, count(2)),
    ("replications", lambda v: SimulationPlan(SCENARIO, 10, (0.5,), v).replications,
     count(1)),
    ("master_seed", lambda v: SimulationPlan(SCENARIO, 10, (0.5,), 5,
                                             master_seed=v).master_seed, count(0)),
    ("threads", lambda v: SimulationPlan(SCENARIO, 10, (0.5,), 5, threads=v).threads,
     count(1)),
    ("n1", lambda v: sample_trial(SCENARIO, v, 3, 0).arm1.n, count(1)),
    ("n2", lambda v: sample_trial(SCENARIO, 3, v, 0).arm2.n, count(1)),
    ("n_draws", lambda v: LsConfig(1.0, n_draws=v).n_draws, count(2)),
    ("n_draws", lambda v: select_sigma_ls(SAMPLE, 0.5, [0.5, 1.0], n_draws=v).sigma_eps,
     count(2)),
    ("bandwidth", lambda v: KdeConfig(v).bandwidth, positive_finite),
    ("bandwidth", lambda v: cv_score(SAMPLE, v), positive_finite),
    ("cv_grid", lambda v: select_bandwidth_cv(SAMPLE, [v, 2.0]), positive_finite),
    ("sigma grid", lambda v: select_sigma_ls(SAMPLE, 0.5, [v, 2.0], seed=0).sigma_eps,
     positive_finite),
]


@pytest.mark.parametrize("name,call,accepts", CASES,
                         ids=[f"{i}-{case[0]}" for i, case in enumerate(CASES)])
@settings(deadline=None)
@given(value=st.sampled_from(VALUES))
def test_scalar_rule(name, call, accepts, value):
    """One ValidationError naming the parameter, or a result that is not nan;
    never a TypeError, ValueError, OverflowError or a call that hangs."""
    with time_budget(2.0):
        if accepts(value):
            result = call(value)
            assert not np.isnan(result), f"{name}={value} returned nan"
            if (name, value) in SATURATED:
                assert result == SATURATED[name, value]
        else:
            with pytest.raises(ValidationError, match=name):
                call(value)

