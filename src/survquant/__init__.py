"""Two-sample inference and design for survival quantiles under right censoring.

Importing the package loads only the exception classes. Every other public
name is imported from its module on first access (PEP 562), so a command
that only plans a trial never loads the test or simulation code. The first
access stores the object here, and later reads are plain attribute reads.
"""
import importlib

__version__ = "0.1.0"

from .errors import (
    DatasetFormatError,
    DegenerateTailError,
    InfeasibleDeltaError,
    NumericalError,
    SingularCovarianceError,
    SurvQuantError,
    TooFewEventsError,
    UnattainablePowerError,
    UnreachableQuantileError,
    ValidationError,
)

# public name -> the module that defines it
_LAZY = {name: module for module, names in {
    "survival": (
        "KaplanMeierFit",
        "QuantileEstimate",
        "SurvivalSample",
        "TwoArmData",
        "fit_censoring_km",
        "fit_kaplan_meier",
        "phi_hat",
        "quantile_at",
    ),
    "density": (
        "DensityAtQuantile",
        "KdeConfig",
        "LsConfig",
        "SigmaSelection",
        "cv_score",
        "estimate_density_kde",
        "estimate_density_ls",
        "select_bandwidth_cv",
        "select_sigma_ls",
    ),
    "quantile_tests": (
        "MultivariateTestResult",
        "UnivariateTestResult",
        "bonferroni_followup",
        "multivariate_test",
        "sigma_hat_univariate",
        "univariate_test",
        "upsilon_matrix",
    ),
    "power": (
        "PowerSpec",
        "SampleSizeResult",
        "chi2_cdf",
        "chi2_quantile",
        "min_sample_size",
        "noncentral_chi2_cdf",
        "normal_cdf",
        "normal_quantile",
        "power_multivariate",
        "power_univariate",
    ),
    "scenarios": (
        "ExponentialArm",
        "PiecewiseExponentialArm",
        "ScenarioConfig",
        "TrialScenario",
        "calibrate_censoring",
        "exp_quantile",
        "parse_scenario_config",
        "parse_scenario_values",
        "phi_exponential",
        "phi_piecewise",
        "piecewise_quantile",
        "rate_from_delta_scn1",
        "rate_from_delta_scn2",
        "resolve_scenario",
        "scenario_from_delta",
        "scenario_psi",
        "scenario_sigma2",
    ),
    "simulate": (
        "RejectionReport",
        "SimulationPlan",
        "empirical_rejection",
        "sample_trial",
    ),
}.items() for name in names}

__all__ = [
    "__version__",
    "DatasetFormatError",
    "DegenerateTailError",
    "InfeasibleDeltaError",
    "NumericalError",
    "SingularCovarianceError",
    "SurvQuantError",
    "TooFewEventsError",
    "UnattainablePowerError",
    "UnreachableQuantileError",
    "ValidationError",
    *_LAZY,
]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
