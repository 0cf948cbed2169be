"""Two-sample inference and design for survival quantiles under right censoring."""

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
from .survival import (
    KaplanMeierFit,
    QuantileEstimate,
    SurvivalSample,
    TwoArmData,
    fit_censoring_km,
    fit_kaplan_meier,
    phi_hat,
    quantile_at,
)
from .density import (
    DensityAtQuantile,
    KdeConfig,
    LsConfig,
    SigmaSelection,
    cv_score,
    estimate_density_kde,
    estimate_density_ls,
    select_bandwidth_cv,
    select_sigma_ls,
)
from .quantile_tests import (
    MultivariateTestResult,
    UnivariateTestResult,
    bonferroni_followup,
    multivariate_test,
    sigma_hat_univariate,
    univariate_test,
    upsilon_matrix,
)
from .power import (
    PowerSpec,
    SampleSizeResult,
    chi2_cdf,
    chi2_quantile,
    min_sample_size,
    noncentral_chi2_cdf,
    normal_cdf,
    normal_quantile,
    power_multivariate,
    power_univariate,
)
from .scenarios import (
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
from .simulate import (
    RejectionReport,
    SimulationPlan,
    empirical_rejection,
    sample_trial,
)
