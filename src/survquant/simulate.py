"""Monte Carlo harness: empirical rejection rates under a TrialScenario.

Determinism contract: replicate k draws everything it needs from
SeedSequence(master_seed, spawn_key=(k,)), so results depend only on the
master seed and the replicate index. Replicates run one after another on
the calling thread; SimulationPlan.threads is validated but does not change
how they run, so the report is the same for any thread count.
"""
from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from .density import LsConfig
from .errors import (
    DegenerateTailError,
    SingularCovarianceError,
    UnreachableQuantileError,
    ValidationError,
)
from .power import PowerSpec, power_multivariate, power_univariate
from .quantile_tests import multivariate_test, univariate_test
from .scenarios import TrialScenario, scenario_psi, scenario_sigma2
from .survival import SurvivalSample, TwoArmData

_FAILURE_KINDS = (UnreachableQuantileError, DegenerateTailError, SingularCovarianceError)
_MAX_FAILURE_FRACTION = 0.05

# Default LS perturbation scale for simulations. Wide on purpose: at small n
# the probe window then exceeds the data support, the slope underestimates the
# density, and the test turns conservative, which is the small-sample
# behavior the rejection-rate tables are calibrated against. Override through
# SimulationPlan.tuning for anything else.
DEFAULT_SIM_SIGMA_EPS = 5.0


@dataclass(frozen=True)
class SimulationPlan:
    """Everything one empirical-rejection run depends on."""

    scenario: TrialScenario
    n_per_group: int
    probabilities: tuple
    replications: int
    alpha: float = 0.05
    density_method: str = "ls"
    tuning: object = None
    master_seed: int = 0
    # accepted for compatibility: replicates always run serially
    threads: int = 1

    def __post_init__(self):
        if self.n_per_group < 2:
            raise ValidationError("n_per_group must be at least 2")
        if self.replications < 1:
            raise ValidationError("replications must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must lie strictly between 0 and 1")
        if self.density_method not in ("ls", "kde"):
            raise ValidationError("density_method must be 'ls' or 'kde'")
        probabilities = tuple(float(p) for p in self.probabilities)
        if not probabilities:
            raise ValidationError("at least one probability is required")
        if len(set(probabilities)) != len(probabilities):
            raise ValidationError("probabilities must be distinct")
        object.__setattr__(self, "probabilities", probabilities)
        if self.threads < 1:
            raise ValidationError("threads must be at least 1")
        if self.master_seed < 0:
            raise ValidationError("master_seed must be non-negative")


@dataclass(frozen=True)
class RejectionReport:
    """Empirical rejection rate with its Monte Carlo uncertainty.

    n_failures counts replicates where the test could not be run at all
    (unreachable quantile, degenerate variance, singular covariance); they
    are excluded from the denominator n_used. p_values holds one entry per
    replicate, NaN for failed ones.
    """

    rate: float
    mc_se: float
    formula_power: float
    n_failures: int
    n_used: int
    replications: int
    alpha: float
    p_values: np.ndarray
    wall_time_s: float
    rep_time_mean_s: float
    rep_time_sd_s: float
    flags: tuple = ()


def sample_trial(scenario: TrialScenario, n1: int, n2: int, replicate_seed) -> TwoArmData:
    """Draw one two-arm dataset by inverse-CDF sampling.

    replicate_seed is anything numpy's default_rng accepts (int,
    SeedSequence, Generator). Draw order is fixed: arm-1 events, arm-1
    censoring, arm-2 events, arm-2 censoring.
    """
    if n1 < 1 or n2 < 1:
        raise ValidationError("both arms need at least one subject")
    rng = np.random.default_rng(replicate_seed)

    def one_arm(arm, size):
        # standard-exponential draws mapped through the arm's inverse CDF
        events = arm.inverse_cdf(-np.log1p(-rng.random(size)))
        if scenario.censoring_rate > 0:
            censor = -np.log1p(-rng.random(size)) / scenario.censoring_rate
        else:
            censor = np.full(size, np.inf)
        observed = np.minimum(events, censor)
        return SurvivalSample(observed, events <= censor)

    return TwoArmData(one_arm(scenario.arm1, n1), one_arm(scenario.arm2, n2))


def _formula_power(plan: SimulationPlan) -> float:
    scenario = plan.scenario
    total = 2 * plan.n_per_group
    if len(plan.probabilities) == 1:
        p = plan.probabilities[0]
        sigma2, _ = scenario_sigma2(scenario, p)
        spec = PowerSpec(
            alpha=plan.alpha,
            deltas=scenario.quantile_difference(p),
            sigma=math.sqrt(sigma2),
            total_n=total,
        )
        return power_univariate(spec)
    psi = scenario_psi(scenario, plan.probabilities)
    deltas = np.array(
        [scenario.quantile_difference(p) for p in plan.probabilities]
    )
    spec = PowerSpec(alpha=plan.alpha, deltas=deltas, psi=psi, total_n=total)
    return power_multivariate(spec)


def _replicate_tuning(plan: SimulationPlan, seed_seq) -> object:
    tuning = plan.tuning
    if plan.density_method == "ls":
        if tuning is None:
            tuning = LsConfig(sigma_eps=DEFAULT_SIM_SIGMA_EPS)
        # same child seed for both arms: the perturbation draws act as
        # common random numbers, keeping the result arm-order symmetric
        return dataclasses.replace(tuning, seed=seed_seq)
    return tuning


def _run_replicate(plan: SimulationPlan, rep: int):
    """One replicate: (p_value or nan, reject/accept/failure, seconds)."""
    started = time.perf_counter()
    seed_root = np.random.SeedSequence(entropy=plan.master_seed, spawn_key=(rep,))
    rng = np.random.default_rng(seed_root)
    data = sample_trial(plan.scenario, plan.n_per_group, plan.n_per_group, rng)
    tuning = _replicate_tuning(plan, seed_root.spawn(1)[0])
    try:
        if len(plan.probabilities) == 1:
            result = univariate_test(
                data, plan.probabilities[0], plan.density_method, tuning
            )
        else:
            result = multivariate_test(
                data, plan.probabilities, plan.density_method, tuning
            )
    except _FAILURE_KINDS:
        return math.nan, np.int8(-1), time.perf_counter() - started
    outcome = np.int8(1) if result.p_value < plan.alpha else np.int8(0)
    return result.p_value, outcome, time.perf_counter() - started


def empirical_rejection(plan: SimulationPlan) -> RejectionReport:
    """Run the plan's replicates and summarize the rejection frequency."""
    started = time.perf_counter()
    reps = plan.replications
    p_values = np.full(reps, np.nan)
    outcomes = np.zeros(reps, dtype=np.int8)
    seconds = np.zeros(reps)
    for rep in range(reps):
        p_values[rep], outcomes[rep], seconds[rep] = _run_replicate(plan, rep)

    failures = int(np.count_nonzero(outcomes == -1))
    used = reps - failures
    flags = ()
    if failures > _MAX_FAILURE_FRACTION * reps:
        flags = ("invalid: failure fraction above 5%",)
    if used == 0:
        rate, se = math.nan, math.nan
        flags += ("no usable replicates",)
    else:
        rate = float(np.count_nonzero(outcomes == 1)) / used
        se = math.sqrt(rate * (1.0 - rate) / used)
    return RejectionReport(
        rate=rate,
        mc_se=se,
        formula_power=_formula_power(plan),
        n_failures=failures,
        n_used=used,
        replications=reps,
        alpha=plan.alpha,
        p_values=p_values,
        wall_time_s=time.perf_counter() - started,
        rep_time_mean_s=float(seconds.mean()),
        rep_time_sd_s=float(seconds.std(ddof=1)) if reps > 1 else 0.0,
        flags=flags,
    )
