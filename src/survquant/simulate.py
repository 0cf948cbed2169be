"""Monte Carlo harness: empirical rejection rates under a TrialScenario.

Determinism contract: replicate k draws everything it needs from
SeedSequence(master_seed, spawn_key=(k,)), so results depend only on the
master seed and the replicate index. Replicates run in blocks on the
calling thread: a block draws each replicate's data in turn, then fits,
probes and tests its rows together as arrays, through the serial test's
kernels (the product-limit fit, tied times included, survival._quantiles,
density._ls_slopes or density._KdeMachine) and its arithmetic in its
order, so every p-value equals the one univariate_test or
multivariate_test gives on sample_trial's data for that replicate.
SimulationPlan.threads is validated but does not change how they run, so
the report is the same for any thread count. A plan without a formula
power fails before any replicate runs.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .density import LsConfig, _check_tuning, _KdeMachine, _ls_draws, _ls_slopes
from .errors import (DEFAULT_SIM_SIGMA_EPS, SingularCovarianceError, TooFewEventsError,
                     ValidationError, _check_open_unit, _probabilities, _whole_count)
from .power import PowerSpec, power_multivariate, power_univariate
from .quantile_tests import (
    _default_tuning,
    _joint_statistic,
    _psi_hat,
    _univariate_statistic,
)
from .scenarios import TrialScenario, scenario_psi
from .survival import (
    SurvivalSample,
    TwoArmData,
    _censoring_before,
    _product_limit,
    _quantiles,
    _sorted_observations,
    _step_sizes,
)

_MAX_FAILURE_FRACTION = 0.05
# Draws per block of replicates (observed times of both arms plus LS
# perturbations), so a block's arrays stay near 128 KB each whatever n and
# the replication count. Larger blocks saved little more time on sim_ls and
# raised its peak memory.
_BLOCK_VALUES = 1 << 14


@dataclass(frozen=True)
class SimulationPlan:
    """Everything one empirical-rejection run depends on.

    tuning=None takes the plan's default, set once here:
    LsConfig(DEFAULT_SIM_SIGMA_EPS) for LS and the library's CV default
    for KDE. An LS config's seed is not used: each replicate seeds its
    perturbations from its own child seed, the same for both arms, so the
    draws act as common random numbers and the result is symmetric in the
    arms.
    """

    scenario: TrialScenario
    n_per_group: int
    probabilities: tuple
    replications: int
    alpha: float = 0.05
    density_method: str = "ls"
    tuning: object = None
    master_seed: int = 0
    # accepted for compatibility: replicates always run on the calling thread
    threads: int = 1

    def __post_init__(self):
        for name, least in (("n_per_group", 2), ("replications", 1), ("master_seed", 0),
                            ("threads", 1)):
            object.__setattr__(self, name, _whole_count(name, getattr(self, name), least))
        # a replicate's uniforms: an event and a censoring draw per subject and arm
        if 4 * self.n_per_group * np.dtype(float).itemsize > np.iinfo(np.intp).max:
            raise ValidationError(f"n_per_group={self.n_per_group} is too large: one "
                                  "replicate's draws would not fit in a numpy array")
        if self.scenario.mu1 != 0.5:
            raise ValidationError("simulation draws n_per_group subjects per arm and tests "
                                  "at equal allocation, so it needs mu1 = 0.5, got "
                                  f"{self.scenario.mu1:g}")
        _check_open_unit("alpha", self.alpha)
        _check_tuning(self.density_method, self.tuning)
        if self.tuning is None:
            object.__setattr__(self, "tuning", LsConfig(DEFAULT_SIM_SIGMA_EPS)
                               if self.density_method == "ls" else _default_tuning("kde"))
        object.__setattr__(self, "probabilities", _probabilities(self.probabilities))


@dataclass(frozen=True)
class RejectionReport:
    """Empirical rejection rate with its Monte Carlo uncertainty.

    n_failures counts replicates where the test could not be run at all
    (unreachable quantile, degenerate variance, singular covariance, too
    few events for a cross-validated bandwidth); they are excluded from the
    denominator n_used. p_values holds one entry per replicate, NaN for
    failed ones. Replicates run in blocks, so each is charged its block's
    wall time divided by the block's size: rep_time_mean_s is the mean of
    those shares and rep_time_sd_s their standard deviation (ddof=1), 0
    when all replicates share one block.
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
    n1, n2 = _whole_count("n1", n1, 1), _whole_count("n2", n2, 1)
    rng = np.random.default_rng(replicate_seed)

    def one_arm(arm, size):
        event_u = rng.random(size)
        censor_u = rng.random(size) if scenario.censoring_rate > 0 else None
        return SurvivalSample(*_observe(scenario, arm, event_u, censor_u))

    return TwoArmData(one_arm(scenario.arm1, n1), one_arm(scenario.arm2, n2))


def _observe(scenario: TrialScenario, arm, event_u, censor_u):
    """Observed times and event flags of one arm from its uniform draws, of
    any shape; censor_u is None when the scenario has no censoring."""
    # standard-exponential draws mapped through the arm's inverse CDF
    events = arm.inverse_cdf(-np.log1p(-event_u))
    if censor_u is None:
        censor = np.inf
    else:
        censor = -np.log1p(-censor_u) / scenario.censoring_rate
    return np.minimum(events, censor), events <= censor


def _formula_power(plan: SimulationPlan) -> float:
    """The power the planning formula gives the plan's design at its alpha:
    univariate at one probability, joint at several. It depends only on
    (scenario, probabilities, 2n, alpha), not on the seed, so studies that
    rerun a design under new seeds compute it once: the 8 latest designs
    are kept. Errors are not kept, so a design without a formula power
    raises on every call."""
    return _design_power(plan.scenario, plan.probabilities, 2 * plan.n_per_group, plan.alpha)


@functools.lru_cache(maxsize=8, typed=True)
def _design_power(scenario: TrialScenario, ps: tuple, total: int, alpha) -> float:
    deltas = [scenario.quantile_difference(p) for p in ps]
    psi = scenario_psi(scenario, ps)
    if len(ps) == 1:
        return power_univariate(PowerSpec(alpha=alpha, deltas=deltas[0],
                                          sigma=math.sqrt(psi[0, 0]), total_n=total))
    return power_multivariate(PowerSpec(alpha=alpha, deltas=deltas, psi=psi, total_n=total))


def _block_rows(plan: SimulationPlan) -> int:
    """Replicates per block: about _BLOCK_VALUES draws, at least one."""
    per_rep = 2 * plan.n_per_group
    if plan.density_method == "ls":
        per_rep += plan.tuning.n_draws
    return max(1, _BLOCK_VALUES // per_rep)


def _draw_block(plan: SimulationPlan, first: int, count: int):
    """Draws of replicates first .. first+count-1, as the serial test makes
    them.

    Returns observed times and event flags, each (count, 2, n) with arm 1
    first along axis 1, and the LS perturbation draws (count, n_draws),
    each row sorted as _ls_draws sorts it, or None for KDE. Replicate k
    takes its uniforms from SeedSequence(master_seed, spawn_key=(k,)) in
    sample_trial's order, so its rows equal sample_trial's arrays. Its
    perturbations come from that seed's first child, spawn_key=(k, 0), what
    seed.spawn(1) gives: the serial test re-seeds every (arm, p) from it,
    so one draw serves them all.
    """
    scenario, n = plan.scenario, plan.n_per_group
    censored = scenario.censoring_rate > 0
    uniforms = np.empty((count, 4 if censored else 2, n))
    ls = plan.tuning if plan.density_method == "ls" else None
    eps = np.empty((count, ls.n_draws)) if ls else None
    for r in range(count):
        rep = first + r
        seed = np.random.SeedSequence(plan.master_seed, spawn_key=(rep,))
        np.random.default_rng(seed).random(out=uniforms[r])
        if ls:
            child = np.random.SeedSequence(plan.master_seed, spawn_key=(rep, 0))
            eps[r] = _ls_draws(ls, child)
    # (replicate, arm, event or censoring draw, subject)
    uniforms = uniforms.reshape(count, 2, -1, n)
    arms = [
        _observe(scenario, arm, uniforms[:, a, 0], uniforms[:, a, 1] if censored else None)
        for a, arm in enumerate((scenario.arm1, scenario.arm2))
    ]
    times = np.stack([observed for observed, _ in arms], axis=1)
    events = np.stack([flags for _, flags in arms], axis=1)
    return times, events, eps


def _block_p_values(plan: SimulationPlan, times, events, eps):
    """p-values of the replicates of one block, in order; NaN marks a
    failure.

    The fits' product-limit kernel runs over the whole block, tied times
    included, so each step of a row equals fit_kaplan_meier's bit for bit;
    for KDE it runs on the censoring side as well, for the censoring
    weights of every row. Quantiles and Greenwood factors follow from the
    full rows, LS slopes from one call for the block on its sorted draws,
    KDE estimates from each arm's sorted row, and Psi_hat and the p-value
    from the tests' own arithmetic, every sum over the same sorted terms as
    in the serial test. A sample that SurvivalSample rejects raises once
    the rows before it have run, as in a serial loop.
    """
    count, _, n = times.shape
    valid = np.isfinite(times).all(axis=(1, 2)) & (times >= 0).all(axis=(1, 2))
    if not valid.all():
        stop = int(np.argmin(valid))
        if stop:
            _block_p_values(plan, times[:stop], events[:stop],
                            None if eps is None else eps[:stop])
        for a in (0, 1):  # raises the sample's ValidationError
            SurvivalSample(times[stop, a], events[stop, a])

    steps, flags = _sorted_observations(times, events)
    d, y = _step_sizes(steps, flags)
    survival, greenwood = _product_limit(d, y)

    ps = plan.probabilities
    quantiles, sums, reached = _quantiles(steps, d, survival, greenwood, ps)
    phis = n * sums
    estimable = (reached & np.isfinite(sums)).all(axis=(1, 2))

    if plan.density_method == "ls":
        rows = np.flatnonzero(estimable)
        slopes = np.empty(quantiles.shape)
        slopes[rows], _ = _ls_slopes(steps[rows], survival[rows], n, ps, quantiles[rows],
                                     eps[rows][:, None, None, :])
    else:
        before = _censoring_before(steps, flags)

    out = np.full(count, np.nan)
    for r in np.flatnonzero(estimable):
        arm_times = quantiles[r].tolist()
        try:
            if plan.density_method == "ls":
                values = slopes[r].tolist()
            else:
                machines = [_KdeMachine(steps[r, a], flags[r, a], before[r, a], plan.tuning)
                            for a in (0, 1)]
                values = [m.values(ts) for m, ts in zip(machines, arm_times)]
            # equal arms: each allocation fraction is n / 2n = 0.5
            _, psi, deltas = _psi_hat(ps, arm_times, phis[r].tolist(), values, (0.5, 0.5))
            if len(ps) == 1:
                out[r] = _univariate_statistic(2 * n, float(deltas[0]), psi[0, 0])[2]
            else:
                out[r] = _joint_statistic(2 * n, deltas, psi, ps)[1]
        except (TooFewEventsError, SingularCovarianceError):
            pass
    return out


def empirical_rejection(plan: SimulationPlan) -> RejectionReport:
    """Run the plan's replicates and summarize the rejection frequency."""
    started = time.perf_counter()
    # before any replicate: a plan without a formula power fails at once
    formula_power = _formula_power(plan)
    reps = plan.replications
    p_values = np.empty(reps)
    shares = np.empty(reps)
    rows = _block_rows(plan)
    for first in range(0, reps, rows):
        block_started = time.perf_counter()
        count = min(rows, reps - first)
        block = _draw_block(plan, first, count)
        p_values[first:first + count] = _block_p_values(plan, *block)
        shares[first:first + count] = (time.perf_counter() - block_started) / count

    failures = int(np.count_nonzero(np.isnan(p_values)))
    used = reps - failures
    flags = ()
    if failures > _MAX_FAILURE_FRACTION * reps:
        flags = ("invalid: failure fraction above 5%",)
    if used == 0:
        rate, se = math.nan, math.nan
        flags += ("no usable replicates",)
    else:
        rate = float(np.count_nonzero(p_values < plan.alpha)) / used
        se = math.sqrt(rate * (1.0 - rate) / used)
    return RejectionReport(
        rate=rate,
        mc_se=se,
        formula_power=formula_power,
        n_failures=failures,
        n_used=used,
        replications=reps,
        alpha=plan.alpha,
        p_values=p_values,
        wall_time_s=time.perf_counter() - started,
        rep_time_mean_s=float(shares.mean()),
        rep_time_sd_s=float(shares.std(ddof=1)) if reps > rows else 0.0,
        flags=flags,
    )
