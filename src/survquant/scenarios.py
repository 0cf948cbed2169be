"""Parametric trial scenarios with closed-form planning quantities.

Two event-time families are supported per arm: exponential(rate) and a
two-piece exponential with hazard rate_early on [0, t_cut) and rate_late
afterwards. Censoring is exponential and shared by both arms. For these
families the quantile, the density at the quantile, and the variance
building block

    phi(t) = integral_0^t dLambda(s) / (S(s) S_c(s))
           = integral_0^t hazard(s) / (S(s) S_c(s)) ds

all have closed forms, so the asymptotic variance of the quantile
difference, and hence power and sample size, can be evaluated without
simulation: scenario_sigma2 and scenario_psi feed the true quantiles,
densities and phi values into the same arm kernel, power.upsilon, that the
data-driven tests feed with estimates.

Proportional-hazards planning ("scenario 1") solves for a constant
comparator rate shifting the p-quantile by delta; the delayed-effect
variant ("scenario 2") keeps the control hazard until t_cut and solves for
the late rate that produces the same quantile shift.

_plan_design and _planned_power are the one planning route of power,
samplesize and simulate, at one quantile (sigma) and jointly (Psi).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (InfeasibleDeltaError, ValidationError, _check_finite, _check_non_negative,
                     _check_open_unit, _check_positive, _probabilities)
from .power import PowerSpec, power_multivariate, power_univariate, upsilon


def exp_quantile(rate: float, p: float) -> float:
    """p-quantile of the exponential distribution, -log(1-p)/rate."""
    return ExponentialArm(rate).quantile(p)


@dataclass(frozen=True)
class ExponentialArm:
    rate: float

    def __post_init__(self):
        _check_positive("rate", self.rate, finite=True)

    def quantile(self, p: float) -> float:
        _check_open_unit("p", p)
        return -math.log1p(-p) / self.rate

    def survival(self, t: float) -> float:
        return math.exp(-self.rate * t)

    def hazard(self, t: float) -> float:
        return self.rate

    def density(self, t: float) -> float:
        return self.rate * math.exp(-self.rate * t)

    def phi(self, t: float, censoring_rate: float) -> float:
        """phi(t) for an exponential event arm under exponential censoring.

        The integrand rate / (e^{-rate s} e^{-c s}) integrates to
        rate/(rate+c) * (e^{(rate+c) t} - 1). Saturates to inf once the
        exponential overflows, (rate + c) t above about 709.8, which is the
        honest limit for quantiles far out in a heavily censored tail. The inf
        is not an error: it passes through upsilon into an infinite variance.
        For one quantile the noncentrality is then 0 and the power is alpha at
        every n. For example lambda_a = 0.1, delta = 0.5, p = 0.95 and
        lambda_cens = 50 put the control quantile at t = 30, where
        (rate + c) t = 1,503, and the `power` command prints 0.05 and exits 0.
        A joint plan with such a quantile has an inf entry in psi, and its
        power formula raises SingularCovarianceError, which says so. t = inf
        is the same limit. A censoring_rate that is not finite and
        non-negative, and a nan or negative t raise ValidationError.
        """
        _check_non_negative("censoring_rate", censoring_rate, finite=True)
        _check_non_negative("t", t)
        return self._phi(self.rate, censoring_rate, t)

    @staticmethod
    def _phi(rate: float, censoring_rate: float, t: float) -> float:  # arguments checked
        total = rate + censoring_rate
        try:
            return rate / total * math.expm1(total * t)
        except OverflowError:
            return math.inf

    def censored_fraction(self, censoring_rate: float) -> float:
        return censoring_rate / (self.rate + censoring_rate)

    def inverse_cdf(self, x):
        """Map standard-exponential draws x = -log(1-U) to event times."""
        return np.asarray(x, dtype=float) / self.rate


@dataclass(frozen=True)
class PiecewiseExponentialArm:
    """Two-piece exponential hazard: rate_early before t_cut, rate_late after.

    At exactly t_cut the late piece applies (the hazard is taken right
    continuous); density(t_cut) therefore uses rate_late.
    """

    rate_early: float
    rate_late: float
    t_cut: float

    def __post_init__(self):
        _check_positive("rate_early", self.rate_early, finite=True)
        _check_positive("rate_late", self.rate_late, finite=True)
        _check_positive("t_cut", self.t_cut, finite=True)

    def cumulative_hazard(self, t: float) -> float:
        if t <= self.t_cut:
            return self.rate_early * t
        return self.rate_early * self.t_cut + self.rate_late * (t - self.t_cut)

    def survival(self, t: float) -> float:
        return math.exp(-self.cumulative_hazard(t))

    def hazard(self, t: float) -> float:
        return self.rate_early if t < self.t_cut else self.rate_late

    def density(self, t: float) -> float:
        return self.hazard(t) * self.survival(t)

    def quantile(self, p: float) -> float:
        """The cumulative hazard is rate_early * t below the cut, rate_late past it."""
        _check_open_unit("p", p)
        target = -math.log1p(-p)
        knee = self.rate_early * self.t_cut
        # one rate is one exponential, whose quantile ExponentialArm rounds this way
        if target < knee or self.rate_late == self.rate_early:
            return target / self.rate_early
        return self.t_cut + (target - knee) / self.rate_late

    def phi(self, t: float, censoring_rate: float) -> float:
        """ExponentialArm's phi of the early piece, plus the late piece past t_cut."""
        _check_non_negative("censoring_rate", censoring_rate, finite=True)
        _check_non_negative("t", t)
        early = ExponentialArm._phi(self.rate_early, censoring_rate, min(t, self.t_cut))
        if t <= self.t_cut:
            return early
        try:
            b = self.rate_late + censoring_rate
            # on (t_cut, t] the inverse of S(s) S_c(s) carries the accumulated
            # early-piece hazard as the constant factor e^{(rate_early-rate_late) t_cut}
            late = (
                self.rate_late / b
                * math.exp((self.rate_early - self.rate_late) * self.t_cut)
                * (math.exp(b * t) - math.exp(b * self.t_cut))
            )
        except OverflowError:
            return math.inf
        return early + late

    def censored_fraction(self, censoring_rate: float) -> float:
        a = self.rate_early + censoring_rate
        b = self.rate_late + censoring_rate
        early = censoring_rate / a * -math.expm1(-a * self.t_cut)
        late = censoring_rate / b * math.exp(-a * self.t_cut)
        return early + late

    def inverse_cdf(self, x):
        """Map standard-exponential draws to event times of this hazard."""
        x = np.asarray(x, dtype=float)
        knee = self.rate_early * self.t_cut
        return np.where(
            x < knee,
            x / self.rate_early,
            self.t_cut + (x - knee) / self.rate_late,
        )


def piecewise_quantile(rate_early: float, rate_late: float, t_cut: float,
                       p: float) -> float:
    """p-quantile of the two-piece exponential; see PiecewiseExponentialArm.quantile."""
    return PiecewiseExponentialArm(rate_early, rate_late, t_cut).quantile(p)


def phi_exponential(rate: float, censoring_rate: float, t: float) -> float:
    """phi(t) of an exponential arm; see ExponentialArm.phi."""
    return ExponentialArm(rate).phi(t, censoring_rate)


def phi_piecewise(rate_early: float, rate_late: float, t_cut: float,
                  censoring_rate: float, t: float) -> float:
    """phi(t) of a two-piece exponential arm; see PiecewiseExponentialArm.phi."""
    return PiecewiseExponentialArm(rate_early, rate_late, t_cut).phi(t, censoring_rate)


def _rate_from_delta_scn1(rate_control: float, p: float, delta: float) -> float:
    """Comparator exponential rate whose p-quantile is shifted by delta."""
    shifted = exp_quantile(rate_control, p) - delta
    if shifted <= 0:
        raise InfeasibleDeltaError(
            f"delta={delta:g} pushes the comparator p-quantile to {shifted:g}; "
            "it must stay positive"
        )
    if delta == 0:
        return rate_control  # exactly, where the solve below rounds
    return -math.log1p(-p) / shifted


def _rate_from_delta_scn2(rate_control: float, p: float, delta: float,
                          t_cut: float) -> float:
    """Late rate of a two-piece comparator matching the quantile shift.

    The comparator keeps the control hazard on [0, t_cut), so the shifted
    quantile must land strictly past the cut for a positive late rate to
    exist.
    """
    _check_positive("t_cut", t_cut, finite=True)
    shifted = exp_quantile(rate_control, p) - delta
    if shifted <= t_cut:
        raise InfeasibleDeltaError(
            f"delta={delta:g} needs the comparator p-quantile at {shifted:g}, "
            f"which does not lie past the hazard change point t_cut={t_cut:g}"
        )
    if delta == 0:
        return rate_control  # exactly, where the solve below rounds
    return (-math.log1p(-p) - rate_control * t_cut) / (shifted - t_cut)


@dataclass(frozen=True)
class TrialScenario:
    """Two arms plus shared exponential censoring and the arm-1 fraction."""

    arm1: object
    arm2: object
    censoring_rate: float = 0.0
    mu1: float = 0.5

    def __post_init__(self):
        _check_non_negative("censoring_rate", self.censoring_rate, finite=True)
        _check_open_unit("mu1", self.mu1)

    @property
    def mu2(self) -> float:
        return 1.0 - self.mu1

    def quantile_difference(self, p: float) -> float:
        return self.arm1.quantile(p) - self.arm2.quantile(p)

    def censoring_fraction(self):
        """Expected censored fraction (arm1, arm2)."""
        return (
            self.arm1.censored_fraction(self.censoring_rate),
            self.arm2.censored_fraction(self.censoring_rate),
        )


def _two_arms(rate_control, comparator_rate, t_cut, censoring_rate, mu1) -> TrialScenario:
    """Exponential control; the comparator takes over after t_cut, if any."""
    arm1 = ExponentialArm(rate_control)
    if t_cut is None:
        arm2 = ExponentialArm(comparator_rate)
    else:
        arm2 = PiecewiseExponentialArm(rate_control, comparator_rate, t_cut)
    return TrialScenario(arm1, arm2, censoring_rate=censoring_rate, mu1=mu1)


def scenario_from_delta(
    rate_control: float,
    p: float,
    delta: float,
    t_cut=None,
    censoring_rate: float = 0.0,
    mu1: float = 0.5,
) -> TrialScenario:
    """Build the planning scenario for a target quantile shift delta.

    t_cut=None gives the proportional-hazards comparator, otherwise the
    delayed-effect comparator whose hazard equals the control's until t_cut.
    """
    _check_finite("delta", delta)
    if t_cut is None:
        rate = _rate_from_delta_scn1(rate_control, p, delta)
    else:
        rate = _rate_from_delta_scn2(rate_control, p, delta, t_cut)
    return _two_arms(rate_control, rate, t_cut, censoring_rate, mu1)


def _psi_with_pieces(scenario: TrialScenario, probabilities):
    """Psi and, per arm, the quantiles, the densities there and phi there:
    both arms' pieces first, then arm 1's upsilon plus arm 2's."""
    pieces = []
    for arm in (scenario.arm1, scenario.arm2):
        times = [arm.quantile(p) for p in probabilities]
        pieces.append((times, [arm.density(t) for t in times],
                       [arm.phi(t, scenario.censoring_rate) for t in times]))
    (t1, f1, phi1), (t2, f2, phi2) = pieces
    psi = (upsilon(probabilities, t1, phi1, f1, scenario.mu1)
           + upsilon(probabilities, t2, phi2, f2, scenario.mu2))
    return psi, pieces


def scenario_sigma2(scenario: TrialScenario, p: float):
    """Asymptotic variance of the scaled quantile difference, plus pieces.

    sigma2 is the J=1 entry of scenario_psi(scenario, [p]). Returns
    (sigma2, diagnostics) where diagnostics carries the per-arm quantiles,
    densities, and phi values that make up the sum.
    """
    psi, ((t1, f1, phi1), (t2, f2, phi2)) = _psi_with_pieces(scenario, [p])
    diag = {"p": p, "quantile1": t1[0], "quantile2": t2[0], "density1": f1[0],
            "density2": f2[0], "phi1": phi1[0], "phi2": phi2[0]}
    return float(psi[0, 0]), diag


def scenario_psi(scenario: TrialScenario, probabilities) -> np.ndarray:
    """Covariance matrix of the scaled quantile-difference vector."""
    return _psi_with_pieces(scenario, _probabilities(probabilities))[0]


def calibrate_censoring(arm, target_fraction: float) -> float:
    """Censoring rate giving the requested expected censored fraction.

    Monotone bisection on censored_fraction(rate); the bracket is grown
    geometrically first. Stops when the bracket width drops under
    1e-8 * max(1, hi).
    """
    _check_open_unit("target censored fraction", target_fraction)
    lo, hi = 0.0, 1.0
    while arm.censored_fraction(hi) < target_fraction:
        hi *= 2.0
        if hi > 1e12:
            raise ValidationError("no finite censoring rate reaches the target")
    while hi - lo > 1e-8 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if arm.censored_fraction(mid) < target_fraction:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed scenario description from flat key=value text.

    Recognized keys: lambda_a (control rate, required), exactly one of
    lambda_b / delta (comparator rate or quantile shift), optional t_cut
    (presence selects the delayed-effect comparator), at most one of
    lambda_cens / target_censoring, exactly one of p / p_list, optional
    mu1 (default 0.5).
    """

    lambda_a: float = None
    lambda_b: float = None
    delta: float = None
    t_cut: float = None
    lambda_cens: float = None
    target_censoring: float = None
    p: float = None
    p_list: tuple = None
    mu1: float = 0.5

    def __post_init__(self):
        if self.lambda_a is None:
            raise ValidationError("scenario config is missing lambda_a")
        _check_positive("lambda_a", self.lambda_a, finite=True)
        if self.lambda_b is not None:
            _check_positive("lambda_b", self.lambda_b, finite=True)
        if (self.lambda_b is None) == (self.delta is None):
            raise ValidationError("give exactly one of lambda_b or delta")
        if self.lambda_cens is not None and self.target_censoring is not None:
            raise ValidationError(
                "give at most one of lambda_cens or target_censoring"
            )
        if (self.p is None) == (self.p_list is None):
            raise ValidationError("give exactly one of p or p_list")
        if self.p is not None:
            _check_open_unit("p", self.p)
        else:
            object.__setattr__(self, "p_list", _probabilities(self.p_list))

    @property
    def probabilities(self) -> tuple:
        if self.p is not None:
            return (self.p,)
        return self.p_list


_LIST_KEYS = {"p_list"}
_SCALAR_KEYS = {field.name for field in fields(ScenarioConfig)} - _LIST_KEYS


def _parse_scenario_values(text: str) -> dict:
    """Parse key=value lines ('#' comments and blank lines skipped).

    Returns the raw key/value mapping without cross-field validation, so a
    caller can overlay command-line choices before building the config.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(
                f"scenario config line {lineno}: expected key=value, got {raw!r}"
            )
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key in values:
            raise ValidationError(f"scenario config line {lineno}: duplicate key {key}")
        if key in _SCALAR_KEYS:
            try:
                values[key] = float(rhs)
            except ValueError:
                raise ValidationError(
                    f"scenario config line {lineno}: {key} needs a number, got {rhs!r}"
                ) from None
        elif key in _LIST_KEYS:
            try:
                values[key] = tuple(float(tok) for tok in rhs.split(",") if tok.strip())
            except ValueError:
                raise ValidationError(
                    f"scenario config line {lineno}: {key} needs comma-separated "
                    f"numbers, got {rhs!r}"
                ) from None
        else:
            raise ValidationError(
                f"scenario config line {lineno}: unknown key {key!r}"
            )
    return values


def resolve_scenario(config: ScenarioConfig) -> TrialScenario:
    """Turn a parsed config into a concrete TrialScenario.

    delta-form configs use the first probability as the planning quantile;
    target_censoring is calibrated on the control arm by bisection.
    """
    if config.target_censoring is not None:
        censoring_rate = calibrate_censoring(ExponentialArm(config.lambda_a),
                                             config.target_censoring)
    else:
        censoring_rate = 0.0 if config.lambda_cens is None else config.lambda_cens
        _check_non_negative("lambda_cens", censoring_rate, finite=True)
    if config.delta is not None:
        return scenario_from_delta(
            config.lambda_a, config.probabilities[0], config.delta,
            t_cut=config.t_cut, censoring_rate=censoring_rate, mu1=config.mu1,
        )
    return _two_arms(config.lambda_a, config.lambda_b, config.t_cut, censoring_rate,
                     config.mu1)


@functools.lru_cache(maxsize=8, typed=True)
def _plan_design(scenario: TrialScenario, probabilities: tuple, delta=None) -> dict:
    """The keyword arguments of PowerSpec and min_sample_size: deltas and
    sigma at one probability, where the deltas are delta or else the
    scenario's quantile difference, and at several the scenario's
    differences and psi. The 8 latest designs are kept, shared: do not
    change them."""
    psi = scenario_psi(scenario, probabilities)
    if len(probabilities) == 1:
        if delta is None:
            delta = scenario.quantile_difference(probabilities[0])
        return {"deltas": delta, "sigma": math.sqrt(psi[0, 0])}
    psi.setflags(write=False)
    return {"deltas": tuple(scenario.quantile_difference(p) for p in probabilities), "psi": psi}


@functools.lru_cache(maxsize=8, typed=True)
def _planned_power(scenario: TrialScenario, probabilities: tuple, delta, per_group_n,
                   alpha) -> float:
    """The power of _plan_design's design at per_group_n per arm and level
    alpha, univariate with sigma and joint with psi. A study reruns a design
    under new seeds, so the 8 latest powers are kept; errors are not, so a
    design without a power formula raises on every call."""
    design = _plan_design(scenario, probabilities, delta)
    spec = PowerSpec(alpha=alpha, per_group_n=per_group_n, **design)
    return power_univariate(spec) if "sigma" in design else power_multivariate(spec)
