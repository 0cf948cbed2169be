"""Kaplan-Meier estimation, survival quantiles, and the variance factor.

Everything downstream (tests, power, simulation) is built on three pieces
estimated here from right-censored samples:

* the product-limit estimate of the event distribution,
* its quantiles F^{-1}(p) = inf{t : F(t) >= p},
* the cumulative variance factor phi(t) = integral of dLambda/H up to t,
  estimated as n times the Greenwood sum  sum_j d_j / (Y_j (Y_j - d_j)).

One tie-aware product-limit kernel (_sorted_observations, _step_sizes,
_product_limit) serves fit_kaplan_meier, fit_censoring_km and the
simulation engine, whose steps equal the fit's bit for bit.
_censoring_before runs it on the censoring side for whole blocks, for the
weights of the kernel density estimate. _quantiles holds the quantile rule,
for a fit's steps and for the engine's full rows alike.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateTailError, UnreachableQuantileError, ValidationError,
                     _check_probabilities)

# Cumulative products of step factors round: 0.75 * (2/3) is
# 0.49999999999999994, yet the median of an uncensored {1,2,3,4} must be 2.
# KM jumps are at least 1/n, so this slack can never skip a real step.
_CDF_ATOL = 1e-9


@dataclass(frozen=True)
class SurvivalSample:
    """One arm of right-censored observations.

    times holds the observed times min(event, censoring); events holds True
    where the event was observed and False where the observation was
    censored.
    """

    times: np.ndarray
    events: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        events = np.asarray(self.events, dtype=bool)
        if times.ndim != 1 or events.ndim != 1:
            raise ValidationError("times and events must be one-dimensional")
        if times.size != events.size:
            raise ValidationError("times and events must have equal length")
        if times.size == 0:
            raise ValidationError("empty sample")
        if not np.all(np.isfinite(times)) or np.any(times < 0):
            raise ValidationError("times must be finite and non-negative")
        # + 0.0 turns -0.0 into 0.0, as the sort keys of the fits do
        object.__setattr__(self, "times", times + 0.0)
        object.__setattr__(self, "events", events)

    @property
    def n(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True)
class TwoArmData:
    """Both arms of a two-sample problem plus their allocation fractions."""

    arm1: SurvivalSample
    arm2: SurvivalSample

    @property
    def n1(self) -> int:
        return self.arm1.n

    @property
    def n2(self) -> int:
        return self.arm2.n

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def mu1_hat(self) -> float:
        return self.n1 / self.n

    @property
    def mu2_hat(self) -> float:
        return self.n2 / self.n


@dataclass(frozen=True)
class KaplanMeierFit:
    """Product-limit fit over the distinct times carrying at least one event.

    survival[j] is the estimate just after event_times[j]; the curve is 1
    before the first event time. greenwood_cumsum[j] is the running sum of
    d/(Y(Y-d)) through step j, with +inf from the first step where Y == d
    onward kept as a sentinel for an exploding variance.
    """

    event_times: np.ndarray
    at_risk: np.ndarray
    n_events: np.ndarray
    survival: np.ndarray
    greenwood_cumsum: np.ndarray
    n: int

    def survival_at(self, t):
        """Right-continuous step evaluation of the survival estimate."""
        idx = np.searchsorted(self.event_times, t, side="right")
        padded = np.concatenate(([1.0], self.survival))
        return padded[idx]

    def survival_before(self, t):
        """Left limit S(t-): steps strictly before t count."""
        idx = np.searchsorted(self.event_times, t, side="left")
        padded = np.concatenate(([1.0], self.survival))
        return padded[idx]

    def cdf_at(self, t):
        return 1.0 - self.survival_at(t)

    @property
    def max_cdf(self) -> float:
        if self.survival.size == 0:
            return 0.0
        return float(1.0 - self.survival[-1])


@dataclass(frozen=True)
class QuantileEstimate:
    """Estimated F^{-1}(p); reachable is False when F never attains p."""

    p: float
    time: float
    reachable: bool


def _sorted_observations(times: np.ndarray, events: np.ndarray):
    """Times sorted along the last axis with their event flags, censorings
    first at a tied time. The bits of a time >= 0 order like the time, and
    shifted up one bit they carry the flag in the low bit, so one integer
    sort orders both."""
    keys = np.sort((times.view(np.uint64) << np.uint64(1)) | events, axis=-1)
    return (keys >> np.uint64(1)).view(float), (keys & np.uint64(1)).astype(bool)


def _step_sizes(steps: np.ndarray, counted: np.ndarray, censoring: bool = False):
    """(d, y) of the event fit, or with censoring of the censoring fit, at
    every observation of sorted (..., n) blocks; counted flags what the fit
    counts (events, or censorings). At the last observation of each
    distinct time u, d counts the counted observations at u and y is the
    risk set, those with T >= u less, for the censoring fit, the events at
    u, which happen first. Elsewhere d = 0 and y > 0, which makes the
    product-limit factor there exactly 1.0 and the Greenwood term exactly
    0.0. A block without a tie skips the bookkeeping; in a block with one,
    an untied row's every observation ends its own time, so its d and y
    are what they would be without it."""
    rows = steps.reshape(-1, steps.shape[-1])
    n = rows.shape[1]
    d = counted.reshape(rows.shape).astype(float)
    y = np.broadcast_to(np.arange(n, 0, -1, dtype=float), rows.shape)
    if (rows[:, 1:] == rows[:, :-1]).any():
        # the last observation of each time; the last of a row ends a time,
        # so no time runs on into the next row of the flattened block
        last = np.empty(rows.shape, dtype=bool)
        last[:, -1] = True
        np.not_equal(rows[:, 1:], rows[:, :-1], out=last[:, :-1])
        ends = np.flatnonzero(last)
        starts = np.concatenate(([0], ends[:-1] + 1))
        counts = np.add.reduceat(d.ravel(), starts)
        at_risk = n - starts % n
        if censoring:
            at_risk = at_risk - np.where(counts > 0, ends + 1 - starts - counts, 0)
        d = np.zeros(rows.shape)
        d.flat[ends] = counts
        y = y.copy()
        y.flat[ends] = at_risk
    return d.reshape(steps.shape), y.reshape(steps.shape)


def _product_limit(d: np.ndarray, y: np.ndarray):
    """Survival cumprod(1 - d/y) and Greenwood sums cumsum(d/(y(y-d))) along
    the last axis, inf from the first y == d on. Both accumulate in order,
    so an entry with d = 0 repeats the one before it exactly."""
    survival = np.cumprod(1.0 - d / y, axis=-1)
    # y >= max(d, 1), so the product is 0 only where y == d > 0, where d / 0
    # gives the inf sentinel
    with np.errstate(divide="ignore"):
        terms = d / (y * (y - d))
    return survival, np.cumsum(terms, axis=-1)


def _censoring_before(steps: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """S_cens(u-) of each row's censoring fit at every observation u of
    sorted (..., n) blocks, equal bit for bit to
    fit_censoring_km(row).survival_before(u). The censoring steps come with
    a factor of exactly 1.0 between them, so the product before an
    observation is the product of the steps strictly before its time, tied
    observations included: inside a tie the factors are 1.0 too."""
    survival, _ = _product_limit(*_step_sizes(steps, ~flags, censoring=True))
    return np.concatenate((np.ones(steps.shape[:-1] + (1,)), survival[..., :-1]), axis=-1)


def _fit(sample: SurvivalSample, censoring: bool) -> KaplanMeierFit:
    steps, flags = _sorted_observations(sample.times, sample.events)
    d, y = _step_sizes(steps, ~flags if censoring else flags, censoring)
    at = d > 0
    d, y = d[at], y[at]
    survival, greenwood = _product_limit(d, y)
    return KaplanMeierFit(event_times=steps[at], at_risk=y, n_events=d,
                          survival=survival, greenwood_cumsum=greenwood, n=sample.n)


def fit_kaplan_meier(sample: SurvivalSample) -> KaplanMeierFit:
    """Product-limit estimate of the event distribution.

    Ties between events and censorings at the same observed time follow the
    usual convention that events happen first, so a censored subject at time
    u is still in the risk set of the events at u.
    """
    return _fit(sample, censoring=False)


def fit_censoring_km(sample: SurvivalSample) -> KaplanMeierFit:
    """Product-limit estimate of the censoring distribution.

    Same algorithm with the indicators flipped. Because events precede
    censorings at tied times, the events at a time u are removed from the
    risk set before the censorings at u are counted.
    """
    return _fit(sample, censoring=True)


def _quantiles(steps, d, survival, greenwood, probabilities):
    """The first step with events (d > 0) where the CDF 1 - survival reaches
    p, on each row of (..., m) step curves and at every p at once: its time,
    Greenwood sum and whether p is reached, each (..., J), nan if not."""
    if steps.shape[-1] == 0:
        shape = steps.shape[:-1] + (len(probabilities),)
        return np.full(shape, np.nan), np.full(shape, np.nan), np.zeros(shape, dtype=bool)
    found = 1.0 - survival[..., None, :] >= np.asarray(probabilities)[:, None] - _CDF_ATOL
    found &= d[..., None, :] > 0
    idx = found.argmax(axis=-1)
    reached = found.any(axis=-1)
    # one flat index serves both gathers
    idx += np.arange(0, steps.size, steps.shape[-1]).reshape(steps.shape[:-1] + (1,))
    time, sums = (np.where(reached, a.take(idx), np.nan) for a in (steps, greenwood))
    return time, sums, reached


def _fit_quantiles(fit: KaplanMeierFit, probabilities, arm=None):
    """The fit's quantile times and Greenwood sums; raises ValidationError for
    p outside (0, 1), UnreachableQuantileError (naming the arm) if unreached."""
    _check_probabilities(probabilities)
    times, sums, reached = _quantiles(fit.event_times, fit.n_events, fit.survival,
                                      fit.greenwood_cumsum, probabilities)
    for p, ok in zip(probabilities, reached):
        if not ok:
            raise UnreachableQuantileError(p=p, max_probability=fit.max_cdf, arm=arm)
    return times, sums


def _phis(n: int, sums):
    """n times the Greenwood sums; raises DegenerateTailError if one is inf."""
    if not np.all(np.isfinite(sums)):
        raise DegenerateTailError(
            "variance factor is infinite: the risk set is exhausted by "
            "events at or before the requested time"
        )
    return n * sums


def quantile_at(fit: KaplanMeierFit, p: float) -> QuantileEstimate:
    """Smallest event time where the estimated CDF reaches p."""
    _check_probabilities([p])
    time, _, reached = _quantiles(fit.event_times, fit.n_events, fit.survival,
                                  fit.greenwood_cumsum, [p])
    return QuantileEstimate(p=p, time=float(time[0]), reachable=bool(reached[0]))


def phi_hat(fit: KaplanMeierFit, t: float) -> float:
    """Variance factor estimate n * sum_{t_j <= t} d_j / (Y_j (Y_j - d_j)).

    (1-p)^2 * phi_hat / n is exactly the Greenwood variance of the CDF
    estimate at the quantile, which is what puts this factor inside the
    variance of the estimated quantile difference.
    """
    # nan fails the comparison, as no event lies at or before it
    if fit.event_times.size == 0 or not t >= fit.event_times[0]:
        raise ValidationError(
            f"phi_hat requires at least one event at or before time t, got {float(t)!r}")
    idx = int(np.searchsorted(fit.event_times, t, side="right")) - 1
    return float(_phis(fit.n, fit.greenwood_cumsum[idx]))
