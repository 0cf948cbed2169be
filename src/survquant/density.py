"""Density estimation at a survival quantile under right censoring.

The variance of an estimated quantile divides by the squared density at that
quantile, so the tests need f(F^{-1}(p)) from censored data. Two estimators
are provided:

* a resampling least-squares slope of the estimated CDF through the
  quantile (probing F at F^{-1}(p) + eps/sqrt(n) with Gaussian eps),
* a censoring-corrected kernel density estimate with weights
  delta_i / S_cens(T_i-), bandwidth fixed or chosen by least-squares
  cross-validation.

The automatic spread selection for the resampling estimator implements a
plateau-stability heuristic. The selection rule used in the original
analyses is defined in a separate companion publication that is not part of
this package, so the heuristic here is an explicit stand-in; every result
records the tuning value actually used and sigma_eps can always be given
directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnreachableQuantileError, ValidationError
from .survival import (
    KaplanMeierFit,
    SurvivalSample,
    fit_censoring_km,
    fit_kaplan_meier,
    quantile_at,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Default bandwidth grid for CV selection (0.1 .. 1.0 in steps of 0.02, in
# the data's time unit), shared by the library and the CLI.
DEFAULT_CV_GRID = np.arange(0.1, 1.0 + 1e-12, 0.02)
DEFAULT_CV_GRID.setflags(write=False)


@dataclass(frozen=True)
class LsConfig:
    """Tuning for the least-squares resampling estimator."""

    sigma_eps: float
    n_draws: int = 1000
    seed: object = None  # anything numpy.random.default_rng accepts

    def __post_init__(self):
        if not self.sigma_eps > 0:
            raise ValidationError("sigma_eps must be positive")
        if int(self.n_draws) < 2:
            raise ValidationError("n_draws must be at least 2")


@dataclass(frozen=True)
class KdeConfig:
    """Tuning for the kernel estimator: a bandwidth or "select-by-cv"."""

    bandwidth: object = "select-by-cv"
    cv_grid: object = None

    def __post_init__(self):
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "select-by-cv":
                raise ValidationError(
                    f"bandwidth must be positive or 'select-by-cv', got {self.bandwidth!r}"
                )
            grid = _validated_grid(self.cv_grid, "cv_grid")
            object.__setattr__(self, "cv_grid", grid)
        elif not float(self.bandwidth) > 0:
            raise ValidationError("bandwidth must be positive")


def _validated_grid(grid, name):
    if grid is None:
        raise ValidationError(f"{name} is required when selecting by CV")
    arr = np.asarray(grid, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be a non-empty 1-d sequence")
    if not np.all(arr > 0):
        raise ValidationError(f"{name} values must be positive")
    if arr.size > 1 and not np.all(np.diff(arr) > 0):
        raise ValidationError(f"{name} must be strictly increasing")
    return arr


@dataclass(frozen=True)
class DensityAtQuantile:
    """A density value at an evaluation point, with its provenance.

    value is the raw estimate (the LS slope may come out non-positive on
    unlucky draws); callers that put it in a variance denominator use
    clamped(). flags record degeneracies such as a zero regression slope,
    dropped kernel terms or a CV bandwidth on the edge of its grid.
    """

    p: object
    quantile_time: float
    value: float
    method: str
    tuning: float
    flags: tuple = ()

    def clamped(self, floor: float = 1e-8) -> float:
        """The value as used in variance denominators: positive, floored."""
        return self.value if self.value > floor else floor


# --------------------------------------------------------------------- LS --


def _ls_slope(fit: KaplanMeierFit, p: float, t0: float, eps: np.ndarray):
    """No-intercept regression slope of y on eps.

    y_b = sqrt(n) (F(t0 + eps_b/sqrt(n)) - p), with F evaluated as 0 left
    of the origin since times are non-negative.
    """
    root_n = math.sqrt(fit.n)
    pts = t0 + eps / root_n
    cdf = np.where(pts < 0.0, 0.0, fit.cdf_at(np.maximum(pts, 0.0)))
    y = root_n * (cdf - p)
    numerator = float(eps @ y)
    denominator = float(eps @ eps)
    if numerator == 0.0:
        return 0.0, ("zero-slope",)
    return numerator / denominator, ()


def estimate_density_ls(
    sample: SurvivalSample, p: float, cfg: LsConfig
) -> DensityAtQuantile:
    """Least-squares density estimate at the estimated quantile F^{-1}(p)."""
    fit = fit_kaplan_meier(sample)
    return _ls_density_from_fit(fit, p, cfg)


def _ls_density_from_fit(fit: KaplanMeierFit, p: float, cfg: LsConfig):
    q = quantile_at(fit, p)
    if not q.reachable:
        raise UnreachableQuantileError(p=p, max_probability=fit.max_cdf)
    rng = np.random.default_rng(cfg.seed)
    eps = rng.normal(0.0, cfg.sigma_eps, int(cfg.n_draws))
    value, flags = _ls_slope(fit, p, q.time, eps)
    return DensityAtQuantile(
        p=p, quantile_time=q.time, value=value, method="ls",
        tuning=float(cfg.sigma_eps), flags=flags,
    )


@dataclass(frozen=True)
class SigmaSelection:
    """Selected sigma_eps plus the full profile of slopes, for audit."""

    sigma_eps: float
    grid: np.ndarray
    profile: np.ndarray
    flags: tuple = ()


def select_sigma_ls(
    sample: SurvivalSample, p: float, grid, n_draws: int = 1000, seed=None
) -> SigmaSelection:
    """Pick sigma_eps from a grid by plateau stability of the LS slope.

    The slope profile A(sigma) is computed with common random numbers
    (one standard normal draw scaled by each sigma). Windows of 5
    consecutive grid points are scored by the local total variation of the
    profile; the flattest window wins (leftmost on ties) and within it the
    sigma whose slope is closest to the window median is returned (smallest
    sigma on ties). Grids shorter than 5 fall back to the median grid value
    with a warning flag. This heuristic is a stand-in, see the module
    docstring.
    """
    arr = np.asarray(grid, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("sigma grid must be a non-empty 1-d sequence")
    if not np.all(arr > 0):
        raise ValidationError("sigma grid values must be positive")
    arr = np.sort(arr)

    fit = fit_kaplan_meier(sample)
    q = quantile_at(fit, p)
    if not q.reachable:
        raise UnreachableQuantileError(p=p, max_probability=fit.max_cdf)
    if int(n_draws) < 2:
        raise ValidationError("n_draws must be at least 2")
    rng = np.random.default_rng(seed)
    eps_std = rng.normal(0.0, 1.0, int(n_draws))

    profile = np.empty(arr.size)
    for i, sigma in enumerate(arr):
        profile[i], _ = _ls_slope(fit, p, q.time, sigma * eps_std)

    if arr.size < 5:
        # lower middle element so the fallback stays on the grid
        chosen = float(arr[(arr.size - 1) // 2])
        return SigmaSelection(
            sigma_eps=chosen, grid=arr, profile=profile, flags=("short-grid",)
        )

    window = 5
    n_windows = arr.size - window + 1
    variation = np.empty(n_windows)
    steps = np.abs(np.diff(profile))
    for i in range(n_windows):
        variation[i] = steps[i : i + window - 1].sum()
    start = int(np.argmin(variation))  # leftmost minimum
    block = profile[start : start + window]
    med = float(np.median(block))
    offset = int(np.argmin(np.abs(block - med)))  # leftmost = smallest sigma
    return SigmaSelection(
        sigma_eps=float(arr[start + offset]), grid=arr, profile=profile
    )


# -------------------------------------------------------------------- KDE --


def _event_weights(sample: SurvivalSample, cens_fit: KaplanMeierFit):
    """Event times and 1/S_cens(T-) weights; zero-weight events are dropped."""
    event_times = sample.times[sample.events]
    s_before = np.atleast_1d(cens_fit.survival_before(event_times))
    keep = s_before > 0.0
    n_dropped = int(np.sum(~keep))
    weights = 1.0 / s_before[keep]
    return event_times[keep], weights, n_dropped


class _KdeMachine:
    """Per-sample KDE state: resolved bandwidth, event weights and flags.

    Built once per arm so that CV bandwidth selection and the censoring fit
    are not repeated for every evaluation point.
    """

    def __init__(self, sample: SurvivalSample, cfg: KdeConfig):
        self.n = sample.n
        cens_fit = fit_censoring_km(sample)
        self.times, self.weights, n_dropped = _event_weights(sample, cens_fit)
        self.flags = ("truncated-weights",) if n_dropped else ()
        if isinstance(cfg.bandwidth, str):
            grid = cfg.cv_grid
            self.h = select_bandwidth_cv(
                sample, grid, events=(self.times, self.weights)
            )
            if grid.size >= 2 and self.h in (grid[0], grid[-1]):
                # the CV minimum may lie beyond the grid, as when the grid
                # does not fit the time unit of the data
                self.flags += ("cv-grid-edge",)
        else:
            self.h = float(cfg.bandwidth)

    def at(self, t: float, p=None) -> DensityAtQuantile:
        value = float(
            np.sum(self.weights * np.exp(-0.5 * ((self.times - t) / self.h) ** 2))
            / (self.n * self.h * _SQRT_2PI)
        )
        return DensityAtQuantile(
            p=p, quantile_time=float(t), value=value, method="kde",
            tuning=self.h, flags=self.flags,
        )


def estimate_density_kde(
    sample: SurvivalSample, t: float, cfg: KdeConfig, p=None
) -> DensityAtQuantile:
    """Censoring-corrected Gaussian kernel density estimate at time t.

    f_h(t) = (1/(n h)) sum_i delta_i / S_cens(T_i-) K((T_i - t)/h). The
    censoring survival is evaluated as a left limit so an event does not
    divide by its own censoring step. Events whose weight denominator is 0
    are dropped and flagged (a known truncation bias).
    """
    return _KdeMachine(sample, cfg).at(t, p=p)


# Event count above which the pair sums are binned. Measured crossover on a
# 2-vCPU Xeon (Python 3.11, numpy 2.4) with the CLI grid (46 bandwidths from
# 0.1), over 112 arms of 109 to 399 events drawn from the README's
# delayed-effect plan: the exact sums cost 0.11 us x m^2, the binned ones
# 3.3 ms per unit of event-time span (span 1.4 to 4.8, median 2.5), so the
# two meet at 230 to 276 events for the middle half of the spans.
_BINNING_THRESHOLD = 250

# Linear binning moves each event by a fraction of the node gap delta, which
# perturbs every pair sum by a relative c (delta/h)^2. Over 200 exponential
# samples (40 seeds x n in {300, 700, 1000, 1600, 3000}, the CLI grid) c was
# 0.020 in the median and 0.032 at worst; taking c = 0.04, the gap below keeps
# the relative error at the smallest bandwidth under _BINNED_RTOL (worst seen
# on those samples: 4.0e-8). Events so far apart that no kernel overlaps
# another reach c = 1/6 (2e-7), still well under the 1e-6 the criterion
# needs. An event-time span over _MAX_NODES gaps (about 2300 h_min) widens
# the gap, and the error grows with its square.
_BINNED_RTOL = 5e-8
_BINNED_GAP = math.sqrt(_BINNED_RTOL / 0.04)  # in units of h_min: about 1/894
_MAX_NODES = 1 << 21


def _pair_sums(times: np.ndarray, weights: np.ndarray, grid: np.ndarray):
    """Weighted Gaussian-kernel pair sums at scales h and h*sqrt(2).

    Returns (full_h, full_h2): for each grid bandwidth, the sum over ALL
    pairs (diagonal included) of w_i w_j exp(-d^2/(2 h^2)) and of
    w_i w_j exp(-d^2/(4 h^2)). Up to _BINNING_THRESHOLD events the sums are
    exact; above it they come from linear binning with a node gap of about
    h_min/894, whose relative error stays under _BINNED_RTOL = 5e-8 (see the
    error model above), far below the 1e-6 the criterion is quoted at. Both
    paths evaluate the kernels in the same loop, the exact one at every pair
    and the binned one at every node lag, so a span that needs more nodes
    than there are pairs (event times in days against a grid from 0.1) keeps
    the exact sums. times must be sorted ascending.
    """
    m = times.size
    if m > _BINNING_THRESHOLD and \
            _nodes_needed(float(times[-1] - times[0]), grid) < m * (m - 1) // 2:
        return _pair_sums_binned(times, weights, grid)
    return _pair_sums_exact(times, weights, grid)


def _nodes_needed(span: float, grid: np.ndarray) -> int:
    """Nodes that cover the span no further apart than _BINNED_GAP * h_min."""
    return min(_MAX_NODES, math.ceil(span / (_BINNED_GAP * float(grid[0]))) + 1)


def _kernel_sums(diagonal, pair_weights, dist_sq, grid):
    """diagonal + 2 sum(pair_weights * K(dist)) at scales h and h*sqrt(2).

    One buffer serves every bandwidth: the Gaussian at scale h*sqrt(2) is the
    square root of the one at h.
    """
    full_h = np.empty(grid.size)
    full_h2 = np.empty(grid.size)
    kernel = np.empty_like(dist_sq)
    for k, h in enumerate(grid):
        np.multiply(dist_sq, -0.5 / (h * h), out=kernel)
        np.exp(kernel, out=kernel)
        full_h[k] = diagonal + 2.0 * float(pair_weights @ kernel)
        np.sqrt(kernel, out=kernel)
        full_h2[k] = diagonal + 2.0 * float(pair_weights @ kernel)
    return full_h, full_h2


def _pair_sums_exact(times: np.ndarray, weights: np.ndarray, grid: np.ndarray):
    """Pair sums over the upper triangle, the diagonal added exactly."""
    i, j = np.triu_indices(times.size, 1)
    return _kernel_sums(
        float(weights @ weights), weights[i] * weights[j],
        (times[j] - times[i]) ** 2, grid,
    )


def _fft_length(n: int) -> int:
    """The smallest even 2^a 3^b 5^c >= n, a length numpy.fft handles fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            length = 2 * p35
            while length < n:
                length *= 2
            best = min(best, length)
            p35 *= 3
        p5 *= 5
    return best


def _pair_sums_binned(times: np.ndarray, weights: np.ndarray, grid: np.ndarray):
    """Pair sums through linear binning and one FFT autocorrelation.

    The weights are binned linearly onto equally spaced nodes no further
    apart than _BINNED_GAP * h_min. Zero-padding the nodes to exactly twice
    their count makes the circular autocorrelation the linear one on every
    lag; each bandwidth then costs one dot product with the kernel sampled
    at the lag distances. times must be sorted ascending.
    """
    span = float(times[-1] - times[0])
    if span <= 0.0:
        total = float(weights.sum()) ** 2
        return np.full(grid.size, total), np.full(grid.size, total)
    length = _fft_length(2 * _nodes_needed(span, grid))
    nodes = length // 2
    delta = span / (nodes - 1)
    position = (times - times[0]) / delta
    index = np.minimum(position.astype(np.int64), nodes - 2)
    frac = position - index
    counts = np.bincount(index, weights * (1.0 - frac), minlength=nodes)
    counts += np.bincount(index + 1, weights * frac, minlength=nodes)
    spectrum = np.fft.rfft(counts, length)
    acf = np.fft.irfft(spectrum.real ** 2 + spectrum.imag ** 2, length)[:nodes]
    lag_sq = (np.arange(1, nodes) * delta) ** 2
    return _kernel_sums(float(acf[0]), acf[1:], lag_sq, grid)


def _cv_criterion(full_h, full_h2, sum_w2: float, n: int, grid: np.ndarray):
    """The CV scores from the pair sums; sum_w2 is the exact diagonal."""
    scores = np.empty(grid.size)
    for k, h in enumerate(grid):
        # closed form of the integrated square: kernel at scale h*sqrt(2)
        integral_sq = full_h2[k] / (2.0 * h * math.sqrt(math.pi)) / (n * n)
        cross = (full_h[k] - sum_w2) / (h * _SQRT_2PI)  # off-diagonal only
        scores[k] = integral_sq - 2.0 * cross / (n * (n - 1))
    return scores


def _cv_scores(sample: SurvivalSample, grid: np.ndarray, events=None) -> np.ndarray:
    if events is None:
        times, weights, _ = _event_weights(sample, fit_censoring_km(sample))
    else:
        times, weights = events
    if times.size < 2:
        raise ValidationError("bandwidth selection needs at least 2 events")
    order = np.argsort(times)
    times = times[order]
    weights = weights[order]
    full_h, full_h2 = _pair_sums(times, weights, grid)
    return _cv_criterion(full_h, full_h2, float(weights @ weights), sample.n, grid)


def cv_score(sample: SurvivalSample, h: float) -> float:
    """The least-squares CV criterion at one bandwidth.

    integral of f_h^2 (computed in closed form through the Gaussian
    convolution identity) minus twice the weighted leave-out cross term.
    With no censoring all weights are 1 and this is the classical
    least-squares cross-validation criterion.
    """
    if not h > 0:
        raise ValidationError("bandwidth must be positive")
    return float(_cv_scores(sample, np.asarray([h], dtype=float))[0])


def select_bandwidth_cv(sample: SurvivalSample, grid, *, events=None) -> float:
    """Grid argmin of the least-squares CV criterion.

    events is the (times, weights) pair of the sample's censoring-weighted
    events, for a caller that has already fitted the censoring distribution.
    """
    arr = _validated_grid(grid, "cv_grid")
    scores = _cv_scores(sample, arr, events)
    return float(arr[int(np.argmin(scores))])
