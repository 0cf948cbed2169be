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

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (TooFewEventsError, ValidationError, _check_finite, _check_positive,
                     _whole_count)
from .survival import (
    KaplanMeierFit,
    SurvivalSample,
    _censoring_before,
    _fit_quantiles,
    _sorted_observations,
    fit_kaplan_meier,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_TINY = float(np.finfo(float).tiny)

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
        _check_positive("sigma_eps", self.sigma_eps)
        object.__setattr__(self, "n_draws", _whole_count("n_draws", self.n_draws, 2))


@dataclass(frozen=True)
class KdeConfig:
    """Tuning for the kernel estimator: a bandwidth or "select-by-cv" over
    cv_grid, kept as a tuple of floats so that configs hash and compare
    (and, for the CV sums, once as a read-only array)."""

    bandwidth: object = "select-by-cv"
    cv_grid: object = None

    def __post_init__(self):
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "select-by-cv":
                raise ValidationError(
                    f"bandwidth must be positive or 'select-by-cv', got {self.bandwidth!r}"
                )
            grid = _validated_grid(self.cv_grid, "cv_grid")
            object.__setattr__(self, "cv_grid", tuple(grid.tolist()))
            grid = np.array(self.cv_grid)  # a copy the caller cannot change
            grid.setflags(write=False)
            object.__setattr__(self, "_grid", grid)
        else:
            _check_positive("bandwidth", float(self.bandwidth), finite=True)


def _positive_grid(grid, name):
    """grid as a non-empty 1-d float array of finite positive values."""
    arr = np.asarray(grid, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be a non-empty 1-d sequence")
    _check_positive(f"{name} values", float(arr.min()))  # nan is the minimum
    _check_finite(f"{name} values", float(arr.max()))
    return arr


def _validated_grid(grid, name):
    if grid is None:
        raise ValidationError(f"{name} is required when selecting by CV")
    arr = _positive_grid(grid, name)
    if arr.size > 1 and not np.all(np.diff(arr) > 0):
        raise ValidationError(f"{name} must be strictly increasing")
    return arr


def _check_tuning(density_method, tuning):
    """Raise unless tuning is None or the config type density_method takes."""
    expected = {"ls": LsConfig, "kde": KdeConfig}.get(density_method)
    if expected is None:
        raise ValidationError(
            f"density_method must be 'ls' or 'kde', got {density_method!r}"
        )
    if tuning is not None and not isinstance(tuning, expected):
        raise ValidationError(
            f"density method {density_method!r} takes a {expected.__name__}, "
            f"got {type(tuning).__name__}"
        )


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

    def clamped(self) -> float:
        """The value as used in variance denominators: positive, floored."""
        return float(_clamp(self.value))


# The least density a variance denominator takes (the clamped-density flag).
DENSITY_FLOOR = 1e-8


def _clamp(values):
    """The values, elementwise, as variance denominators take them: those
    not above DENSITY_FLOOR, nan included, become the floor."""
    return np.where(values > DENSITY_FLOOR, values, DENSITY_FLOOR)


# --------------------------------------------------------------------- LS --


def _ls_slopes(steps, survival, n: int, p, t0, eps):
    """No-intercept regression slopes of y on eps for k probe sets per curve.

    y_b = sqrt(n) (F(t0 + eps_b/sqrt(n)) - p). steps (..., m) and survival
    (..., m) hold the curves: F = 1 - survival[j] past sorted step j and 0
    before the first, so also left of the origin. t0 and p broadcast to
    (..., k), and the draws eps to (..., k, B), each set sorted ascending:
    sorted draws give sorted probes, which searchsorted places several times
    faster, and the slope's sums do not depend on the order of the draws.
    Returns the slopes (..., k) and where they are 0 for a zero numerator
    (the "zero-slope" flag). Raises ValidationError when a set of draws has
    a sum of squares that is 0 or not finite, as from a sigma_eps near the
    ends of the float range.
    """
    # numpy's pairwise sums, not BLAS dots, whose bits depend on the BLAS
    # kernel and on operand addresses: the block engine and the serial test
    # hold the same draws at different addresses, and agree bit for bit.
    with np.errstate(over="ignore"):
        denominators = np.add.reduce(eps * eps, axis=-1)
    if not np.all(np.isfinite(denominators) & (denominators > 0)):
        raise ValidationError(
            "sigma_eps is out of range: the sum of squared perturbations is 0 or not finite"
        )
    root_n = math.sqrt(n)
    padded = np.concatenate((np.ones(survival.shape[:-1] + (1,)), survival), axis=-1)
    # y is a step function of the probe as well: its value past each step,
    # once per curve and probability
    y_steps = root_n * ((1.0 - padded[..., None, :]) - np.asarray(p)[..., None])
    sets = np.broadcast_shapes(steps.shape[:-1] + (1,), np.shape(t0), np.shape(p),
                               eps.shape[:-1])
    curves, k = sets[:-1], sets[-1]
    shape = sets + eps.shape[-1:]
    t0 = np.broadcast_to(t0, sets)
    steps = np.broadcast_to(steps, curves + steps.shape[-1:])
    y_steps = np.broadcast_to(y_steps, sets + padded.shape[-1:])
    eps, scaled = np.broadcast_to(eps, shape), np.broadcast_to(eps / root_n, shape)
    # each curve's views are taken once, and each set sums its own 1-D
    # terms: one sum over a stack of sets would not stay in cache
    numerators = []
    for curve in np.ndindex(curves):
        row, ys, starts = steps[curve], y_steps[curve], t0[curve].tolist()
        draws, offsets = eps[curve], scaled[curve]
        for i in range(k):
            y = ys[i][row.searchsorted(starts[i] + offsets[i], side="right")]
            numerators.append(np.add.reduce(np.multiply(draws[i], y, out=y)))
    numerators = np.array(numerators).reshape(sets)
    zero = numerators == 0.0
    # +0.0 for a zero numerator, also a -0.0 one
    return np.where(zero, 0.0, numerators / denominators), zero


def estimate_density_ls(
    sample: SurvivalSample, p: float, cfg: LsConfig
) -> DensityAtQuantile:
    """Least-squares density estimate at the estimated quantile F^{-1}(p)."""
    fit = fit_kaplan_meier(sample)
    times, _ = _fit_quantiles(fit, [p])
    return _ls_densities(fit, [p], cfg, times.tolist())[0]


def _ls_draws(cfg: LsConfig, seed) -> np.ndarray:
    """The perturbation draws eps of an LS estimate made from seed, sorted."""
    return np.sort(np.random.default_rng(seed).normal(0.0, cfg.sigma_eps, cfg.n_draws))


def _ls_densities(fit: KaplanMeierFit, probabilities, cfg: LsConfig, times):
    """The LS estimates at the fit's quantile times, one per probability,
    from one _ls_slopes call. Each probability draws its own eps from
    cfg.seed, in order, so a Generator seed advances across them."""
    eps = np.stack([_ls_draws(cfg, cfg.seed) for _ in probabilities])
    values, zero = _ls_slopes(fit.event_times, fit.survival, fit.n, np.asarray(probabilities),
                              np.asarray(times), eps)
    return [DensityAtQuantile(p=p, quantile_time=t, value=float(value), method="ls",
                              tuning=float(cfg.sigma_eps), flags=("zero-slope",) if z else ())
            for p, t, value, z in zip(probabilities, times, values, zero)]


@dataclass(frozen=True)
class SigmaSelection:
    """Selected sigma_eps plus the full profile of slopes, for audit."""

    sigma_eps: float
    grid: np.ndarray
    profile: np.ndarray
    flags: tuple = ()


def select_sigma_ls(
    sample: SurvivalSample, p: float, grid, n_draws: int = LsConfig.n_draws, seed=None
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
    arr = _positive_grid(grid, "sigma grid")
    fit = fit_kaplan_meier(sample)
    times, _ = _fit_quantiles(fit, [p])
    return _select_sigma(fit, [p], times, np.sort(arr), n_draws, seed)[0]


def _select_sigma(fit: KaplanMeierFit, probabilities, times, grid: np.ndarray,
                  n_draws: int, seed) -> list:
    """select_sigma_ls at each probability of a fitted arm whose quantile
    times are times, from one standard normal draw and one _ls_slopes call
    over the (J, G) sets; the grid is positive and sorted."""
    n_draws = _whole_count("n_draws", n_draws, 2)
    # sorted, so for every sigma > 0 sigma * eps_std is sorted too and
    # equals _ls_draws at sigma from the same seed
    eps_std = np.sort(np.random.default_rng(seed).normal(0.0, 1.0, n_draws))
    profiles, _ = _ls_slopes(fit.event_times, fit.survival, fit.n,
                             np.asarray(probabilities)[:, None], np.asarray(times)[:, None],
                             grid[:, None] * eps_std)
    window = 5
    if grid.size < window:
        # lower middle element so the fallback stays on the grid
        chosen = float(grid[(grid.size - 1) // 2])
        return [SigmaSelection(sigma_eps=chosen, grid=grid, profile=profile, flags=("short-grid",))
                for profile in profiles]
    variation = sliding_window_view(np.abs(np.diff(profiles)), window - 1, axis=-1).sum(axis=-1)
    starts = variation.argmin(axis=-1)  # leftmost minimum
    blocks = sliding_window_view(profiles, window, axis=-1)[np.arange(len(profiles)), starts]
    # the window median is its middle sorted element, the one np.median
    # returns for an odd count (without the numpy.ma import of its first
    # call); leftmost = smallest sigma
    middle = np.sort(blocks, axis=-1)[:, window // 2, None]
    offsets = np.abs(blocks - middle).argmin(axis=-1)
    return [SigmaSelection(sigma_eps=float(grid[start + offset]), grid=grid, profile=profile)
            for start, offset, profile in zip(starts, offsets, profiles)]


# -------------------------------------------------------------------- KDE --


def _sorted_rows(sample: SurvivalSample):
    """The sample as a one-row block: its sorted times and event flags, and
    S_cens(u-) at each of them (survival._censoring_before)."""
    steps, flags = _sorted_observations(sample.times, sample.events)
    return steps, flags, _censoring_before(steps, flags)


def _cv_events(steps: np.ndarray, flags: np.ndarray, before: np.ndarray):
    """The sorted event times of a sorted row and their weights 1/S_cens(T-),
    as the CV sums and _KdeMachine.values take them; events with
    S_cens(T-) = 0 are dropped."""
    kept = flags & (before > 0.0)
    return steps[kept], 1.0 / before[kept]


class _KdeMachine:
    """Per-sample KDE state: resolved bandwidth, event weights and flags.

    Built once per arm so that CV bandwidth selection and the censoring
    weights are not repeated for every evaluation point. It takes an arm as
    a sorted row (steps, flags) with S_cens(u-) at each observation, from a
    block of the simulation engine or from _sorted_rows, and values() sums
    over the same sorted events and weights (_cv_events) as the CV sums.
    """

    def __init__(self, steps, flags, before, cfg: KdeConfig):
        self.n = steps.size
        self.times, self.weights = _cv_events(steps, flags, before)
        self.flags = () if self.times.size == np.count_nonzero(flags) else ("truncated-weights",)
        if isinstance(cfg.bandwidth, str):
            grid = cfg._grid
            self.h = _cv_bandwidth(self.times, self.weights, self.n, grid)
            if grid.size >= 2 and self.h in (grid[0], grid[-1]):
                # the CV minimum may lie beyond the grid, as when the grid
                # does not fit the time unit of the data
                self.flags += ("cv-grid-edge",)
        else:
            self.h = float(cfg.bandwidth)

    def values(self, ts) -> list:
        """The estimates at the times ts, as floats, from one (J, m) pass:
        each row sums its terms in the order np.sum sums them alone."""
        # an argument that overflows is -inf, and exp(-inf) = 0 is its limit
        with np.errstate(over="ignore"):
            kernel = np.exp(-0.5 * ((self.times - np.asarray(ts, dtype=float)[:, None])
                                    / self.h) ** 2)
        sums = np.sum(self.weights * kernel, axis=-1).tolist()
        # in Python floats, which overflow to inf without a warning
        scale = self.n * self.h * _SQRT_2PI
        return [total / scale for total in sums]

    def densities(self, ts, probabilities) -> list:
        """values() at the times ts, each with its probability and flags."""
        return [DensityAtQuantile(p=p, quantile_time=float(t), value=value, method="kde",
                                  tuning=self.h, flags=self.flags)
                for p, t, value in zip(probabilities, ts, self.values(ts))]


def estimate_density_kde(
    sample: SurvivalSample, t: float, cfg: KdeConfig, p=None
) -> DensityAtQuantile:
    """Censoring-corrected Gaussian kernel density estimate at time t.

    f_h(t) = (1/(n h)) sum_i delta_i / S_cens(T_i-) K((T_i - t)/h). The
    censoring survival is evaluated as a left limit so an event does not
    divide by its own censoring step. Events whose weight denominator is 0
    are dropped and flagged (a known truncation bias). A t of +-inf gives 0.
    """
    if math.isnan(t):
        raise ValidationError("time t must be a number, got nan")
    return _KdeMachine(*_sorted_rows(sample), cfg).densities([t], [p])[0]


# Wrap-around and truncation of the Fourier pair sums each stay below
# exp(-c^2/2) = 1e-19 relative, under the rounding of double precision.
_FOURIER_C = math.sqrt(2.0 * math.log(1e19))


# Products small enough for OpenBLAS to run them on the calling thread. On
# a 2-vCPU Xeon, OpenBLAS 0.3.31 ran matrix products with both sides at most
# _TILE = 16 rows there whatever their inner length (tried to 100,000), and
# matrix-vector products of up to about 4.6e5 elements (_MATVEC = 2^18
# stays below); larger ones went to its thread pool, where some processes
# stalled for milliseconds on calls that take microseconds.
_TILE = 16
_MATVEC = 1 << 18

# Floor of the kernels' exponents. np.exp runs some ten times slower on
# arguments whose result underflows, and a hundred times slower where the
# result is subnormal, as is the square of a kernel below 1.5e-154. At
# exp(-354) = 1.8e-154 the kernel and its square, 3.3e-308, are normal
# floats, and a term that small cannot move a sum that holds the diagonal
# or (sum w)^2 of at least 1.
_EXP_FLOOR = -354.0

# Pairs per block of the pairwise sums: the block's kernel matrix takes
# 8 G _PAIR_BLOCK bytes, 3 MB on the default grid.
_PAIR_BLOCK = 1 << 13


# The cost of one Fourier frequency (its m phase terms and G kernel terms),
# and the Fourier path's fixed cost over the pairwise path's, in pairwise
# kernel evaluations, as timed in _pair_sums.
_FREQUENCY_COST = 0.25
_FOURIER_FIXED_COST = 15_000


# Fourier kernel matrices of at most this many entries (256 KB each) are
# kept, with their squares, by _stored_kernels; larger ones are built per
# call. The default grid's 46 bandwidths in years take some 200-300
# frequencies, 14,000 entries or less.
_STORED_KERNEL = 1 << 15


def _fourier_terms(span: float, grid):
    """Period P and frequency count K of the Fourier pair sums.

    P = span + c sqrt(2) h_max puts every wrapped image of a pair at least c
    kernel scales away, at both scales; K = ceil(c P / (2 pi h_min)) takes the
    frequencies up to c / h_min, past which the kernel's transform is below
    exp(-c^2/2). K is inf when that count overflows.

    P is then rounded up to a ladder of 32 steps per octave, its mantissa
    to a multiple of 1/32, so that arms of similar span share one (P, K)
    and so one kernel matrix (_stored_kernels). A longer period only moves
    the wrapped images further away, so the sums stay exact to rounding; P
    and K grow by less than 1/16. The rounding is exact, so times and grid
    2^k times larger give 2^k times the P and the same K.
    """
    period = span + _FOURIER_C * math.sqrt(2.0) * float(grid[-1])
    mantissa, exponent = math.frexp(period)
    period = math.ldexp(math.ceil(32.0 * mantissa) / 32.0, exponent)
    n_freq = _FOURIER_C * period / (2.0 * math.pi * float(grid[0]))
    return period, math.ceil(n_freq) if math.isfinite(n_freq) else math.inf


def _pair_sums(times: np.ndarray, weights: np.ndarray, grid: np.ndarray):
    """Weighted Gaussian-kernel pair sums at scales h and h*sqrt(2).

    Returns (full_h, full_h2): for each grid bandwidth, the sum over ALL
    pairs (diagonal included) of w_i w_j exp(-d^2/(2 h^2)) and of
    w_i w_j exp(-d^2/(4 h^2)). Both paths are exact to rounding, so the
    selected bandwidth does not depend on which one runs; the cheaper one
    does. For m events and G bandwidths the pairwise path evaluates
    G m(m-1)/2 kernels, and the Fourier path's time grows as K (m + G),
    where K grows with the event-time span over h_min (see _fourier_terms);
    the Fourier path also has the larger fixed cost, its tables and kernel
    matrix, some 30 us more than the pairwise one on two events and 46
    bandwidths (about 9,000 kernels). So the Fourier path runs when
    _FREQUENCY_COST K (m + G) + _FOURIER_FIXED_COST < G m(m-1)/2, that is
    K (m + G) / 4 + 15,000 < G m(m-1)/2. Both paths were timed on 96 arms
    of the README plan with the default grid (years, months, weeks and
    days; n = 10 to 1,000; three seeds). This rule took the faster path on
    93 of them, and at most 1.21 times the faster time on the other three;
    no other pair of constants on a grid of them did better. Without the
    fixed cost the rule took the slower path on 9 arms, up to 1.43 times
    the faster time. Few events or a wider span keep the pairwise sums.

    The sums do not depend on the unit of time, so each path runs on the
    offsets t - t_0 and the grid divided by a power of two, exactly: the
    Fourier path in the unit that puts P in [1/2, 1), so arms of one P share
    a stored kernel, and the pairwise path in the unit that puts
    max(span, h_min) in [1/2, 1), so no d^2 underflows against a bandwidth
    it matters to. No square or period overflows in either, and times and
    grid 2^k times larger give the same sums, bit for bit, where both are
    normal floats. Both must be sorted ascending.
    """
    m, size = times.size, grid.size
    offsets = times - times[0]
    span, h_min, h_max = float(offsets[-1]), float(grid[0]), float(grid[-1])
    # P and K in a unit that puts span and h_max below 1, so P < 16; an h_min
    # below _TINY there means K > 1e307, and the floor keeps it nonzero
    unit = math.frexp(max(span, h_max))[1]
    period, n_freq = _fourier_terms(
        math.ldexp(span, -unit), (max(math.ldexp(h_min, -unit), _TINY), math.ldexp(h_max, -unit)))
    if _FREQUENCY_COST * n_freq * (m + size) + _FOURIER_FIXED_COST < size * m * (m - 1) / 2:
        period, exponent = math.frexp(period)
        unit += exponent
        return _pair_sums_fourier(np.ldexp(offsets, -unit), weights, np.ldexp(grid, -unit),
                                  (period, n_freq))
    unit = math.frexp(max(span, h_min))[1]
    return _pair_sums_exact(np.ldexp(offsets, -unit), weights, np.ldexp(grid, -unit))


def _pair_sums_exact(times: np.ndarray, weights: np.ndarray, grid: np.ndarray):
    """Pair sums over the upper triangle, the diagonal added exactly.

    The pairs run in blocks of rows of at most _PAIR_BLOCK pairs (or one
    row), so memory stays O(G _PAIR_BLOCK) at any m. A block's (G, pairs)
    kernel matrix serves every bandwidth: the Gaussian at scale h*sqrt(2) is
    the square root of the one at h. The exponent is d^2 times a factor
    -1 / (2 h^2) per bandwidth, and d^2 < 1 in _pair_sums' unit. times must
    be sorted ascending.
    """
    m = times.size
    diagonal = float(weights @ weights)
    cross_h = np.zeros(grid.size)
    cross_h2 = np.zeros(grid.size)
    rows = max(1, _PAIR_BLOCK // m)
    # h * h underflows below h = 1.5e-154, and -0.5 / 0 would give a tie
    # (d = 0) the argument 0 * -inf = nan; the floor keeps the factor
    # finite, so a tie weighs exp(0) = 1 and a pair apart exp(_EXP_FLOOR);
    # an h * h that overflows gives the factor -0, and every pair weighs 1
    with np.errstate(over="ignore"):
        factors = -0.5 / np.maximum(grid * grid, _TINY)
    for first in range(0, m - 1, rows):
        i, j = np.triu_indices(min(rows, m - 1 - first), 1, m - first)
        i += first
        j += first
        pair_weights = weights[i] * weights[j]
        kernel = np.multiply.outer(factors, (times[j] - times[i]) ** 2)
        np.maximum(kernel, _EXP_FLOOR, out=kernel)
        np.exp(kernel, out=kernel)
        cross_h += _matvec(kernel, pair_weights)
        np.sqrt(kernel, out=kernel)
        cross_h2 += _matvec(kernel, pair_weights)
    return diagonal + 2.0 * cross_h, diagonal + 2.0 * cross_h2


def _tiles(size: int):
    """Slices that split range(size) into the fewest near-equal parts of at
    most _TILE; none has one element unless size does."""
    count = -(-size // _TILE)
    return [slice(size * i // count, size * (i + 1) // count) for i in range(count)]


def _tiled_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T for (M, k) and (N, k) arrays, at most _TILE rows of each per
    call, so OpenBLAS runs every call on the calling thread. A call with
    one row is a matrix-vector product, which it threads sooner; _tiles
    makes none where M and N are above 1."""
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.result_type(a, b))
    for rows in _tiles(a.shape[0]):
        for cols in _tiles(b.shape[0]):
            np.matmul(a[rows], b[cols].T, out=out[rows, cols])
    return out


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v in blocks of rows of at most _MATVEC entries, which OpenBLAS
    runs on the calling thread; only a single row longer than that may
    still go to its threads."""
    rows = max(1, _MATVEC // a.shape[1])
    if rows >= a.shape[0]:
        return a @ v
    return np.concatenate([a[first : first + rows] @ v for first in range(0, a.shape[0], rows)])


def _running_powers(first, ratio: np.ndarray, rows: int) -> np.ndarray:
    """The (rows, m) table whose row k is first * ratio^k, as a running
    product; one multiply per row is two to four times faster than
    np.cumprod along the rows, and gives the same products."""
    table = np.empty((rows, ratio.size), dtype=complex)
    table[0] = first
    for k in range(1, rows):
        np.multiply(table[k - 1], ratio, out=table[k])
    return table


def _fourier_kernel(grid: np.ndarray, step: float, n_freq: int) -> np.ndarray:
    """The (G, K) matrix of the kernel's transform exp(-h^2 u_k^2 / 2) at
    u_k = k step, k = 1..K."""
    freq_sq = (np.arange(1, n_freq + 1) * step) ** 2
    kernel = np.multiply.outer(-0.5 * grid * grid, freq_sq)
    np.maximum(kernel, _EXP_FLOOR, out=kernel)
    return np.exp(kernel, out=kernel)


@functools.lru_cache(maxsize=8)
def _stored_kernels(grid_bytes: bytes, period: float, n_freq: int):
    """_fourier_kernel of the grid whose float64 bytes are grid_bytes, and
    its square, read-only; kept for the 8 latest (grid, P, K). The kernel
    depends only on them, and most arms share one (see _fourier_terms)."""
    kernel = _fourier_kernel(np.frombuffer(grid_bytes), 2.0 * math.pi / period, n_freq)
    squared = np.square(kernel)
    kernel.setflags(write=False)
    squared.setflags(write=False)
    return kernel, squared


def _pair_sums_fourier(times: np.ndarray, weights: np.ndarray, grid: np.ndarray,
                       terms=None):
    """Pair sums by Poisson summation of the Gaussian kernel.

    sum_ij w_i w_j exp(-(t_i-t_j)^2/(2 s^2))
        = (s sqrt(2 pi)/P) [(sum w)^2 + 2 sum_{k=1..K} exp(-s^2 u_k^2/2) |S(u_k)|^2]
    with S(u) = sum_i w_i exp(-i u t_i) and u_k = 2 pi k / P; terms is
    (P, K) as _fourier_terms gives them for these times and grid, computed
    here when None. Every S(u_k) comes from one complex matrix
    product: u_{aB+b} = u_{aB} + u_b with B = isqrt(K) splits the phases into
    a coarse and a fine table of about sqrt(K) rows each. The terms are all
    non-negative, so nothing cancels. times must be sorted ascending; their
    phases grow with t, so _pair_sums passes the offsets t - t_0.

    Both tables are running products: fine row b is z^b and coarse row a is
    w (z^B)^a, with z = exp(-i u_1 t) and z^B each from one exp, so
    rounding grows with a table's rows (about sqrt(K)), not with K. All
    bandwidths then take one pass: a (G, K) matrix of the kernel's transform
    times the power spectrum gives every full_h, and the same matrix squared
    gives every full_h2. That matrix depends only on (grid, P, K): one of at
    most _STORED_KERNEL entries comes with its square from _stored_kernels,
    a larger one is built here and squared in place. The products run on
    the calling thread (_tiled_product, _matvec).
    """
    if terms is None:
        terms = _fourier_terms(float(times[-1] - times[0]), grid)
    period, n_freq = terms
    step = 2.0 * math.pi / period
    block = math.isqrt(n_freq)
    phase = times * step
    fine = _running_powers(1.0, np.exp(-1j * phase), block)
    coarse = _running_powers(weights, np.exp(-1j * block * phase), n_freq // block + 1)
    spectrum = _tiled_product(coarse, fine).ravel()[1 : n_freq + 1]
    del coarse, fine  # freed before the (G, K) kernel matrix
    power = spectrum.real ** 2 + spectrum.imag ** 2
    total = float(weights.sum()) ** 2
    scale = grid * _SQRT_2PI / period
    if grid.size * n_freq <= _STORED_KERNEL:
        kernel, squared = _stored_kernels(grid.tobytes(), period, n_freq)
    else:
        kernel, squared = _fourier_kernel(grid, step, n_freq), None
    full_h = scale * (total + 2.0 * _matvec(kernel, power))
    if squared is None:
        # the transform at scale h*sqrt(2) is the square of the one at h
        squared = np.square(kernel, out=kernel)
    full_h2 = math.sqrt(2.0) * scale * (total + 2.0 * _matvec(squared, power))
    return full_h, full_h2


def _cv_criterion(full_h, full_h2, sum_w2: float, n: int, grid: np.ndarray):
    """The CV scores from the pair sums; sum_w2 is the exact diagonal."""
    # closed form of the integrated square: kernel at scale h*sqrt(2)
    integral_sq = full_h2 / (2.0 * grid * math.sqrt(math.pi)) / (n * n)
    cross = (full_h - sum_w2) / (grid * _SQRT_2PI)  # off-diagonal only
    return integral_sq - 2.0 * cross / (n * (n - 1))


def _cv_scores(times: np.ndarray, weights: np.ndarray, n: int, grid: np.ndarray):
    """The least-squares CV scores over grid of sorted event times and their
    weights: the integral of f_h^2 minus twice the weighted leave-one-out
    cross term, the classical criterion where every weight is 1."""
    if times.size < 2:
        raise TooFewEventsError()
    full_h, full_h2 = _pair_sums(times, weights, grid)
    return _cv_criterion(full_h, full_h2, float(weights @ weights), n, grid)


def _cv_bandwidth(times: np.ndarray, weights: np.ndarray, n: int, grid: np.ndarray) -> float:
    """Grid argmin of the CV scores of sorted event times and weights."""
    return float(grid[int(np.argmin(_cv_scores(times, weights, n, grid)))])


def select_bandwidth_cv(sample: SurvivalSample, grid) -> float:
    """Grid argmin of the least-squares CV criterion."""
    arr = _validated_grid(grid, "cv_grid")
    return _cv_bandwidth(*_cv_events(*_sorted_rows(sample)), sample.n, arr)
