"""Closed-form power and minimum sample size for the quantile tests.

Univariate power at total sample size n, difference Delta and variance
sigma^2:

    1 - Phi(q_{1-a/2} - sqrt(n) Delta / sigma) + Phi(-q_{1-a/2} - sqrt(n) Delta / sigma)

Multivariate power replaces the shifted normal by a noncentral chi-squared
with J degrees of freedom and noncentrality n Delta' Psi^{-1} Delta, compared
against the central chi-squared quantile q_{J,1-a}.

sigma^2 and Psi come from one per-arm covariance kernel, upsilon(), shared
by the closed-form scenarios and the data-driven tests: sigma^2 is the sum of
the two arms' J=1 terms and Psi the sum of their matrices.

The special functions behind every power and sample size (normal
cdf/quantile, central and noncentral chi-squared; the noncentral CDF is
chndtr, and chndtrinc, its inverse in the noncentrality, seeds the joint
sample size) are scipy ufuncs, imported on first use by _special(). It loads
only their compiled module, scipy.special._ufuncs, without running
scipy/special/__init__.py, whose array-API layer costs a fresh process about
0.25 s more; the ufuncs are the same objects that a later import scipy.special
hands out. The quantile tests, which use upsilon and _wald_form from this
module, compute their own tails without scipy.

The noncentrality's Wald form, _wald_form, calls the LAPACK gufuncs behind
numpy.linalg's eigvalsh, cholesky and solve directly: the same bits, without
the wrappers' checks, which cost more than the LAPACK work on a small psi.

A plan evaluates many sample sizes and target powers on one design, so the
planning work whose inputs repeat is remembered: _noncentrality keeps the
Wald form of the last (psi, deltas) it solved, keyed by their float64
bytes, and the test thresholds and sample-size seeds, which depend only on
alpha, the degrees of freedom and the target, go through small fixed-size
caches (_normal_quantile, _chi2_quantile, _joint_seed). A memo hands back
the float that the same call computed from the same inputs, bit for bit
equal ones with the same types, and never stores an error, so no result
moves and a bad input raises on every call. The quantile tests call
_wald_form directly and remember nothing.
"""
from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import types
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    SingularCovarianceError,
    UnattainablePowerError,
    ValidationError,
    _check_finite,
    _check_non_negative,
    _check_open_unit,
    _check_positive,
    _whole_count,
)


@functools.cache
def _special():
    """scipy's special-function ufuncs (ndtr, chndtr, ...), imported on the
    first call: the compiled module scipy.special._ufuncs, loaded under a
    stand-in parent if scipy.special is not loaded yet. If that private
    route fails (_ufuncs is not a public name, and scipy >= 1.9 is
    accepted), the whole of scipy.special."""
    if "scipy.special" in sys.modules:
        return importlib.import_module("scipy.special._ufuncs")
    import scipy

    # A stand-in parent package that holds only the directory, so that the
    # import finds the submodule without running the package's __init__.
    stand_in = types.ModuleType("scipy.special")
    stand_in.__path__ = [os.path.join(path, "special") for path in scipy.__path__]
    sys.modules["scipy.special"] = stand_in
    try:
        # a statement, not importlib.import_module, so that -X importtime lists it
        import scipy.special._ufuncs

        return sys.modules["scipy.special._ufuncs"]
    except Exception:
        sys.modules.pop("scipy.special._ufuncs", None)
    finally:
        if sys.modules.get("scipy.special") is stand_in:
            del sys.modules["scipy.special"]
        # vars(), not getattr(): scipy's module __getattr__ would import the
        # whole of scipy.special on a miss
        if vars(scipy).get("special") is stand_in:
            delattr(scipy, "special")
    import scipy.special

    return scipy.special


def normal_cdf(x):
    """Standard normal CDF (erfc-based, |error| well under 1e-12)."""
    return _special().ndtr(x)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p strictly inside (0, 1)."""
    _check_open_unit("p", p)
    return float(_special().ndtri(p))


def chi2_cdf(x, dof: int):
    """Central chi-squared CDF via the regularized incomplete gamma."""
    _whole_count("dof", dof, 1)
    return _special().gammainc(dof / 2.0, np.asarray(x, dtype=float) / 2.0)


def chi2_quantile(p: float, dof: int) -> float:
    _check_open_unit("p", p)
    _whole_count("dof", dof, 1)
    return float(2.0 * _special().gammaincinv(dof / 2.0, p))


# Remembered thresholds and seeds, for arguments that the planning functions
# have already checked; the public functions above stay uncached, so they
# take any input they took before. typed=True keeps a numpy float32 apart
# from the float of the same value, since scipy can compute in the
# argument's precision (ndtri does).
_normal_quantile = functools.lru_cache(maxsize=64, typed=True)(normal_quantile)
_chi2_quantile = functools.lru_cache(maxsize=64, typed=True)(chi2_quantile)


@functools.lru_cache(maxsize=64, typed=True)
def _joint_seed(threshold, dof, miss):
    """The noncentrality at which the joint test's power is 1 - miss."""
    return float(_special().chndtrinc(threshold, dof, miss))


# chndtr returns nan at a noncentrality above 2^63 (scipy 1.17), and near
# the mean already from about 1e11. There the noncentral chi-squared is
# normal, mean dof + lam and variance 2 dof + 4 lam, to within its skewness,
# about 3 / sqrt(lam) < 1e-5; at a test's threshold x, far below lam, that
# limit is a CDF of 0 and a power of 1.
_CHNDTR_MAX = 2.0 ** 63


def _normal_limit(x, dof, noncentrality):
    """The noncentral chi-squared CDF at x in its normal limit."""
    spread = 2.0 * math.sqrt(noncentrality + 0.5 * dof)  # sqrt(2 dof + 4 lam)
    return float(_special().ndtr((x - dof - noncentrality) / spread))


def noncentral_chi2_cdf(x: float, dof: int, noncentrality: float) -> float:
    """Noncentral chi-squared CDF (scipy.special.chndtr); x = inf is the
    saturated limit 1.0, and a noncentrality above 2^63, or one where chndtr
    gives nan, takes the normal limit (see _CHNDTR_MAX). Raises
    ValidationError for a nan or negative x, a dof that is not a whole
    number >= 1 and a noncentrality not finite and >= 0."""
    _check_non_negative("x", x)
    _whole_count("dof", dof, 1)
    _check_non_negative("noncentrality", noncentrality, finite=True)
    if noncentrality == 0.0:
        return float(chi2_cdf(x, dof))
    if noncentrality > _CHNDTR_MAX:
        return _normal_limit(x, dof, noncentrality)
    cdf = float(_special().chndtr(x, dof, noncentrality))
    return _normal_limit(x, dof, noncentrality) if math.isnan(cdf) else cdf


def upsilon(ps, times, phis, densities, mu) -> np.ndarray:
    """One arm's asymptotic covariance of the scaled quantile vector.

    Upsilon[j,l] = (1-p_j)(1-p_l) phi(min(t_j,t_l)) / (mu f_j f_l) from the
    arm's p_j-quantiles t_j, phis[j] = phi(t_j), densities f_j = f(t_j) and
    allocation fraction mu. Off-diagonal entries are mirrored, so the matrix
    is exactly symmetric. An infinite phi, the saturated limit of
    scenarios.ExponentialArm.phi far out in a heavily censored tail, is kept:
    its entries are inf, the planned variance is inf and the power of the
    test is alpha, with no error. Only an entry that overflows from the
    densities is rejected.
    """
    if any(f <= 0 for f in densities):
        raise ValidationError("densities must be positive at every quantile")
    size = len(ps)
    out = np.empty((size, size))
    for j in range(size):
        for l in range(j + 1):
            early = j if times[j] <= times[l] else l
            product = mu * densities[j] * densities[l]
            if not product > 0:
                raise ValidationError(
                    f"density {min(densities[j], densities[l]):g} at a quantile "
                    "is too small: the covariance denominator underflows to 0"
                )
            out[j, l] = out[l, j] = (
                (1.0 - ps[j]) * (1.0 - ps[l]) * phis[early] / product
            )
            # an infinite phi is the saturated limit far out in the tail and
            # passes through; an overflow from the densities does not
            if math.isfinite(phis[early]) and not math.isfinite(out[j, l]):
                raise ValidationError(
                    f"covariance entry at p={ps[j]:g}, p={ps[l]:g} overflows: "
                    f"density {min(densities[j], densities[l]):g} is too small"
                )
    return out


@dataclass(frozen=True)
class PowerSpec:
    """Inputs of a power evaluation.

    Exactly one of total_n / per_group_n is given; per_group_n means
    total_n = 2 * per_group_n. The allocation enters only through sigma or
    psi. deltas is a scalar with sigma, or a vector with the psi matrix.
    """

    alpha: float
    deltas: object
    sigma: object = None
    psi: object = None
    total_n: object = None
    per_group_n: object = None

    def __post_init__(self):
        _check_open_unit("alpha", self.alpha)
        if (self.total_n is None) == (self.per_group_n is None):
            raise ValidationError("give exactly one of total_n or per_group_n")
        field, least = ("total_n", 2) if self.per_group_n is None else ("per_group_n", 1)
        object.__setattr__(self, field, _whole_count(field, getattr(self, field), least))
        if (self.sigma is None) == (self.psi is None):
            raise ValidationError("give exactly one of sigma or psi")
        if self.sigma is not None:
            _check_positive("sigma", float(self.sigma))

    @property
    def n_total(self) -> int:
        if self.total_n is not None:
            return self.total_n
        return 2 * self.per_group_n


def _univariate_power(n_total, delta, sigma, alpha, q):
    """Power at total n_total, alpha at a zero shift (2 Phi(-q) rounds above
    it); q = q_{1-alpha/2}, computed once by the caller."""
    shift = math.sqrt(n_total) * delta / sigma
    if shift == 0.0:
        return float(alpha)
    special = _special()  # once per call: this runs at every step of a solve
    return float(special.ndtr(-(q - shift)) + special.ndtr(-q - shift))


def _scalar_delta(deltas) -> float:
    """The one delta of the univariate formulas as a finite Python float."""
    deltas = np.asarray(deltas)
    if deltas.size != 1:
        raise ValidationError(
            f"delta must be a single number with sigma, got {deltas.size} values"
        )
    delta = float(deltas.item())
    _check_finite("delta", delta)
    return delta


def power_univariate(spec: PowerSpec) -> float:
    """Asymptotic power of the two-sided univariate quantile test."""
    if spec.sigma is None:
        raise ValidationError("univariate power needs a scalar sigma")
    delta = _scalar_delta(spec.deltas)
    q = _normal_quantile(1.0 - spec.alpha / 2.0)
    return _univariate_power(spec.n_total, delta, float(spec.sigma), spec.alpha, q)


def _joint_power(n_total, quad, dof, alpha, threshold, chndtr):
    """Power at total n_total, noncentrality n_total * quad, alpha at 0;
    threshold = q_{dof,1-alpha} and chndtr come once from the caller."""
    lam = n_total * quad
    if lam == 0.0:
        return float(alpha)
    if lam > _CHNDTR_MAX:
        return 1.0  # the limit at the threshold, see _CHNDTR_MAX
    return 1.0 - float(chndtr(threshold, dof, lam))


_PSI_RTOL = 1e-10  # relative positive-definiteness tolerance


def _wald_form(psi, z):
    """z' psi^-1 z as the squared norm of L^-1 z (psi = L L'); None unless
    the smallest eigenvalue of psi is positive and above _PSI_RTOL x largest.
    Reads only the lower triangle of psi, as numpy.linalg does.

    The LAPACK calls go to numpy.linalg._umath_linalg, the private gufunc
    module behind numpy.linalg.eigvalsh, cholesky and solve, present under
    these names in every numpy >= 1.23: the same routines on the same
    inputs give the same bits, without the wrappers' checks and casts,
    which cost more than the LAPACK work on a small psi. As in the wrappers,
    errstate quiets the floating-point flags; it covers the sum of squares
    too, which is inf once z is too large against psi, and the caller
    judges that inf. Where numpy.linalg.eigvalsh raises LinAlgError (some
    nan or inf psi), the eigenvalues here are nan and the rule rejects
    them."""
    with np.errstate(all="ignore"):
        eigenvalues = _umath_linalg.eigvalsh_lo(psi, signature="d->d").tolist()
        smallest, largest = eigenvalues[0], eigenvalues[-1]
        if not (smallest > 0 and smallest > _PSI_RTOL * largest):
            return None
        lower = _umath_linalg.cholesky_lo(psi, signature="d->d")
        root = _umath_linalg.solve1(lower, z, signature="dd->d")
        return float(np.add.reduce(root * root))  # not BLAS: see density._ls_slopes


# ((psi bytes, deltas bytes, deltas shape), (quad, dof)) of the last design
# _noncentrality solved, swapped in whole; None before the first
_last_design = None


def _noncentrality(psi, deltas):
    """(delta' psi^-1 delta, dof), remembered for the last design only: a
    plan asks again and again about one design, and one entry bounds the
    memory to one copy of it."""
    global _last_design
    psi = np.asarray(psi, dtype=float)
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    if psi.shape != (deltas.size, deltas.size):
        raise ValidationError("psi shape must match the delta vector")
    key = (psi.tobytes(), deltas.tobytes(), deltas.shape)
    last = _last_design
    if last is not None and last[0] == key:
        return last[1]
    quad = _wald_form(psi, deltas)
    if quad is None:
        if not np.isfinite(psi).all():
            raise SingularCovarianceError(
                message="psi has an inf or nan entry (a saturated variance "
                "factor phi), so the power formula has no noncentrality"
            )
        raise SingularCovarianceError(
            message="psi must be positive definite for the power formula"
        )
    _check_finite("delta' psi^-1 delta", quad)
    _last_design = (key, (quad, deltas.size))
    return quad, deltas.size


def power_multivariate(spec: PowerSpec) -> float:
    """Asymptotic power of the joint chi-squared quantile test."""
    if spec.psi is None:
        raise ValidationError("multivariate power needs a psi matrix")
    quad, dof = _noncentrality(spec.psi, spec.deltas)
    threshold = _chi2_quantile(1.0 - spec.alpha, dof)
    return _joint_power(spec.n_total, quad, dof, spec.alpha, threshold, _special().chndtr)


@dataclass(frozen=True)
class SampleSizeResult:
    """Smallest per-group n reaching the target, with its certificate."""

    per_group_n: int
    total_n: int
    achieved_power: float
    power_at_n_minus_1: float
    target_power: float


# Past 2^52 per group, neighbouring totals 2(n-1) and 2n differ by less than
# one part in 2^52, so their powers can be the same float and no integer
# search settles.
_MAX_PER_GROUP = 2 ** 52


def min_sample_size(
    target_power: float,
    deltas,
    sigma=None,
    psi=None,
    alpha: float = 0.05,
) -> SampleSizeResult:
    """Minimum per-group sample size under equal allocation.

    The search starts from a seed. With sigma it is the closed-form inversion
    sqrt(n) = (q_{1-a/2} + q_{power}) * sigma/Delta of total n, which ignores
    the far tail; with psi it is chndtrinc, the noncentrality at which the
    chi-squared power is exactly the target, divided by Delta' Psi^-1 Delta.
    The seed only says where to start: a gallop and a bisection settle the
    returned per-group n so that power(n) >= target and power(n-1) < target,
    and both powers are the ones the search itself evaluated. A seed that is
    nan, inf or past 2^52 per group starts the search at 2^52. Raises
    UnattainablePowerError when n would exceed 2^52.

    Within a few rounding errors of the target the float power is not
    monotone in n (targets within a few ulps of alpha at any n, within about
    1e-6 of it at n above about 1e8 per group, or any target at n above
    about 1e14). There the result is a certified crossing that can depend
    on where the search starts, not always the smallest.
    """
    _check_open_unit("alpha", alpha)
    if not alpha < target_power < 1.0:
        raise UnattainablePowerError(
            f"target power must lie strictly between alpha={alpha:g} and 1"
        )
    if (sigma is None) == (psi is None):
        raise ValidationError("give exactly one of sigma or psi")

    if sigma is not None:
        delta = _scalar_delta(deltas)
        if delta == 0.0:
            raise UnattainablePowerError("delta is 0: no sample size reaches the target")
        sigma = float(sigma)
        _check_positive("sigma", sigma)
        q = _normal_quantile(1.0 - alpha / 2.0)

        def power_at_total(n_total):
            return _univariate_power(n_total, delta, sigma, alpha, q)

        # unary plus makes a 0-d array target a (hashable) numpy scalar
        root = (q + _normal_quantile(+target_power)) * sigma / abs(delta)
        seed_total = root * root  # inf rather than OverflowError
    else:
        quad, dof = _noncentrality(psi, deltas)
        if quad == 0.0:
            raise UnattainablePowerError("all deltas are 0: no sample size reaches the target")
        threshold = _chi2_quantile(1.0 - alpha, dof)
        chndtr = _special().chndtr  # fetched once per solve, not at every step

        def power_at_total(n_total):
            return _joint_power(n_total, quad, dof, alpha, threshold, chndtr)

        seed_total = _joint_seed(threshold, dof, 1.0 - target_power) / quad

    powers = {}  # per-group n -> power, every one the search evaluates

    def reaches(per_group):
        powers[per_group] = power = power_at_total(2 * per_group)
        return power >= target_power

    # The seed can miss (the far tail the univariate seed ignores, the
    # tolerance of chndtrinc's root finder), so gallop away from it to a
    # bracket lo < n <= hi with reaches(hi) and not reaches(lo), then bisect;
    # power at 0 is alpha.
    seed = seed_total / 2.0
    # a nan, inf or past-the-cap seed fails the comparison and starts at the cap
    hi = max(1, math.ceil(seed)) if seed <= _MAX_PER_GROUP else _MAX_PER_GROUP
    if reaches(hi):
        lo, step = hi - 1, 1
        while lo > 0 and reaches(lo):
            lo, hi, step = max(0, lo - 2 * step), lo, 2 * step
    else:
        lo, hi, step = hi, min(hi + 1, _MAX_PER_GROUP), 1
        while not reaches(hi):
            if hi == _MAX_PER_GROUP:
                raise UnattainablePowerError(
                    f"power {target_power:g} needs more than 2^52 subjects per group")
            lo, hi, step = hi, min(hi + 2 * step, _MAX_PER_GROUP), 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    # lo > 0 was evaluated by the search: the gallop stops on it or the
    # bisection moved to it
    return SampleSizeResult(
        per_group_n=hi,
        total_n=2 * hi,
        achieved_power=powers[hi],
        power_at_n_minus_1=powers[lo] if lo else power_at_total(0),
        target_power=target_power,
    )
