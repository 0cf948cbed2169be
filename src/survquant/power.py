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
sample size) come from scipy.special, imported on first use by _special(). The
import costs a fresh process about 0.2 s, and the quantile tests, which use
upsilon and _wald_form from this module, compute their own tails without it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    SingularCovarianceError,
    UnattainablePowerError,
    ValidationError,
    _check_open_unit,
    _check_positive,
    _whole_number,
)


@functools.cache
def _special():
    """The scipy.special module, imported on the first call."""
    import scipy.special

    return scipy.special


def normal_cdf(x):
    """Standard normal CDF (erfc-based, |error| well under 1e-12)."""
    return _special().ndtr(x)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p strictly inside (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValidationError(f"quantile input must be in (0, 1), got {p!r}")
    return float(_special().ndtri(p))


def chi2_cdf(x, dof: int):
    """Central chi-squared CDF via the regularized incomplete gamma."""
    if dof < 1:
        raise ValidationError("degrees of freedom must be at least 1")
    return _special().gammainc(dof / 2.0, np.asarray(x, dtype=float) / 2.0)


def chi2_quantile(p: float, dof: int) -> float:
    if not 0.0 < p < 1.0:
        raise ValidationError(f"quantile input must be in (0, 1), got {p!r}")
    if dof < 1:
        raise ValidationError("degrees of freedom must be at least 1")
    return float(2.0 * _special().gammaincinv(dof / 2.0, p))


def noncentral_chi2_cdf(x: float, dof: int, noncentrality: float) -> float:
    """Noncentral chi-squared CDF (scipy.special.chndtr)."""
    if x < 0:
        raise ValidationError("x must be non-negative")
    if dof < 1:
        raise ValidationError("degrees of freedom must be at least 1")
    if noncentrality < 0:
        raise ValidationError("noncentrality must be non-negative")
    if noncentrality == 0.0:
        return float(chi2_cdf(x, dof))
    return float(_special().chndtr(x, dof, noncentrality))


def upsilon(ps, times, phis, densities, mu) -> np.ndarray:
    """One arm's asymptotic covariance of the scaled quantile vector.

    Upsilon[j,l] = (1-p_j)(1-p_l) phi(min(t_j,t_l)) / (mu f_j f_l) from the
    arm's p_j-quantiles t_j, phis[j] = phi(t_j), densities f_j = f(t_j) and
    allocation fraction mu. Off-diagonal entries are mirrored, so the matrix
    is exactly symmetric. An infinite phi, the saturated limit of
    scenarios.phi_exponential far out in a heavily censored tail, is kept:
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
        field = "total_n" if self.per_group_n is None else "per_group_n"
        object.__setattr__(self, field, _whole_number(field, getattr(self, field)))
        if self.n_total < 2:
            raise ValidationError("sample size must be at least 2")
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
    """Power at total n_total; q = q_{1-alpha/2}, computed once by the caller."""
    if delta == 0.0:
        return float(alpha)
    shift = math.sqrt(n_total) * delta / sigma
    special = _special()  # once per call: this runs at every step of a solve
    return float(special.ndtr(-(q - shift)) + special.ndtr(-q - shift))


def power_univariate(spec: PowerSpec) -> float:
    """Asymptotic power of the two-sided univariate quantile test."""
    if spec.sigma is None:
        raise ValidationError("univariate power needs a scalar sigma")
    delta = float(np.asarray(spec.deltas).reshape(()))
    q = normal_quantile(1.0 - spec.alpha / 2.0)
    return _univariate_power(spec.n_total, delta, float(spec.sigma), spec.alpha, q)


def _joint_power(n_total, quad, dof, alpha, threshold, chndtr):
    """Power at total n_total, noncentrality n_total * quad, alpha at 0;
    threshold = q_{dof,1-alpha} and chndtr come once from the caller."""
    lam = n_total * quad
    if lam == 0.0:
        return float(alpha)
    return 1.0 - float(chndtr(threshold, dof, lam))


_PSI_RTOL = 1e-10  # relative positive-definiteness tolerance


def _wald_form(psi, z):
    """z' psi^-1 z as the squared norm of L^-1 z (psi = L L'); None unless
    the smallest eigenvalue of psi is positive and above _PSI_RTOL x largest."""
    eigenvalues = np.linalg.eigvalsh(psi)
    if not (eigenvalues[0] > 0 and eigenvalues[0] > _PSI_RTOL * eigenvalues[-1]):
        return None
    root = np.linalg.solve(np.linalg.cholesky(psi), z)
    return float(root @ root)


def _noncentrality(psi, deltas):
    psi = np.asarray(psi, dtype=float)
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    if psi.shape != (deltas.size, deltas.size):
        raise ValidationError("psi shape must match the delta vector")
    quad = _wald_form(psi, deltas)
    if quad is None:
        raise SingularCovarianceError(
            message="psi must be positive definite for the power formula"
        )
    return quad, deltas.size


def power_multivariate(spec: PowerSpec) -> float:
    """Asymptotic power of the joint chi-squared quantile test."""
    if spec.psi is None:
        raise ValidationError("multivariate power needs a psi matrix")
    quad, dof = _noncentrality(spec.psi, spec.deltas)
    threshold = chi2_quantile(1.0 - spec.alpha, dof)
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


def _too_large(target_power) -> UnattainablePowerError:
    return UnattainablePowerError(
        f"power {target_power:g} needs more than 2^52 subjects per group"
    )


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
    monotone in n (targets within about 1e-6 of alpha at n above about 1e8
    per group, or any n above about 1e14). There the result is a certified
    crossing that can depend on where the search starts, not always the
    smallest.
    """
    _check_open_unit("alpha", alpha)
    if not alpha < target_power < 1.0:
        raise UnattainablePowerError(
            f"target power must lie strictly between alpha={alpha:g} and 1"
        )
    if (sigma is None) == (psi is None):
        raise ValidationError("give exactly one of sigma or psi")

    if sigma is not None:
        delta = float(np.asarray(deltas).reshape(()))
        if delta == 0.0:
            raise UnattainablePowerError("delta is 0: no sample size reaches the target")
        sigma = float(sigma)
        _check_positive("sigma", sigma)
        q = normal_quantile(1.0 - alpha / 2.0)

        def power_at_total(n_total):
            return _univariate_power(n_total, delta, sigma, alpha, q)

        root = (q + normal_quantile(target_power)) * sigma / abs(delta)
        seed_total = root * root  # inf rather than OverflowError
    else:
        quad, dof = _noncentrality(psi, deltas)
        if quad == 0.0:
            raise UnattainablePowerError("all deltas are 0: no sample size reaches the target")
        threshold = chi2_quantile(1.0 - alpha, dof)
        chndtr = _special().chndtr  # fetched once per solve, not at every step

        def power_at_total(n_total):
            return _joint_power(n_total, quad, dof, alpha, threshold, chndtr)

        seed_total = float(_special().chndtrinc(threshold, dof, 1.0 - target_power)) / quad

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
                raise _too_large(target_power)
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
