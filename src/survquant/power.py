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

The special-function substrate (normal cdf/quantile, central and noncentral
chi-squared) comes from scipy.special; the noncentral CDF is chndtr.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chndtr, gammainc, gammaincinv, ndtr, ndtri

from .errors import (
    SingularCovarianceError,
    UnattainablePowerError,
    ValidationError,
)


def normal_cdf(x):
    """Standard normal CDF (erfc-based, |error| well under 1e-12)."""
    return ndtr(x)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p strictly inside (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValidationError(f"quantile input must be in (0, 1), got {p!r}")
    return float(ndtri(p))


def chi2_cdf(x, dof: int):
    """Central chi-squared CDF via the regularized incomplete gamma."""
    if dof < 1:
        raise ValidationError("degrees of freedom must be at least 1")
    return gammainc(dof / 2.0, np.asarray(x, dtype=float) / 2.0)


def chi2_quantile(p: float, dof: int) -> float:
    if not 0.0 < p < 1.0:
        raise ValidationError(f"quantile input must be in (0, 1), got {p!r}")
    if dof < 1:
        raise ValidationError("degrees of freedom must be at least 1")
    return float(2.0 * gammaincinv(dof / 2.0, p))


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
    return float(chndtr(x, dof, noncentrality))


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

    Exactly one of total_n / per_group_n is given; per_group_n assumes equal
    allocation (mu1 = 0.5) and means total_n = 2 * per_group_n. deltas is a
    scalar with sigma, or a vector with the psi matrix.
    """

    alpha: float
    deltas: object
    sigma: object = None
    psi: object = None
    total_n: object = None
    per_group_n: object = None
    mu1: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must lie strictly between 0 and 1")
        if (self.total_n is None) == (self.per_group_n is None):
            raise ValidationError("give exactly one of total_n or per_group_n")
        if self.per_group_n is not None and self.mu1 != 0.5:
            raise ValidationError("per_group_n implies equal allocation (mu1=0.5)")
        if self.n_total < 2:
            raise ValidationError("sample size must be at least 2")
        if (self.sigma is None) == (self.psi is None):
            raise ValidationError("give exactly one of sigma or psi")
        if self.sigma is not None and not float(self.sigma) > 0:
            raise ValidationError("sigma must be positive")

    @property
    def n_total(self) -> int:
        if self.total_n is not None:
            return int(self.total_n)
        return 2 * int(self.per_group_n)


def _univariate_power(n_total, delta, sigma, alpha):
    if delta == 0.0:
        return float(alpha)
    shift = math.sqrt(n_total) * delta / sigma
    q = normal_quantile(1.0 - alpha / 2.0)
    return float(ndtr(-(q - shift)) + ndtr(-q - shift))


def power_univariate(spec: PowerSpec) -> float:
    """Asymptotic power of the two-sided univariate quantile test."""
    if spec.sigma is None:
        raise ValidationError("univariate power needs a scalar sigma")
    delta = float(np.asarray(spec.deltas).reshape(()))
    return _univariate_power(spec.n_total, delta, float(spec.sigma), spec.alpha)


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
    if quad == 0.0:
        return float(spec.alpha)
    lam = spec.n_total * quad
    threshold = chi2_quantile(1.0 - spec.alpha, dof)
    return 1.0 - noncentral_chi2_cdf(threshold, dof, lam)


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

    Seeded by the closed-form inversion sqrt(n) = (q_{1-a/2} + q_{power})
    * sigma/Delta (total n, rounded up to the next even integer before
    halving), then settled by an integer search so that the returned
    per-group n satisfies power(n) >= target and power(n-1) < target. Raises
    UnattainablePowerError when n would exceed 2^52.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie strictly between 0 and 1")
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
        if not sigma > 0:
            raise ValidationError("sigma must be positive")

        def power_at_total(n_total):
            return _univariate_power(n_total, delta, sigma, alpha)

        root = (
            (normal_quantile(1.0 - alpha / 2.0) + normal_quantile(target_power))
            * sigma / abs(delta)
        )
        seed_total = root * root  # inf rather than OverflowError
    else:
        quad, dof = _noncentrality(psi, deltas)
        if quad == 0.0:
            raise UnattainablePowerError("all deltas are 0: no sample size reaches the target")
        threshold = chi2_quantile(1.0 - alpha, dof)

        def power_at_total(n_total):
            if n_total == 0:
                return float(alpha)
            return 1.0 - noncentral_chi2_cdf(threshold, dof, n_total * quad)

        # chi-squared analogue of the univariate seed; the search corrects it
        seed_total = (
            (normal_quantile(1.0 - alpha / 2.0) + normal_quantile(target_power)) ** 2
            / quad
        )

    if not seed_total / 2.0 <= _MAX_PER_GROUP:
        raise _too_large(target_power)

    def reaches(per_group):
        return power_at_total(2 * per_group) >= target_power

    # The seed's error grows with n (the far tail it ignores, the chi-squared
    # analogue), so gallop away from it to a bracket lo < n <= hi with
    # reaches(hi) and not reaches(lo), then bisect; power at 0 is alpha.
    hi = max(1, math.ceil(seed_total / 2.0))
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
    per_group = hi
    return SampleSizeResult(
        per_group_n=per_group,
        total_n=2 * per_group,
        achieved_power=power_at_total(2 * per_group),
        power_at_n_minus_1=power_at_total(2 * (per_group - 1)),
        target_power=target_power,
    )
