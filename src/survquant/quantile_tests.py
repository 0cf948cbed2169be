"""Two-sample tests of survival quantile equality.

Univariate: for one probability p, the normalized difference of estimated
quantiles

    T_n = sqrt(n) (F1^{-1}(p) - F2^{-1}(p)) / sigma_hat

is asymptotically standard normal under equality. n is the TOTAL sample
size.

Multivariate: for probabilities p_1..p_J, the vector of normalized
differences has covariance Psi = Upsilon_1 + Upsilon_2, and the Wald
statistic Z' Psi^{-1} Z is asymptotically chi-squared with J degrees of
freedom.

Psi_hat is the sum of the arm kernel power.upsilon over both arms, fed with
each arm's Kaplan-Meier quantiles t_j, Greenwood variance factors phi(t_j),
clamped density estimates f(t_j) and allocation fraction mu. Every test
reads one such estimate: sigma_hat^2 at p_j is its diagonal entry psi[j, j],
so the J=1 joint test is the univariate test squared.

Both tails come from the standard library, so that a test loads no scipy:
the normal tail from erf/erfc and the chi-squared tail at integer degrees
of freedom from its finite sums.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .density import (
    DEFAULT_CV_GRID,
    KdeConfig,
    LsConfig,
    _check_tuning,
    _clamp,
    _KdeMachine,
    _ls_densities,
    _sorted_rows,
)
from .errors import (SingularCovarianceError, TooFewEventsError, ValidationError, _check_open_unit,
                     _probabilities)
from .power import _upsilons, _wald_form
from .survival import TwoArmData, _fit_quantiles, _phis, fit_kaplan_meier

_SQRT_HALF = math.sqrt(0.5)


def _normal_two_sided(statistic: float) -> float:
    """2 Phi(-|statistic|), with the branch of scipy's ndtr: 1 - erf(z)
    below z = sqrt(1/2), erfc(z) from there, at z = |statistic| sqrt(1/2)."""
    z = abs(statistic) * _SQRT_HALF
    return 1.0 - math.erf(z) if z < _SQRT_HALF else math.erfc(z)


def _chi2_sf(x: float, dof: int) -> float:
    """P(chi^2_dof > x) at integer dof, from the finite sums of Abramowitz
    & Stegun 26.4.4 (even dof) and 26.4.5 (odd dof). With h = x/2,

        Q = [erfc(sqrt(h)) if dof is odd] + sum_a e^-h h^a / Gamma(a + 1)

    over the dof // 2 exponents a = 0, 1, ... (even) or 1/2, 3/2, ... (odd).
    Each term is the one before it times h / a. Where e^-h is not a normal
    float (x > 1416) but the sum may still be, the terms run down from the
    last and largest one, e^(a log h - h - lgamma(a + 1)), instead."""
    if x == math.inf:
        return 0.0
    h = 0.5 * x
    odd = dof % 2
    total = math.erfc(math.sqrt(h)) if odd else 0.0
    first = 0.5 * odd  # the smallest exponent
    scale = math.exp(-h)
    if scale >= sys.float_info.min:
        term = 2.0 * scale * math.sqrt(h / math.pi) if odd else scale
        for k in range(1, dof // 2 + 1):
            total += term
            term *= h / (first + k)
        return total
    a = first + dof // 2 - 1
    term = math.exp(a * math.log(h) - h - math.lgamma(a + 1.0))
    for _ in range(dof // 2):
        total += term
        term *= a / h
        a -= 1.0
    return total


@dataclass(frozen=True)
class UnivariateTestResult:
    p: float
    delta_hat: float
    sigma_hat: float
    statistic: float
    p_value: float
    density_method: str
    quantile1: float
    quantile2: float
    density1: float
    density2: float
    phi1: float
    phi2: float
    tuning1: float
    tuning2: float
    flags: tuple = ()
    adjusted_p_value: object = None
    reject_adjusted: object = None


@dataclass(frozen=True)
class MultivariateTestResult:
    probabilities: tuple
    delta_hats: np.ndarray
    psi_hat: np.ndarray
    statistic: float
    dof: int
    p_value: float
    tuning1: float
    tuning2: float
    flags: tuple = ()


def _default_tuning(density_method):
    if density_method == "ls":
        # fixed seed so library calls are reproducible by default; pass your
        # own LsConfig to control the draws
        return LsConfig(sigma_eps=1.0, seed=0)
    return KdeConfig(bandwidth="select-by-cv", cv_grid=DEFAULT_CV_GRID)


class _ArmPieces:
    """One arm's KM fit, quantile times, Greenwood factors, raw densities."""

    def __init__(self, sample, probabilities, arm_label):
        self.sample = sample
        self.label = arm_label
        self.fit = fit_kaplan_meier(sample)
        times, sums = _fit_quantiles(self.fit, probabilities, arm_label)
        self.times = times.tolist()
        self.phis = _phis(self.fit.n, sums).tolist()

    def estimate(self, probabilities, density_method, tuning):
        if density_method == "ls":
            self.densities = _ls_densities(self.fit, probabilities, tuning, self.times)
        else:
            try:
                machine = _KdeMachine(*_sorted_rows(self.sample), tuning)
            except TooFewEventsError:
                raise TooFewEventsError(self.label) from None
            self.densities = machine.densities(self.times, probabilities)


def _psi_hat(probabilities, times, phis, densities, mus):
    """(clamped densities, Psi_hat, deltas) from both arms' quantile times,
    Greenwood factors and raw densities, arrays (..., 2, J) with arm 1
    first along the arm axis, and the pair of allocation fractions mus:
    Psi_hat (..., J, J) and the deltas (..., J). One trial or a block of
    them: each Psi_hat is the sum of the arms' power.upsilon bit for bit,
    and a block raises upsilon's error at the first row, and in it the
    first arm, that upsilon rejects."""
    used = _clamp(densities)
    arms = _upsilons(probabilities, times, phis, used, mus)
    return used, arms[..., 0, :, :] + arms[..., 1, :, :], times[..., 0, :] - times[..., 1, :]


class _Assembly:
    """Psi_hat = Upsilon_1 + Upsilon_2 at the probabilities, from both arms.

    Built in two steps. The constructor fits each arm once (KM curve,
    quantile times, Greenwood factors); the automatic LS sigma is tuned on
    those fits. estimate() then adds the densities, clamped at the floor
    before they enter the kernel, Psi_hat and the deltas. Every test reads
    this one object: the univariate test at p_j uses sqrt(psi[j, j]), which
    the kernel computes exactly as its J=1 entry, and the joint test uses
    the whole matrix.
    """

    def __init__(self, data: TwoArmData, probabilities):
        self.n = data.n
        self.mu1, self.mu2 = data.mu1_hat, data.mu2_hat
        self.probabilities = list(probabilities)
        self.arms = tuple(
            _ArmPieces(sample, self.probabilities, label)
            for label, sample in ((1, data.arm1), (2, data.arm2))
        )

    def estimate(self, density_method, tuning):
        """Add the densities, Psi_hat and the deltas; returns self."""
        _check_tuning(density_method, tuning)
        if tuning is None:
            tuning = _default_tuning(density_method)
        self.density_method = density_method
        for arm in self.arms:
            arm.estimate(self.probabilities, density_method, tuning)
        arms = self.arms
        used, self.psi, self.deltas = _psi_hat(
            self.probabilities, np.array([a.times for a in arms]),
            np.array([a.phis for a in arms]),
            np.array([[d.value for d in a.densities] for a in arms]), (self.mu1, self.mu2))
        self.used = used.tolist()
        return self

    def clamped(self, j) -> bool:
        return any(used[j] != arm.densities[j].value
                   for arm, used in zip(self.arms, self.used))

    def flags(self, js) -> tuple:
        """clamped-density if any density at js was floored, then each
        distinct arm{k}:{flag} of those densities, arm 1 first."""
        out = ["clamped-density"] if any(self.clamped(j) for j in js) else []
        for k, arm in enumerate(self.arms, start=1):
            for j in js:
                for flag in arm.densities[j].flags:
                    if f"arm{k}:{flag}" not in out:
                        out.append(f"arm{k}:{flag}")
        return tuple(out)


def _univariate_statistic(n: int, delta_hat: float, psi_jj) -> tuple:
    """(sigma_hat, statistic, two-sided p-value) from a diagonal entry of
    Psi_hat at total sample size n; raises SingularCovarianceError when the
    entry is not positive, as when a density overflows to inf."""
    if not psi_jj > 0:
        raise SingularCovarianceError()
    sigma = math.sqrt(psi_jj)
    statistic = math.sqrt(n) * delta_hat / sigma
    return sigma, statistic, _normal_two_sided(statistic)


def _univariate_from_pieces(assembly: _Assembly, j: int) -> UnivariateTestResult:
    """The univariate test at the assembly's j-th probability."""
    arm1, arm2 = assembly.arms
    d1, d2 = arm1.densities[j], arm2.densities[j]
    delta_hat = float(assembly.deltas[j])
    sigma, statistic, p_value = _univariate_statistic(
        assembly.n, delta_hat, assembly.psi[j, j]
    )
    return UnivariateTestResult(
        p=assembly.probabilities[j],
        delta_hat=delta_hat,
        sigma_hat=sigma,
        statistic=statistic,
        p_value=p_value,
        density_method=assembly.density_method,
        quantile1=arm1.times[j],
        quantile2=arm2.times[j],
        density1=d1.value,
        density2=d2.value,
        phi1=arm1.phis[j],
        phi2=arm2.phis[j],
        tuning1=d1.tuning,
        tuning2=d2.tuning,
        flags=assembly.flags([j]),
    )


def univariate_test(
    data: TwoArmData,
    p: float,
    density_method: str = "ls",
    tuning=None,
) -> UnivariateTestResult:
    """Two-sided test of equality of the p-th survival quantiles."""
    assembly = _Assembly(data, [p]).estimate(density_method, tuning)
    return _univariate_from_pieces(assembly, 0)


def _singular(psi, probabilities) -> SingularCovarianceError:
    """The error for a Psi_hat that is not positive definite."""
    j_count = psi.shape[0]
    if j_count == 1 or not np.all(np.diag(psi) > 0):
        return SingularCovarianceError()
    # name the most collinear pair
    worst, pair = -1.0, (probabilities[0], probabilities[1])
    for j in range(j_count):
        for l in range(j):
            corr = abs(psi[j, l]) / math.sqrt(psi[j, j] * psi[l, l])
            if corr > worst:
                worst, pair = corr, (probabilities[l], probabilities[j])
    return SingularCovarianceError(pair=pair)


def _joint_statistic(n: int, deltas: np.ndarray, psi, probabilities) -> tuple:
    """(Wald statistic, p-value) of the joint test at total sample size n;
    raises SingularCovarianceError when Psi_hat is not positive definite."""
    statistic = _wald_form(psi, math.sqrt(n) * deltas)
    if statistic is None:
        raise _singular(psi, probabilities)
    return statistic, _chi2_sf(statistic, len(probabilities))


def _multivariate_from_pieces(assembly: _Assembly) -> MultivariateTestResult:
    """The joint Wald test over all of the assembly's probabilities."""
    psi, probabilities = assembly.psi, assembly.probabilities
    statistic, p_value = _joint_statistic(assembly.n, assembly.deltas, psi, probabilities)
    dof = len(probabilities)
    arm1, arm2 = assembly.arms
    return MultivariateTestResult(
        probabilities=tuple(probabilities),
        delta_hats=assembly.deltas,
        psi_hat=psi,
        statistic=statistic,
        dof=dof,
        p_value=p_value,
        tuning1=arm1.densities[0].tuning,
        tuning2=arm2.densities[0].tuning,
        flags=assembly.flags(range(dof)),
    )


def multivariate_test(
    data: TwoArmData,
    probabilities,
    density_method: str = "ls",
    tuning=None,
) -> MultivariateTestResult:
    """Wald-type joint test of equality at several quantiles."""
    assembly = _Assembly(data, _probabilities(probabilities))
    return _multivariate_from_pieces(assembly.estimate(density_method, tuning))


def _bonferroni_from_pieces(assembly: _Assembly, alpha):
    """Each probability's univariate test with its Bonferroni adjustment."""
    j_count = len(assembly.probabilities)
    results = []
    for j in range(j_count):
        res = _univariate_from_pieces(assembly, j)
        adjusted = min(1.0, j_count * res.p_value)
        results.append(
            replace(res, adjusted_p_value=adjusted, reject_adjusted=adjusted < alpha)
        )
    return results


def bonferroni_followup(
    data: TwoArmData,
    probabilities,
    density_method: str = "ls",
    tuning=None,
    alpha: float = 0.05,
):
    """Per-quantile univariate tests with Bonferroni-adjusted p-values. The
    probabilities must be distinct, or one would count twice in the adjustment."""
    probabilities = _probabilities(probabilities)
    if len(probabilities) < 2:
        raise ValidationError("Bonferroni follow-up needs at least 2 probabilities")
    _check_open_unit("alpha", alpha)
    # one KM fit and one density set-up (KDE bandwidth selection) per arm,
    # shared by every probability
    return _bonferroni_from_pieces(
        _Assembly(data, probabilities).estimate(density_method, tuning),
        alpha,
    )
