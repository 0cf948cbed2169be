"""Two-sample tests of survival quantile equality.

Univariate: for one probability p, the normalized difference of estimated
quantiles

    T_n = sqrt(n) (F1^{-1}(p) - F2^{-1}(p)) / sigma_hat

is asymptotically standard normal under equality, with

    sigma_hat^2 = (1-p)^2 ( phi1/(mu1 f1^2) + phi2/(mu2 f2^2) )

where phi_k is the per-arm variance factor, f_k the density at the arm's own
quantile, and mu_k the allocation fraction. n is the TOTAL sample size.

Multivariate: for probabilities p_1..p_J, the vector of normalized
differences has covariance Psi = Upsilon_1 + Upsilon_2 with per-arm entries

    Upsilon[j,l] = (1-p_j)(1-p_l) phi(min(t_j,t_l)) / (mu f(t_j) f(t_l))

and the Wald statistic Z' Psi^{-1} Z is asymptotically chi-squared with J
degrees of freedom.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import gammaincc, ndtr

from .density import (
    DensityAtQuantile,
    KdeConfig,
    LsConfig,
    _KdeMachine,
    _ls_density_from_fit,
)
from .errors import (
    SingularCovarianceError,
    UnreachableQuantileError,
    ValidationError,
)
from .survival import (
    KaplanMeierFit,
    TwoArmData,
    fit_kaplan_meier,
    phi_hat,
    quantile_at,
)

DEFAULT_DENSITY_FLOOR = 1e-8

_PSI_RTOL = 1e-10  # relative positive-definiteness tolerance


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
        return LsConfig(sigma_eps=1.0, n_draws=1000, seed=0)
    if density_method == "kde":
        return KdeConfig(bandwidth="select-by-cv",
                         cv_grid=np.arange(0.1, 1.0 + 1e-12, 0.02))
    raise ValidationError(f"unknown density method {density_method!r}")


def _arm_variance_term(p, phi, mu, density):
    # shared by the univariate variance and the Upsilon diagonal so the two
    # agree to the last bit at J=1
    return (1.0 - p) ** 2 * phi / (mu * density * density)


class _ArmPieces:
    """Per-arm quantities shared by the univariate and multivariate paths."""

    def __init__(self, sample, probabilities, density_method, tuning, arm_label):
        self.fit = fit_kaplan_meier(sample)
        self.quantiles = []
        for p in probabilities:
            q = quantile_at(self.fit, p)
            if not q.reachable:
                raise UnreachableQuantileError(
                    p=p, max_probability=self.fit.max_cdf, arm=arm_label
                )
            self.quantiles.append(q)
        self.phis = [phi_hat(self.fit, q.time) for q in self.quantiles]
        if density_method == "ls":
            self.densities = [
                _ls_density_from_fit(self.fit, p, tuning) for p in probabilities
            ]
        elif density_method == "kde":
            machine = _KdeMachine(sample, tuning)
            self.densities = [
                machine.at(q.time, p=p)
                for p, q in zip(probabilities, self.quantiles)
            ]
        else:
            raise ValidationError(f"unknown density method {density_method!r}")


def _both_arms(data: TwoArmData, probabilities, density_method, tuning):
    if tuning is None:
        tuning = _default_tuning(density_method)
    return (
        _ArmPieces(data.arm1, probabilities, density_method, tuning, arm_label=1),
        _ArmPieces(data.arm2, probabilities, density_method, tuning, arm_label=2),
    )


def _clamped_densities(pieces: _ArmPieces, floor):
    values = []
    clamped = False
    for d in pieces.densities:
        c = d.clamped(floor)
        clamped = clamped or (c != d.value)
        values.append(c)
    return values, clamped


def _sigma_from_pieces(data: TwoArmData, p, arm1: _ArmPieces, arm2: _ArmPieces,
                       j: int, density_floor):
    """sigma_hat and its ingredients at the pieces' j-th probability p."""
    d1, d2 = arm1.densities[j], arm2.densities[j]
    f1, f2 = d1.clamped(density_floor), d2.clamped(density_floor)
    variance = _arm_variance_term(p, arm1.phis[j], data.mu1_hat, f1) + \
        _arm_variance_term(p, arm2.phis[j], data.mu2_hat, f2)
    sigma = math.sqrt(variance)
    diagnostics = {
        "p": p,
        "quantile1": arm1.quantiles[j].time,
        "quantile2": arm2.quantiles[j].time,
        "phi1": arm1.phis[j],
        "phi2": arm2.phis[j],
        "density1": d1,
        "density2": d2,
        "density1_used": f1,
        "density2_used": f2,
        "clamped": f1 != d1.value or f2 != d2.value,
        "mu1": data.mu1_hat,
        "mu2": data.mu2_hat,
    }
    return sigma, diagnostics


def sigma_hat_univariate(
    data: TwoArmData,
    p: float,
    density_method: str = "ls",
    tuning=None,
    density_floor: float = DEFAULT_DENSITY_FLOOR,
):
    """Estimated sigma for the univariate statistic, with its ingredients.

    Returns (sigma_hat, diagnostics). diagnostics carries each factor of the
    variance: per-arm quantiles, variance factors, raw and clamped density
    values, and the allocation fractions.
    """
    arm1, arm2 = _both_arms(data, [p], density_method, tuning)
    return _sigma_from_pieces(data, p, arm1, arm2, 0, density_floor)


def _univariate_from_pieces(data: TwoArmData, p, arm1: _ArmPieces,
                            arm2: _ArmPieces, j: int, density_method,
                            density_floor) -> UnivariateTestResult:
    sigma, diag = _sigma_from_pieces(data, p, arm1, arm2, j, density_floor)
    delta_hat = diag["quantile1"] - diag["quantile2"]
    statistic = math.sqrt(data.n) * delta_hat / sigma
    p_value = 2.0 * float(ndtr(-abs(statistic)))
    flags = ("clamped-density",) if diag["clamped"] else ()
    flags += tuple(
        f"arm{k}:{f}" for k, d in ((1, diag["density1"]), (2, diag["density2"]))
        for f in d.flags
    )
    return UnivariateTestResult(
        p=p,
        delta_hat=delta_hat,
        sigma_hat=sigma,
        statistic=statistic,
        p_value=p_value,
        density_method=density_method,
        quantile1=diag["quantile1"],
        quantile2=diag["quantile2"],
        density1=diag["density1"].value,
        density2=diag["density2"].value,
        phi1=diag["phi1"],
        phi2=diag["phi2"],
        tuning1=diag["density1"].tuning,
        tuning2=diag["density2"].tuning,
        flags=flags,
    )


def univariate_test(
    data: TwoArmData,
    p: float,
    density_method: str = "ls",
    tuning=None,
    density_floor: float = DEFAULT_DENSITY_FLOOR,
) -> UnivariateTestResult:
    """Two-sided test of equality of the p-th survival quantiles."""
    arm1, arm2 = _both_arms(data, [p], density_method, tuning)
    return _univariate_from_pieces(
        data, p, arm1, arm2, 0, density_method, density_floor
    )


def upsilon_matrix(fit: KaplanMeierFit, probabilities, densities, mu_hat: float):
    """One arm's covariance contribution for several quantiles.

    densities may be raw floats or DensityAtQuantile results; they must be
    positive (clamping happens before this call).
    """
    probabilities = list(probabilities)
    values = [
        d.value if isinstance(d, DensityAtQuantile) else float(d) for d in densities
    ]
    if len(values) != len(probabilities):
        raise ValidationError("one density per probability is required")
    if any(v <= 0 for v in values):
        raise ValidationError("densities must be positive; clamp before calling")
    if not 0 < mu_hat <= 1:
        raise ValidationError("mu_hat must lie in (0, 1]")
    times = []
    for p in probabilities:
        q = quantile_at(fit, p)
        if not q.reachable:
            raise UnreachableQuantileError(p=p, max_probability=fit.max_cdf)
        times.append(q.time)
    phis = [phi_hat(fit, t) for t in times]
    j_count = len(probabilities)
    matrix = np.empty((j_count, j_count))
    for j in range(j_count):
        matrix[j, j] = _arm_variance_term(
            probabilities[j], phis[j], mu_hat, values[j]
        )
        for l in range(j):
            early = j if times[j] <= times[l] else l
            matrix[j, l] = matrix[l, j] = (
                (1.0 - probabilities[j]) * (1.0 - probabilities[l])
                * phis[early] / (mu_hat * values[j] * values[l])
            )
    return matrix


def _check_positive_definite(psi, probabilities):
    eigenvalues = np.linalg.eigvalsh(psi)
    if eigenvalues[0] > _PSI_RTOL * max(eigenvalues[-1], 0.0) and eigenvalues[0] > 0:
        return
    j_count = psi.shape[0]
    if j_count == 1:
        raise SingularCovarianceError(
            message="quantile variance is not positive"
        )
    # name the most collinear pair
    worst, pair = -1.0, (probabilities[0], probabilities[1])
    for j in range(j_count):
        for l in range(j):
            corr = abs(psi[j, l]) / math.sqrt(psi[j, j] * psi[l, l])
            if corr > worst:
                worst, pair = corr, (probabilities[l], probabilities[j])
    raise SingularCovarianceError(pair=pair)


def multivariate_test(
    data: TwoArmData,
    probabilities,
    density_method: str = "ls",
    tuning=None,
    density_floor: float = DEFAULT_DENSITY_FLOOR,
) -> MultivariateTestResult:
    """Wald-type joint test of equality at several quantiles."""
    probabilities = list(probabilities)
    if len(probabilities) < 1:
        raise ValidationError("at least one probability is required")
    if len(set(probabilities)) != len(probabilities):
        raise ValidationError("probabilities must be distinct")
    arm1, arm2 = _both_arms(data, probabilities, density_method, tuning)
    values1, clamped1 = _clamped_densities(arm1, density_floor)
    values2, clamped2 = _clamped_densities(arm2, density_floor)
    psi = upsilon_matrix(arm1.fit, probabilities, values1, data.mu1_hat) + \
        upsilon_matrix(arm2.fit, probabilities, values2, data.mu2_hat)
    _check_positive_definite(psi, probabilities)
    deltas = np.array(
        [q1.time - q2.time for q1, q2 in zip(arm1.quantiles, arm2.quantiles)]
    )
    z = math.sqrt(data.n) * deltas
    factor = cho_factor(psi, lower=True)
    statistic = float(z @ cho_solve(factor, z))
    dof = len(probabilities)
    p_value = float(gammaincc(dof / 2.0, statistic / 2.0))
    flags = ("clamped-density",) if (clamped1 or clamped2) else ()
    return MultivariateTestResult(
        probabilities=tuple(probabilities),
        delta_hats=deltas,
        psi_hat=psi,
        statistic=statistic,
        dof=dof,
        p_value=p_value,
        tuning1=arm1.densities[0].tuning,
        tuning2=arm2.densities[0].tuning,
        flags=flags,
    )


def bonferroni_followup(
    data: TwoArmData,
    probabilities,
    density_method: str = "ls",
    tuning=None,
    alpha: float = 0.05,
    density_floor: float = DEFAULT_DENSITY_FLOOR,
):
    """Per-quantile univariate tests with Bonferroni-adjusted p-values."""
    probabilities = list(probabilities)
    if len(probabilities) < 2:
        raise ValidationError("Bonferroni follow-up needs at least 2 probabilities")
    if not 0 < alpha < 1:
        raise ValidationError("alpha must lie strictly between 0 and 1")
    # one KM fit and one density set-up (KDE bandwidth selection) per arm,
    # shared by every probability
    arm1, arm2 = _both_arms(data, probabilities, density_method, tuning)
    j_count = len(probabilities)
    results = []
    for j, p in enumerate(probabilities):
        res = _univariate_from_pieces(
            data, p, arm1, arm2, j, density_method, density_floor
        )
        adjusted = min(1.0, j_count * res.p_value)
        results.append(
            replace(res, adjusted_p_value=adjusted, reject_adjusted=adjusted < alpha)
        )
    return results
