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

sigma_hat^2 and Psi both come from the arm kernel power.upsilon, fed with
each arm's Kaplan-Meier quantiles t_j, Greenwood variance factors phi(t_j),
clamped density estimates f(t_j) and allocation fraction mu; sigma_hat^2 is
its J=1 case, so the J=1 joint test is the univariate test squared.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaincc, ndtr

from .density import (
    DEFAULT_CV_GRID,
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
from .power import upsilon
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
        return KdeConfig(bandwidth="select-by-cv", cv_grid=DEFAULT_CV_GRID)
    raise ValidationError(f"unknown density method {density_method!r}")


class _ArmPieces:
    """Per-arm quantities shared by the univariate and multivariate paths."""

    def __init__(self, sample, probabilities, density_method, tuning, arm_label):
        fit = fit_kaplan_meier(sample)
        self.quantiles = []
        for p in probabilities:
            q = quantile_at(fit, p)
            if not q.reachable:
                raise UnreachableQuantileError(
                    p=p, max_probability=fit.max_cdf, arm=arm_label
                )
            self.quantiles.append(q)
        self.phis = [phi_hat(fit, q.time) for q in self.quantiles]
        if density_method == "ls":
            self.densities = [
                _ls_density_from_fit(fit, p, tuning) for p in probabilities
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
    variance = (
        upsilon([p], [arm1.quantiles[j].time], [arm1.phis[j]], [f1], data.mu1_hat)
        + upsilon([p], [arm2.quantiles[j].time], [arm2.phis[j]], [f2], data.mu2_hat)
    )
    sigma = math.sqrt(variance[0, 0])
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

    power.upsilon at the fit's quantiles and their Greenwood factors
    phi_hat. densities may be raw floats or DensityAtQuantile results; they
    must be positive (clamping happens before this call).
    """
    probabilities = list(probabilities)
    values = [
        d.value if isinstance(d, DensityAtQuantile) else float(d) for d in densities
    ]
    if len(values) != len(probabilities):
        raise ValidationError("one density per probability is required")
    if not 0 < mu_hat <= 1:
        raise ValidationError("mu_hat must lie in (0, 1]")
    times = []
    for p in probabilities:
        q = quantile_at(fit, p)
        if not q.reachable:
            raise UnreachableQuantileError(p=p, max_probability=fit.max_cdf)
        times.append(q.time)
    phis = [phi_hat(fit, t) for t in times]
    return upsilon(probabilities, times, phis, values, mu_hat)


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


def _multivariate_from_pieces(data: TwoArmData, probabilities, arm1: _ArmPieces,
                              arm2: _ArmPieces,
                              density_floor) -> MultivariateTestResult:
    values1, clamped1 = _clamped_densities(arm1, density_floor)
    values2, clamped2 = _clamped_densities(arm2, density_floor)
    psi = (
        upsilon(probabilities, [q.time for q in arm1.quantiles], arm1.phis,
                values1, data.mu1_hat)
        + upsilon(probabilities, [q.time for q in arm2.quantiles], arm2.phis,
                  values2, data.mu2_hat)
    )
    _check_positive_definite(psi, probabilities)
    deltas = np.array(
        [q1.time - q2.time for q1, q2 in zip(arm1.quantiles, arm2.quantiles)]
    )
    root = np.linalg.solve(np.linalg.cholesky(psi), math.sqrt(data.n) * deltas)
    statistic = float(root @ root)
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
    return _multivariate_from_pieces(data, probabilities, arm1, arm2, density_floor)


def _bonferroni_from_pieces(data: TwoArmData, probabilities, arm1: _ArmPieces,
                            arm2: _ArmPieces, density_method, alpha,
                            density_floor):
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
    return _bonferroni_from_pieces(
        data, probabilities, arm1, arm2, density_method, alpha, density_floor
    )
