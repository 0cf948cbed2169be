"""Tests for the closed-form power formulas and the sample size search."""

import ast
import math
import os
import re
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

import survquant
from survquant import (
    PowerSpec,
    chi2_cdf,
    chi2_quantile,
    min_sample_size,
    noncentral_chi2_cdf,
    normal_cdf,
    normal_quantile,
    power_multivariate,
    power_univariate,
    scenario_from_delta,
    scenario_psi,
    scenario_sigma2,
)
from survquant import power, simulate
from survquant.power import SampleSizeResult, upsilon
from survquant.errors import (
    SingularCovarianceError,
    UnattainablePowerError,
    ValidationError,
)

# Variance of the median difference in the exponential reference setting,
# reused by several frozen-value checks below.
SIGMA2_REF = 1.6098996665207


class TestNormalHelpers:
    def test_cdf_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_cdf_symmetry(self):
        for x in [0.3, 1.0, 2.5, 4.0]:
            assert normal_cdf(-x) == pytest.approx(1.0 - normal_cdf(x), abs=1e-15)

    def test_quantile_crosscheck(self):
        # the 97.5% point of the standard normal
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, rel=1e-12)

    def test_round_trip(self):
        for p in [0.001, 0.05, 0.3, 0.5, 0.9, 0.999]:
            assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_quantile_domain(self, p):
        with pytest.raises(ValidationError, match="strictly between 0 and 1"):
            normal_quantile(p)


class TestChiSquared:
    def test_two_dof_closed_form(self):
        # with 2 degrees of freedom the chi-squared is Exp(1/2),
        # so F(x) = 1 - exp(-x/2)
        x = np.array([0.3, 1.0, 2.7, 8.0])
        assert_allclose(chi2_cdf(x, 2), 1.0 - np.exp(-x / 2.0), rtol=1e-12)

    def test_quantile_95_two_dof(self):
        assert chi2_quantile(0.95, 2) == pytest.approx(5.991464547107979, rel=1e-13)

    def test_quantile_round_trip(self):
        for dof in [1, 2, 5]:
            for p in [0.05, 0.5, 0.95]:
                q = chi2_quantile(p, dof)
                assert float(chi2_cdf(q, dof)) == pytest.approx(p, abs=1e-12)

    def test_rejects_bad_dof(self):
        with pytest.raises(ValidationError, match="at least 1"):
            chi2_cdf(1.0, 0)
        with pytest.raises(ValidationError, match="at least 1"):
            chi2_quantile(0.5, 0)

    def test_rejects_bad_p(self):
        with pytest.raises(ValidationError, match="strictly between 0 and 1"):
            chi2_quantile(1.0, 3)


class TestNoncentralChiSquared:
    def test_zero_noncentrality_is_central(self):
        for x in [0.5, 3.0, 10.0]:
            assert noncentral_chi2_cdf(x, 3, 0.0) == float(chi2_cdf(x, 3))

    def test_one_dof_folded_normal_identity(self):
        # with 1 dof, X = (Z + sqrt(lam))^2, so
        # F(x) = Phi(sqrt(x) - sqrt(lam)) - Phi(-sqrt(x) - sqrt(lam))
        for x in [0.5, 2.0, 6.0, 15.0]:
            for lam in [0.3, 2.5, 12.0]:
                expected = normal_cdf(math.sqrt(x) - math.sqrt(lam)) - normal_cdf(
                    -math.sqrt(x) - math.sqrt(lam)
                )
                assert noncentral_chi2_cdf(x, 1, lam) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_against_scipy_grid(self):
        for x in [1.0, 4.0, 9.0, 20.0]:
            for dof in [1, 2, 4, 7]:
                for lam in [0.1, 1.0, 5.0, 25.0]:
                    assert noncentral_chi2_cdf(x, dof, lam) == pytest.approx(
                        float(stats.ncx2.cdf(x, dof, lam)), abs=1e-10
                    )

    def test_reference_values(self):
        assert noncentral_chi2_cdf(3.0, 1, 2.5) == pytest.approx(
            0.5595162319049038, abs=1e-10
        )
        assert noncentral_chi2_cdf(12.0, 4, 7.0) == pytest.approx(
            0.6241544848352638, abs=1e-10
        )

    def test_huge_noncentrality_small_threshold(self):
        # the regime the power formula actually visits: fixed rejection
        # threshold, noncentrality growing with n
        assert noncentral_chi2_cdf(30.0, 2, 3000.0) <= 1e-12

    @pytest.mark.parametrize(
        "args", [(-1.0, 2, 1.0), (1.0, 0, 1.0), (1.0, 2, -0.5)]
    )
    def test_domain_errors(self, args):
        with pytest.raises(ValidationError):
            noncentral_chi2_cdf(*args)


class TestPowerSpec:
    def test_total_n_property(self):
        spec = PowerSpec(alpha=0.05, deltas=0.1, sigma=1.0, total_n=10)
        assert spec.n_total == 10
        spec = PowerSpec(alpha=0.05, deltas=0.1, sigma=1.0, per_group_n=7)
        assert spec.n_total == 14

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValidationError, match="alpha"):
            PowerSpec(alpha=alpha, deltas=0.1, sigma=1.0, total_n=100)

    def test_exactly_one_sample_size(self):
        with pytest.raises(ValidationError, match="exactly one of total_n"):
            PowerSpec(alpha=0.05, deltas=0.1, sigma=1.0, total_n=100, per_group_n=50)
        with pytest.raises(ValidationError, match="exactly one of total_n"):
            PowerSpec(alpha=0.05, deltas=0.1, sigma=1.0)

    def test_sample_size_floor(self):
        with pytest.raises(ValidationError, match="at least 2"):
            PowerSpec(alpha=0.05, deltas=0.1, sigma=1.0, total_n=1)

    def test_exactly_one_variance_input(self):
        with pytest.raises(ValidationError, match="exactly one of sigma or psi"):
            PowerSpec(alpha=0.05, deltas=0.1, sigma=1.0, psi=[[1.0]], total_n=100)
        with pytest.raises(ValidationError, match="exactly one of sigma or psi"):
            PowerSpec(alpha=0.05, deltas=0.1, total_n=100)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValidationError, match="positive"):
            PowerSpec(alpha=0.05, deltas=0.1, sigma=0.0, total_n=100)

    @pytest.mark.parametrize("field,value", [
        ("per_group_n", 100.7), ("total_n", math.nan), ("total_n", math.inf),
        ("total_n", 200.5),
    ])
    def test_whole_sample_size(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be a whole number"):
            PowerSpec(alpha=0.05, deltas=0.1, sigma=1.0, **{field: value})

    def test_integral_sample_sizes(self):
        expected = power_univariate(PowerSpec(alpha=0.05, deltas=0.1, sigma=1.0,
                                              per_group_n=100))
        for kwargs in ({"per_group_n": 100.0}, {"per_group_n": np.int64(100)},
                       {"total_n": 200.0}, {"total_n": np.float64(200)}):
            spec = PowerSpec(alpha=0.05, deltas=0.1, sigma=1.0, **kwargs)
            assert spec.n_total == 200 and type(spec.n_total) is int
            assert power_univariate(spec) == expected


class TestPowerUnivariate:
    def test_null_gives_exactly_alpha(self):
        spec = PowerSpec(alpha=0.05, deltas=0.0, sigma=1.3, total_n=400)
        assert power_univariate(spec) == 0.05

    def test_reference_value(self):
        spec = PowerSpec(
            alpha=0.05, deltas=0.1, sigma=math.sqrt(SIGMA2_REF), total_n=1000
        )
        assert power_univariate(spec) == pytest.approx(0.702758153366563, rel=1e-12)

    def test_sign_symmetry(self):
        plus = PowerSpec(alpha=0.05, deltas=0.25, sigma=1.1, total_n=300)
        minus = PowerSpec(alpha=0.05, deltas=-0.25, sigma=1.1, total_n=300)
        assert power_univariate(plus) == power_univariate(minus)

    def test_monotone_in_n(self):
        powers = [
            power_univariate(
                PowerSpec(alpha=0.05, deltas=0.1, sigma=1.2, total_n=n)
            )
            for n in range(100, 1100, 100)
        ]
        assert all(a < b for a, b in zip(powers, powers[1:]))

    def test_monotone_in_delta(self):
        powers = [
            power_univariate(
                PowerSpec(alpha=0.05, deltas=d, sigma=1.0, total_n=200)
            )
            for d in np.arange(0.05, 0.55, 0.05)
        ]
        assert all(a < b for a, b in zip(powers, powers[1:]))

    def test_per_group_matches_total(self):
        by_group = PowerSpec(alpha=0.05, deltas=0.2, sigma=1.0, per_group_n=250)
        by_total = PowerSpec(alpha=0.05, deltas=0.2, sigma=1.0, total_n=500)
        assert power_univariate(by_group) == power_univariate(by_total)

    def test_requires_sigma(self):
        spec = PowerSpec(alpha=0.05, deltas=[0.1], psi=[[1.0]], total_n=100)
        with pytest.raises(ValidationError, match="scalar sigma"):
            power_univariate(spec)

    def test_vector_delta_names_delta(self):
        # numpy's .item() raised a bare ValueError here
        spec = PowerSpec(alpha=0.05, deltas=[0.1, 0.2], sigma=1.0, per_group_n=10)
        with pytest.raises(ValidationError, match="delta must be a single number"):
            power_univariate(spec)


class TestPowerMultivariate:
    def test_null_gives_exactly_alpha(self):
        spec = PowerSpec(
            alpha=0.05, deltas=[0.0, 0.0], psi=np.eye(2), total_n=400
        )
        assert power_multivariate(spec) == 0.05

    def test_one_dim_matches_univariate(self):
        # a 1x1 psi is just sigma^2, and the chi-squared test with one
        # degree of freedom is the square of the two-sided normal test
        for n, delta, sigma in [(200, 0.1, 1.0), (500, 0.3, 1.7), (80, -0.2, 0.9)]:
            uni = power_univariate(
                PowerSpec(alpha=0.05, deltas=delta, sigma=sigma, total_n=n)
            )
            multi = power_multivariate(
                PowerSpec(
                    alpha=0.05, deltas=[delta], psi=[[sigma * sigma]], total_n=n
                )
            )
            assert multi == pytest.approx(uni, abs=1e-10)

    def test_reference_value(self):
        # n * quad = 200 * (0.01 + 0.04) = 10, threshold chi2(0.95, 2)
        spec = PowerSpec(
            alpha=0.05, deltas=[0.1, 0.2], psi=np.eye(2), total_n=200
        )
        assert power_multivariate(spec) == pytest.approx(
            0.8154213787106634, abs=1e-10
        )

    def test_congruence_invariance(self):
        # the noncentrality d' psi^{-1} d is unchanged by d -> A d,
        # psi -> A psi A' for invertible A
        psi = np.array([[1.0, 0.3], [0.3, 2.0]])
        deltas = np.array([0.15, -0.1])
        a = np.array([[2.0, 1.0], [0.5, 3.0]])
        base = power_multivariate(
            PowerSpec(alpha=0.05, deltas=deltas, psi=psi, total_n=300)
        )
        mapped = power_multivariate(
            PowerSpec(alpha=0.05, deltas=a @ deltas, psi=a @ psi @ a.T, total_n=300)
        )
        assert mapped == pytest.approx(base, rel=1e-12)

    def test_singular_psi_rejected(self):
        spec = PowerSpec(
            alpha=0.05, deltas=[0.1, 0.1], psi=[[1.0, 1.0], [1.0, 1.0]], total_n=100
        )
        with pytest.raises(SingularCovarianceError):
            power_multivariate(spec)

    def test_positive_definite_tolerance(self):
        """One quadratic form and one tolerance serve the power formula and
        the joint test: psi is singular unless its smallest eigenvalue is
        positive and above _PSI_RTOL times the largest."""
        from survquant.power import _PSI_RTOL, _wald_form

        z = np.array([1.0, 2.0])
        assert _wald_form(np.diag([1.0, 4.0]), z) == 2.0
        assert _wald_form(np.diag([1.0, 2 * _PSI_RTOL]), z) > 0
        for psi in (np.diag([1.0, _PSI_RTOL]), np.diag([1.0, -1.0]),
                    np.zeros((2, 2)), np.diag([1.0, np.nan]), np.diag([np.inf, 1.0])):
            assert _wald_form(psi, z) is None
            with pytest.raises(SingularCovarianceError, match="power formula"):
                power_multivariate(
                    PowerSpec(alpha=0.05, deltas=z, psi=psi, total_n=100)
                )

    def test_shape_mismatch(self):
        spec = PowerSpec(alpha=0.05, deltas=[0.1, 0.2, 0.3], psi=np.eye(2), total_n=100)
        with pytest.raises(ValidationError, match="shape"):
            power_multivariate(spec)

    def test_requires_psi(self):
        spec = PowerSpec(alpha=0.05, deltas=0.1, sigma=1.0, total_n=100)
        with pytest.raises(ValidationError, match="psi matrix"):
            power_multivariate(spec)


class TestOutOfRange:
    """Inputs past the range of a float or of scipy's chndtr get the honest
    limit or a clean error, never a warning (pytest runs with warnings as
    errors) or a nan."""

    def test_overflowing_wald_form_is_a_validation_error(self):
        psi = np.eye(2) * 1e-300
        with pytest.raises(ValidationError, match="must be finite"):
            power_multivariate(PowerSpec(alpha=0.05, deltas=[1e5, 1e5], psi=psi, total_n=100))
        with pytest.raises(ValidationError, match="must be finite"):
            min_sample_size(0.9, [1e5, 1e5], psi=psi)
        # the smallest normal float: the squared root 1.34e154 ** 2 overflows
        psi, z = np.array([[2.2250738585072014e-308]]), np.array([2.0])
        assert power._wald_form(psi, z) == _reference_wald_form(psi, z) == math.inf

    def test_cdf_past_chndtr_range_is_the_normal_limit(self):
        assert noncentral_chi2_cdf(5.0, 3, 1e300) == 0.0
        assert noncentral_chi2_cdf(math.inf, 3, 1e300) == 1.0
        # mean dof + lam, standard deviation sqrt(2 dof + 4 lam)
        lam = 1e19
        assert noncentral_chi2_cdf(lam + 3.0, 3, lam) == 0.5
        sd = math.sqrt(6.0 + 4.0 * lam)
        assert noncentral_chi2_cdf(lam + 3.0 + sd, 3, lam) == pytest.approx(
            float(normal_cdf(1.0)), abs=1e-6)  # x rounds to a multiple of 2048

    @pytest.mark.parametrize("lam, ks", [(1e11, (0, 1, 10)), (1e14, range(-10, 11))],
                             ids=["1e11", "1e14"])
    def test_cdf_where_chndtr_gives_nan_is_the_normal_limit(self, lam, ks):
        """chndtr gives nan near the mean from a noncentrality of about 1e11
        (scipy 1.17); the CDF there is the normal limit, whose error is of
        the order of the skewness 3 / sqrt(lam)."""
        sd = math.sqrt(6.0 + 4.0 * lam)
        for k in ks:
            assert noncentral_chi2_cdf(lam + 3.0 + k * sd, 3, lam) == pytest.approx(
                float(normal_cdf(k)), abs=1e-5)
        # where chndtr answers, its answer stands
        assert noncentral_chi2_cdf(1e10 + 3.0, 3, 1e10) == 0.5000019947108776

    def test_joint_power_past_chndtr_range_is_one(self):
        psi = np.eye(2) * 1e-19  # noncentrality 2 * 2e19 at one per group
        assert power_multivariate(
            PowerSpec(alpha=0.05, deltas=[1.0, 1.0], psi=psi, per_group_n=1)) == 1.0
        result = min_sample_size(0.9, [1.0, 1.0], psi=psi)
        assert (result.per_group_n, result.achieved_power) == (1, 1.0)
        assert result.per_group_n == min_sample_size(0.9, [1.0, 1.0], psi=psi * 10).per_group_n
        assert result.per_group_n == min_sample_size(0.9, 1.0, sigma=math.sqrt(1e-19)).per_group_n


def _reference_wald_form(psi, z):
    """_wald_form's rule through the public np.linalg calls; the LinAlgError
    that eigvalsh raises on some nan or inf psi counts as None."""
    try:
        eigenvalues = np.linalg.eigvalsh(psi)
        if not (eigenvalues[0] > 0
                and eigenvalues[0] > power._PSI_RTOL * eigenvalues[-1]):
            return None
        root = np.linalg.solve(np.linalg.cholesky(psi), z)
    except np.linalg.LinAlgError:
        return None
    with np.errstate(over="ignore"):  # as in _wald_form: an overflow is inf
        return float(np.add.reduce(root * root))


def _bits(value):
    return None if value is None else struct.pack("<d", value)


@st.composite
def wald_inputs(draw):
    """(psi, z): psi = A A' + diag, or with eigenvalues within a factor of 2
    of the _PSI_RTOL edge; then perhaps inf or nan entries, or an upper
    triangle that is not the mirror of the lower one."""
    size = draw(st.integers(1, 5))

    def floats(count, low, high):
        return np.array(draw(st.lists(st.floats(low, high), min_size=count,
                                      max_size=count)))

    if draw(st.booleans()):
        root = floats(size * size, -3.0, 3.0).reshape(size, size)
        psi = root @ root.T + np.diag(floats(size, 0.0, 2.0))
    else:
        largest = 10.0 ** draw(st.floats(-3.0, 3.0))
        smallest = draw(st.floats(0.5, 2.0)) * power._PSI_RTOL * largest
        eigenvalues = np.concatenate(
            ([smallest, largest], floats(max(size - 2, 0), smallest, largest)))[:size]
        basis, _ = np.linalg.qr(floats(size * size, -1.0, 1.0).reshape(size, size))
        psi = (basis * eigenvalues) @ basis.T
    change = draw(st.sampled_from(["none", "non-finite", "upper"]))
    if change == "non-finite":
        cells = draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
                              min_size=1, max_size=size * size))
        for cell in cells:
            psi[cell] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    elif change == "upper":
        psi = psi + np.triu(floats(size * size, -5.0, 5.0).reshape(size, size), 1)
    return psi, floats(size, -10.0, 10.0)


class TestWaldForm:
    """_wald_form calls numpy's LAPACK gufuncs without np.linalg's wrappers;
    it must give the bits of the public calls under the same rule."""

    @settings(max_examples=300, deadline=None)
    @given(wald_inputs())
    def test_same_bits_as_numpy_linalg(self, inputs):
        psi, z = inputs
        assert _bits(power._wald_form(psi, z)) == _bits(_reference_wald_form(psi, z))

    def test_reads_only_the_lower_triangle(self):
        # the lower triangle is positive definite, the mirror of the upper
        # one is not: reading the upper triangle gives None or nan
        psi = np.array([[2.0, -50.0, 7.0], [0.5, 3.0, 99.0], [0.1, 0.2, 4.0]])
        lower = np.tril(psi) + np.tril(psi, -1).T
        z = np.array([1.0, -2.0, 0.5])
        got = power._wald_form(psi, z)
        assert got is not None
        assert _bits(got) == _bits(_reference_wald_form(psi, z))
        assert _bits(got) == _bits(power._wald_form(lower, z))
        assert power._wald_form(np.triu(psi) + np.triu(psi, 1).T, z) is None


class TestMinSampleSize:
    def test_certificate_holds(self):
        result = min_sample_size(0.9, 0.25, sigma=1.4)
        assert result.total_n == 2 * result.per_group_n
        assert result.achieved_power >= 0.9
        assert result.power_at_n_minus_1 < 0.9
        assert result.target_power == 0.9

    def test_reference_cell_knife_edge(self):
        # per-group 1047 clears the 95% target by less than 2e-4 and 1046
        # misses it by less than 2e-6, so this pins the scan boundary hard
        result = min_sample_size(0.95, 0.1, sigma=math.sqrt(SIGMA2_REF))
        assert result.per_group_n == 1047
        assert result.achieved_power == pytest.approx(0.9501758, abs=1e-7)
        assert result.power_at_n_minus_1 == pytest.approx(0.9499984, abs=1e-7)
        assert result.power_at_n_minus_1 < 0.95

    def test_reference_cell_larger_delta(self):
        # the variance is evaluated under the alternative, so the d=0.2
        # cell carries its own sigma^2 rather than SIGMA2_REF
        result = min_sample_size(0.8, 0.2, sigma=math.sqrt(1.314779779586334))
        assert result.per_group_n == 129
        assert result.achieved_power == pytest.approx(0.8000181, abs=1e-7)
        assert result.power_at_n_minus_1 == pytest.approx(0.7969584, abs=1e-7)

    def test_tiny_target_bottoms_out_at_one(self):
        result = min_sample_size(0.06, 2.0, sigma=1.0)
        assert result.per_group_n == 1
        assert result.achieved_power >= 0.06
        # n = 0 degenerates to the null rejection rate
        assert result.power_at_n_minus_1 == pytest.approx(0.05)

    def test_zero_delta_unattainable(self):
        with pytest.raises(UnattainablePowerError, match="delta is 0"):
            min_sample_size(0.8, 0.0, sigma=1.0)

    def test_vector_delta_with_sigma_names_delta(self):
        # numpy's .item() raised a bare ValueError here
        with pytest.raises(ValidationError, match="delta must be a single number"):
            min_sample_size(0.8, [0.1, 0.2], sigma=1.0)

    def test_zero_delta_vector_unattainable(self):
        with pytest.raises(UnattainablePowerError, match="all deltas"):
            min_sample_size(0.8, [0.0, 0.0], psi=np.eye(2))

    @pytest.mark.parametrize("target", [0.05, 0.01, 1.0, 1.2])
    def test_target_domain(self, target):
        with pytest.raises(UnattainablePowerError, match="between"):
            min_sample_size(target, 0.2, sigma=1.0)

    def test_exactly_one_variance_input(self):
        with pytest.raises(ValidationError, match="exactly one"):
            min_sample_size(0.8, 0.2, sigma=1.0, psi=[[1.0]])
        with pytest.raises(ValidationError, match="exactly one"):
            min_sample_size(0.8, 0.2)

    def test_psi_route_matches_sigma_route_in_one_dim(self):
        # 1.5^2 = 2.25 is exact in binary, so both routes see the same
        # variance
        by_sigma = min_sample_size(0.9, 0.25, sigma=1.5)
        by_psi = min_sample_size(0.9, [0.25], psi=[[2.25]])
        assert by_psi.per_group_n == by_sigma.per_group_n
        assert by_psi.achieved_power == pytest.approx(
            by_sigma.achieved_power, abs=1e-9
        )

    def test_multivariate_certificate(self):
        psi = np.array([[1.0, 0.4], [0.4, 1.5]])
        result = min_sample_size(0.85, [0.12, 0.1], psi=psi, alpha=0.05)
        assert result.achieved_power >= 0.85
        assert result.power_at_n_minus_1 < 0.85

    @pytest.mark.parametrize("target", [0.8, 0.999999])
    @pytest.mark.parametrize("kind", ["sigma", "psi"])
    def test_tiny_delta_settles_with_certificate(self, kind, target):
        """Near 1e14 per group the univariate seed is off by up to 2e9
        subjects (the far tail it ignores) and the chndtrinc seed by up to a
        few thousand (its root finder's tolerance); the search still settles
        in a few dozen power evaluations."""
        if kind == "sigma":
            result = min_sample_size(target, 1e-7, sigma=1.4)
        else:
            result = min_sample_size(target, [1e-7] * 3, psi=np.eye(3))
        assert result.per_group_n > 1e13
        assert result.achieved_power >= target
        assert result.power_at_n_minus_1 < target

    @pytest.mark.parametrize("deltas,variance", [
        (1e-12, {"sigma": 1.0}),  # the seed is past the cap
        (1e-200, {"sigma": 1.0}),  # the seed overflows
        ([1.8e-8] * 3, {"psi": np.eye(3)}),  # the seed is under the cap, n is not
    ])
    def test_past_the_cap_unattainable(self, deltas, variance):
        with pytest.raises(UnattainablePowerError, match=r"more than 2\^52"):
            min_sample_size(0.8, deltas, **variance)

    def test_target_just_above_alpha_past_the_seed_cap(self):
        # the normal-quantile seed is about 1e5 times n, past 2^52, so the
        # search starts at the cap and gallops down
        result = min_sample_size(0.0500001, 1e-9, sigma=1.0)
        assert result.per_group_n == 436_489_705_097
        assert result.achieved_power == 0.05000010000000002
        assert result.power_at_n_minus_1 == 0.05000009999999999

    def test_joint_target_just_above_alpha(self):
        # the plan's J=3 delayed-effect inputs with deltas x 1e-8
        psi, deltas = plan_joint_inputs(0.1, 0.2, (0.25, 0.5, 0.75))
        result = min_sample_size(0.0500001, deltas * 1e-8, psi=psi)
        assert result.per_group_n == 441_979_808_340
        assert result.achieved_power >= 0.0500001 > result.power_at_n_minus_1


# The plan the benchmark solves: exponential arm at rate 1.5, quantile p=0.5
# shifted by delta, equal hazards until t_cut or none, censoring at rate 0.48.
PLAN_FAMILIES = (None, 0.2)
PLAN_TARGETS = (0.8, 0.9, 0.95)


def plan_joint_inputs(delta, t_cut, ps):
    scenario = scenario_from_delta(1.5, 0.5, delta, t_cut=t_cut, censoring_rate=0.48)
    psi = scenario_psi(scenario, ps)
    return psi, np.array([scenario.quantile_difference(p) for p in ps])


class _CountingSpecial:
    """scipy.special with chndtr and chndtrinc calls counted."""

    def __init__(self, module, counts):
        self._module, self._counts = module, counts

    def __getattr__(self, name):
        function = getattr(self._module, name)
        if name not in ("chndtr", "chndtrinc"):
            return function

        def counted(*args):
            self._counts[name] += 1
            return function(*args)

        return counted


def clear_memos():
    """Empty power's planning memos, so that the next call runs cold."""
    power._last_design = None
    for cache in (power._normal_quantile, power._chi2_quantile, power._joint_seed):
        cache.cache_clear()


class TestSolveWork:
    """A seed whose ceiling is the answer settles a solve in two power
    evaluations, and the certificate reuses them. A cold joint solve asks
    chndtrinc for its seed once, and a warm repeat not at all."""

    @pytest.fixture
    def counts(self, monkeypatch):
        clear_memos()
        counts = {"chndtr": 0, "chndtrinc": 0, "univariate": 0}
        module = power._special()
        monkeypatch.setattr(power, "_special", lambda: _CountingSpecial(module, counts))
        univariate = power._univariate_power

        def counted(*args):
            counts["univariate"] += 1
            return univariate(*args)

        monkeypatch.setattr(power, "_univariate_power", counted)
        return counts

    @pytest.mark.parametrize("ps", [(0.5, 0.75), (0.25, 0.5, 0.75), (0.2, 0.4, 0.6, 0.8)])
    @pytest.mark.parametrize("t_cut", PLAN_FAMILIES)
    def test_joint_solve_calls(self, counts, t_cut, ps):
        psi, deltas = plan_joint_inputs(0.1, t_cut, ps)
        for target in PLAN_TARGETS:
            clear_memos()
            before = dict(counts)
            result = min_sample_size(target, deltas, psi=psi)
            assert counts["chndtr"] - before["chndtr"] <= 2
            assert counts["chndtrinc"] - before["chndtrinc"] == 1
            assert result.achieved_power >= target > result.power_at_n_minus_1
            before = dict(counts)
            assert min_sample_size(target, deltas, psi=psi) == result
            assert counts["chndtr"] - before["chndtr"] <= 2
            assert counts["chndtrinc"] - before["chndtrinc"] == 0

    @pytest.mark.parametrize("p", [0.5, 0.75])
    @pytest.mark.parametrize("t_cut", PLAN_FAMILIES)
    def test_univariate_solve_evaluations(self, counts, t_cut, p):
        scenario = scenario_from_delta(1.5, p, 0.1, t_cut=t_cut, censoring_rate=0.48)
        sigma = math.sqrt(scenario_sigma2(scenario, p)[0])
        for target in PLAN_TARGETS:
            before = counts["univariate"]
            min_sample_size(target, 0.1, sigma=sigma)
            assert counts["univariate"] - before <= 2


def _reference_solve(power_at, target):
    """Plain bisection over [1, 2^52] per group with the certificate, where
    power_at(n) is the power at n per group and power at 0 is below target."""
    cap = 2 ** 52
    if not power_at(cap) >= target:
        raise UnattainablePowerError(
            f"power {target:g} needs more than 2^52 subjects per group"
        )
    lo, hi = 0, cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if power_at(mid) >= target:
            hi = mid
        else:
            lo = mid
    return SampleSizeResult(hi, 2 * hi, power_at(hi), power_at(hi - 1), target)


def _outcome(solve):
    """solve()'s result, or the message of the UnattainablePowerError it raises."""
    try:
        return solve()
    except UnattainablePowerError as error:
        return str(error)


alphas = st.sampled_from([0.01, 0.05, 0.1]) | st.floats(1e-3, 0.5)
magnitudes = st.floats(-10.0, 0.5).map(lambda e: 10.0 ** e)


@st.composite
def targets_for(draw, alpha):
    return draw(st.one_of(
        st.floats(1e-9, 1e-6).map(lambda gap: alpha + gap),  # just above alpha
        st.floats(0.999999, 1.0, exclude_max=True),
        st.floats(alpha, 1.0, exclude_min=True, exclude_max=True),
    ))


@st.composite
def univariate_problems(draw):
    alpha = draw(alphas)
    delta = draw(magnitudes) * draw(st.sampled_from([-1.0, 1.0]))
    return alpha, draw(targets_for(alpha)), delta, draw(st.floats(0.1, 10.0))


@st.composite
def joint_problems(draw, least=2):
    alpha = draw(alphas)
    size = draw(st.integers(least, 4))
    entries = st.floats(-1.0, 1.0)
    root = np.array(draw(st.lists(entries, min_size=size * size, max_size=size * size)))
    root = root.reshape(size, size)
    psi = root @ root.T + draw(st.floats(0.05, 2.0)) * np.eye(size)
    # each delta is 0 or within a factor 10 of the scale, and one is not 0
    shares = st.sampled_from([0.0, -1.0, 1.0]).flatmap(
        lambda sign: st.just(0.0) if sign == 0.0 else st.floats(0.1, 1.0).map(sign.__mul__)
    )
    deltas = np.array(draw(st.lists(shares, min_size=size, max_size=size)))
    assume(np.any(deltas))
    return alpha, draw(targets_for(alpha)), draw(magnitudes) * deltas, psi


def _agrees(got, want):
    """The same result or error message, or two certified answers.

    Where the target is within a few rounding errors of the power, the power
    computed in floats is not monotone in n, and it can cross the target at
    several n close together. Each crossing is certified, and which one a
    search meets depends on where it starts; two different certified
    answers are the proof of such a double crossing."""
    return got == want or all(
        isinstance(result, SampleSizeResult)
        and result.achieved_power >= result.target_power > result.power_at_n_minus_1
        for result in (got, want)
    )


class TestMinSampleSizeAgainstBisection:
    """min_sample_size, which starts from a seed and gallops, against a
    plain bisection over [1, 2^52] on the public power functions."""

    @settings(max_examples=150, deadline=None)
    @given(univariate_problems())
    # targets an ulp or two above alpha, where 2 Phi(-q) at n = 0 rounds
    # above alpha and so above the target
    @example((0.21875, 0.21875000000000003, -1e-09, 4.0))
    @example((0.01, 0.010000000000000002, -1.0, 1.0))
    def test_univariate(self, problem):
        alpha, target, delta, sigma = problem

        def power_at(per_group):
            if per_group == 0:
                return alpha
            return power_univariate(
                PowerSpec(alpha=alpha, deltas=delta, sigma=sigma, per_group_n=per_group)
            )

        got = _outcome(lambda: min_sample_size(target, delta, sigma=sigma, alpha=alpha))
        want = _outcome(lambda: _reference_solve(power_at, target))
        assert _agrees(got, want), (got, want)

    @settings(max_examples=150, deadline=None)
    @given(joint_problems())
    def test_joint(self, problem):
        alpha, target, deltas, psi = problem

        def power_at(per_group):
            if per_group == 0:
                return alpha
            return power_multivariate(
                PowerSpec(alpha=alpha, deltas=deltas, psi=psi, per_group_n=per_group)
            )

        got = _outcome(lambda: min_sample_size(target, deltas, psi=psi, alpha=alpha))
        want = _outcome(lambda: _reference_solve(power_at, target))
        assert _agrees(got, want), (got, want)


def _result_bits(outcome):
    """A solve's outcome with its powers as bytes, so that == is bit identity."""
    if not isinstance(outcome, SampleSizeResult):
        return outcome
    return (outcome.per_group_n, outcome.total_n, _bits(outcome.achieved_power),
            _bits(outcome.power_at_n_minus_1), outcome.target_power)


def _cold_and_warm(calls):
    """Each call's outcome on cleared memos, then again once all of the
    calls have filled them."""
    cold = []
    for call in calls:
        clear_memos()
        cold.append(_outcome(call))
    for call in calls:
        _outcome(call)
    return cold, [_outcome(call) for call in calls]


class TestPlanningMemos:
    """power remembers the last design's Wald form and the thresholds and
    seeds of recent (alpha, dof, target): a warm call gives the bits of a
    cold one, a design changed in place is solved afresh, and an error is
    never remembered."""

    @settings(max_examples=100, deadline=None)
    @given(joint_problems(least=1), st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=5))
    def test_joint_warm_equals_cold(self, problem, sizes):
        alpha, target, deltas, psi = problem
        calls = [lambda t=t: min_sample_size(t, deltas, psi=psi, alpha=alpha)
                 for t in (target, *PLAN_TARGETS)]
        calls += [lambda n=n: power_multivariate(
            PowerSpec(alpha=alpha, deltas=deltas, psi=psi, per_group_n=n)) for n in sizes]
        cold, warm = _cold_and_warm(calls)
        assert [_result_bits(x) for x in warm] == [_result_bits(x) for x in cold]

    @settings(max_examples=100, deadline=None)
    @given(univariate_problems(), st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=5))
    def test_univariate_warm_equals_cold(self, problem, sizes):
        alpha, target, delta, sigma = problem
        calls = [lambda t=t: min_sample_size(t, delta, sigma=sigma, alpha=alpha)
                 for t in (target, *PLAN_TARGETS)]
        calls += [lambda n=n: power_univariate(
            PowerSpec(alpha=alpha, deltas=delta, sigma=sigma, per_group_n=n)) for n in sizes]
        cold, warm = _cold_and_warm(calls)
        assert [_result_bits(x) for x in warm] == [_result_bits(x) for x in cold]

    def test_numpy_scalars_keep_their_own_entries(self):
        """scipy computes in float32 for a float32 argument, so a float32
        alpha or target must not meet the entry of the float of its value
        (these values are exact in both); a 0-d array passes as its scalar."""
        psi = np.array([[1.0, 0.3], [0.3, 1.2]])
        values = (0.0625, np.float32(0.0625), np.float64(0.0625), np.array(0.0625))
        targets = (0.875, np.float32(0.875), np.float64(0.875), np.array(0.875))
        calls = [lambda a=a, t=t, design=design: min_sample_size(t, alpha=a, **design)
                 for a, t in zip(values, targets)
                 for design in ({"deltas": 0.1, "sigma": 1.3}, {"deltas": [0.1, 0.2], "psi": psi})]
        cold, warm = _cold_and_warm(calls)
        assert [_result_bits(x) for x in warm] == [_result_bits(x) for x in cold]
        assert _result_bits(cold[0]) != _result_bits(cold[2])  # float32 differs

    def test_design_changed_in_place_is_solved_afresh(self):
        psi, deltas = plan_joint_inputs(0.1, 0.2, (0.25, 0.5, 0.75))
        spec = PowerSpec(alpha=0.05, deltas=deltas, psi=psi, per_group_n=200)
        before = power_multivariate(spec)
        solved = min_sample_size(0.9, deltas, psi=psi)
        psi *= 2.0
        deltas[0] *= 0.5
        clear_memos()
        fresh = (power_multivariate(PowerSpec(alpha=0.05, deltas=deltas.copy(),
                                              psi=psi.copy(), per_group_n=200)),
                 min_sample_size(0.9, deltas.copy(), psi=psi.copy()))
        psi /= 2.0
        deltas[0] *= 2.0
        assert (power_multivariate(spec), min_sample_size(0.9, deltas, psi=psi)) == (
            before, solved)
        psi *= 2.0
        deltas[0] *= 0.5
        assert (power_multivariate(spec), min_sample_size(0.9, deltas, psi=psi)) == fresh
        assert fresh[0] < before and fresh[1].per_group_n > solved.per_group_n

    @pytest.mark.parametrize("psi, error, match", [
        ([[1.0, 1.0], [1.0, 1.0]], SingularCovarianceError, "positive definite"),
        ([[1.0, 0.0], [0.0, math.inf]], SingularCovarianceError, "inf or nan"),
        ([[1e-300, 0.0], [0.0, 1e-300]], ValidationError, "must be finite"),
    ], ids=["singular", "non-finite", "overflowing"])
    def test_error_raises_on_every_call(self, psi, error, match):
        good = np.array([[1.0, 0.3], [0.3, 1.2]])
        deltas = [1e5, 1e5]
        for _ in range(2):
            with pytest.raises(error, match=match):
                power_multivariate(PowerSpec(alpha=0.05, deltas=deltas, psi=psi, total_n=100))
            with pytest.raises(error, match=match):
                min_sample_size(0.9, deltas, psi=psi)
            min_sample_size(0.9, deltas, psi=good)

    def test_one_design_and_fixed_cache_sizes(self):
        psi, deltas = plan_joint_inputs(0.1, None, (0.5, 0.75))
        min_sample_size(0.9, deltas, psi=psi)
        min_sample_size(0.9, deltas * 2.0, psi=psi)
        (psi_bytes, deltas_bytes, _), (quad, dof) = power._last_design
        assert (psi_bytes, deltas_bytes, dof) == (psi.tobytes(), (deltas * 2.0).tobytes(), 2)
        for cache in (power._normal_quantile, power._chi2_quantile, power._joint_seed):
            assert cache.cache_info().maxsize == 64


class TestUpsilon:
    def test_underflowing_density_product(self):
        # 5e-301 squared underflows to 0
        with pytest.raises(ValidationError, match="underflows to 0"):
            upsilon([0.5], [1.0], [1.0], [5e-301], 0.5)

    def test_overflowing_entry(self):
        # 1e-160 squared is subnormal, so the entry overflows
        with pytest.raises(ValidationError, match="overflows"):
            upsilon([0.5], [1.0], [1.0], [1e-160], 0.5)

    def test_infinite_phi_passes_through(self):
        # phi saturates to inf far out in the tail; the entry follows it
        out = upsilon([0.3, 0.5], [1.0, 2.0], [1.0, math.inf], [1.0, 1.0], 0.5)
        assert out[1, 1] == math.inf and math.isfinite(out[0, 1])


def run_fresh(code):
    """The lines that code prints in a fresh interpreter, so that modules
    this test session imported don't count."""
    package_root = str(Path(survquant.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, check=True, env={**os.environ, "PYTHONPATH": package_root},
    )
    return result.stdout.strip().splitlines()


def scipy_modules_after(code, prefixes=("scipy",)):
    """The sorted names of the modules starting with prefixes that a fresh
    interpreter holds after running code, as printed."""
    code += f"\nimport sys; print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
    return run_fresh(code)[-1]


def test_import_loads_no_scipy_linalg_or_stats():
    assert scipy_modules_after("import survquant", ("scipy.linalg", "scipy.stats")) == "[]"


@pytest.fixture(scope="module")
def trial_csv(tmp_path_factory):
    data = survquant.sample_trial(
        survquant.scenario_from_delta(1.5, 0.5, 0.3, censoring_rate=0.48), 80, 80, 5
    )
    lines = ["time,status,group"]
    for group, arm in ((1, data.arm1), (2, data.arm2)):
        lines += [f"{float(t)!r},{int(e)},{group}" for t, e in zip(arm.times, arm.events)]
    path = tmp_path_factory.mktemp("trial") / "trial.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run_main(*argv):
    """Code that runs the CLI on argv with its output discarded."""
    return (
        "import contextlib, io\nfrom survquant import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({list(argv)!r}) == 0\n"
    )


# the names power.py reads off _special(): `_special().ndtr` or `special.ndtr`
UFUNC_NAMES = sorted(set(re.findall(r"(?<![\w.])_?special(?:\(\))?\.([a-z]\w*)",
                                    Path(power.__file__).read_text())))
# a power and a joint sample size: ndtr, ndtri, gammaincinv, chndtr, chndtrinc
PLAN_VALUES = (
    "from survquant import PowerSpec, min_sample_size, power_univariate\n"
    "print(repr(power_univariate(PowerSpec(alpha=0.05, deltas=0.1, sigma=1.3, total_n=900))),\n"
    "      min_sample_size(0.8, [0.1, 0.2], psi=[[1.0, 0.3], [0.3, 1.2]]))\n"
)


@pytest.fixture(scope="module")
def plan_scenario(tmp_path_factory):
    path = tmp_path_factory.mktemp("plan") / "plan.scn"
    path.write_text("lambda_a = 1.5\ndelta = 0.1\np = 0.5\nt_cut = 0.2\nlambda_cens = 0.48\n")
    return str(path)


def ended(pid):
    """Whether the process pid has exited: it is gone, or it is an orphan
    left unreaped, since not every init reaps the orphans it adopts."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    with open(f"/proc/{pid}/stat") as stat:
        return stat.read().rpartition(")")[2].split()[0] == "Z"


class TestStartUpImports:
    """scipy stays off the start-up path: importing survquant, or its CLI,
    or running a whole `test`, loads no scipy module; `power`, `samplesize`
    and `simulate` load only scipy's compiled special-function ufuncs, on
    first use."""

    @pytest.mark.parametrize("code", ["import survquant", "import survquant.cli"])
    def test_import_loads_no_scipy(self, code):
        assert scipy_modules_after(code) == "[]"

    @pytest.mark.parametrize("method", ["ls", "kde"])
    def test_test_command_loads_no_scipy(self, trial_csv, method):
        code = run_main("test", trial_csv, "--p", "0.25,0.5,0.75", "--bonferroni",
                        "--method", method)
        assert scipy_modules_after(code) == "[]"

    def test_power_loads_only_the_ufuncs_on_first_use(self, plan_scenario):
        code = (
            "import sys\nimport survquant.cli\nbefore = 'scipy.special._ufuncs' in sys.modules\n"
            + run_main("power", "--scenario", plan_scenario, "--delta", "0.1", "--n", "200")
            + "print(before, [m in sys.modules for m in ('scipy.special._ufuncs', "
            "'scipy.special', 'scipy._lib._array_api')])"
        )
        assert run_fresh(code)[-1] == "False [True, False, False]"

    @pytest.mark.parametrize("argv", [
        ["power", "--delta", "0.1,0.2", "--n", "50,100"],
        ["samplesize", "--power", "0.8,0.9"],
        ["simulate", "--n", "200", "--reps", "20", "--seed", "1", "--p", "0.5,0.75"],
        ["simulate", "--n", "200", "--reps", "5", "--seed", "1", "--method", "kde"],
    ], ids=["power", "samplesize", "simulate-ls", "simulate-kde"])
    def test_planning_command_loads_only_the_ufuncs(self, plan_scenario, argv):
        modules = set(ast.literal_eval(
            scipy_modules_after(run_main(*argv, "--scenario", plan_scenario))
        ))
        assert "scipy.special._ufuncs" in modules
        # not scipy/special/__init__.py and its array-API layer
        assert not modules & {"scipy._lib._array_api",
                              "scipy.special._support_alternative_backends"}
        # no public subpackage (scipy.linalg, scipy.stats, ...) but special
        # and version, a module that scipy itself loads
        public = {m.split(".")[1] for m in modules if re.match(r"scipy\.[a-z]", m)}
        assert public <= {"special", "version"}

    @pytest.mark.parametrize("code", [
        "import survquant.simulate",
        run_main("simulate", "--n", "200", "--reps", "50", "--seed", "1", "--threads", "1"),
    ], ids=["import", "simulate"])
    def test_no_process_pool_module(self, plan_scenario, code):
        code = code.replace("'--n'", f"'--scenario', {plan_scenario!r}, '--n'")
        assert scipy_modules_after(code, ("multiprocessing", "concurrent")) == "[]"

    def test_workers_end_with_their_caller(self, tmp_path):
        """A pooled run writes its workers' pids and exits normally; by then
        no worker is left. stdout is not a pipe here, so a worker left
        running could not hold up the wait for the caller."""
        pids = tmp_path / "pids"
        code = (
            "import survquant, survquant.simulate as simulate\n"
            "simulate._start_s = 0.0\n"
            "plan = survquant.SimulationPlan(survquant.scenario_from_delta(1.5, 0.5, 0.1), "
            "30, (0.5,), 60, threads=2)\n"
            "survquant.empirical_rejection(plan)\n"
            f"open({str(pids)!r}, 'w').write(repr([w.pid for w in simulate._workers]))\n"
        )
        package_root = str(Path(survquant.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code], timeout=120, check=True,
                       env={**os.environ, "PYTHONPATH": package_root},
                       stdout=subprocess.DEVNULL)
        started = ast.literal_eval(pids.read_text())
        assert len(started) == min(simulate._usable_cpus(), 2) - 1
        for pid in started:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.skipif(simulate._usable_cpus() < 2, reason="one usable CPU")
    def test_workers_end_with_a_killed_caller_despite_a_forked_copy(self, tmp_path):
        """A pooled run forks a copy of its process that sleeps, then the
        caller leaves without its exit handlers, as if killed. The copy
        holds no end of the worker's pipes, so the worker sees its task pipe
        close and leaves while the copy lives on."""
        pids = tmp_path / "pids"
        code = (
            "import os, time, survquant, survquant.simulate as simulate\n"
            "simulate._start_s = 0.0\n"
            "plan = survquant.SimulationPlan(survquant.scenario_from_delta(1.5, 0.5, 0.1), "
            "30, (0.5,), 60, threads=2)\n"
            "survquant.empirical_rejection(plan)\n"
            "(worker,) = simulate._workers\n"
            "copy = os.fork()\n"
            "if copy == 0:\n"
            "    time.sleep(60)\n"
            "    os._exit(0)\n"
            f"open({str(pids)!r}, 'w').write(repr([worker.pid, copy]))\n"
            "os._exit(0)\n"
        )
        package_root = str(Path(survquant.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code], timeout=120, check=True,
                       env={**os.environ, "PYTHONPATH": package_root},
                       stdout=subprocess.DEVNULL)
        worker, copy = ast.literal_eval(pids.read_text())
        try:
            deadline = time.monotonic() + 2
            while not ended(worker) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert ended(worker)
            assert not ended(copy)
        finally:
            os.kill(copy, signal.SIGKILL)

    def test_ufunc_names(self):
        assert UFUNC_NAMES == ["chndtr", "chndtrinc", "gammainc", "gammaincinv", "ndtr", "ndtri"]

    def test_ufuncs_are_the_objects_scipy_special_hands_out(self):
        code = (
            "import sys\nfrom survquant import power\nufuncs = power._special()\n"
            "private = ufuncs.__name__ == 'scipy.special._ufuncs' "
            "and 'scipy.special' not in sys.modules\n"
            "import scipy.special\n"
            f"print(private, [getattr(ufuncs, n) is getattr(scipy.special, n) for n in {UFUNC_NAMES!r}])"
        )
        assert run_fresh(code)[-1] == f"True {[True] * len(UFUNC_NAMES)}"

    def test_failed_private_import_falls_back_to_scipy_special(self):
        code = (
            "import builtins, sys\nimport_ = builtins.__import__\n"
            "def failing(name, *args):\n"
            "    if name == 'scipy.special._ufuncs':\n"
            "        raise ImportError(name)\n"
            "    return import_(name, *args)\n"
            "builtins.__import__ = failing\n"
            "from survquant import power\nufuncs = power._special()\n"
            "import scipy\nreal = sys.modules['scipy.special']\n"
            "print(ufuncs is real, real.__file__.endswith('__init__.py'), "
            "vars(scipy)['special'] is real)\n"
            + PLAN_VALUES
        )
        private_route = run_fresh(PLAN_VALUES)[-1]
        assert run_fresh(code)[-2:] == ["True True True", private_route]

    # Each command loads only the survquant modules it runs (and test skips
    # numpy.ma, which np.median's first call imports).
    def test_import_loads_only_the_errors_module(self):
        assert (scipy_modules_after("import survquant", ("survquant",))
                == "['survquant', 'survquant.errors']")

    @pytest.mark.parametrize("argv", [
        ["power", "--delta", "0.1,0.2", "--n", "50,100"],
        ["samplesize", "--power", "0.8,0.9"],
    ], ids=["power", "samplesize"])
    def test_planning_command_loads_no_test_module(self, plan_scenario, argv):
        modules = ast.literal_eval(scipy_modules_after(
            run_main(*argv, "--scenario", plan_scenario), ("survquant",)))
        assert modules == ["survquant", "survquant.cli", "survquant.errors", "survquant.power",
                           "survquant.scenarios"]

    @pytest.mark.parametrize("method", ["ls", "kde"])
    def test_test_command_loads_no_planning_module(self, trial_csv, method):
        code = run_main("test", trial_csv, "--p", "0.25,0.5,0.75", "--bonferroni",
                        "--method", method)
        modules = ast.literal_eval(scipy_modules_after(code, ("survquant", "numpy.ma")))
        assert "survquant.quantile_tests" in modules
        assert not set(modules) & {"survquant.scenarios", "survquant.simulate", "numpy.ma"}


class TestPackageNamespace:
    """__all__ is the export list of the package, whose names load on first
    access: each is its defining module's object, dir() and a star import
    see every one, and an unknown name fails as on any module."""

    def test_every_name_is_its_modules_object(self):
        code = (
            "import importlib, survquant\n"
            "names = [n for n in survquant.__all__ if n != '__version__']\n"
            "objects = [getattr(survquant, n) for n in names]\n"
            "print(len(names), len(set(names)), all(\n"
            "    o.__module__.startswith('survquant.')\n"
            "    and getattr(importlib.import_module(o.__module__), n) is o\n"
            "    for n, o in zip(names, objects)))"
        )
        assert run_fresh(code)[-1] == "65 65 True"

    def test_dir_and_star_import_see_every_name(self):
        code = (
            "import survquant\nlisted = dir(survquant)\nfrom survquant import *\n"
            "print([n for n in survquant.__all__ if n not in listed or n not in globals()])"
        )
        assert run_fresh(code)[-1] == "[]"

    def test_unknown_name(self):
        with pytest.raises(AttributeError) as info:
            survquant.no_such_name
        assert str(info.value) == "module 'survquant' has no attribute 'no_such_name'"
