import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphermoments import distributions as d
from sphermoments import moments, oracle
from sphermoments.errors import DomainError, UnsupportedError, ValidationError

from util import random_rotation, random_spd, random_unit, rng_for

mp.mp.dps = 40


def _mp_ratio(n, k):
    return float(mp.besseli(0.5 * n, k) / mp.besseli(0.5 * n - 1.0, k))


# ---------------------------------------------------------------------------
# vMF mean


def test_vmf_mean_uniform_is_zero():
    np.testing.assert_array_equal(moments.vmf_mean(0.0, [1.0, 0.0, 0.0]), np.zeros(3))


def test_vmf_mean_coth_form_in_three_dimensions():
    # for n=3 the ratio reduces to coth k - 1/k
    expected = (1.0 / math.tanh(2.0) - 0.5) * np.array([1.0, 0.0, 0.0])
    got = moments.vmf_mean(2.0, [1.0, 0.0, 0.0])
    np.testing.assert_allclose(got, expected, atol=1e-12)
    assert got[0] == pytest.approx(0.53731, abs=5e-6)


def test_vmf_mean_circle_against_trapezoid():
    # independent oracle: plain trapezoid quadrature of the circle integrals
    k, u = 2.0, np.array([0.0, 1.0])
    phi = np.arange(4096) * (2.0 * math.pi / 4096)
    pts = np.column_stack([np.cos(phi), np.sin(phi)])
    weights = np.exp(k * (pts @ u))
    weights /= weights.sum()
    ref = weights @ pts
    np.testing.assert_allclose(moments.vmf_mean(k, u), ref, atol=1e-10)
    # and against the high-precision Bessel ratio
    assert moments.vmf_mean(k, u)[1] == pytest.approx(_mp_ratio(2, 2.0), rel=1e-12)


def test_vmf_mean_norm_increases_with_k_and_stays_below_one():
    u = random_unit(rng_for(1), 4)
    norms = [np.linalg.norm(moments.vmf_mean(float(k), u))
             for k in np.geomspace(0.01, 1e4, 60)]
    assert all(b > a for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1.0


def test_vmf_mean_validates_input():
    with pytest.raises(ValidationError):
        moments.vmf_mean(1.0, [1.0, 1.0])
    with pytest.raises(DomainError):
        moments.vmf_mean(-1.0, [1.0, 0.0])


# ---------------------------------------------------------------------------
# vMF covariance


def test_vmf_covariance_uniform_limit():
    np.testing.assert_array_equal(
        moments.vmf_covariance(0.0, [1.0, 0.0, 0.0]), np.eye(3) / 3.0
    )


def test_vmf_covariance_continuous_at_small_k_threshold():
    u = np.array([0.0, 1.0, 0.0])
    cov = moments.vmf_covariance(1e-6, u)
    np.testing.assert_allclose(cov, np.eye(3) / 3.0, atol=1e-10)
    mean = moments.vmf_mean(1e-6, u)
    assert np.linalg.norm(mean) < 1e-6


@pytest.mark.parametrize("n", [2, 3, 7])
def test_vmf_mean_and_covariance_over_k_array_equal_per_k(n):
    u = random_unit(rng_for(n), n)
    k = np.array([0.0, 1e-9, 1e-8, 0.3, 5.0, 29.9, 31.0, 800.0, 1e4])
    means = moments.vmf_mean(k, u)
    covs = moments.vmf_covariance(k, u)
    assert means.shape == (k.size, n) and covs.shape == (k.size, n, n)
    for i, ki in enumerate(k.tolist()):
        assert np.array_equal(means[i], moments.vmf_mean(ki, u))
        assert np.array_equal(covs[i], moments.vmf_covariance(ki, u))
    for bad in (np.array([1.0, -1.0]), np.array([1.0, math.nan]), np.array([math.inf]),
                np.ones((2, 2))):
        with pytest.raises(DomainError):
            moments.vmf_covariance(bad, u)


def test_vmf_covariance_against_quadrature():
    rng = rng_for(2)
    u = random_unit(rng, 3)
    cov = moments.vmf_covariance(2.0, u)
    report = oracle.quad_moments(d.vmf(u, 2.0))
    np.testing.assert_allclose(cov, report.covariance, atol=1e-9)


def test_vmf_moments_against_monte_carlo_high_dimension():
    rng = rng_for(3)
    u = random_unit(rng, 5)
    closed = moments.vmf_moments(3.0, u)
    mc = oracle.mc_moments(d.vmf(u, 3.0), oracle.McSpec(5, 200_000, 99))
    assert np.max(np.abs(closed.mean - mc.mean) / mc.mean_se) < 3.0
    assert np.max(np.abs(closed.covariance - mc.covariance) / mc.covariance_se) < 3.0
    assert abs(np.trace(closed.second_moment) - 1.0) < 1e-10


def test_second_moment_trace_is_one():
    rng = rng_for(4)
    for n in (2, 3, 5, 8):
        for k in (1e-4, 0.5, 7.0, 300.0, 1e4):
            u = random_unit(rng, n)
            report = moments.vmf_moments(k, u)
            assert abs(np.trace(report.second_moment) - 1.0) <= 1e-10
            report = moments.bimodal_vmf_moments(k, u)
            assert abs(np.trace(report.second_moment) - 1.0) <= 1e-10


def test_covariance_equals_second_minus_outer():
    u = random_unit(rng_for(5), 4)
    report = moments.vmf_moments(6.0, u)
    np.testing.assert_allclose(
        report.covariance,
        report.second_moment - np.outer(report.mean, report.mean),
        atol=1e-12,
    )


def test_rotation_equivariance():
    rng = rng_for(6)
    for n in (2, 3, 5):
        q = random_rotation(rng, n)
        u = random_unit(rng, n)
        k = 4.0
        np.testing.assert_allclose(
            moments.vmf_mean(k, q @ u), q @ moments.vmf_mean(k, u), atol=1e-12
        )
        cov = moments.vmf_covariance(k, u)
        np.testing.assert_allclose(
            moments.vmf_covariance(k, q @ u), q @ cov @ q.T, atol=1e-12
        )
        a = random_spd(rng, n)
        cov_a = moments.peanut_moments(a).covariance
        np.testing.assert_allclose(
            moments.peanut_moments(q @ a @ q.T).covariance, q @ cov_a @ q.T, atol=1e-12
        )


# ---------------------------------------------------------------------------
# bimodal vMF


def test_bimodal_mean_is_exactly_zero():
    u = random_unit(rng_for(7), 6)
    report = moments.bimodal_vmf_moments(12.0, u)
    assert np.array_equal(report.mean, np.zeros(6))


def test_bimodal_covariance_circle_values():
    # diag(I1/(5 I0) + I2/I0, I1/(5 I0)) for u = e1, n = 2, k = 5
    k = 5.0
    r1 = float(mp.besseli(1, k) / mp.besseli(0, k))
    r2 = float(mp.besseli(2, k) / mp.besseli(0, k))
    expected = np.diag([r1 / k + r2, r1 / k])
    got = moments.bimodal_vmf_moments(k, [1.0, 0.0]).covariance
    np.testing.assert_allclose(got, expected, atol=1e-12)
    report = oracle.quad_moments(d.bimodal_vmf(np.array([1.0, 0.0]), k))
    np.testing.assert_allclose(got, report.covariance, atol=1e-9)


def test_bimodal_minus_unimodal_is_squared_mean_outer():
    rng = rng_for(8)
    u = random_unit(rng, 3)
    k = 3.0
    diff = (
        moments.bimodal_vmf_moments(k, u).covariance
        - moments.vmf_covariance(k, u)
    )
    r = np.linalg.norm(moments.vmf_mean(k, u))
    np.testing.assert_allclose(diff, r * r * np.outer(u, u), atol=1e-14)


def test_bimodal_uniform_limit():
    report = moments.bimodal_vmf_moments(0.0, [1.0, 0.0])
    np.testing.assert_array_equal(report.covariance, np.eye(2) / 2.0)


# ---------------------------------------------------------------------------
# peanut


def test_peanut_identity_matrix_gives_isotropic_covariance():
    for n in (2, 3, 5):
        report = moments.peanut_moments(np.eye(n))
        np.testing.assert_allclose(report.covariance, np.eye(n) / n, atol=1e-15)
        assert np.array_equal(report.mean, np.zeros(n))


def test_peanut_diagonal_example():
    report = moments.peanut_moments(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(report.covariance, np.diag([0.625, 0.375]), atol=1e-15)
    assert np.trace(report.second_moment) == pytest.approx(1.0, abs=1e-12)


def test_peanut_against_quadrature():
    rng = rng_for(9)
    a = random_spd(rng, 3)
    closed = moments.peanut_moments(a)
    report = oracle.quad_moments(d.peanut(a))
    np.testing.assert_allclose(closed.covariance, report.covariance, atol=1e-9)


def test_peanut_asymmetric_input_matches_symmetrized():
    rng = rng_for(10)
    a = random_spd(rng, 4, asymmetric=True)
    sym = 0.5 * (a + a.T)
    got = moments.peanut_moments(a).covariance
    assert np.array_equal(got, moments.peanut_moments(sym).covariance)


def test_peanut_rejects_bad_matrices():
    with pytest.raises(ValidationError):
        moments.peanut_moments(np.diag([1.0, -2.0]))
    with pytest.raises(ValidationError):
        moments.peanut_moments(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        moments.peanut_moments(5.0)


# ---------------------------------------------------------------------------
# randomized oracle equivalence across kinds


def test_closed_forms_match_quadrature_randomized():
    rng = rng_for(12)
    for n in (2, 3):
        for _ in range(4):
            k = float(rng.uniform(0.05, 60.0))
            u = random_unit(rng, n)
            pairs = [
                (d.vmf(u, k), moments.vmf_moments(k, u)),
                (d.bimodal_vmf(u, k), moments.bimodal_vmf_moments(k, u)),
                (d.peanut(random_spd(rng, n, asymmetric=True)), None),
            ]
            pairs[2] = (pairs[2][0], moments.peanut_moments(pairs[2][0].A))
            for dist, closed in pairs:
                report = oracle.quad_moments(dist, check=False)
                assert np.max(np.abs(closed.mean - report.mean)) <= 1e-8
                assert np.max(np.abs(closed.covariance - report.covariance)) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.floats(min_value=1e-6, max_value=1e4, allow_nan=False),
    st.integers(min_value=0, max_value=2**31),
)
def test_moment_report_invariants_property(n, k, seed):
    u = random_unit(rng_for(seed), n)
    report = moments.vmf_moments(k, u)
    assert abs(np.trace(report.second_moment) - 1.0) <= 1e-10
    np.testing.assert_allclose(
        report.covariance,
        report.second_moment - np.outer(report.mean, report.mean),
        atol=1e-12,
    )
    # second moment is symmetric PSD
    np.testing.assert_allclose(report.second_moment, report.second_moment.T, atol=0)
    assert np.linalg.eigvalsh(report.second_moment).min() >= -1e-12


# ---------------------------------------------------------------------------
# odd moments


def test_odd_moments_vanish_by_quadrature():
    assert moments.odd_moments_zero_check(
        d.peanut(np.diag([1.0, 2.0, 3.0])), 1, seed=0
    ) <= 1e-10
    assert moments.odd_moments_zero_check(
        d.bingham(np.diag([1.0, 2.0, 3.0]), 0.4), 1, seed=0
    ) <= 1e-10
    assert moments.odd_moments_zero_check(
        d.odf(np.diag([1.0, 2.0, 3.0])), 3, seed=0
    ) <= 1e-9
    assert moments.odd_moments_zero_check(
        d.bimodal_vmf([0.0, 1.0, 0.0], 6.0), 3, seed=0
    ) <= 1e-9


def test_odd_moments_monte_carlo_high_dimension():
    rng = rng_for(14)
    dist = d.peanut(random_spd(rng, 5))
    spec = oracle.McSpec(5, 40_000, 21)
    est, se = oracle.mc_raw_moment(dist, spec, 1)
    magnitude = moments.odd_moments_zero_check(dist, 1, seed=21, samples=40_000)
    assert magnitude == pytest.approx(np.max(np.abs(est)))
    assert np.all(np.abs(est) <= 3.0 * se)


def test_odd_moments_rejects_aligned_vmf():
    with pytest.raises(UnsupportedError):
        moments.odd_moments_zero_check(d.vmf([1.0, 0.0], 2.0), 1, seed=0)
    # uniform special case is fine
    assert moments.odd_moments_zero_check(d.vmf([1.0, 0.0], 0.0), 1, seed=0) <= 1e-12


def test_odd_moments_rejects_even_order():
    with pytest.raises(DomainError):
        moments.odd_moments_zero_check(d.peanut(np.eye(2)), 2, seed=0)
