import math

import numpy as np
import pytest
from scipy import stats

from sphermoments import distributions as d
from sphermoments import moments, oracle
from sphermoments.errors import DomainError, UnsupportedError, ValidationError

from util import random_spd, random_unit, rng_for


# ---------------------------------------------------------------------------
# spec and resolution validation


def test_quadrature_resolution_validation():
    # a power of two >= 16, given as an integer; the rule follows from dist.n
    dist = d.vmf([1.0, 0.0], 1.0)
    oracle.quad_moments(dist, resolution=16)  # 16.0 must not be served from this cache entry
    for resolution in (100, 8, 16.0, True, "256"):
        with pytest.raises(ValidationError, match="resolution must be a power of two >= 16"):
            oracle.quad_moments(dist, resolution=resolution)
    with pytest.raises(ValidationError):
        oracle.quad_normalization(dist, resolution=8)


def test_mc_spec_validation():
    with pytest.raises(ValidationError):
        oracle.McSpec(3, 5000, 1)
    with pytest.raises(ValidationError):
        oracle.McSpec(3, 10_000, None)
    with pytest.raises(ValidationError):
        oracle.McSpec(1, 10_000, 1)
    with pytest.raises(ValidationError):
        oracle.McSpec(3, 20_000.5, 1)


def test_quad_dimension_mismatch():
    with pytest.raises(UnsupportedError, match="quadrature supports n in"):
        oracle.quad_moments(d.vmf(random_unit(rng_for(0), 4), 1.0))


# ---------------------------------------------------------------------------
# quadrature


def test_uniform_circle_moments_are_exact():
    report = oracle.quad_moments(d.vmf([1.0, 0.0], 0.0))
    np.testing.assert_allclose(report.mean, np.zeros(2), atol=1e-15)
    np.testing.assert_allclose(report.second_moment, np.eye(2) / 2.0, atol=1e-14)
    assert report.provenance["mass"] == pytest.approx(1.0, abs=1e-14)
    assert report.source == "oracle"


def test_quad_resolution_self_consistency():
    rng = rng_for(1)
    dists = [
        d.vmf(random_unit(rng, 3), 20.0),
        d.peanut(random_spd(rng, 3)),
        d.odf(random_spd(rng, 3)),
        d.bimodal_vmf(random_unit(rng, 2), 15.0),
    ]
    for dist in dists:
        coarse = oracle.quad_moments(dist, resolution=128, check=False)
        fine = oracle.quad_moments(dist, resolution=256, check=False)
        assert np.max(np.abs(coarse.second_moment - fine.second_moment)) < 1e-10
        assert np.max(np.abs(coarse.mean - fine.mean)) < 1e-10


def test_quad_doubling_check_flags_unresolved_density():
    # at k = 5000 a 256-point rule cannot resolve the spike
    report = oracle.quad_moments(d.vmf([1.0, 0.0], 5000.0))
    assert report.warnings
    smooth = oracle.quad_moments(d.vmf([1.0, 0.0], 5.0))
    assert not smooth.warnings


def test_quad_peanut_third_moment_vanishes():
    tensor = oracle.quad_raw_moment(d.peanut(np.diag([3.0, 1.0])), 3)
    assert tensor.shape == (2, 2, 2)
    assert np.max(np.abs(tensor)) < 1e-12


# ---------------------------------------------------------------------------
# Monte Carlo


def test_mc_uniform_high_dimension():
    dist = d.vmf(random_unit(rng_for(2), 6), 0.0)
    report = oracle.mc_moments(dist, oracle.McSpec(6, 100_000, 31))
    z = np.abs(report.second_moment - np.eye(6) / 6.0) / report.second_moment_se
    assert np.max(z) < 3.0
    assert report.provenance["mass"] == pytest.approx(1.0, abs=3 * report.provenance["mass_se"])
    assert report.provenance["generator"] == oracle.GENERATOR


def test_mc_matches_closed_form():
    rng = rng_for(3)
    u = random_unit(rng, 5)
    closed = moments.vmf_moments(3.0, u)
    report = oracle.mc_moments(d.vmf(u, 3.0), oracle.McSpec(5, 100_000, 17))
    assert np.max(np.abs(closed.mean - report.mean) / report.mean_se) < 3.0
    assert np.max(np.abs(closed.covariance - report.covariance) / report.covariance_se) < 3.0


def test_mc_bimodal_mean_is_zero():
    u = random_unit(rng_for(4), 4)
    report = oracle.mc_moments(d.bimodal_vmf(u, 4.0), oracle.McSpec(4, 50_000, 23))
    assert np.max(np.abs(report.mean) / report.mean_se) < 3.0


def test_mc_seed_determinism():
    dist = d.peanut(np.diag([2.0, 1.0, 0.5]))
    spec = oracle.McSpec(3, 20_000, 77)
    a = oracle.mc_moments(dist, spec)
    b = oracle.mc_moments(dist, spec)
    assert np.array_equal(a.second_moment, b.second_moment)
    assert np.array_equal(a.covariance_se, b.covariance_se)
    assert a.provenance == b.provenance
    c = oracle.mc_moments(dist, oracle.McSpec(3, 20_000, 78))
    assert not np.array_equal(a.second_moment, c.second_moment)


@pytest.mark.parametrize("n", [4, 7])
@pytest.mark.parametrize("kind", ["vmf", "peanut", "bingham"])
def test_mc_moments_match_written_out_estimator(kind, n):
    # 70,000 samples span a full block and a partial one
    samples = 70_000
    assert samples > oracle.BLOCK_SIZE
    seed = 300 + n
    rng = rng_for(seed)
    if kind == "vmf":
        dist = d.vmf(random_unit(rng, n), 2.5)
    elif kind == "peanut":
        A = random_spd(rng, n, asymmetric=True)
        assert np.max(np.abs(A - A.T)) > 1e-3
        dist = d.peanut(A)
    else:
        dist = d.bingham(random_spd(rng, n), 0.5)
    report = oracle.mc_moments(dist, oracle.McSpec(n, samples, seed))

    points = oracle.uniform_sphere(n, samples, seed)
    area = 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)
    f = area * d.density_many(dist, points)
    g1 = f[:, None] * points
    g2 = f[:, None, None] * points[:, :, None] * points[:, None, :]
    mean = g1.sum(axis=0) / samples
    second = g2.sum(axis=0) / samples
    mean_se = g1.std(axis=0, ddof=1) / math.sqrt(samples)
    second_se = g2.std(axis=0, ddof=1) / math.sqrt(samples)
    covariance_se = np.sqrt(
        second_se**2
        + (mean[:, None] * mean_se[None, :]) ** 2
        + (mean_se[:, None] * mean[None, :]) ** 2
    )

    assert report.provenance["mass"] == pytest.approx(f.mean(), rel=1e-12)
    assert report.provenance["mass_se"] == pytest.approx(
        f.std(ddof=1) / math.sqrt(samples), rel=1e-12
    )
    np.testing.assert_allclose(report.mean, mean, rtol=1e-12, atol=0)
    np.testing.assert_allclose(report.second_moment, second, rtol=1e-12, atol=0)
    np.testing.assert_allclose(report.mean_se, mean_se, rtol=1e-12, atol=0)
    np.testing.assert_allclose(report.second_moment_se, second_se, rtol=1e-12, atol=0)
    np.testing.assert_allclose(report.covariance_se, covariance_se, rtol=1e-12, atol=0)


def test_mc_estimator_unbiased_over_seeds():
    # averaged over 30 seeds, the uniform second moment lands within the
    # averaged standard error of identity/n
    dist = d.vmf([0.0, 0.0, 0.0, 1.0], 0.0)
    estimates = []
    ses = []
    for seed in range(30):
        report = oracle.mc_moments(dist, oracle.McSpec(4, 10_000, seed))
        estimates.append(report.second_moment)
        ses.append(report.second_moment_se)
    avg = np.mean(estimates, axis=0)
    avg_se = np.mean(ses, axis=0)
    assert np.all(np.abs(avg - np.eye(4) / 4.0) < avg_se)


def test_uniform_sphere_shape_and_norms():
    pts = oracle.uniform_sphere(5, 70_000, 3)
    assert pts.shape == (70_000, 5)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# samplers


def test_sample_vmf_uniform_case():
    batch = oracle.sample_vmf(0.0, [0.0, 1.0, 0.0], 50_000, 5)
    assert batch.acceptance_rate == 1.0
    second = batch.points.T @ batch.points / len(batch.points)
    se = 1.0 / math.sqrt(len(batch.points))
    assert np.max(np.abs(second - np.eye(3) / 3.0)) < 3 * se


def test_sample_vmf_concentrated_direction():
    u = np.array([0.0, 0.0, 1.0])
    batch = oracle.sample_vmf(100.0, u, 100_000, 8)
    mean = batch.points.mean(axis=0)
    angle = math.acos(min(1.0, mean @ u / np.linalg.norm(mean)))
    assert angle < 0.01


def test_sample_vmf_acceptance_rate_stays_high():
    u = np.array([1.0, 0.0, 0.0])
    for k in (0.0, 0.5, 5.0, 30.0, 100.0):
        batch = oracle.sample_vmf(k, u, 20_000, 13)
        assert 0.3 < batch.acceptance_rate <= 1.0


def test_sample_vmf_matches_closed_form_moments():
    u = random_unit(rng_for(6), 3)
    k = 5.0
    batch = oracle.sample_vmf(k, u, 200_000, 19)
    pts = batch.points
    emp_mean = pts.mean(axis=0)
    se_mean = pts.std(axis=0, ddof=1) / math.sqrt(len(pts))
    assert np.max(np.abs(emp_mean - moments.vmf_mean(k, u)) / se_mean) < 3.5
    outer = pts[:, :, None] * pts[:, None, :]
    emp_second = outer.mean(axis=0)
    se_second = outer.std(axis=0, ddof=1) / math.sqrt(len(pts))
    closed = moments.vmf_moments(k, u).second_moment
    assert np.max(np.abs(emp_second - closed) / se_second) < 3.5


def test_sample_peanut_identity_accepts_everything():
    batch = oracle.sample_peanut(np.eye(3), 10_000, 3)
    assert batch.acceptance_rate == 1.0


def test_sample_peanut_covariance_and_mean():
    batch = oracle.sample_peanut(np.diag([3.0, 1.0]), 200_000, 11)
    pts = batch.points
    emp_mean = pts.mean(axis=0)
    se_mean = pts.std(axis=0, ddof=1) / math.sqrt(len(pts))
    assert np.max(np.abs(emp_mean) / se_mean) < 3.0
    outer = pts[:, :, None] * pts[:, None, :]
    emp_cov = outer.mean(axis=0) - np.outer(emp_mean, emp_mean)
    se = outer.std(axis=0, ddof=1) / math.sqrt(len(pts))
    np.testing.assert_array_less(
        np.abs(emp_cov - np.diag([0.625, 0.375])), 3.0 * se + 1e-12
    )


def test_sampler_determinism():
    a = oracle.sample_vmf(3.0, [1.0, 0.0], 5000, 42).points
    b = oracle.sample_vmf(3.0, [1.0, 0.0], 5000, 42).points
    assert np.array_equal(a, b)


def _chi_square_statistic(points, dist, bins=64):
    angles = np.mod(np.arctan2(points[:, 1], points[:, 0]), 2.0 * math.pi)
    counts = np.bincount((angles / (2.0 * math.pi) * bins).astype(int), minlength=bins)
    # expected bin masses from a fine trapezoid rule
    fine = 4096
    phi = np.arange(fine) * (2.0 * math.pi / fine)
    q = d.density_many(dist, np.column_stack([np.cos(phi), np.sin(phi)]))
    masses = np.bincount(np.arange(fine) // (fine // bins), weights=q)
    masses *= (2.0 * math.pi / fine)
    expected = masses * len(points)
    return float(np.sum((counts - expected) ** 2 / expected))


def test_sampler_density_agreement_chi_square():
    n_samples = 200_000
    vmf_dist = d.vmf(np.array([math.cos(0.7), math.sin(0.7)]), 2.0)
    stat = _chi_square_statistic(
        oracle.sample_vmf(2.0, vmf_dist.u, n_samples, 29).points, vmf_dist
    )
    threshold = stats.chi2.ppf(0.999, 63)
    assert stat < threshold
    peanut_dist = d.peanut(np.array([[3.0, 0.5], [0.5, 1.0]]))
    stat = _chi_square_statistic(
        oracle.sample_peanut(peanut_dist.A, n_samples, 37).points, peanut_dist
    )
    assert stat < threshold


def test_sampler_input_validation():
    for bad_u in ([1.0, 1.0], [math.nan, 0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]], [1.0]):
        with pytest.raises(ValidationError):
            oracle.sample_vmf(2.0, bad_u, 10, 1)
    for bad_k in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            oracle.sample_vmf(bad_k, [1.0, 0.0, 0.0], 10, 1)
    for bad_a in (np.diag([1.0, -1.0]), 5.0):
        with pytest.raises(ValidationError):
            oracle.sample_peanut(bad_a, 100, 0)
    for bad_count in (0, -3, -5, 2.5, True, None, "10"):
        with pytest.raises(ValidationError, match="count"):
            oracle.uniform_sphere(3, bad_count, 0)
        with pytest.raises(ValidationError, match="count"):
            oracle.sample_vmf(2.0, [1.0, 0.0, 0.0], bad_count, 1)
        with pytest.raises(ValidationError, match="count"):
            oracle.sample_peanut(np.eye(3), bad_count, 1)
    assert oracle.uniform_sphere(3, np.int64(5), 0).shape == (5, 3)


# ---------------------------------------------------------------------------
# provenance


def test_report_provenance_fields():
    quad = oracle.quad_moments(d.peanut(np.eye(2)))
    assert quad.provenance["method"] == "circle_trapezoid"
    assert quad.provenance["resolution"] == 256
    quad = oracle.quad_moments(d.vmf([0.0, 0.0, 1.0], 1.0), resolution=np.int64(64))
    assert quad.provenance["method"] == "sphere_product"
    assert type(quad.provenance["resolution"]) is int and quad.provenance["resolution"] == 64
    mc = oracle.mc_moments(d.peanut(np.eye(2)), oracle.McSpec(2, 10_000, 1))
    for key in ("method", "samples", "seed", "generator"):
        assert key in mc.provenance
