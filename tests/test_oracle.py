import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from sphermoments import anisotropy as an
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
    # the seed is an integer >= 0, the dimension an integer >= 2
    for bad_seed in (-1, 1.5, True, "7", np.float64(3.0)):
        with pytest.raises(ValidationError, match="seed"):
            oracle.McSpec(3, 10_000, bad_seed)
    for bad_n in (3.5, 2.0, True, None):
        with pytest.raises(ValidationError, match="n must be an integer >= 2"):
            oracle.McSpec(bad_n, 10_000, 1)
    assert oracle.McSpec(np.int64(3), 10_000, np.uint32(0)).seed == 0
    # the spec's dimension must be the distribution's
    dist = d.vmf([1.0, 0.0, 0.0], 1.0)
    for estimate in (oracle.mc_moments, oracle.mc_normalization):
        with pytest.raises(ValidationError, match="spec dimension 4 does not match .* 3"):
            estimate(dist, oracle.McSpec(4, 10_000, 1))


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


def _quad_case(kind, n):
    rng = rng_for(12)
    if kind in ("vmf", "bimodal_vmf"):
        return getattr(d, kind)(random_unit(rng, n), 3.0)
    if kind == "bingham":
        return d.bingham(random_spd(rng, n), 0.3)
    return getattr(d, kind)(random_spd(rng, n))


# every kind at n = 2 and 3; odf densities are defined for n = 3 only
@pytest.mark.parametrize("kind, n", [
    (kind, n) for kind in d.KINDS for n in (2, 3) if (kind, n) != ("odf", 2)
])
def test_doubling_check_does_not_move_a_bit_of_the_report(kind, n):
    dist = _quad_case(kind, n)
    checked = oracle.quad_moments(dist, resolution=64)
    unchecked = oracle.quad_moments(dist, resolution=64, check=False)
    assert _same_report(checked, unchecked)


def _einsum_deviation(dist, raw, resolution):
    """The doubling deviation with the doubled grid's second moment summed by the
    reported grid's ``einsum``: the reference for the matrix products."""
    points, weights = oracle._nodes(dist.n, 2 * resolution)
    wq = weights * d.density_many(dist, points)
    return max(np.max(np.abs(raw[1] - wq @ points)),
               np.max(np.abs(raw[2] - np.einsum("m,mi,mj->ij", wq, points, points))))


# spikes that 256 points per dimension do not resolve, so each warns
@pytest.mark.parametrize("dist", [
    d.vmf([1.0, 0.0], 5000.0),
    d.vmf([1.0, 0.0, 0.0], 5000.0),
    d.bimodal_vmf([0.6, 0.8, 0.0], 2000.0),
    d.odf(np.diag([1e3, 1.0, 1e-3])),
], ids=["vmf2", "vmf3", "bimodal3", "odf3"])
def test_doubling_deviation_matches_an_einsum_reference(dist):
    points, weights = oracle._nodes(dist.n, 256)
    raw = oracle._raw_from_nodes(dist, points, weights, (1, 2))
    dev = oracle._doubling_deviation(dist, raw, 256)
    assert dev >= oracle.DOUBLING_TOL
    # the sums differ in rounding only, which is about 1e-16 of the moments
    assert abs(dev - _einsum_deviation(dist, raw, 256)) <= 1e-12
    warning = f"doubling resolution 256->512 changed results by {dev:.3e}"
    assert oracle.quad_moments(dist).warnings == (warning,)


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
    # 10,000 samples end in a partial chunk; 70,000 span a full block and a
    # partial one; 131,073 are three blocks, the last a single row
    for samples in (10_000, 70_000, 131_073):
        _check_written_out_estimator(kind, n, samples)
    assert 70_000 > oracle.BLOCK_SIZE and 131_073 == 2 * oracle.BLOCK_SIZE + 1


def _check_written_out_estimator(kind, n, samples):
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
# output pins: SHA-256 of the points' bytes, recorded before Monte Carlo was
# drawn in chunks; the points of every seed stay the same


def _digest(points):
    return hashlib.sha256(np.ascontiguousarray(points).tobytes()).hexdigest()


PINNED_UNIFORM = {
    3: "224e83f639a173dda0e4979e2458b33f5c804717fcf2495438499a9aa5abe441",
    8: "32c8fb8327320b1bd455e9c7fdc3a593108c928b891687af58db09b9a37aec2f",
}


@pytest.mark.parametrize("n", sorted(PINNED_UNIFORM))
def test_uniform_sphere_output_is_pinned(n):
    points = oracle.uniform_sphere(n, 2 * oracle.BLOCK_SIZE + 1, 11)
    assert _digest(points) == PINNED_UNIFORM[n]


# re-pinned at n = 2 and 3 when a draw lying mostly along u came to be
# projected off u twice: those rows moved by at most 4.7e-13
PINNED_VMF = {
    (2, 0.0): "7721a32fdb127ccfadbc9056ba0c9977abb3ce1ff5cb29688a20629eeb02b779",
    (2, 0.5): "499a0441b162e89621a2b83e48f6f165ed8ffb18a869be54cae915bf6b0a46e7",
    (2, 50.0): "047280db841ffcada6fae693c3ef3ead4352edceebd0b429f5b12a780f5b60be",
    (3, 0.0): "20850af2596678f4b1d0e41aea1240f6b5f6cd64da5df2f9b480c6dae96f30e6",
    (3, 0.5): "dea0d7ec8375739dea66f937ac483a8c2fe705f999d8eb8140b4f9d00bd64810",
    (3, 50.0): "0cb7072f77087fbf89614db0d04bf22f4c76fc5f11170c4e76d19da4b298a510",
    (5, 0.0): "edbd03cf488ddf9de7e65a94971a1de550fd8f81882011207d8095a62aa520ba",
    (5, 0.5): "8bf9fe8b097a43f071ffed591e191a3d4b9bc5ff518530b89620643aef5504a0",
    (5, 50.0): "fd70d495a60c2755ee74d996caefb5c71ba3419084e9168058a892b5efd8c312",
}
PINNED_DIRECTIONS = {2: [0.6, -0.8], 3: [0.0, 0.6, -0.8], 5: [0.48, 0.0, -0.6, 0.64, 0.0]}


@pytest.mark.parametrize("n, k", sorted(PINNED_VMF))
def test_sample_vmf_output_is_pinned(n, k):
    batch = oracle.sample_vmf(k, PINNED_DIRECTIONS[n], 20_000, 21 + n)
    assert _digest(batch.points) == PINNED_VMF[n, k]


PINNED_PEANUTS = {
    "symmetric_n3": (
        np.diag([3.0, 1.0, 0.5]),
        "265dac0a745b8b1bf100e51ae8055f709b0a3aaa0156106b75ad437be5c3fb13",
    ),
    "asymmetric_n5": (
        np.array([
            [4.0, 0.5, 0.0, 0.2, 0.0],
            [-0.3, 2.0, 0.1, 0.0, 0.0],
            [0.0, 0.4, 1.5, 0.0, 0.3],
            [0.1, 0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, -0.2, 0.0, 0.5],
        ]),
        "5245a961d0cc92106f45552f37e869f1c288d4466f24f322a70722cc274a5ef5",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_PEANUTS))
def test_sample_peanut_output_is_pinned(case):
    A, digest = PINNED_PEANUTS[case]
    assert _digest(oracle.sample_peanut(A, 20_000, 31).points) == digest


def _scaled_to(A, top):
    """A times a power of two, so that its largest entry has top's exponent."""
    return np.ldexp(A, np.frexp(top)[1] - np.frexp(np.abs(A).max())[1])


def _same_report(a, b):
    return all(
        np.array_equal(x, y) for x, y in
        ((a.mean, b.mean), (a.second_moment, b.second_moment), (a.covariance, b.covariance))
    ) and a.provenance["mass"] == b.provenance["mass"]


def test_peanut_oracles_near_the_largest_double_match_the_rescaled_copy():
    # tr A overflows here; c theta^T A theta does not depend on the scale of A
    A = np.array([[3.0, 0.4, 0.0], [-0.2, 1.0, 0.1], [0.0, 0.3, 0.5]])
    huge = _scaled_to(A, 1e308)
    quad = oracle.quad_moments(d.peanut(huge), resolution=16)
    assert _same_report(quad, oracle.quad_moments(d.peanut(A), resolution=16))
    assert abs(quad.provenance["mass"] - 1.0) <= 1e-12
    spec = oracle.McSpec(3, 10_000, 0)
    mc = oracle.mc_moments(d.peanut(huge), spec)
    assert _same_report(mc, oracle.mc_moments(d.peanut(A), spec))


# 2^j A for every j in [-1000, 1000] keeps every entry a normal double.  The
# largest entry is 3 = (3/4) 2^2, so 2^j A is scaled when built for 3 |j + 2| > 600
SCALE_A = {
    "symmetric": np.array([[3.0, 0.4, 0.0], [0.4, 1.0, 0.1], [0.0, 0.1, 0.5]]),
    "asymmetric": np.array([[3.0, 0.4, 0.0], [-0.2, 1.0, 0.1], [0.0, 0.3, 0.5]]),
}
BEYOND_THE_WINDOW = st.one_of(st.integers(-1000, -203), st.integers(199, 1000))


def _peanut_outputs(A):
    dist = d.peanut(A)
    P1 = an.MotilityParams(1.0, 1.0)
    reports = [an.anisotropy_report(dist, P1)]
    if np.array_equal(A, A.T):
        reports.append(an.peanut_closed_form_report(A, P1))
    quad = oracle.quad_moments(dist, resolution=16)
    out = [moments.closed_form_moments(dist).covariance, quad.mean, quad.second_moment,
           quad.provenance["mass"], oracle.sample_peanut(A, 2000, 3).points]
    return out + [x for r in reports for x in (r.eigenvalues, r.fa, r.ratio)]


@settings(max_examples=40, deadline=None)
@given(st.integers(-1000, 1000))
@pytest.mark.parametrize("case", sorted(SCALE_A))
def test_peanut_outputs_do_not_depend_on_the_scale_of_a(case, j):
    A = SCALE_A[case]
    for x, y in zip(_peanut_outputs(A), _peanut_outputs(np.ldexp(A, j))):
        assert np.array_equal(x, y)


def _odf_or_bingham_outputs(kind, j):
    A = np.ldexp(SCALE_A["symmetric"], j)
    dist = d.odf(A) if kind == "odf" else d.bingham(A, np.ldexp(0.4, -j))
    quad = oracle.quad_moments(dist, resolution=16)
    points = oracle.uniform_sphere(3, 200, 4)
    return [d.density_many(dist, points), quad.second_moment, quad.covariance,
            np.array([quad.provenance["mass"]]), quad.mean]


@settings(max_examples=40, deadline=None)
@given(st.integers(-1000, 1000), BEYOND_THE_WINDOW, BEYOND_THE_WINDOW)
@pytest.mark.parametrize("kind", ["odf", "bingham"])
def test_odf_and_bingham_outputs_depend_on_the_scale_of_a_only_through_rounding(kind, j, i, k):
    # log det A moves in its last bits with the scale of A, so the scaled copies
    # beyond the window agree bit for bit, and agree with A itself to rounding
    base, scaled = _odf_or_bingham_outputs(kind, 0), _odf_or_bingham_outputs(kind, j)
    for x, y in zip(base[:-1], scaled[:-1]):
        assert np.max(np.abs(x - y)) <= 1e-13 * np.max(np.abs(x))
    # the mean is 0 up to rounding, so its error is measured on the second moment's scale
    assert np.max(np.abs(base[-1] - scaled[-1])) <= 1e-13 * np.max(np.abs(base[1]))
    for x, y in zip(_odf_or_bingham_outputs(kind, i), _odf_or_bingham_outputs(kind, k)):
        assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# row norms: every unit vector the oracle draws divides by them

# entries near 1e154 square to near the largest double, so a row of them overflows
_ROW_ENTRIES = st.one_of(
    st.floats(-10.0, 10.0),
    st.just(0.0),
    st.floats(-2.3e-308, 2.3e-308),  # subnormals
    st.floats(1e153, 1.4e154),
    st.floats(-1.4e154, -1e153),
)


def _assert_row_norms_match_numpy(z):
    with np.errstate(over="ignore"):
        got, want = oracle._row_norms(z), np.linalg.norm(z, axis=1)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 12).flatmap(lambda n: arrays(
    np.float64, st.tuples(st.integers(1, 40), st.just(n)), elements=_ROW_ENTRIES)))
def test_row_norms_are_numpys_bit_for_bit(z):
    _assert_row_norms_match_numpy(z)


@pytest.mark.parametrize("n", range(2, 13))
def test_row_norms_of_a_chunk_are_numpys_bit_for_bit(n):
    # a chunk of oracle._CHUNK_ROWS rows, and more rows than NumPy's reduction buffer
    for rows in (oracle._CHUNK_ROWS, 8191):
        _assert_row_norms_match_numpy(rng_for(n).standard_normal((rows, n)))


# ---------------------------------------------------------------------------
# samplers


class _ScriptedNormals:
    """Stands in for a Generator: standard_normal returns the given draws in turn."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def standard_normal(self, shape):
        draw = np.array(self.draws.pop(0), dtype=float)
        assert draw.shape == shape
        return draw


def test_tangent_directions_redraw_rows_along_u():
    u = np.array([1.0, 0.0, 0.0])
    rng = _ScriptedNormals(
        [[2.0, 0.0, 0.0], [1.0, 0.0, 3.0], [-1.0, 0.0, 1e-13]],  # rows 0 and 2 lie along u
        [[5.0, 0.0, 0.0], [0.0, 4.0, 0.0]],  # for rows 0 and 2; row 0 lies along u again
        [[0.0, 0.0, -2.0]],
    )
    v = oracle._tangent_directions(rng, u, 3)
    np.testing.assert_array_equal(v, [[0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert not rng.draws


def _sphere_error(points):
    return np.max(np.abs(np.linalg.norm(points, axis=1) - 1.0))


def test_sample_vmf_keeps_a_draw_near_u_on_the_sphere():
    # projected off u once, point 21802 of this request lay 1.53e-12 off the sphere
    u = [0.41700079366387877, 0.45989618440035207, -0.7839680080575306]
    batch = oracle.sample_vmf(1.9047701739999767, u, 100_000, 1128388271)
    assert _sphere_error(batch.points) < 1e-14


@pytest.mark.parametrize("seed", range(4))
def test_sample_vmf_keeps_circle_points_on_the_circle(seed):
    # projected off u once, 1e5 draws at n = 2 mostly left a point 1e-12 off
    assert _sphere_error(oracle.sample_vmf(2.0, [0.6, -0.8], 100_000, seed).points) < 1e-14


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


def test_sample_peanut_does_not_depend_on_the_scale_of_A():
    A = PINNED_PEANUTS["asymmetric_n5"][0]
    expected = oracle.sample_peanut(A, 2000, 3)
    for top in (2.0**600, 2.0**-600, 1e308):
        batch = oracle.sample_peanut(_scaled_to(A, top), 2000, 3)
        assert np.array_equal(batch.points, expected.points)
        assert batch.acceptance_rate == expected.acceptance_rate


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
    for bad_seed in (-1, 1.5, True, None, "0"):
        with pytest.raises(ValidationError, match="seed"):
            oracle.uniform_sphere(3, 10, bad_seed)
        with pytest.raises(ValidationError, match="seed"):
            oracle.sample_vmf(2.0, [1.0, 0.0, 0.0], 10, bad_seed)
        with pytest.raises(ValidationError, match="seed"):
            oracle.sample_peanut(np.eye(3), 10, bad_seed)
    for bad_n in (3.5, 1, True):
        with pytest.raises(ValidationError, match="n must be an integer >= 2"):
            oracle.uniform_sphere(bad_n, 10, 0)


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
