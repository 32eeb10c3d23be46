import hashlib
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphermoments import anisotropy as an
from sphermoments import distributions as d
from sphermoments import moments, oracle
from sphermoments.errors import (
    DegenerateTensorError,
    DomainError,
    UnboundedRatioError,
    UnsupportedError,
    ValidationError,
)

from util import random_spd, random_unit, rng_for

P1 = an.MotilityParams(1.0, 1.0)


# ---------------------------------------------------------------------------
# params and tensor


def test_motility_params_validation():
    assert an.MotilityParams(2.0, 4.0).factor == 1.0
    for bad in ((0.0, 1.0), (1.0, -2.0), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(DomainError):
            an.MotilityParams(*bad)
    # s and mu are finite and positive, but s^2/mu is inf or 0 as a double
    for bad in ((1e160, 1.0), (1.0, 1e-320), (1e-200, 1.0), (1e-10, 1e308)):
        with pytest.raises(DomainError, match="s\\^2/mu"):
            an.MotilityParams(*bad)


def test_diffusion_tensor_isotropic_peanut():
    tensor = an.diffusion_tensor(d.peanut(np.eye(3)), P1)
    np.testing.assert_allclose(tensor.D, np.eye(3) / 3.0, atol=1e-15)


def test_diffusion_tensor_scalar_factor_is_exact():
    dist = d.peanut(np.diag([4.0, 1.0, 2.0]))
    base = moments.peanut_moments(dist.A).covariance
    tensor = an.diffusion_tensor(dist, an.MotilityParams(2.0, 4.0))
    assert np.array_equal(tensor.D, base)  # (s^2/mu) = 1 exactly


def test_diffusion_tensor_matches_oracle_for_bimodal():
    rng = rng_for(1)
    u = random_unit(rng, 3)
    params = an.MotilityParams(1.5, 0.5)
    tensor = an.diffusion_tensor(d.bimodal_vmf(u, 4.0), params)
    report = oracle.quad_moments(d.bimodal_vmf(u, 4.0))
    np.testing.assert_allclose(tensor.D, params.factor * report.covariance, atol=1e-9)


def test_diffusion_tensor_rejects_kinds_without_closed_form():
    with pytest.raises(UnsupportedError):
        an.diffusion_tensor(d.odf(np.eye(3)), P1)
    with pytest.raises(UnsupportedError):
        an.diffusion_tensor(d.bingham(np.eye(3), 1.0), P1)


def test_diffusion_tensor_positive_semidefinite():
    rng = rng_for(2)
    for n in (2, 3, 5):
        for k in (0.0, 0.5, 50.0, 1e4):
            u = random_unit(rng, n)
            for dist in (d.vmf(u, k), d.bimodal_vmf(u, k)):
                w, _ = an.symmetric_eigen(an.diffusion_tensor(dist, P1).D)
                assert w.min() >= -1e-10 * max(w.max(), 1e-300)


# ---------------------------------------------------------------------------
# eigensolver


def test_eigen_diagonal():
    w, v = an.symmetric_eigen(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(w, [3.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(v, np.eye(2), atol=1e-12)


def test_eigen_rank_one_update_structure():
    # alpha I + beta u u^T has eigenvalue alpha+beta along u, alpha elsewhere
    rng = rng_for(3)
    u = random_unit(rng, 4)
    alpha, beta = 0.7, 2.3
    w, v = an.symmetric_eigen(alpha * np.eye(4) + beta * np.outer(u, u))
    np.testing.assert_allclose(w, [alpha + beta, alpha, alpha, alpha], atol=1e-12)
    assert abs(abs(v[:, 0] @ u) - 1.0) < 1e-10


def test_eigen_reconstruction_and_orthonormality():
    rng = rng_for(4)
    for n in (2, 3, 5, 8):
        m = random_spd(rng, n) - 0.8 * np.eye(n)
        w, v = an.symmetric_eigen(m)
        np.testing.assert_allclose(v @ np.diag(w) @ v.T, m, atol=1e-9 * max(1, np.abs(m).max()))
        np.testing.assert_allclose(v.T @ v, np.eye(n), atol=1e-10)
        assert np.all(np.diff(w) <= 1e-12)
        # independent reference
        np.testing.assert_allclose(w, np.sort(np.linalg.eigvalsh(m))[::-1],
                                   atol=1e-11 * max(1, np.abs(m).max()))


def test_eigen_residual():
    rng = rng_for(5)
    m = random_spd(rng, 3)
    w, v = an.symmetric_eigen(m)
    for i in range(3):
        assert np.linalg.norm(m @ v[:, i] - w[i] * v[:, i]) <= 1e-9 * np.linalg.norm(m)


def test_eigen_sign_convention_and_determinism():
    rng = rng_for(6)
    m = random_spd(rng, 4)
    w1, v1 = an.symmetric_eigen(m)
    w2, v2 = an.symmetric_eigen(m)
    assert np.array_equal(w1, w2) and np.array_equal(v1, v2)
    for i in range(4):
        first = v1[np.abs(v1[:, i]) > 1e-12, i][0]
        assert first > 0
    # a stack gives each matrix's own decomposition, with the same conventions
    stack = np.array([m, random_spd(rng, 4), np.diag([1.0, 3.0, 2.0, 3.0]), -m])
    ws, vs = an.symmetric_eigen(stack)
    assert ws.shape == (4, 4) and vs.shape == (4, 4, 4)
    for j in range(len(stack)):
        w, v = an.symmetric_eigen(stack[j])
        np.testing.assert_allclose(ws[j], w, rtol=1e-14, atol=1e-14)
        assert np.all(np.diff(ws[j]) <= 0.0)
        for i in range(4):
            assert vs[j][np.abs(vs[j][:, i]) > 1e-12, i][0] > 0
            residual = stack[j] @ vs[j][:, i] - ws[j][i] * vs[j][:, i]
            assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(stack[j])
    assert np.array_equal(ws[0], w1) and np.array_equal(vs[0], v1)


def test_eigen_rejects_asymmetric_and_malformed():
    with pytest.raises(ValidationError):
        an.symmetric_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        an.symmetric_eigen(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# FA and ratio


def test_fa_isotropic_and_aligned():
    assert an.fractional_anisotropy([2.5, 2.5]) == 0.0
    assert an.fractional_anisotropy([1.7, 0.0, 0.0]) == 1.0
    assert an.fractional_anisotropy([3.0, 0.0]) == 1.0


def test_fa_peanut_diagonal_value():
    report = an.peanut_closed_form_report(np.diag([3.0, 1.0]), P1)
    assert report.fa == pytest.approx(4.0 / math.sqrt(136.0), abs=1e-12)
    assert report.fa == pytest.approx(0.34300, abs=5e-6)
    # same number through the tensor eigenvalues
    w, _ = an.symmetric_eigen(an.diffusion_tensor(d.peanut(np.diag([3.0, 1.0])), P1).D)
    assert an.fractional_anisotropy(w) == pytest.approx(report.fa, abs=1e-12)


def test_fa_errors():
    with pytest.raises(DegenerateTensorError):
        an.fractional_anisotropy([0.0, 0.0])
    with pytest.raises(UnsupportedError):
        an.fractional_anisotropy([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(DomainError):
        an.fractional_anisotropy([1.0, -0.5])


def test_fa_stays_in_unit_interval():
    rng = rng_for(7)
    for _ in range(200):
        lam = rng.uniform(0.0, 5.0, size=rng.integers(2, 4))
        if np.all(lam == 0):
            continue
        assert 0.0 <= an.fractional_anisotropy(lam) <= 1.0


def test_ratio_values_and_errors():
    assert an.anisotropy_ratio([2.0, 2.0, 2.0]) == 1.0
    report = an.peanut_closed_form_report(np.diag([3.0, 1.0]), P1)
    assert report.ratio == pytest.approx(5.0 / 3.0, rel=1e-15)
    with pytest.raises(UnboundedRatioError):
        an.anisotropy_ratio([1.0, 0.0])


# ---------------------------------------------------------------------------
# closed-form reports


def test_peanut_report_identity_matrix():
    report = an.peanut_closed_form_report(np.eye(3), P1)
    assert report.fa == 0.0
    assert report.ratio == 1.0
    assert report.bounds_satisfied


def test_peanut_report_extreme_ratio_approaches_bounds():
    report = an.peanut_closed_form_report(np.diag([1e6, 1.0]), P1)
    assert abs(report.fa - an.FA2_MAX) < 1e-4
    assert report.fa < an.FA2_MAX
    assert 2.99 < report.ratio <= 3.0
    report3 = an.peanut_closed_form_report(np.diag([1e7, 1.0, 1.0]), P1)
    assert abs(report3.fa - an.FA3_MAX) < 1e-4


def test_peanut_report_matches_generic_path():
    rng = rng_for(8)
    for n in (2, 3, 5):
        a = random_spd(rng, n)
        closed = an.peanut_closed_form_report(a, an.MotilityParams(1.3, 0.6))
        generic = an.anisotropy_report(d.peanut(a), an.MotilityParams(1.3, 0.6))
        np.testing.assert_allclose(closed.eigenvalues, generic.eigenvalues, atol=1e-10)
        assert closed.ratio == pytest.approx(generic.ratio, abs=1e-10)
        if n in (2, 3):
            assert closed.fa == pytest.approx(generic.fa, abs=1e-10)
        else:
            assert closed.fa is None and generic.fa is None


def test_peanut_eigenvalue_formula_against_eigensolver():
    rng = rng_for(9)
    a = random_spd(rng, 3)
    params = an.MotilityParams(2.0, 0.5)
    lam_hat, _ = an.symmetric_eigen(a)
    expected = params.factor / 5.0 * (1.0 + 2.0 * lam_hat / np.trace(a))
    w, _ = an.symmetric_eigen(an.diffusion_tensor(d.peanut(a), params).D)
    np.testing.assert_allclose(w, expected, atol=1e-10)


def test_peanut_report_rejects_asymmetric_and_indefinite():
    with pytest.raises(ValidationError):
        an.peanut_closed_form_report(np.array([[1.0, 0.5], [0.0, 1.0]]), P1)
    with pytest.raises(ValidationError):
        an.peanut_closed_form_report(np.diag([1.0, -1.0]), P1)


def test_peanut_report_of_a_matrix_wider_than_the_doubles():
    # 1e-30 is 2^-1096 max|A|, so the copy scaled by max|A| loses it and is
    # singular; the given A is positive definite, in a stack too
    wide = np.diag([1e300, 1e-30, 1.0])
    stack = np.stack([wide, np.diag([3.0, 1.0, 1.0]), wide[::-1, ::-1]])
    batch = an.peanut_closed_form_report(stack, P1)
    for row, A in enumerate(stack):
        one = an.peanut_closed_form_report(A, P1)
        assert np.array_equal(batch.eigenvalues[row], one.eigenvalues)
        assert (batch.fa[row], batch.ratio[row]) == (one.fa, one.ratio)
    assert batch.fa[0] == 0.60302268915552726
    with pytest.raises(ValidationError, match="A not positive definite"):
        an.peanut_closed_form_report(np.diag([1e300, -1e-30, 1.0]), P1)


@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_validated_peanut_report_equals_the_checked_one(n):
    # validated=True leaves out symmetric_eigen's checks and eigenvectors,
    # not a bit of the report: at moderate scales, beyond 2^(+-400), in a stack
    rng = rng_for(40 + n)
    stack = np.stack([random_spd(rng, n) for _ in range(20)])
    for A in [*stack, np.ldexp(stack[0], 700), np.ldexp(stack[1], -700), stack]:
        want = an.peanut_closed_form_report(A, P1)
        got = an.peanut_closed_form_report(A, P1, validated=True)
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.ratio, want.ratio)
        assert (got.fa is None) == (want.fa is None)
        assert want.fa is None or np.array_equal(got.fa, want.fa)
        assert got.bound_flags.keys() == want.bound_flags.keys()
        assert all(np.array_equal(got.bound_flags[b], want.bound_flags[b]) for b in want.bounds)


# sha256 of the 89 decisions of each case below, which a copy of A scaled by
# max|A| alone makes too: the tiny entries move none of them
PINNED_ROTATION_DECISIONS = {
    (1e200, 0.0): "677a4663fea5865b",
    (1e300, 0.0): "5525f2138560b66d",
    (2.0**300, 1e-230): "c01fe6cbc5c7638d",
    (1e200, 1e-200): "677a4663fea5865b",
    (1e300, 1e-230): "5525f2138560b66d",
}


@pytest.mark.parametrize("big, tiny", sorted(PINNED_ROTATION_DECISIONS))
def test_peanut_report_decides_positive_definiteness_as_validate_does(big, tiny):
    # rotations of diag(big, 1, 1), whose smallest eigenvalues lie below the
    # rounding of the largest, with a tiny entry; validate and the closed route
    # scale A by the power of two of _scale_exponent, so both decide on exact
    # multiples of A that keep the tiny entry where A spans at most 2^1505
    decisions = []
    for degrees in range(1, 90):
        c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
        A = np.array([[c * c + s * s * big, c * s * (big - 1.0), 0.0],
                      [c * s * (big - 1.0), s * s + c * c * big, tiny], [0.0, tiny, 1.0]])
        try:
            an.peanut_closed_form_report(A, P1)
            closed = True
        except ValidationError:
            closed = False
        decisions.append(closed)
        assert closed == (not d.SphericalDistribution("peanut", 3, A=A)._violations)
    assert any(decisions) and not all(decisions)
    digest = hashlib.sha256(bytes(decisions)).hexdigest()[:16]
    assert digest == PINNED_ROTATION_DECISIONS[big, tiny]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_batch_reports_equal_per_point_reports(n):
    # thousands of points, so a batch formula that rounds differently from the
    # scalar one (np.hypot for math.hypot, x*x for x**2) shows in some row
    params = an.MotilityParams(1.3, 0.7)
    u = random_unit(rng_for(n), n)
    k = np.concatenate([[0.0, 1e-9, 1e-8], np.geomspace(1e-4, 1e4, 4000)])
    a = np.tile(np.eye(n), (600, 1, 1))
    a[:, 0, 0] = np.geomspace(1e-2, 1e4, 600)
    a[:, -1, -1] = 0.5
    cases = [
        (an.vmf_closed_form_report(k, u, params),
         [an.vmf_closed_form_report(ki, u, params) for ki in k.tolist()]),
        (an.anisotropy_report(d.SphericalDistribution("vmf", n, u=u, k=k[::10]), params),
         [an.anisotropy_report(d.vmf(u, ki), params) for ki in k[::10].tolist()]),
        (an.peanut_closed_form_report(a, params),
         [an.peanut_closed_form_report(ai, params) for ai in a]),
    ]
    for batch, singles in cases:
        assert batch.eigenvalues.shape == (len(singles), n)
        assert np.array_equal(batch.eigenvalues, [r.eigenvalues for r in singles])
        assert np.array_equal(batch.ratio, [r.ratio for r in singles])
        if n == 5:
            assert batch.fa is None and all(r.fa is None for r in singles)
        else:
            assert np.array_equal(batch.fa, [r.fa for r in singles])
        for name, flags in batch.bound_flags.items():
            assert np.array_equal(flags, [r.bound_flags[name] for r in singles])
        assert batch.bounds_satisfied


def test_vmf_report_rejects_bad_direction_and_concentration():
    for bad_u in ([1.0, 1.0], [math.nan, 0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]], [1.0]):
        with pytest.raises(ValidationError):
            an.vmf_closed_form_report(2.0, bad_u, P1)
    for bad_k in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            an.vmf_closed_form_report(bad_k, [1.0, 0.0, 0.0], P1)


def test_generic_path_handles_asymmetric_peanut():
    rng = rng_for(10)
    a = random_spd(rng, 3, asymmetric=True)
    generic = an.anisotropy_report(d.peanut(a), P1)
    closed = an.peanut_closed_form_report(0.5 * (a + a.T), P1)
    assert generic.fa == pytest.approx(closed.fa, abs=1e-10)


def test_vmf_report_uniform_limit():
    for n in (2, 3):
        u = np.zeros(n)
        u[0] = 1.0
        report = an.vmf_closed_form_report(0.0, u, an.MotilityParams(2.0, 5.0))
        assert report.fa == 0.0
        assert report.ratio == 1.0
        np.testing.assert_allclose(report.eigenvalues, np.full(n, 4.0 / (5.0 * n)),
                                   atol=1e-15)


def test_vmf_report_high_concentration():
    report = an.vmf_closed_form_report(500.0, [0.0, 0.0, 1.0], P1)
    assert report.fa > 0.99
    assert report.ratio > 100.0
    assert report.bounds_satisfied


def test_vmf_report_matches_generic_path():
    rng = rng_for(11)
    for n in (2, 3):
        u = random_unit(rng, n)
        for k in (1e-3, 0.3, 2.0, 40.0, 500.0):
            closed = an.vmf_closed_form_report(k, u, P1)
            generic = an.anisotropy_report(d.bimodal_vmf(u, k), P1)
            assert closed.fa == pytest.approx(generic.fa, abs=1e-10)
            assert closed.ratio == pytest.approx(generic.ratio, abs=1e-10 * max(1, closed.ratio))
            np.testing.assert_allclose(closed.eigenvalues, generic.eigenvalues, atol=1e-12)


def test_vmf_report_monotone_range():
    grid = np.geomspace(1e-3, 500.0, 50)
    for n in (2, 3):
        u = np.zeros(n)
        u[0] = 1.0
        fas, ratios = [], []
        for k in grid:
            report = an.vmf_closed_form_report(float(k), u, P1)
            fas.append(report.fa)
            ratios.append(report.ratio)
        assert fas[0] < 1e-2 and fas[-1] > 0.99
        assert ratios[0] < 1.01
        assert np.all(np.diff(fas) >= 0)
        assert np.all(np.diff(ratios) >= 0)


def _unimodal_reference(n, k, digits):
    """(smallest eigenvalue, ratio, FA or None) of the unimodal vMF's report at
    s^2/mu = 1; Var(u.x) = r/k + r2 - r^2 cancels here too, so the working
    precision must grow with k."""
    with mp.workdps(digits):
        nu, k = mp.mpf(n) / 2, mp.mpf(k)
        below = mp.besseli(nu - 1, k)
        r = mp.besseli(nu, k) / below
        across = r / k
        var = across + mp.besseli(nu + 1, k) / below - r * r
        fa = (across - var) / mp.sqrt((n - 1) * across**2 + var**2) if n <= 3 else None
        return float(var), float(across / var), None if fa is None else float(fa)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 10, 100, 1000])
def test_unimodal_report_against_high_precision_reference(n):
    tol = 1e-13 if n <= 10 else 1e-11
    u = np.zeros(n)
    u[-1] = 1.0
    for e in range(-3, 151, 3):
        report = an.anisotropy_report(d.vmf(u, 10.0**e), P1)
        var, ratio, fa = _unimodal_reference(n, 10.0**e, 30 + 2 * max(e, 0))
        assert report.eigenvalues[-1] == report.eigenvalues.min()
        assert report.eigenvalues[-1] == pytest.approx(var, rel=tol, abs=0)
        assert report.ratio == pytest.approx(ratio, rel=tol, abs=0)
        if n <= 3:
            assert report.fa == pytest.approx(fa, rel=tol, abs=0)


def test_unimodal_report_agrees_with_the_eigensolve_of_its_tensor():
    # up to k = 2 the tensor's r/k + r2 - r^2 is still exact enough to check
    # the closed formulas against
    rng = rng_for(23)
    params = an.MotilityParams(1.3, 0.7)
    for n in (2, 3, 5, 10):
        u = random_unit(rng, n)
        for k in (0.0, 1e-9, 1e-8, 1e-3, 0.1, 0.7, 1.0, 1.5, 2.0):
            dist = d.vmf(u, k)
            report = an.anisotropy_report(dist, params)
            w, _ = an.symmetric_eigen(an.diffusion_tensor(dist, params).D)
            np.testing.assert_allclose(report.eigenvalues, w, rtol=1e-12, atol=0)
            assert report.ratio == pytest.approx(w[0] / w[-1], rel=1e-12)
            if n <= 3:
                assert report.fa == pytest.approx(an.fractional_anisotropy(w), abs=1e-12)


def test_peanut_bound_suite():
    rng = rng_for(12)
    for n in (2, 3):
        fa_bound = an.FA2_MAX if n == 2 else an.FA3_MAX
        for _ in range(200):
            report = an.peanut_closed_form_report(random_spd(rng, n), P1)
            assert report.fa <= fa_bound + 1e-12
            assert 1.0 - 1e-12 <= report.ratio <= 3.0 + 1e-12
            assert report.bounds_satisfied


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=3),
    st.integers(min_value=0, max_value=2**31),
)
def test_peanut_bounds_property(eigenvalues, seed):
    n = len(eigenvalues)
    from util import random_rotation

    q = random_rotation(rng_for(seed), n)
    a = q @ np.diag(eigenvalues) @ q.T
    a = 0.5 * (a + a.T)
    report = an.peanut_closed_form_report(a, P1)
    fa_bound = an.FA2_MAX if n == 2 else an.FA3_MAX
    assert report.fa <= fa_bound + 1e-10
    assert 1.0 - 1e-12 <= report.ratio <= 3.0 + 1e-10


def test_scale_invariance_exact_for_power_of_two():
    rng = rng_for(13)
    a = random_spd(rng, 3)
    base = an.peanut_closed_form_report(a, P1)
    scaled = an.peanut_closed_form_report(8.0 * a, P1)
    assert scaled.fa == base.fa
    assert scaled.ratio == base.ratio
    # (s, mu) scaling by powers of two leaves FA and R untouched as well
    rescaled = an.peanut_closed_form_report(a, an.MotilityParams(4.0, 2.0))
    assert rescaled.fa == base.fa and rescaled.ratio == base.ratio


def test_scale_invariance_generic_path():
    rng = rng_for(14)
    a = random_spd(rng, 3)
    base = an.anisotropy_report(d.peanut(a), P1)
    scaled = an.anisotropy_report(d.peanut(1.7 * a), an.MotilityParams(3.1, 1.4))
    assert scaled.fa == pytest.approx(base.fa, abs=1e-12)
    assert scaled.ratio == pytest.approx(base.ratio, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_fa_and_ratio_ignore_extreme_motility_scales(n):
    # beyond 2^(+-400) the scaled tensor is subnormal or huge and keeps fewer
    # bits; FA and the ratio keep those of s^2/mu = 1, the eigenvalues scale
    rng = rng_for(16 + n)
    u = random_unit(rng, n)
    dists = [d.vmf(u, 2.0), d.bimodal_vmf(u, 2.0), d.peanut(random_spd(rng, n, asymmetric=True))]
    for s in (1e-160, 1e-155, 1e100, 1e150):
        params = an.MotilityParams(s, 1.0)
        for dist in dists:
            routes = [an.anisotropy_report]
            if dist.kind != "peanut":
                routes.append(lambda dist, p: an.vmf_closed_form_report(dist.k, dist.u, p))
            for route in routes:
                base = route(dist, P1)
                report = route(dist, params)
                assert report.fa == base.fa
                assert report.ratio == base.ratio
                np.testing.assert_allclose(report.eigenvalues, params.factor * base.eigenvalues,
                                           rtol=1e-12 if s > 1e-150 else 1e-2, atol=0)


def test_generic_report_refuses_fa_above_three_dimensions():
    rng = rng_for(15)
    report = an.anisotropy_report(d.peanut(random_spd(rng, 5)), P1)
    assert report.fa is None
    assert report.ratio >= 1.0
