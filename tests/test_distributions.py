import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphermoments import distributions as d
from sphermoments import moments, oracle
from sphermoments.errors import DomainError, ValidationError

from util import random_rotation, random_spd, random_unit, rng_for


# ---------------------------------------------------------------------------
# surface area


def test_surface_areas():
    assert d.sphere_surface_area(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert d.sphere_surface_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert d.sphere_surface_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-13)
    # |S^7| = pi^4 / 3
    assert d.sphere_surface_area(8) == pytest.approx(math.pi**4 / 3.0, rel=1e-13)


# 400: Gamma(200) overflows a double, where the area would once come out as 0.0
@pytest.mark.parametrize("bad", [1, 0, -2, 2.5, 400])
def test_surface_area_rejects_bad_dimension(bad):
    with pytest.raises(DomainError):
        d.sphere_surface_area(bad)


# ---------------------------------------------------------------------------
# validation


def test_validate_clean_distributions():
    assert d.validate(d.vmf([1.0, 0.0], 2.0)) == []
    assert d.validate(d.bimodal_vmf([0.0, 0.0, 1.0], 5.0)) == []
    assert d.validate(d.peanut(np.diag([3.0, 1.0]))) == []


def test_validate_reports_negative_concentration():
    dist = d.SphericalDistribution("vmf", 2, u=[1.0, 0.0], k=-1.0)
    assert d.validate(dist) == ["k must be >= 0"]


def test_validate_reports_indefinite_matrix():
    dist = d.SphericalDistribution("peanut", 2, A=np.diag([1.0, -1.0]))
    assert "A not positive definite" in d.validate(dist)


def test_validate_reports_non_unit_direction():
    dist = d.SphericalDistribution("vmf", 2, u=[1.0, 1.0], k=1.0)
    assert "u must be a unit vector" in d.validate(dist)


def test_validate_reports_parameter_kind_mismatch():
    dist = d.SphericalDistribution("vmf", 2, u=[1.0, 0.0], k=1.0, A=np.eye(2))
    assert any("u and k only" in v for v in d.validate(dist))
    dist = d.SphericalDistribution("peanut", 2, u=[1.0, 0.0], A=np.eye(2))
    assert any("not u/k" in v for v in d.validate(dist))


def test_validate_odf_dimension_restriction():
    assert any(
        "n = 3" in v
        for v in d.validate(d.SphericalDistribution("odf", 2, A=np.eye(2)))
    )
    assert d.validate(d.SphericalDistribution("odf", 3, A=np.eye(3))) == []


def test_validate_bingham_delta():
    dist = d.SphericalDistribution("bingham", 3, A=np.eye(3), delta=-0.5)
    assert any("delta" in v for v in d.validate(dist))


def test_validate_bingham_a_delta_beyond_the_doubles():
    # the Bingham depends on A and delta only through A delta, here 1e600 and 1e-600
    for scale in (1e300, 1e-300):
        dist = d.SphericalDistribution("bingham", 3, A=scale * np.eye(3), delta=scale)
        assert len(dist._violations) == 1
        assert "A delta must be a positive finite double" in dist._violations[0]


def test_validate_quadratic_form_kinds_require_symmetry():
    # asymmetric input is meaningful for the peanut but would silently
    # break the odf/bingham normalization constants
    a = np.array([[2.0, 0.5], [0.1, 1.0]])
    a3 = np.eye(3)
    a3[0, 1] = 0.3
    assert d.validate(d.SphericalDistribution("peanut", 2, A=a)) == []
    assert any("symmetric" in v
               for v in d.validate(d.SphericalDistribution("odf", 3, A=a3)))
    assert any("symmetric" in v
               for v in d.validate(d.SphericalDistribution("bingham", 3, A=a3, delta=0.5)))


def test_factories_raise_on_bad_input():
    with pytest.raises(ValidationError):
        d.vmf([1.0, 0.0], -2.0)
    with pytest.raises(ValidationError):
        d.peanut(np.diag([1.0, -1.0]))
    # a number, which has no len(), is bad input too, not a TypeError
    for build in (
        lambda: d.vmf(1.0, 2.0),
        lambda: d.bimodal_vmf(1.0, 2.0),
        lambda: d.peanut(5.0),
        lambda: d.odf(5.0),
        lambda: d.bingham(5.0, 1.0),
    ):
        with pytest.raises(ValidationError):
            build()


# output pin of validate's positive-definiteness check: SHA-256 of its decisions.
# Those on matrices with |lambda_min| < 1e-15 max|lambda| are made by rounding,
# so another LAPACK build may move them; the others may not move


def _pd_check_matrices():
    """Symmetric matrices for n = 2..10: well conditioned (eigenvalues
    log-uniform on [0.2, 5]), lambda_min of either sign below 1e-15
    max|lambda|, and the largest entry near 2^(+-450) or 2^(+-600)."""
    rng = rng_for(2024)
    out = []
    for n in range(2, 11):
        for case in range(40):
            q = random_rotation(rng, n)
            w = np.exp(rng.uniform(math.log(0.2), math.log(5.0), n))
            if 20 <= case < 36:
                w[0] = (-1.0) ** case * 10.0 ** rng.uniform(-18.0, -15.0) * w.max()
            A = (q * w) @ q.T
            A = 0.5 * (A + A.T)
            if case >= 36:
                e = (450, -450, 600, -600)[case - 36]
                A = np.ldexp(A, e - np.frexp(np.abs(A).max())[1])
            out.append(A)
    return out


PINNED_PD_DECISIONS = "db33fed98feffa57423a1a0f2b672dec9b16652252c77d62818788d8df787fe3"


def test_positive_definite_decisions_are_pinned():
    decisions = [
        "A not positive definite" not in d.SphericalDistribution("peanut", len(A), A=A)._violations
        for A in _pd_check_matrices()
    ]
    # every well-conditioned matrix is positive definite, whatever its scale
    assert all(decisions[i] for i in range(len(decisions)) if i % 40 < 20 or i % 40 >= 36)
    assert hashlib.sha256(bytes(decisions)).hexdigest() == PINNED_PD_DECISIONS


@pytest.mark.parametrize("diagonal", [
    [1e200, 1e-30, 1.0],  # 1e-200 / 1e200 is below the smallest double
    [1e110, 1e-5, 1.0],  # ... below the smallest normal double
    [1e100, 1e-310, 1.0],  # a subnormal entry
    [1e-200, 1e-5, 1e220],
])
@pytest.mark.parametrize("kind", ["peanut", "odf"])
def test_scaled_copy_keeps_every_entry_where_the_range_allows(kind, diagonal):
    A = np.diag(diagonal)
    A[0, 1] = A[1, 0] = 1e-200
    dist = getattr(d, kind)(A)  # positive definite
    copy = dist._scaled[0]
    scale = A[0, 0] / copy[0, 0]
    assert np.frexp(scale)[0] == 0.5  # a power of two
    assert np.array_equal(copy * scale, A)
    assert np.min(np.abs(copy[copy != 0.0])) >= 2.0**-1022
    assert np.max(np.abs(copy)) < 2.0**484  # LAPACK takes it as it is


def test_scaled_copy_of_a_matrix_wider_than_lapack_takes():
    # keeping 4e-307 normal would put entries near 2^1021 on the diagonal, beyond
    # LAPACK's 2^484, and the trace of nine of them overflows: the copy is scaled
    # by max|A| as for any A, and the closed form and Monte Carlo hold
    A = 1.7e308 * np.eye(9)
    A[0, 1] = A[1, 0] = 4e-307
    dist = d.peanut(A)
    assert np.array_equal(dist._scaled[0], np.ldexp(A, -1024))
    assert np.trace(moments.closed_form_moments(dist).second_moment) == 1.0
    report = oracle.mc_moments(dist, oracle.McSpec(9, 10_000, 3))
    assert abs(np.trace(report.second_moment) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# densities


def test_uniform_circle_density():
    dist = d.vmf([1.0, 0.0], 0.0)
    assert d.density(dist, [0.0, 1.0]) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)


def test_peanut_identity_matrix_is_uniform():
    dist = d.peanut(np.eye(2))
    rng = rng_for(3)
    for _ in range(5):
        theta = random_unit(rng, 2)
        assert d.density(dist, theta) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)


def test_vmf_mode_density_matches_constant():
    # n=3 constant reduces to k / (4 pi sinh k); at the mode q = c e^k
    k = 2.0
    dist = d.vmf([1.0, 0.0, 0.0], k)
    c = k / (4.0 * math.pi * math.sinh(k))
    assert d.density(dist, [1.0, 0.0, 0.0]) == pytest.approx(c * math.exp(k), rel=1e-12)


def test_density_dimension_mismatch():
    with pytest.raises(ValidationError):
        d.density(d.vmf([1.0, 0.0], 1.0), [1.0, 0.0, 0.0])


def test_density_rejects_invalid_distribution():
    dist = d.SphericalDistribution("vmf", 2, u=[1.0, 0.0], k=-3.0)
    with pytest.raises(ValidationError):
        d.density(dist, [1.0, 0.0])


def test_densities_nonnegative_everywhere():
    rng = rng_for(7)
    dists = [
        d.vmf(random_unit(rng, 3), 50.0),
        d.bimodal_vmf(random_unit(rng, 3), 8.0),
        d.peanut(random_spd(rng, 3)),
        d.odf(random_spd(rng, 3)),
        d.bingham(random_spd(rng, 3), 0.2),
    ]
    for dist in dists:
        thetas = oracle.uniform_sphere(3, 10_000, 123)
        values = d.density_many(dist, thetas)
        assert np.all(values >= 0.0)
        assert np.all(np.isfinite(values))


def test_antipodal_symmetry_exact_for_peanut():
    rng = rng_for(11)
    dist = d.peanut(random_spd(rng, 3, asymmetric=True))
    thetas = oracle.uniform_sphere(3, 512, 5)
    a = d.density_many(dist, thetas)
    b = d.density_many(dist, -thetas)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["bimodal_vmf", "odf", "bingham"])
def test_antipodal_symmetry_for_even_families(kind):
    rng = rng_for(13)
    if kind == "bimodal_vmf":
        dist = d.bimodal_vmf(random_unit(rng, 3), 1e4)
    elif kind == "odf":
        dist = d.odf(random_spd(rng, 3))
    else:
        dist = d.bingham(random_spd(rng, 3), 1.0 / (4.0 * 1e4))
    thetas = oracle.uniform_sphere(3, 512, 6)
    a = d.density_many(dist, thetas)
    b = d.density_many(dist, -thetas)
    scale = np.maximum(np.abs(a), 1e-300)
    assert np.max(np.abs(a - b) / scale) <= 1e-14


def test_vmf_log_density_linearity():
    # the normalization constant cancels exactly; what remains is the
    # inner-product term, accurate to a few ulp of k
    rng = rng_for(17)
    for k, tol in ((10.0, 1e-12), (1e3, 1e-12), (1e4, 1e-11)):
        for n in (2, 3, 5):
            u = random_unit(rng, n)
            dist = d.vmf(u, k)
            for _ in range(20):
                t1 = random_unit(rng, n)
                t2 = random_unit(rng, n)
                lhs = d.log_density(dist, t1) - d.log_density(dist, t2)
                rhs = k * np.dot(t1 - t2, u)
                assert abs(lhs - rhs) <= tol


def test_vmf_density_survives_huge_concentration():
    u = np.array([0.0, 0.0, 1.0])
    dist = d.vmf(u, 1e4)
    at_mode = d.density(dist, u)
    assert math.isfinite(at_mode) and at_mode > 0
    assert d.density(dist, -u) == 0.0  # underflow, not overflow/NaN


def test_bingham_outside_three_dimensions_is_unnormalized():
    rng = rng_for(19)
    dist = d.bingham(random_spd(rng, 4), 0.5)
    assert not d.density_is_normalized(dist)
    values = d.density_many(dist, oracle.uniform_sphere(4, 100, 2))
    assert np.all((values > 0) & (values <= 1.0))
    assert d.density_is_normalized(d.bingham(random_spd(rng, 3), 0.5))


@pytest.mark.parametrize(
    "kind, n, seed",
    [
        ("peanut", 3, 41),
        ("peanut", 5, 42),
        ("odf", 3, 43),
        ("bingham", 3, 44),
        ("bingham", 5, 45),
    ],
)
def test_quadratic_form_densities_match_pointwise_formula(kind, n, seed):
    rng = rng_for(seed)
    points = oracle.uniform_sphere(n, 200, seed)
    delta = 0.4
    if kind == "peanut":
        A = random_spd(rng, n, asymmetric=True)
        assert np.max(np.abs(A - A.T)) > 1e-3
        dist = d.peanut(A)
        area = 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)
        c = n / (area * np.trace(A))
        expected = [c * (p @ A @ p) for p in points]
    else:
        A = random_spd(rng, n)
        A_inv = np.linalg.inv(A)
        det = np.linalg.det(A)
        if kind == "odf":
            dist = d.odf(A)
            expected = [
                (p @ A_inv @ p) ** -1.5 / (4.0 * math.pi * math.sqrt(det))
                for p in points
            ]
        else:
            dist = d.bingham(A, delta)
            const = (4.0 * math.pi * delta) ** -1.5 / math.sqrt(det) if n == 3 else 1.0
            expected = [const * math.exp(-(p @ A_inv @ p) / (4.0 * delta)) for p in points]
    np.testing.assert_allclose(d.density_many(dist, points), expected, rtol=1e-13, atol=0)


def test_normalization_by_quadrature():
    rng = rng_for(23)
    for n in (2, 3):
        dists = [
            d.vmf(random_unit(rng, n), float(rng.uniform(0.0, 30.0))),
            d.bimodal_vmf(random_unit(rng, n), float(rng.uniform(0.0, 30.0))),
            d.peanut(random_spd(rng, n, asymmetric=True)),
        ]
        if n == 3:
            dists.append(d.odf(random_spd(rng, 3)))
        for dist in dists:
            assert oracle.quad_normalization(dist) == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=100.0), st.integers(min_value=2, max_value=6),
       st.integers(min_value=0, max_value=2**31))
def test_density_nonnegative_property(k, n, seed):
    rng = rng_for(seed)
    dist = d.vmf(random_unit(rng, n), k)
    theta = random_unit(rng, n)
    assert d.density(dist, theta) >= 0.0


# ---------------------------------------------------------------------------
# JSON schema


def test_json_round_trip():
    rng = rng_for(29)
    dists = [
        d.vmf(random_unit(rng, 4), 3.5),
        d.bimodal_vmf(random_unit(rng, 2), 0.0),
        d.peanut(random_spd(rng, 3)),
        d.odf(random_spd(rng, 3)),
        d.bingham(random_spd(rng, 3), 0.25),
    ]
    for dist in dists:
        data = json.loads(json.dumps(d.distribution_to_json(dist)))
        back = d.distribution_from_json(data)
        assert back.kind == dist.kind and back.n == dist.n
        if dist.u is not None:
            np.testing.assert_array_equal(back.u, dist.u)
        if dist.A is not None:
            np.testing.assert_array_equal(back.A, dist.A)
        assert back.delta == dist.delta


def test_json_rejects_unknown_fields():
    with pytest.raises(ValidationError, match="unknown fields"):
        d.distribution_from_json({"kind": "vmf", "n": 2, "u": [1, 0], "k": 1, "x": 5})


def test_json_rejects_missing_and_malformed():
    with pytest.raises(ValidationError):
        d.distribution_from_json({"n": 2})
    with pytest.raises(ValidationError):
        d.distribution_from_json({"kind": "vmf", "n": "three", "u": [1, 0], "k": 1})
    with pytest.raises(ValidationError):
        d.distribution_from_json({"kind": "cauchy", "n": 2})
    with pytest.raises(ValidationError):
        d.distribution_from_json([1, 2, 3])
    with pytest.raises(ValidationError):
        d.distribution_from_json({"kind": "vmf", "n": 2, "u": [[1], [0]], "k": 1})
    # a k-grid is a batch point for the closed-form routes, never a JSON distribution
    with pytest.raises(ValidationError):
        d.distribution_from_json({"kind": "vmf", "n": 2, "u": [1, 0], "k": [1, 2]})
    with pytest.raises(ValidationError):
        d.vmf(np.array([1.0, 0.0]), np.array([1.0, 2.0]))
    # strings and booleans are not JSON numbers, even where float() reads them
    bingham = {"kind": "bingham", "n": 3, "A": np.eye(3).tolist(), "delta": 0.4}
    for payload, field in (
        ({"kind": "vmf", "n": 2, "u": ["1", "0"], "k": 2}, "u"),
        ({"kind": "vmf", "n": 2, "u": [1, 0], "k": "2"}, "k"),
        ({"kind": "vmf", "n": 2, "u": [1, 0], "k": True}, "k"),
        ({"kind": "vmf", "n": 2, "u": [1, False], "k": 2}, "u"),
        ({"kind": "peanut", "n": 2, "A": [["3", 0], [0, "1e0"]]}, "A"),
        ({"kind": "peanut", "n": 2, "A": [[3, None], [0, 1]]}, "A"),
        (dict(bingham, delta=True), "delta"),
        (dict(bingham, delta={"value": 0.4}), "delta"),
    ):
        with pytest.raises(ValidationError, match=f"^{field} must hold numbers only"):
            d.distribution_from_json(payload)
    # an int beyond the double range is malformed input, not a crash
    with pytest.raises(ValidationError, match="malformed"):
        d.distribution_from_json({"kind": "vmf", "n": 2, "u": [1, 0], "k": 10**400})


def test_distribution_parameters_are_immutable():
    dist = d.peanut(np.eye(3))
    with pytest.raises(ValueError):
        dist.A[0, 0] = 5.0
