"""Closed-form expectation and covariance for the von Mises-Fisher,
bimodal von Mises-Fisher and peanut distributions.

All Bessel-function ratios route through the overflow-safe machinery in
``specfun``, so concentrations up to k = 1e4 stay accurate; the 0/0
structure of the formulas at k = 0 is replaced by its analytic limit
(zero mean, identity/n covariance) below ``SMALL_K``.  Both happen in
``_vmf_coefficients``, which every vMF closed form (here and in
``anisotropy``) calls for its coefficients, in ``_vmf_variances``,
which gives the unimodal vMF's anisotropy its two variances, and in
``vmf_mean``, which takes the one ratio I_{n/2}/I_{n/2-1}.
``vmf_mean`` and ``vmf_covariance`` take a number or a 1-D array of
concentrations and run the same formulas on either.
"""

import math

import numpy as np

from . import specfun
from .distributions import UNIT_NORM_TOL, _checked, peanut as _peanut
from .errors import DomainError, UnsupportedError, ValidationError
from .reports import MomentReport

__all__ = [
    "SMALL_K",
    "MomentReport",
    "vmf_mean",
    "vmf_covariance",
    "vmf_moments",
    "bimodal_vmf_moments",
    "peanut_moments",
    "closed_form_moments",
    "odd_moments_zero_check",
]

SMALL_K = 1e-8


def _check_direction(u):
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < 2:
        raise ValidationError("mean direction must be a vector of length >= 2")
    # NaN and infinite entries fail the norm test too, so valid input
    # pays for the norm only and the finiteness scan just picks the message
    if not abs(np.linalg.norm(u) - 1.0) <= UNIT_NORM_TOL:
        if not np.all(np.isfinite(u)):
            raise ValidationError("mean direction must be finite")
        raise ValidationError("mean direction must be a unit vector")
    return u


def _check_concentration(k):
    k = float(k)
    if not math.isfinite(k) or k < 0.0:
        raise DomainError(f"concentration must be finite and >= 0, got {k}")
    return k


def _check_concentrations(k):
    """A number as ``_check_concentration`` takes it, or a 1-D array of them."""
    if not (isinstance(k, np.ndarray) and k.ndim):
        return _check_concentration(k)
    k = np.asarray(k, dtype=float)
    if k.ndim != 1:
        raise DomainError(f"concentrations must be a 1-D array, got shape {k.shape}")
    if not (np.all(np.isfinite(k)) and np.all(k >= 0.0)):
        raise DomainError("concentrations must be finite and >= 0")
    return k


def _beyond_small_k(k, limits, evaluate):
    """``evaluate(k)`` where k >= SMALL_K, and the k -> 0 ``limits`` below it.

    ``k`` is a checked number, giving floats, or a 1-D array, giving arrays;
    ``evaluate`` then takes the entries k >= SMALL_K as one array.
    """
    if not isinstance(k, np.ndarray):
        return evaluate(k) if k >= SMALL_K else limits
    big = k >= SMALL_K
    coefficients = tuple(np.full(k.shape, limit) for limit in limits)
    for c, v in zip(coefficients, evaluate(k[big])):
        c[big] = v
    return coefficients


def _vmf_coefficients(n, k, scale=1.0):
    """``scale`` times (r, r/k, r2), the coefficients of the vMF closed forms.

    r = I_{n/2}(k)/I_{n/2-1}(k) and r2 = I_{n/2+1}(k)/I_{n/2-1}(k); below
    SMALL_K they take their k -> 0 limits (0, scale/n, 0).  A number ``k``
    keeps two scalar Bessel-ratio calls, which are faster for one value,
    and an array takes both orders in one array call.  The products are
    (scale r)/k and (scale I_{n/2+1}/I_{n/2}) r, in that order.
    """

    def evaluate(kb):
        if isinstance(kb, np.ndarray):
            orders = np.repeat([0.5 * n, 0.5 * n + 1.0], kb.size)
            r, r_up = np.split(specfun.bessel_ratio(orders, np.concatenate([kb, kb])), 2)
        else:
            r, r_up = specfun.bessel_ratio(0.5 * n, kb), specfun.bessel_ratio(0.5 * n + 1.0, kb)
        sr = scale * r
        return sr, sr / kb, scale * r_up * r

    return _beyond_small_k(k, (0.0, scale / n, 0.0), evaluate)


def _vmf_variances(n, k):
    """(r, r/k, Var(u.x)) of the unimodal vMF: its mean resultant length, its
    variance across u and its variance along u, with the k -> 0 limits
    (0, 1/n, 1/n) below SMALL_K.

    Var(u.x) = dr/dk, the exponential-family identity dE[t]/dk = Var t for
    t = u.x.  It comes from the Bessel-ratio pass that carries the
    derivative, so no difference of numbers near 1 forms it, as
    r/k + r2 - r^2 does at large k.  Var(u.x) < r/k, but where k is below
    about 1e-7 n the two agree to rounding and could come out one ulp
    apart in the wrong order: Var(u.x) is capped at r/k.
    """

    def evaluate(kb):
        r, slope = specfun.bessel_ratio_slope(0.5 * n, kb)
        alpha = r / kb
        return r, alpha, np.minimum(slope, alpha)

    return _beyond_small_k(k, (0.0, 1.0 / n, 1.0 / n), evaluate)


def _mean(r, u):
    mean = np.multiply.outer(r, u)
    mean[r == 0.0] = 0.0  # the k -> 0 limit is +0, also where u is negative
    return mean


def vmf_mean(k, u):
    """Mean vector of the vMF distribution: (I_{n/2}/I_{n/2-1})(k) u.

    A 1-D array of m concentrations gives the (m, n) array of means.
    """
    u = _check_direction(u)
    p = 0.5 * u.size
    (r,) = _beyond_small_k(_check_concentrations(k), (0.0,),
                           lambda kb: (specfun.bessel_ratio(p, kb),))
    return _mean(r, u)


def vmf_covariance(k, u):
    """Variance-covariance matrix of the vMF distribution,
    (r/k) I + (r2 - r^2) u u^T.

    A 1-D array of m concentrations gives the (m, n, n) stack of matrices.
    """
    u = _check_direction(u)
    n = u.size
    r, alpha, r2 = _vmf_coefficients(n, _check_concentrations(k))
    return np.multiply.outer(alpha, np.eye(n)) + np.multiply.outer(r2 - r * r, np.outer(u, u))


def vmf_moments(k, u):
    """Closed-form MomentReport for the unimodal vMF distribution."""
    u = _check_direction(u)
    n = u.size
    r, alpha, r2 = _vmf_coefficients(n, _check_concentration(k))
    mean = _mean(r, u)
    second = alpha * np.eye(n) + r2 * np.outer(u, u)
    return MomentReport(mean, second, second - np.outer(mean, mean), "closed_form")


def bimodal_vmf_moments(k, u):
    """Closed-form MomentReport for the bimodal vMF distribution.

    The mean is exactly zero; the second moment coincides with the
    unimodal one.
    """
    u = _check_direction(u)
    n = u.size
    _, alpha, r2 = _vmf_coefficients(n, _check_concentration(k))
    second = alpha * np.eye(n) + r2 * np.outer(u, u)
    return MomentReport(np.zeros(n), second, second, "closed_form")


def peanut_moments(A):
    """Closed-form MomentReport for the peanut distribution.

    The covariance depends on A only through its symmetric part, so
    asymmetric input with positive-definite symmetric part is accepted.
    """
    return closed_form_moments(_peanut(A))


def closed_form_moments(dist):
    """The closed-form MomentReport of a distribution, or None for the
    families that have none (odf, bingham)."""
    _checked(dist)
    if dist.kind == "vmf":
        return vmf_moments(dist.k, dist.u)
    if dist.kind == "bimodal_vmf":
        return bimodal_vmf_moments(dist.k, dist.u)
    if dist.kind != "peanut":
        return None
    A = dist._scaled[0]
    n = dist.n
    second = np.eye(n) / (n + 2) + (A + A.T) / ((n + 2) * np.trace(A))
    return MomentReport(np.zeros(n), second, second, "closed_form")


def odd_moments_zero_check(dist, order, *, seed, samples=10_000, resolution=256):
    """Largest |entry| of an odd raw moment, computed by the oracle.

    ``order`` is 1 (vector) or 3 (rank-3 tensor).  Uses quadrature for
    n in {2, 3} and seeded Monte Carlo otherwise; the result should be
    at quadrature tolerance (deterministic) or within a few standard
    errors of zero (Monte Carlo).
    """
    from . import oracle

    if order not in (1, 3):
        raise DomainError(f"order must be 1 or 3, got {order}")
    if dist.kind == "vmf" and dist.k > 0:
        raise UnsupportedError(
            "vmf with k > 0 has a nonzero first moment; odd-moment check "
            "applies to antipodally symmetric distributions"
        )
    if dist.n <= 3:
        tensor = oracle.quad_raw_moment(dist, order, resolution=resolution)
    else:
        tensor, _ = oracle.mc_raw_moment(dist, oracle.McSpec(dist.n, samples, seed), order)
    return float(np.max(np.abs(tensor)))
