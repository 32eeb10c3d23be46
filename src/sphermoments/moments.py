"""Closed-form expectation and covariance for the von Mises-Fisher,
bimodal von Mises-Fisher and peanut distributions.

All Bessel-function ratios route through the overflow-safe machinery in
``specfun``, so concentrations up to k = 1e4 stay accurate; the 0/0
structure of the formulas at k = 0 is replaced by its analytic limit
(zero mean, identity/n covariance) below ``SMALL_K``.
"""

import math

import numpy as np

from . import specfun
from .distributions import SphericalDistribution, validate as _validate_dist
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
    "odd_moments_zero_check",
]

SMALL_K = 1e-8


def _check_direction(u):
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < 2:
        raise ValidationError("mean direction must be a vector of length >= 2")
    # NaN and infinite entries fail the norm test too, so valid input
    # pays for the norm only and the finiteness scan just picks the message
    if not abs(np.linalg.norm(u) - 1.0) <= 1e-12:
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


def _ratios(n, k):
    """(I_{n/2}/I_{n/2-1}, I_{n/2+1}/I_{n/2-1}) at concentration k (or a 1-D array)."""
    r = specfun.bessel_ratio(0.5 * n, k)
    r2 = specfun.bessel_ratio(0.5 * n + 1.0, k) * r
    return r, r2


def vmf_mean(k, u):
    """Mean vector of the vMF distribution: (I_{n/2}/I_{n/2-1})(k) u.

    A 1-D array of m concentrations gives the (m, n) array of means.
    """
    u = _check_direction(u)
    k = _check_concentrations(k)
    if isinstance(k, np.ndarray):
        big = k >= SMALL_K
        r = np.zeros(k.shape)
        r[big] = specfun.bessel_ratio(0.5 * u.size, k[big])
        return r[:, None] * u
    if k < SMALL_K:
        return np.zeros(u.size)
    return specfun.bessel_ratio(0.5 * u.size, k) * u


def vmf_covariance(k, u):
    """Variance-covariance matrix of the vMF distribution.

    A 1-D array of m concentrations gives the (m, n, n) stack of matrices.
    """
    u = _check_direction(u)
    k = _check_concentrations(k)
    n = u.size
    if isinstance(k, np.ndarray):
        # below SMALL_K the limits r/k = 1/n and r = r2 = 0 give I/n
        big = k >= SMALL_K
        alpha = np.full(k.shape, 1.0 / n)
        r = np.zeros(k.shape)
        r2 = np.zeros(k.shape)
        r[big], r2[big] = _ratios(n, k[big])
        alpha[big] = r[big] / k[big]
        return alpha[:, None, None] * np.eye(n) + (r2 - r * r)[:, None, None] * np.outer(u, u)
    if k < SMALL_K:
        return np.eye(n) / n
    r, r2 = _ratios(n, k)
    return (r / k) * np.eye(n) + (r2 - r * r) * np.outer(u, u)


def vmf_moments(k, u):
    """Closed-form MomentReport for the unimodal vMF distribution."""
    u = _check_direction(u)
    k = _check_concentration(k)
    n = u.size
    if k < SMALL_K:
        second = np.eye(n) / n
        return MomentReport(np.zeros(n), second, second, "closed_form")
    r, r2 = _ratios(n, k)
    mean = r * u
    second = (r / k) * np.eye(n) + r2 * np.outer(u, u)
    return MomentReport(mean, second, second - np.outer(mean, mean), "closed_form")


def bimodal_vmf_moments(k, u):
    """Closed-form MomentReport for the bimodal vMF distribution.

    The mean is exactly zero; the second moment coincides with the
    unimodal one.
    """
    u = _check_direction(u)
    k = _check_concentration(k)
    n = u.size
    if k < SMALL_K:
        second = np.eye(n) / n
        return MomentReport(np.zeros(n), second, second, "closed_form")
    r, r2 = _ratios(n, k)
    second = (r / k) * np.eye(n) + r2 * np.outer(u, u)
    return MomentReport(np.zeros(n), second, second, "closed_form")


def peanut_moments(A):
    """Closed-form MomentReport for the peanut distribution.

    The covariance depends on A only through its symmetric part, so
    asymmetric input with positive-definite symmetric part is accepted.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0] if A.ndim == 2 else 0
    violations = _validate_dist(SphericalDistribution("peanut", max(n, 2), A=A))
    if violations:
        raise ValidationError(violations)
    second = np.eye(n) / (n + 2) + (A + A.T) / ((n + 2) * np.trace(A))
    return MomentReport(np.zeros(n), second, second, "closed_form")


_SYMMETRIC_KINDS = ("peanut", "odf", "bingham", "bimodal_vmf")


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
    if dist.kind not in _SYMMETRIC_KINDS and not (dist.kind == "vmf" and dist.k == 0):
        raise UnsupportedError(f"odd-moment check not defined for kind {dist.kind!r}")
    if dist.n <= 3:
        spec = oracle.QuadratureSpec.for_dimension(dist.n, resolution)
        tensor = oracle.quad_raw_moment(dist, spec, order)
    else:
        tensor, _ = oracle.mc_raw_moment(dist, oracle.McSpec(dist.n, samples, seed), order)
    return float(np.max(np.abs(tensor)))
