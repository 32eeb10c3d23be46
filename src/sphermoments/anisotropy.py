"""Diffusion tensors and anisotropy indices (fractional anisotropy and
eigenvalue ratio) for distributions with closed-form covariance.

Two routes produce the same report: closed-form eigenvalue formulas for
the peanut (diffusion tensor (s^2/mu) [I/(n+2) + 2A/((n+2) tr A)], with
eigenvalues read off from those of A) and for the bimodal vMF (tensor
alpha(k) I + beta(k) u u^T), and a generic route that builds the tensor,
eigensolves it and applies the index definitions.  Agreement of the two
is part of the test suite.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from ._linalg import jacobi_eigh
from .errors import (
    DegenerateTensorError,
    DomainError,
    UnboundedRatioError,
    UnsupportedError,
    ValidationError,
)
from .moments import (
    SMALL_K,
    _check_concentration,
    _check_direction,
    bimodal_vmf_moments,
    peanut_moments,
    vmf_covariance,
)

__all__ = [
    "FA2_MAX",
    "FA3_MAX",
    "PEANUT_R_MAX",
    "MotilityParams",
    "DiffusionTensor",
    "AnisotropyReport",
    "diffusion_tensor",
    "symmetric_eigen",
    "fractional_anisotropy",
    "anisotropy_ratio",
    "peanut_closed_form_report",
    "vmf_closed_form_report",
    "anisotropy_report",
]

FA2_MAX = 2.0 / math.sqrt(10.0)
FA3_MAX = 2.0 / math.sqrt(11.0)
PEANUT_R_MAX = 3.0
BOUND_SLACK = 1e-12

_SYMMETRY_TOL = 1e-10
_SIGN_TOL = 1e-12


@dataclass(frozen=True)
class MotilityParams:
    """Speed s (length/time) and turning rate mu (1/time)."""

    s: float
    mu: float

    def __post_init__(self):
        for name in ("s", "mu"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v <= 0.0:
                raise DomainError(f"{name} must be finite and > 0, got {v}")
            object.__setattr__(self, name, v)

    @property
    def factor(self):
        """The scalar s^2/mu multiplying the covariance."""
        return self.s * self.s / self.mu


@dataclass(frozen=True, eq=False)
class DiffusionTensor:
    """Macroscopic diffusivity (s^2/mu) Var[q], units length^2/time."""

    D: np.ndarray
    params: MotilityParams
    n: int

    def __post_init__(self):
        D = np.array(self.D, dtype=float)
        D.flags.writeable = False
        object.__setattr__(self, "D", D)


@dataclass(frozen=True, eq=False)
class AnisotropyReport:
    """Eigenvalues (descending), FA (None outside n in {2,3}), ratio and
    the applicable upper bounds with their satisfied/violated flags."""

    eigenvalues: np.ndarray
    fa: float | None
    ratio: float
    bounds: dict
    bound_flags: dict

    def __post_init__(self):
        lam = np.array(self.eigenvalues, dtype=float)
        lam.flags.writeable = False
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def bounds_satisfied(self):
        return all(self.bound_flags.values())


def diffusion_tensor(dist, params):
    """D = (s^2/mu) Var[q] from the closed-form covariance of `dist`."""
    if dist.kind == "vmf":
        cov = vmf_covariance(dist.k, dist.u)
    elif dist.kind == "bimodal_vmf":
        cov = bimodal_vmf_moments(dist.k, dist.u).covariance
    elif dist.kind == "peanut":
        cov = peanut_moments(dist.A).covariance
    else:
        raise UnsupportedError(
            f"no closed-form covariance for kind {dist.kind!r}; "
            "use the numerical oracle instead"
        )
    return DiffusionTensor(params.factor * cov, params, dist.n)


def symmetric_eigen(M):
    """Eigen-decomposition of a symmetric matrix, self-contained.

    Cyclic Jacobi rotations; eigenvalues returned in descending order,
    each eigenvector's sign fixed so its first component above 1e-12 in
    magnitude is positive.  Returns ``(eigenvalues, eigenvectors)`` with
    eigenvectors in columns.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError("matrix must be square")
    if not np.all(np.isfinite(M)):
        raise ValidationError("matrix must be finite")
    scale = max(1.0, float(np.max(np.abs(M))))
    if np.max(np.abs(M - M.T)) > _SYMMETRY_TOL * scale:
        raise ValidationError("matrix is not symmetric")
    w, V = jacobi_eigh(0.5 * (M + M.T))
    order = np.argsort(-w, kind="stable")
    w = w[order]
    V = V[:, order]
    for i in range(V.shape[1]):
        col = V[:, i]
        nonzero = np.nonzero(np.abs(col) > _SIGN_TOL)[0]
        if nonzero.size and col[nonzero[0]] < 0.0:
            V[:, i] = -col
    return w, V


def fractional_anisotropy(eigenvalues):
    """FA of a tensor with the given nonnegative eigenvalues (n in {2,3}).

    0 for full radial symmetry, 1 for alignment to a single direction;
    values are clamped to [0, 1] only against 1e-14 rounding excursions.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size not in (2, 3):
        raise UnsupportedError(
            "fractional anisotropy is defined for 2 or 3 eigenvalues"
        )
    if not np.all(np.isfinite(lam)):
        raise DomainError("eigenvalues must be finite")
    top = float(np.max(np.abs(lam)))
    if top == 0.0:
        raise DegenerateTensorError("all eigenvalues are zero")
    if lam.min() < -1e-10 * top:
        raise DomainError("eigenvalues must be nonnegative")
    lam = np.clip(lam, 0.0, None)
    spread = np.sum((lam - lam.mean()) ** 2)
    sumsq = np.sum(lam * lam)
    if lam.size == 2:
        fa = math.sqrt(2.0 * spread / sumsq)
    else:
        fa = math.sqrt(3.0 * spread / (2.0 * sumsq))
    if 1.0 < fa <= 1.0 + 1e-14:
        fa = 1.0
    return fa


def anisotropy_ratio(eigenvalues):
    """Largest over smallest eigenvalue; requires all eigenvalues > 0."""
    lam = np.asarray(eigenvalues, dtype=float)
    smallest = float(lam.min())
    if smallest <= 0.0:
        raise UnboundedRatioError(
            f"smallest eigenvalue is {smallest}; the ratio is unbounded "
            "(tensor is singular or indefinite)"
        )
    return float(lam.max()) / smallest


def _peanut_bounds(n):
    bounds = {}
    if n == 2:
        bounds["fa2_max"] = FA2_MAX
    elif n == 3:
        bounds["fa3_max"] = FA3_MAX
    bounds["r_max"] = PEANUT_R_MAX
    return bounds


def _flags(fa, ratio, bounds):
    flags = {}
    for name, limit in bounds.items():
        if name.startswith("fa"):
            flags[name] = fa is None or fa <= limit + BOUND_SLACK
        else:
            flags[name] = 1.0 - BOUND_SLACK <= ratio <= limit + BOUND_SLACK
    return flags


def peanut_closed_form_report(A, params):
    """Anisotropy report for the peanut, from the eigenvalues of A alone.

    Demands symmetric positive-definite A (symmetrize upstream if an
    asymmetric matrix is intended); the tensor eigenvalues are
    (s^2/(mu (n+2))) (1 + 2 lhat_i / tr A).
    """
    A = np.asarray(A, dtype=float)
    lam_hat, _ = symmetric_eigen(A)  # raises on asymmetric input
    if lam_hat.min() <= 0.0:
        raise ValidationError("A not positive definite")
    n = A.shape[0]
    trace = float(np.trace(A))
    eigenvalues = params.factor / (n + 2) * (1.0 + 2.0 * lam_hat / trace)
    if n == 2:
        diff = abs(lam_hat[0] - lam_hat[1])
        fa = 2.0 * diff / math.hypot(trace + 2.0 * lam_hat[0], trace + 2.0 * lam_hat[1])
    elif n == 3:
        l1, l2, l3 = lam_hat
        num = 2.0 * (
            (2.0 * l1 - l2 - l3) ** 2
            + (2.0 * l2 - l1 - l3) ** 2
            + (2.0 * l3 - l1 - l2) ** 2
        )
        den = 3.0 * (
            (trace + 2.0 * l1) ** 2
            + (trace + 2.0 * l2) ** 2
            + (trace + 2.0 * l3) ** 2
        )
        fa = math.sqrt(num / den)
    else:
        fa = None
    ratio = (trace + 2.0 * lam_hat.max()) / (trace + 2.0 * lam_hat.min())
    bounds = _peanut_bounds(n)
    return AnisotropyReport(eigenvalues, fa, ratio, bounds, _flags(fa, ratio, bounds))


def vmf_closed_form_report(k, u, params):
    """Anisotropy report for the bimodal vMF tensor alpha I + beta u u^T.

    alpha = (s^2/mu) I_{n/2}(k)/(k I_{n/2-1}(k)) with limit s^2/(mu n)
    at k = 0; beta = (s^2/mu) I_{n/2+1}(k)/I_{n/2-1}(k) with limit 0.
    The ratio is reported as +inf if alpha underflows to zero.
    """
    u = _check_direction(u)
    k = _check_concentration(k)
    n = u.size
    if k < SMALL_K:
        alpha = params.factor / n
        beta = 0.0
    else:
        r = specfun.bessel_ratio(0.5 * n, k)
        alpha = params.factor * r / k
        beta = params.factor * specfun.bessel_ratio(0.5 * n + 1.0, k) * r
    eigenvalues = np.full(n, alpha)
    eigenvalues[0] = alpha + beta
    if n == 2:
        fa = 0.0 if beta == 0.0 else beta / math.hypot(alpha + beta, alpha)
    elif n == 3:
        fa = 0.0 if beta == 0.0 else beta / math.sqrt(
            (alpha + beta) ** 2 + 2.0 * alpha * alpha
        )
    else:
        fa = None
    ratio = math.inf if alpha == 0.0 else 1.0 + beta / alpha
    bounds = {"fa_max": 1.0}
    return AnisotropyReport(eigenvalues, fa, ratio, bounds, _flags(fa, ratio, bounds))


def anisotropy_report(dist, params):
    """Generic route: diffusion tensor -> eigensolve -> FA and ratio.

    FA is reported as None for n >= 4, where no definition is adopted.
    """
    tensor = diffusion_tensor(dist, params)
    w, _ = symmetric_eigen(tensor.D)
    fa = fractional_anisotropy(w) if dist.n in (2, 3) else None
    smallest = float(w.min())
    if smallest > 0.0:
        ratio = float(w.max()) / smallest
    elif float(w.max()) > 0.0:
        ratio = math.inf
    else:
        raise DegenerateTensorError("diffusion tensor is zero")
    bounds = _peanut_bounds(dist.n) if dist.kind == "peanut" else {"fa_max": 1.0}
    return AnisotropyReport(w, fa, ratio, bounds, _flags(fa, ratio, bounds))
