"""Diffusion tensors and anisotropy indices (fractional anisotropy and
eigenvalue ratio) for distributions with closed-form covariance.

Two routes produce the same report: closed-form eigenvalue formulas for
the peanut (diffusion tensor (s^2/mu) [I/(n+2) + 2A/((n+2) tr A)], with
eigenvalues read off from those of A) and for the bimodal vMF (tensor
alpha(k) I + beta(k) u u^T), and a generic route that builds the tensor,
eigensolves it and applies the index definitions.  Agreement of the two
is part of the test suite.

Both routes also take a batch: a 1-D array of concentrations k, an
(m, n, n) stack of matrices A, or a distribution whose k is such an array.
The report then holds one row per entry (see ``AnisotropyReport``), each
equal to the report of that entry alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import _checked, _is_symmetric, _rescaled, _symmetric_part
from .errors import (
    DegenerateTensorError,
    DomainError,
    UnboundedRatioError,
    UnsupportedError,
    ValidationError,
)
from .moments import (
    _check_concentrations,
    _check_direction,
    _vmf_coefficients,
    closed_form_moments,
    vmf_covariance,
)
from .reports import _freeze

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
        if not 0.0 < self.factor < math.inf:
            raise DomainError(f"s^2/mu = {self.factor} for s = {self.s}, mu = {self.mu}; "
                              "choose units that make it a positive finite double")

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
    the applicable upper bounds with their satisfied/violated flags.

    A batch report has a leading batch axis: eigenvalues (m, n), and fa,
    ratio and each bound flag arrays of length m; bounds are constants.
    """

    eigenvalues: np.ndarray
    fa: float | np.ndarray | None
    ratio: float | np.ndarray
    bounds: dict
    bound_flags: dict

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _freeze(self.eigenvalues))
        for name in ("fa", "ratio"):
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                object.__setattr__(self, name, _freeze(value))

    @property
    def bounds_satisfied(self):
        return all(np.all(flag) for flag in self.bound_flags.values())


def diffusion_tensor(dist, params):
    """D = (s^2/mu) Var[q] from the closed-form covariance of `dist`."""
    if dist.kind == "vmf":
        if not isinstance(dist.k, np.ndarray):  # a batch point's u was checked already
            _checked(dist)
        cov = vmf_covariance(dist.k, dist.u)  # also takes a batch point's k-array
    else:
        report = closed_form_moments(dist)
        if report is None:
            raise UnsupportedError(
                f"no closed-form covariance for kind {dist.kind!r}; "
                "use the numerical oracle instead"
            )
        cov = report.covariance
    return DiffusionTensor(params.factor * cov, params, dist.n)


def symmetric_eigen(M):
    """Eigen-decomposition of a symmetric matrix or of a stack of them.

    ``M`` is (n, n) or (m, n, n).  LAPACK's symmetric solver
    (``np.linalg.eigh``) runs on the symmetrized input; eigenvalues are
    returned in descending order, each eigenvector's sign fixed so its
    first component above 1e-12 in magnitude is positive.  Returns
    ``(eigenvalues, eigenvectors)`` with eigenvectors in columns, both with
    M's leading batch axis if it has one.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise ValidationError("matrix must be square (or a stack of square matrices)")
    if not np.all(np.isfinite(M)):
        raise ValidationError("matrix must be finite")
    if not np.all(_is_symmetric(M)):
        raise ValidationError("matrix is not symmetric")
    w, V = np.linalg.eigh(_symmetric_part(M))
    w = w[..., ::-1]
    V = V[..., ::-1]
    # eigenvectors are unit vectors, so each has an entry above _SIGN_TOL
    first = np.argmax(np.abs(V) > _SIGN_TOL, axis=-2)
    lead = np.take_along_axis(V, first[..., None, :], axis=-2)
    return w, np.where(lead < 0.0, -V, V)


def fractional_anisotropy(eigenvalues):
    """FA of a tensor with the given nonnegative eigenvalues (n in {2,3}).

    0 for full radial symmetry, 1 for alignment to a single direction;
    values are clamped to [0, 1] only against 1e-14 rounding excursions.
    An (m, n) array of eigenvalue rows gives an array of m FA values.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim not in (1, 2) or lam.shape[-1] not in (2, 3):
        raise UnsupportedError(
            "fractional anisotropy is defined for 2 or 3 eigenvalues"
        )
    if not np.all(np.isfinite(lam)):
        raise DomainError("eigenvalues must be finite")
    top = np.max(np.abs(lam), axis=-1)
    if np.any(top == 0.0):
        raise DegenerateTensorError("all eigenvalues are zero")
    if np.any(lam.min(axis=-1) < -1e-10 * top):
        raise DomainError("eigenvalues must be nonnegative")
    lam = _rescaled(np.clip(lam, 0.0, None), top[..., None])
    spread = np.sum((lam - lam.mean(axis=-1, keepdims=True)) ** 2, axis=-1)
    sumsq = np.sum(lam * lam, axis=-1)
    if lam.shape[-1] == 2:
        fa = np.sqrt(2.0 * spread / sumsq)
    else:
        fa = np.sqrt(3.0 * spread / (2.0 * sumsq))
    fa = np.where((fa > 1.0) & (fa <= 1.0 + 1e-14), 1.0, fa)
    return float(fa) if lam.ndim == 1 else fa


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
    # a batch report has one flag per row for every bound, FA-less rows too
    unbounded = np.ones(ratio.shape, dtype=bool) if isinstance(ratio, np.ndarray) else True
    flags = {}
    for name, limit in bounds.items():
        if name.startswith("fa"):
            flags[name] = unbounded if fa is None else fa <= limit + BOUND_SLACK
        else:
            flags[name] = (1.0 - BOUND_SLACK <= ratio) & (ratio <= limit + BOUND_SLACK)
    return flags


def _hypot(x, y):
    """math.hypot elementwise; np.hypot differs from it in the last bit."""
    pairs = zip(np.ravel(x).tolist(), np.ravel(y).tolist())
    return np.array([math.hypot(a, b) for a, b in pairs]).reshape(np.shape(x))


def _square(x):
    """x ** 2 as Python computes it for a float (C pow); np.square and
    ``** 2`` on arrays differ from it in the last bit."""
    return np.float_power(x, 2.0)


def peanut_closed_form_report(A, params):
    """Anisotropy report for the peanut, from the eigenvalues of A alone.

    Demands symmetric positive-definite A (symmetrize upstream if an
    asymmetric matrix is intended); the tensor eigenvalues are
    (s^2/(mu (n+2))) (1 + 2 lhat_i / tr A).  An (m, n, n) stack of
    matrices gives a batch report.  An eigenvalue of A above the largest
    double raises DomainError.
    """
    A = np.asarray(A, dtype=float)
    lam_hat, _ = symmetric_eigen(A)  # raises on asymmetric input
    top = lam_hat[..., :1]
    if not np.isfinite(top).all():
        raise DomainError("an eigenvalue of A overflows a double; divide A by a "
                          "power of two (the peanut does not depend on its scale)")
    if np.any(lam_hat[..., -1] <= 0.0):
        raise ValidationError("A not positive definite")
    n = A.shape[-1]
    # the report does not depend on the scale of A: scale its eigenvalues and
    # trace where their squares, or tr A + 2 lhat_i, would overflow or underflow
    lam_hat = _rescaled(lam_hat, top)
    trace = np.trace(_rescaled(A, top[..., None]), axis1=-2, axis2=-1)[..., None]
    eigenvalues = params.factor / (n + 2) * (1.0 + 2.0 * lam_hat / trace)
    lam = np.moveaxis(lam_hat, -1, 0)  # lam[i]: the i-th eigenvalue of each A
    shifted = np.moveaxis(trace + 2.0 * lam_hat, -1, 0)  # tr A + 2 lhat_i
    if n == 2:
        fa = 2.0 * np.abs(lam[0] - lam[1]) / _hypot(shifted[0], shifted[1])
    elif n == 3:
        num = 2.0 * (
            _square(2.0 * lam[0] - lam[1] - lam[2])
            + _square(2.0 * lam[1] - lam[0] - lam[2])
            + _square(2.0 * lam[2] - lam[0] - lam[1])
        )
        den = 3.0 * (_square(shifted[0]) + _square(shifted[1]) + _square(shifted[2]))
        fa = np.sqrt(num / den)
    else:
        fa = None
    ratio = shifted[0] / shifted[-1]
    if A.ndim == 2:
        fa = None if fa is None else float(fa)
        ratio = float(ratio)
    bounds = _peanut_bounds(n)
    return AnisotropyReport(eigenvalues, fa, ratio, bounds, _flags(fa, ratio, bounds))


def vmf_closed_form_report(k, u, params):
    """Anisotropy report for the bimodal vMF tensor alpha I + beta u u^T.

    alpha = (s^2/mu) I_{n/2}(k)/(k I_{n/2-1}(k)) with limit s^2/(mu n)
    at k = 0; beta = (s^2/mu) I_{n/2+1}(k)/I_{n/2-1}(k) with limit 0.
    The ratio is reported as +inf if alpha underflows to zero.  A 1-D
    array of concentrations gives a batch report.
    """
    u = _check_direction(u)
    n = u.size
    _, alpha, beta = _vmf_coefficients(n, _check_concentrations(k), params.factor)
    eigenvalues = np.repeat(np.asarray(alpha)[..., None], n, axis=-1)
    eigenvalues[..., 0] += beta
    a, b = (_rescaled(c, alpha + beta) for c in (alpha, beta))
    # alpha = beta = 0 only by underflow; FA is then 0 and the ratio +inf.
    # np.divide, since a number k gives Python floats, which raise on x/0
    with np.errstate(divide="ignore", invalid="ignore"):
        if n == 2:
            fa = np.where(b == 0.0, 0.0, b / _hypot(a + b, a))
        elif n == 3:
            fa = np.where(b == 0.0, 0.0, b / np.sqrt(_square(a + b) + 2.0 * a * a))
        else:
            fa = None
        ratio = np.where(alpha == 0.0, math.inf, 1.0 + np.divide(beta, alpha))
    if ratio.ndim == 0:
        fa = None if fa is None else float(fa)
        ratio = float(ratio)
    bounds = {"fa_max": 1.0}
    return AnisotropyReport(eigenvalues, fa, ratio, bounds, _flags(fa, ratio, bounds))


def anisotropy_report(dist, params):
    """Generic route: diffusion tensor -> eigensolve -> FA and ratio.

    FA is reported as None for n >= 4, where no definition is adopted.
    A vmf distribution whose k is a 1-D array gives a batch report.
    """
    tensor = diffusion_tensor(dist, params)
    w, _ = symmetric_eigen(tensor.D)
    fa = fractional_anisotropy(w) if dist.n in (2, 3) else None
    largest = w[..., 0]
    smallest = w[..., -1]
    if np.any(largest <= 0.0):
        raise DegenerateTensorError("diffusion tensor is zero")
    with np.errstate(divide="ignore"):
        ratio = np.where(smallest > 0.0, largest / smallest, math.inf)
    if w.ndim == 1:
        ratio = float(ratio)
    bounds = _peanut_bounds(dist.n) if dist.kind == "peanut" else {"fa_max": 1.0}
    return AnisotropyReport(w, fa, ratio, bounds, _flags(fa, ratio, bounds))
