"""Diffusion tensors and anisotropy indices (fractional anisotropy and
eigenvalue ratio) for distributions with closed-form covariance.

Two routes produce the same report: closed-form eigenvalue formulas for
the peanut (diffusion tensor (s^2/mu) [I/(n+2) + 2A/((n+2) tr A)], with
eigenvalues read off from those of A) and for the bimodal vMF (tensor
alpha(k) I + beta(k) u u^T), and a generic route that builds the tensor,
eigensolves it and applies the index definitions.  Agreement of the two
is part of the test suite.  The generic route reads the unimodal vMF's
report off closed formulas too: its tensor alpha I + (w - alpha) u u^T has
eigenvalues alpha = r/k and w = Var(u.x) = dr/dk.

The closed formulas also take a batch: a 1-D array of concentrations k, an
(m, n, n) stack of matrices A, or a vmf distribution whose k is such an
array.  The report then holds one row per entry (see ``AnisotropyReport``),
each equal to the report of that entry alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .distributions import _checked, _is_symmetric, _scale_exponent, _symmetric_part
from .errors import (
    DegenerateTensorError,
    DomainError,
    UnboundedRatioError,
    UnsupportedError,
    ValidationError,
)
from .moments import (
    SMALL_K,
    _check_concentrations,
    _check_direction,
    _vmf_coefficients,
    _vmf_variances,
    closed_form_moments,
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
# below this k the unimodal vMF's r/k - Var(u.x) cancels, and is taken as
# r (r - I_{n/2+1}/I_{n/2}), which does not
_GAP_SPLIT_K = 1.0


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
        object.__setattr__(self, "D", _freeze(self.D))


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


_UNIT_MOTILITY = MotilityParams(1.0, 1.0)  # s^2/mu = 1: D is the covariance


def diffusion_tensor(dist, params):
    """D = (s^2/mu) Var[q] from the closed-form covariance of `dist`."""
    report = closed_form_moments(dist)
    if report is None:
        raise UnsupportedError(
            f"no closed-form covariance for kind {dist.kind!r}; "
            "use the numerical oracle instead"
        )
    return DiffusionTensor(params.factor * report.covariance, params, dist.n)


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


def _moderate(top):
    """Whether every top = m 2^e has |e| <= 400, so that squares near it neither
    overflow nor underflow, and LAPACK's eigensolvers, which rescale a matrix
    below about 2^-405 by a factor that is not a power of two, take it as it is."""
    magnitudes = np.abs(top).ravel().tolist()  # Python's min and max are faster here
    return 2.0**-401 <= min(magnitudes, default=1.0) and max(magnitudes, default=1.0) < 2.0**400


def _rescaled(x, top):
    """x times 2^-e, exactly, where top = m 2^e is beyond 2^(+-400) and squares
    near it overflow or underflow; for quantities that do not depend on the scale."""
    return x if _moderate(top) else np.ldexp(x, -np.frexp(top)[1])


def fractional_anisotropy(eigenvalues):
    """FA of a tensor with the given nonnegative eigenvalues (n in {2,3}).

    0 for full radial symmetry, 1 for alignment to a single direction;
    values are clamped to [0, 1] only against 1e-14 rounding excursions.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.shape not in ((2,), (3,)):
        raise UnsupportedError(
            "fractional anisotropy is defined for 2 or 3 eigenvalues"
        )
    if not np.all(np.isfinite(lam)):
        raise DomainError("eigenvalues must be finite")
    top = np.max(np.abs(lam))
    if top == 0.0:
        raise DegenerateTensorError("all eigenvalues are zero")
    if lam.min() < -1e-10 * top:
        raise DomainError("eigenvalues must be nonnegative")
    lam = _rescaled(np.clip(lam, 0.0, None), top)
    spread = np.sum((lam - lam.mean()) ** 2)
    sumsq = np.sum(lam * lam)
    if lam.size == 2:
        fa = np.sqrt(2.0 * spread / sumsq)
    else:
        fa = np.sqrt(3.0 * spread / (2.0 * sumsq))
    return 1.0 if 1.0 < fa <= 1.0 + 1e-14 else float(fa)


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


def _report(eigenvalues, fa, ratio, bounds):
    """The AnisotropyReport with a flag for each bound.  One tensor's 0-d fa
    and ratio become floats; a batch report has one flag per row for every
    bound, FA-less rows too."""
    if np.ndim(ratio):
        unbounded = np.ones(ratio.shape, dtype=bool)
    else:
        fa = None if fa is None else float(fa)
        ratio = float(ratio)
        unbounded = True
    flags = {}
    for name, limit in bounds.items():
        if name.startswith("fa"):
            flags[name] = unbounded if fa is None else fa <= limit + BOUND_SLACK
        else:
            flags[name] = (1.0 - BOUND_SLACK <= ratio) & (ratio <= limit + BOUND_SLACK)
    return AnisotropyReport(eigenvalues, fa, ratio, bounds, flags)


def _hypot(*coordinates):
    """math.hypot elementwise over numbers or arrays of one shape; np.hypot
    differs from it in the last bit, and has no three-coordinate form."""
    if not isinstance(coordinates[0], np.ndarray):
        return math.hypot(*coordinates)
    rows = zip(*(np.ravel(c).tolist() for c in coordinates))
    return np.array([math.hypot(*row) for row in rows]).reshape(np.shape(coordinates[0]))


def _square(x):
    """x ** 2 as Python computes it for a float (C pow), elementwise over an
    array too; np.square and ``** 2`` on arrays differ from it in the last bit."""
    return np.float_power(x, 2.0) if isinstance(x, np.ndarray) else x**2.0


def _sqrt(x):
    """math.sqrt of a number, np.sqrt elementwise over an array."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def peanut_closed_form_report(A, params, *, validated=False):
    """Anisotropy report for the peanut, from the eigenvalues of A alone.

    Demands symmetric positive-definite A (symmetrize upstream if an
    asymmetric matrix is intended); the tensor eigenvalues are
    (s^2/(mu (n+2))) (1 + 2 lhat_i / tr A).  An (m, n, n) stack of
    matrices gives a batch report.  The report does not depend on the scale
    of A, so a matrix whose largest entry lies beyond 2^(+-400) is scaled by
    a power of two before the eigensolve: any finite valid A gives a report.
    The power comes from :func:`_scale_exponent`, as validate's does, so the
    copy keeps every entry that validate's keeps.  ``validated=True`` vouches
    that A is finite, square and symmetric, as a validated peanut's is: the
    eigenvalues then come from eigh alone, without symmetric_eigen's checks
    and the eigenvectors it orders.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim in (2, 3):  # else symmetric_eigen raises
        top = np.abs(A).max(axis=(-2, -1))
        if not _moderate(top):
            beyond = np.abs(np.frexp(top)[1]) > 400
            A = np.ldexp(A, np.where(beyond, -_scale_exponent(A), 0)[..., None, None])
    if validated:
        lam_hat = np.linalg.eigh(_symmetric_part(A))[0][..., ::-1]
    else:
        lam_hat, _ = symmetric_eigen(A)  # raises on asymmetric input
    if np.any(lam_hat[..., -1] <= 0.0):
        raise ValidationError("A not positive definite")
    n = A.shape[-1]
    trace = np.trace(A, axis1=-2, axis2=-1)[..., None]
    eigenvalues = params.factor / (n + 2) * (1.0 + 2.0 * lam_hat / trace)
    shifted = trace + 2.0 * lam_hat  # tr A + 2 lhat_i
    if lam_hat.ndim == 1:  # Python floats: a tenth of the time of 0-d NumPy
        lam, shifted = lam_hat.tolist(), shifted.tolist()
    else:  # lam[i]: the i-th eigenvalue of each A
        lam, shifted = np.moveaxis(lam_hat, -1, 0), np.moveaxis(shifted, -1, 0)
    if n == 2:
        fa = 2.0 * abs(lam[0] - lam[1]) / _hypot(shifted[0], shifted[1])
    elif n == 3:
        num = 2.0 * (
            _square(2.0 * lam[0] - lam[1] - lam[2])
            + _square(2.0 * lam[1] - lam[0] - lam[2])
            + _square(2.0 * lam[2] - lam[0] - lam[1])
        )
        den = 3.0 * (_square(shifted[0]) + _square(shifted[1]) + _square(shifted[2]))
        fa = _sqrt(num / den)
    else:
        fa = None
    return _report(eigenvalues, fa, shifted[0] / shifted[-1], _peanut_bounds(n))


def vmf_closed_form_report(k, u, params):
    """Anisotropy report for the bimodal vMF tensor alpha I + beta u u^T.

    alpha = (s^2/mu) I_{n/2}(k)/(k I_{n/2-1}(k)) with limit s^2/(mu n)
    at k = 0; beta = (s^2/mu) I_{n/2+1}(k)/I_{n/2-1}(k) with limit 0.
    The ratio is reported as +inf if alpha underflows to zero.  A 1-D
    array of concentrations gives a batch report.
    """
    u = _check_direction(u)
    n = u.size
    k = _check_concentrations(k)
    _, alpha, beta = _vmf_coefficients(n, k, params.factor)
    eigenvalues = np.repeat(np.asarray(alpha)[..., None], n, axis=-1)
    eigenvalues[..., 0] += beta
    a, b = alpha, beta
    if not _moderate(params.factor):
        # FA and the ratio do not depend on s^2/mu, and scaled coefficients
        # that are subnormal or huge lose bits: take them from unscaled ones
        _, a, b = _vmf_coefficients(n, k)
    if n == 2:
        fa = b / _hypot(a + b, a)
    elif n == 3:
        fa = b / np.sqrt(_square(a + b) + 2.0 * a * a)
    else:
        fa = None
    # +inf where alpha underflows to zero; np.divide, since a number k gives
    # Python floats, which raise on x/0
    with np.errstate(divide="ignore"):
        ratio = np.where(alpha == 0.0, math.inf, 1.0 + np.divide(b, a))
    return _report(eigenvalues, fa, ratio, {"fa_max": 1.0})


def _vmf_gap(n, k, r, alpha, w):
    """alpha - w = r/k - Var(u.x) of the unimodal vMF, FA's numerator.

    Where k < _GAP_SPLIT_K the two agree to many digits, and the gap is
    taken as r^2 - r2 = r (r - I_{n/2+1}/I_{n/2}), whose terms differ by a
    factor of about n/2 + 1 there; below SMALL_K both limits are 1/n.
    """
    gap = alpha - w
    if not isinstance(k, np.ndarray):
        if SMALL_K <= k < _GAP_SPLIT_K:
            gap = r * (r - specfun.bessel_ratio(0.5 * n + 1.0, k))
        return gap
    near = (SMALL_K <= k) & (k < _GAP_SPLIT_K)
    if near.any():
        rn = r[near]
        gap[near] = rn * (rn - specfun.bessel_ratio(0.5 * n + 1.0, k[near]))
    return gap


def _vmf_report(dist, params):
    """The unimodal vMF's report from closed formulas, with no eigensolve.

    The tensor is (s^2/mu)[alpha I + (w - alpha) u u^T], alpha = r/k and
    w = Var(u.x) = dr/dk, so its eigenvalues are (s^2/mu) alpha, n - 1
    times, then (s^2/mu) w, the smallest: w < alpha as I_{n/2}/I_{n/2-1}
    exceeds I_{n/2+1}/I_{n/2}.  FA and the ratio alpha/w do not depend on
    s^2/mu and come from the unscaled coefficients, so the ratio is +inf
    only where w underflows (k above about 1e161), not where the scaled
    eigenvalue does.
    """
    if isinstance(dist.k, np.ndarray):  # a batch point, which validate refuses
        n, k = _check_direction(dist.u).size, _check_concentrations(dist.k)
    else:
        _checked(dist)
        n, k = dist.n, dist.k
    r, alpha, w = _vmf_variances(n, k)
    eigenvalues = np.repeat(np.asarray(params.factor * alpha)[..., None], n, axis=-1)
    eigenvalues[..., -1] = params.factor * w
    fa = None
    if n in (2, 3):
        # hypot: 2 alpha^2 underflows where k passes about 1e154
        norm = _hypot(alpha, w) if n == 2 else _hypot(alpha, alpha, w)
        fa = _vmf_gap(n, k, r, alpha, w) / norm
    # w underflows to 0 past k of about 1e161
    if isinstance(k, np.ndarray):
        with np.errstate(divide="ignore"):
            ratio = alpha / w
    else:
        ratio = alpha / w if w else math.inf
    return _report(eigenvalues, fa, ratio, {"fa_max": 1.0})


def anisotropy_report(dist, params):
    """Generic route: diffusion tensor -> eigensolve -> FA and ratio.

    The unimodal vMF's tensor has closed-form eigenvalues, which it reads
    off instead (see ``_vmf_report``); a vmf distribution whose k is a 1-D
    array gives a batch report.  FA is reported as None for n >= 4, where
    no definition is adopted.
    """
    if dist.kind == "vmf":
        return _vmf_report(dist, params)
    tensor = diffusion_tensor(dist, params)
    w, _ = symmetric_eigen(tensor.D)
    shape = w
    if not _moderate(params.factor):
        # FA and the ratio do not depend on s^2/mu, and a subnormal or huge
        # tensor loses bits: take them from the unscaled covariance
        shape, _ = symmetric_eigen(diffusion_tensor(dist, _UNIT_MOTILITY).D)
    fa = fractional_anisotropy(shape) if dist.n in (2, 3) else None
    if w[0] <= 0.0:
        raise DegenerateTensorError("diffusion tensor is zero")
    # +inf where the smallest eigenvalue of D is zero, by underflow too
    with np.errstate(divide="ignore"):
        ratio = np.where(w[-1] > 0.0, shape[0] / shape[-1], math.inf)
    bounds = _peanut_bounds(dist.n) if dist.kind == "peanut" else {"fa_max": 1.0}
    return _report(w, fa, ratio, bounds)
