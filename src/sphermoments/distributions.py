"""Parameter containers, validation and density evaluation for the five
spherical distribution families (vMF, bimodal vMF, peanut, ODF, Bingham).

Densities of the exponential families are evaluated in log space so that
concentrations k and inverse time scales 1/(4*delta) up to 1e4 do not
overflow.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from ._linalg import jacobi_eigh
from .errors import DomainError, ValidationError
from .reports import _freeze

__all__ = [
    "FAMILIES",
    "KINDS",
    "SphericalDistribution",
    "vmf",
    "bimodal_vmf",
    "peanut",
    "odf",
    "bingham",
    "validate",
    "density",
    "density_many",
    "log_density",
    "log_density_many",
    "sphere_surface_area",
    "density_is_normalized",
    "distribution_from_json",
    "distribution_to_json",
]

# the parameters each family takes besides n
FAMILIES = {
    "vmf": ("u", "k"),
    "bimodal_vmf": ("u", "k"),
    "peanut": ("A",),
    "odf": ("A",),
    "bingham": ("A", "delta"),
}
KINDS = tuple(FAMILIES)
_PARAMETERS = ("u", "k", "A", "delta")

UNIT_NORM_TOL = 1e-12


def sphere_surface_area(n):
    """Surface area of the unit sphere in R^n, i.e. 2 pi^(n/2) / Gamma(n/2)."""
    if int(n) != n or n < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {n}")
    n = int(n)
    return 2.0 * math.pi ** (0.5 * n) / specfun.gamma(0.5 * n)


@dataclass(frozen=True, eq=False)
class SphericalDistribution:
    """Tagged spherical-distribution family.

    ``FAMILIES`` lists the fields each kind takes: ``u`` (unit mean
    direction), ``k`` (concentration >= 0), ``A`` (anisotropy matrix with
    positive-definite symmetric part), ``delta`` (diffusion time > 0).
    Instances are immutable, so :func:`validate` runs once, when one is
    built, and its violations are kept: building never raises, but every
    consumer of an object that has any raises ValidationError.

    A 1-D array ``k`` (kept as a read-only copy) makes a batch point: one
    vmf or bimodal vMF distribution per entry, which the closed-form
    moment and anisotropy routes evaluate together.  Densities, the
    factories and JSON take a single number; :func:`validate` reports a
    batch point as a violation.
    """

    kind: str
    n: int
    u: np.ndarray | None = None
    k: float | None = None
    A: np.ndarray | None = None
    delta: float | None = None
    _violations: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.u is not None:
            object.__setattr__(self, "u", _freeze(self.u))
        if self.A is not None:
            object.__setattr__(self, "A", _freeze(self.A))
        if isinstance(self.k, np.ndarray) and self.k.ndim:
            object.__setattr__(self, "k", _freeze(self.k))
        elif self.k is not None:
            object.__setattr__(self, "k", float(self.k))
        if self.delta is not None:
            object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "_violations", tuple(validate(self)))

    @functools.cached_property
    def _scaled(self):
        """(A, delta) for every check, density and closed form: the given pair, or
        (2^-e A, 2^e delta) with e from :func:`_scale_exponent` where max|A| = m 2^e0
        has n|e0| > 600.  That bounds the log det A which the odf and Bingham log
        densities cancel, keeping them to 1e-13; the peanut and odf do not depend on
        the scale of A, nor the Bingham on that of A delta."""
        e = int(np.frexp(np.abs(self.A).max())[1])
        if self.n * abs(e) <= 600:
            return self.A, self.delta
        e = int(_scale_exponent(self.A))
        with np.errstate(over="ignore"):  # validate reports an A delta beyond doubles
            delta = None if self.delta is None else float(np.ldexp(self.delta, e))
        return np.ldexp(self.A, -e), delta

    @functools.cached_property
    def _density_terms(self):
        """(constant, matrix) of the density, from the scaled pair: the peanut's c
        and A in c theta^T A theta, or the log of the constant factor (None for
        Bingham outside n = 3) with A^-1 for odf and bingham.  Computed on the first
        density call, not when built, and kept, so chunked Monte Carlo computes it once."""
        if self.kind in ("vmf", "bimodal_vmf"):
            lc = _vmf_log_const(self.n, self.k)
            return (lc if self.kind == "vmf" else lc - math.log(2.0)), None
        A, delta = self._scaled
        if self.kind == "peanut":
            return self.n / (sphere_surface_area(self.n) * np.trace(A)), A
        if self.kind == "odf":
            lc = -math.log(4.0 * math.pi) - 0.5 * np.linalg.slogdet(A)[1]
        elif self.n == 3:
            lc = -0.5 * (np.linalg.slogdet(A)[1] + 3.0 * math.log(4.0 * math.pi * delta))
        else:
            lc = None
        return lc, np.linalg.inv(A)


def _length(x, name):
    if np.ndim(x) == 0:
        raise ValidationError(f"{name} must be an array, got a number")
    return len(x)


def vmf(u, k):
    """Von Mises-Fisher distribution with mean direction u, concentration k."""
    return _checked(SphericalDistribution("vmf", _length(u, "u"), u=u, k=k))


def bimodal_vmf(u, k):
    """Antipodally symmetric two-mode von Mises-Fisher mixture."""
    return _checked(SphericalDistribution("bimodal_vmf", _length(u, "u"), u=u, k=k))


def peanut(A):
    """Quadratic-form density proportional to theta^T A theta."""
    return _checked(SphericalDistribution("peanut", _length(A, "A"), A=A))


def odf(A):
    """Orientation distribution function for a 3x3 anisotropy matrix."""
    return _checked(SphericalDistribution("odf", _length(A, "A"), A=A))


def bingham(A, delta):
    """Bingham (anisotropic Gaussian) density with diffusion time delta."""
    return _checked(SphericalDistribution("bingham", _length(A, "A"), A=A, delta=delta))


def _checked(dist):
    if dist._violations:
        raise ValidationError(dist._violations)
    return dist


def _is_symmetric(A):
    """Whether A (or each matrix of a stack) is symmetric to 1e-10 max|A|, at any scale."""
    half = 0.5 * A  # halves first: A - A^T overflows for entries near the largest double
    gap = np.max(np.abs(half - np.swapaxes(half, -1, -2)), axis=(-2, -1))
    return gap <= 0.5e-10 * np.max(np.abs(A), axis=(-2, -1))


def _scale_exponent(A):
    """The e by which a copy 2^-e A of A (or of each matrix of a stack) is scaled:
    that of max|A| = m 2^e, or, where 2^-e would take the smallest nonzero
    |A| = m' 2^f below the normal doubles, f + 1021, which keeps it normal, if the
    largest entry then stays below 2^484.  LAPACK's eigensolvers rescale a matrix
    above about 2^484 by a factor that is not a power of two, so the positive
    definiteness of such a copy is decided on an exact multiple of A."""
    magnitudes = np.abs(A)
    e = np.frexp(magnitudes.max(axis=(-2, -1)))[1]
    f = np.frexp(np.where(magnitudes > 0.0, magnitudes, np.inf).min(axis=(-2, -1)))[1]
    return np.where((e - f > 1021) & (e - f <= 1505), f + 1021, e)


def _symmetric_part(A):
    """(A + A^T)/2 of a matrix or a stack of them, rounded once, so that
    subnormal entries survive; halves first where the sum may overflow."""
    At = np.swapaxes(A, -1, -2)
    if np.abs(A).max() < 2.0**1022:
        return 0.5 * (A + At)
    return 0.5 * A + 0.5 * At


def validate(dist):
    """Total invariant check; returns a list of violation messages.  Each
    SphericalDistribution runs it once, when it is built, and keeps them."""
    out = []
    if dist.kind not in KINDS:
        out.append(f"unknown kind {dist.kind!r}")
        return out
    if not isinstance(dist.n, (int, np.integer)) or dist.n < 2:
        out.append("n must be an integer >= 2")
        return out
    fields = FAMILIES[dist.kind]
    others = [name for name in _PARAMETERS if name not in fields]
    if any(getattr(dist, name) is not None for name in others):
        out.append(f"{dist.kind} takes {' and '.join(fields)} only, not {'/'.join(others)}")
    if any(getattr(dist, name) is None for name in fields):
        out.append(f"{dist.kind} requires {' and '.join(fields)}")
        return out

    if "u" in fields:
        if dist.u.shape != (dist.n,):
            out.append(f"u must have shape ({dist.n},)")
        elif not np.all(np.isfinite(dist.u)):
            out.append("u must be finite")
        elif abs(np.linalg.norm(dist.u) - 1.0) > UNIT_NORM_TOL:
            out.append("u must be a unit vector")
        if isinstance(dist.k, np.ndarray):
            out.append("k must be a single number, not an array")
        elif not math.isfinite(dist.k):
            out.append("k must be finite")
        elif dist.k < 0.0:
            out.append("k must be >= 0")
        return out

    if dist.delta is not None and not (math.isfinite(dist.delta) and dist.delta > 0.0):
        out.append("delta must be finite and > 0")
    if dist.A.shape != (dist.n, dist.n):
        out.append(f"A must have shape ({dist.n}, {dist.n})")
        return out
    if not np.all(np.isfinite(dist.A)):
        out.append("A must be finite")
        return out
    A, delta = dist._scaled
    sym = _symmetric_part(A)
    if jacobi_eigh(sym)[0] <= 0.0:
        out.append("A not positive definite")
    if np.trace(sym) <= 0.0:
        out.append("A must have positive trace")
    if delta in (0.0, math.inf) and 0.0 < dist.delta < math.inf:
        out.append("A delta must be a positive finite double; choose units that make it one")
    if dist.kind == "odf" and dist.n != 3:
        out.append("odf densities are defined for n = 3 only")
    if dist.kind in ("odf", "bingham"):
        # these normalization constants assume a symmetric tensor
        if not _is_symmetric(dist.A):
            out.append(f"A must be symmetric for {dist.kind}")
        if np.linalg.slogdet(A)[0] <= 0.0:  # det A may underflow; its sign does not
            out.append("A not invertible")
    return out


def density_is_normalized(dist):
    """False only for Bingham outside n = 3, where no constant is known."""
    return not (dist.kind == "bingham" and dist.n != 3)


def _vmf_log_const(n, k):
    """log of k^(n/2-1) / ((2 pi)^(n/2) I_{n/2-1}(k)); uniform limit at k=0."""
    p = 0.5 * n - 1.0
    # below 1e-300 (or where (k/2)^p underflows) the density is uniform
    # to within one part in 1e300
    if k < 1e-300 or (k < 1.0 and p * (math.log(k) - math.log(2.0)) < -690.0):
        return -math.log(sphere_surface_area(n))
    log_bessel = math.log(specfun.bessel_i(p, k).scaled_value) + k
    return p * math.log(k) - 0.5 * n * math.log(2.0 * math.pi) - log_bessel


def _as_points(dist, theta):
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 1:
        theta = theta[None, :]
    if theta.ndim != 2 or theta.shape[1] != dist.n:
        raise ValidationError(
            f"direction has shape {theta.shape}, expected (m, {dist.n})"
        )
    return theta


def _quadratic_form(M, points):
    return np.einsum("mi,mi->m", points @ M, points)


def log_density_many(dist, thetas):
    """Log densities at an (m, n) array of unit vectors."""
    _checked(dist)
    points = _as_points(dist, thetas)
    if dist.kind == "peanut":
        return np.log(density_many(dist, points))
    lc, inverse = dist._density_terms
    if dist.kind == "vmf":
        return lc + dist.k * (points @ dist.u)
    if dist.kind == "bimodal_vmf":
        a = np.abs(dist.k * (points @ dist.u))
        return lc + a + np.log1p(np.exp(-2.0 * a))
    qf = _quadratic_form(inverse, points)
    if dist.kind == "odf":
        return lc - 1.5 * np.log(qf)
    # bingham; normalization constant only known for n = 3.  A concentrated
    # one overflows here, quietly, to a density of 0
    with np.errstate(over="ignore"):
        arg = -qf / (4.0 * dist._scaled[1])
    return arg if lc is None else lc + arg


def density_many(dist, thetas):
    """Densities at an (m, n) array of unit vectors."""
    if dist.kind == "peanut":
        _checked(dist)
        points = _as_points(dist, thetas)
        c, A = dist._density_terms
        return c * _quadratic_form(A, points)
    return np.exp(log_density_many(dist, thetas))


def density(dist, theta):
    """Density q(theta) at a single unit vector."""
    return float(density_many(dist, theta)[0])


def log_density(dist, theta):
    """Log density at a single unit vector."""
    return float(log_density_many(dist, theta)[0])


def distribution_from_json(data):
    """Build a distribution from its JSON dict; unknown fields rejected."""
    if not isinstance(data, dict):
        raise ValidationError("distribution JSON must be an object")
    unknown = sorted(set(data) - {"kind", "n", *_PARAMETERS})
    if unknown:
        raise ValidationError(f"unknown fields in distribution JSON: {unknown}")
    if "kind" not in data or "n" not in data:
        raise ValidationError("distribution JSON requires 'kind' and 'n'")
    kind = data["kind"]
    if kind not in KINDS:
        raise ValidationError(f"unknown kind {kind!r}; expected one of {KINDS}")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValidationError("'n' must be an integer")
    params = {name: data.get(name) for name in _PARAMETERS}
    for name, value in params.items():
        # float() and np.array(..., dtype=float) read "2" and true as numbers.  A
        # list leaf is nested too deep for u or A: a shape error, reported when built
        leaves = set()
        for row in value if type(value) is list else (value,):
            leaves.update(map(type, row) if type(row) is list else (type(row),))
        odd = leaves - {int, float, list}
        if value is not None and odd:
            got = ", ".join(sorted(t.__name__ for t in odd))
            raise ValidationError(f"{name} must hold numbers only, got {got}")
    try:
        dist = SphericalDistribution(kind, n, **params)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed distribution parameters: {exc}") from exc
    return _checked(dist)


def distribution_to_json(dist):
    """JSON dict for a distribution (inverse of distribution_from_json)."""
    out = {"kind": dist.kind, "n": int(dist.n)}
    for name in FAMILIES[dist.kind]:
        out[name] = np.asarray(getattr(dist, name)).tolist()
    return out
