"""Numerical ground truth for moment formulas.

Deterministic sphere quadrature for n in {2, 3} (periodic trapezoid on
the circle; Gauss-Legendre in the polar cosine times trapezoid in
azimuth on the 2-sphere) and seeded Monte Carlo for any n, plus exact
rejection samplers for the vMF and peanut distributions.

Monte Carlo uses the counter-based Philox generator, with the sample
index space split into fixed blocks whose seeds are spawned from a
single ``numpy.random.SeedSequence``; results therefore depend only on
(generator, seed), never on how work would be partitioned.  Each block
is drawn and reduced in chunks of ``_CHUNK_ROWS`` points, in order from
its own stream, so a pass over a chunk stays in cache; the points are
those of one draw per block.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import _quadratic_form, _symmetric_part, density_many
from .distributions import peanut as _peanut, sphere_surface_area
from .errors import DomainError, UnsupportedError, ValidationError
from .moments import _check_concentration, _check_direction
from .reports import MomentReport

__all__ = [
    "GENERATOR",
    "BLOCK_SIZE",
    "McSpec",
    "SampleBatch",
    "quad_moments",
    "mc_moments",
    "quad_raw_moment",
    "mc_raw_moment",
    "quad_normalization",
    "mc_normalization",
    "sample_vmf",
    "sample_peanut",
    "uniform_sphere",
]

GENERATOR = "philox4x64(seedsequence-spawned blocks)"
BLOCK_SIZE = 1 << 16
_CHUNK_ROWS = 1 << 12

DOUBLING_TOL = 1e-10


def _check_count(count, name="count", least=1):
    """A count, seed or dimension: an integer >= ``least`` (bools rejected)."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {count!r}")
    return int(count)


def _check_seed(seed):
    return _check_count(seed, "seed", 0)


@dataclass(frozen=True)
class McSpec:
    """Monte-Carlo estimator settings; the seed is mandatory."""

    n: int
    samples: int
    seed: int

    def __post_init__(self):
        _check_count(self.n, "n", 2)
        _check_count(self.samples, "samples")
        if self.samples < 10_000:
            raise ValidationError("Monte Carlo needs at least 10^4 samples")
        _check_seed(self.seed)


# the rule for each dimension the quadrature supports
_RULES = {2: "circle_trapezoid", 3: "sphere_product"}


@lru_cache(maxsize=8, typed=True)  # typed: 16.0 must not hit the entry for 16
def _nodes(n, resolution):
    """Points and weights of the rule for S^{n-1} at ``resolution`` points
    per dimension, a power of two >= 16 (the periodic trapezoid rule
    doubles cleanly and converges spectrally on those grids)."""
    if n not in _RULES:
        raise UnsupportedError(f"quadrature supports n in {{2, 3}}, got n={n}")
    if (isinstance(resolution, bool) or not isinstance(resolution, (int, np.integer))
            or resolution < 16 or resolution & (resolution - 1)):
        raise ValidationError("resolution must be a power of two >= 16")
    phi = np.arange(resolution) * (2.0 * math.pi / resolution)
    if n == 2:
        points = np.column_stack([np.cos(phi), np.sin(phi)])
        return points, np.full(resolution, 2.0 * math.pi / resolution)
    # cos(polar) at Gauss-Legendre nodes makes degree<2*resolution
    # polynomial integrands (e.g. the peanut moments) exact
    t, wt = np.polynomial.legendre.leggauss(resolution)
    s = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    x = np.outer(s, np.cos(phi)).ravel()
    y = np.outer(s, np.sin(phi)).ravel()
    z = np.repeat(t, resolution)
    points = np.column_stack([x, y, z])
    weights = np.repeat(wt, resolution) * (2.0 * math.pi / resolution)
    return points, weights


def _power_sum(w, x, order):
    """sum_m w[m] x[m]^(x)order for order 0..3, over the rows of x."""
    if order == 0:
        return w.sum()
    if order == 1:
        return w @ x
    if order == 2:
        return (x.T * w) @ x
    if order == 3:
        return np.einsum("m,mi,mj,mk->ijk", w, x, x, x)
    raise DomainError(f"unsupported moment order {order}")


def _raw_from_nodes(dist, points, weights, orders):
    wq = weights * density_many(dist, points)
    out = {}
    for order in orders:
        if order == 2:
            # not _power_sum, which sums in another order: the golden tests pin
            # these bits, and criterion 10 times closed forms against this cost
            out[2] = np.einsum("m,mi,mj->ij", wq, points, points)
        else:
            out[order] = _power_sum(wq, points, order)
    if 0 in out:
        out[0] = float(out[0])
    return out


def _doubling_deviation(dist, raw, resolution):
    """The largest change of the mean and second moment in ``raw`` on the rule of
    twice the resolution.  That grid only checks them, never supplies them, so
    its sums are matrix products, not the pinned ``einsum``."""
    points, weights = _nodes(dist.n, 2 * resolution)
    wq = weights * density_many(dist, points)
    return max(
        np.max(np.abs(raw[1] - _power_sum(wq, points, 1))),
        np.max(np.abs(raw[2] - _power_sum(wq, points, 2))),
    )


def _check_mass(dist, mass, method):
    """DomainError unless the mass that quadrature or Monte Carlo computed is
    positive and finite."""
    if 0.0 < mass < math.inf:
        return
    why = ""
    if dist.kind == "bingham":
        why = "; exp(-theta^T A^-1 theta / (4 delta)) underflows where A delta is small"
        if dist.n == 3:
            why += (", and the n = 3 constant is the Gaussian one on R^3, "
                    "not the Bingham normaliser")
    raise DomainError(f"the {method} mass of the {dist.kind} density is {mass}{why}")


def _check_spec_matches(dist, spec):
    if spec.n != dist.n:
        raise ValidationError(
            f"spec dimension {spec.n} does not match distribution dimension {dist.n}"
        )


def quad_moments(dist, *, resolution=256, check=True):
    """Mean, raw second moment and covariance by deterministic quadrature.

    The rule follows from ``dist.n``.  With ``check=True`` it is re-evaluated
    at double resolution and a warning is attached to the report when the two
    disagree by more than ``DOUBLING_TOL``.
    """
    points, weights = _nodes(dist.n, resolution)
    raw = _raw_from_nodes(dist, points, weights, (0, 1, 2))
    _check_mass(dist, raw[0], "quadrature")
    warnings = []
    if check:
        dev = _doubling_deviation(dist, raw, resolution)
        if dev >= DOUBLING_TOL:
            warnings.append(
                f"doubling resolution {resolution}->{2 * resolution} "
                f"changed results by {dev:.3e}"
            )
    mean = raw[1]
    second = raw[2]
    return MomentReport(
        mean,
        second,
        second - np.outer(mean, mean),
        "oracle",
        provenance={
            "method": _RULES[dist.n],
            "resolution": int(resolution),
            "mass": raw[0],
        },
        warnings=warnings,
    )


def quad_raw_moment(dist, order, *, resolution=256):
    """Raw moment tensor of the given order by deterministic quadrature."""
    points, weights = _nodes(dist.n, resolution)
    return _raw_from_nodes(dist, points, weights, (order,))[order]


def quad_normalization(dist, *, resolution=256):
    """Integral of the density over the sphere (should be 1)."""
    return quad_raw_moment(dist, 0, resolution=resolution)


def _block_counts(samples):
    full, rest = divmod(samples, BLOCK_SIZE)
    return [BLOCK_SIZE] * full + ([rest] if rest else [])


def _row_norms(z):
    """``np.linalg.norm(z, axis=1)`` of a C-ordered (m, n) array, bit for bit.
    NumPy sums a row of fewer than 8 entries in column order, which column-wise
    adds repeat several times faster; from 8 on it sums pairwise, so those
    rows go to ``np.linalg.norm``."""
    if z.shape[1] >= 8:
        return np.linalg.norm(z, axis=1)
    s = z * z
    total = s[:, 0] + s[:, 1]
    for j in range(2, z.shape[1]):
        total += s[:, j]
    return np.sqrt(total, out=total)


def _uniform_chunks(n, samples, seed):
    """The points of every block, in chunks of at most _CHUNK_ROWS rows drawn
    in order from the block's stream: the same numbers as one draw per block."""
    counts = _block_counts(samples)
    for child, count in zip(np.random.SeedSequence(seed).spawn(len(counts)), counts):
        rng = np.random.Generator(np.random.Philox(child))
        for start in range(0, count, _CHUNK_ROWS):
            z = rng.standard_normal((min(_CHUNK_ROWS, count - start), n))
            z /= _row_norms(z)[:, None]
            yield z


def uniform_sphere(n, count, seed):
    """Uniform points on the unit sphere (normalized standard normals)."""
    n = _check_count(n, "n", 2)
    count = _check_count(count)
    return np.concatenate(list(_uniform_chunks(n, count, _check_seed(seed))), axis=0)


def _mc_accumulate(dist, spec, orders):
    """Sums and sums of squares of |S^{n-1}| q(theta) theta^(x)order."""
    area = sphere_surface_area(dist.n)
    sums = {order: np.zeros((dist.n,) * order) for order in orders}
    sqsums = {order: np.zeros((dist.n,) * order) for order in orders}
    for block in _uniform_chunks(dist.n, spec.samples, spec.seed):
        f = area * density_many(dist, block)
        f2 = f * f
        b2 = block * block
        for order in orders:
            sums[order] += _power_sum(f, block, order)
            sqsums[order] += _power_sum(f2, b2, order)
    result = {}
    m = spec.samples
    for order in orders:
        est = sums[order] / m
        sample_var = np.clip(sqsums[order] - sums[order] ** 2 / m, 0.0, None) / (m - 1)
        result[order] = (est, np.sqrt(sample_var / m))
    return result


def mc_moments(dist, spec):
    """Moment report with per-entry standard errors, by seeded Monte Carlo.

    Uniform-sphere importance-free estimator: averages of
    |S^{n-1}| q(theta), |S^{n-1}| q(theta) theta and
    |S^{n-1}| q(theta) theta theta^T.  Deterministic given the seed.
    """
    _check_spec_matches(dist, spec)
    acc = _mc_accumulate(dist, spec, (0, 1, 2))
    mass, mass_se = acc[0]
    _check_mass(dist, mass, "Monte Carlo")
    mean, mean_se = acc[1]
    second, second_se = acc[2]
    cov = second - np.outer(mean, mean)
    cov_se = np.sqrt(
        second_se**2
        + np.outer(mean, mean_se) ** 2
        + np.outer(mean_se, mean) ** 2
    )
    return MomentReport(
        mean,
        second,
        cov,
        "oracle",
        provenance={
            "method": "mc",
            "samples": spec.samples,
            "seed": spec.seed,
            "generator": GENERATOR,
            "mass": float(mass),
            "mass_se": float(mass_se),
        },
        mean_se=mean_se,
        second_moment_se=second_se,
        covariance_se=cov_se,
    )


def mc_raw_moment(dist, spec, order):
    """(estimate, standard_error) for a raw moment tensor via Monte Carlo."""
    _check_spec_matches(dist, spec)
    return _mc_accumulate(dist, spec, (order,))[order]


def mc_normalization(dist, spec):
    """(integral estimate, standard error) of the density over the sphere."""
    est, se = mc_raw_moment(dist, spec, 0)
    return float(est), float(se)


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Sampler output: unit vectors plus acceptance-rate bookkeeping."""

    points: np.ndarray
    acceptance_rate: float
    seed: int
    generator: str = "philox4x64"


def _tangent_directions(rng, u, count):
    """Uniform unit vectors orthogonal to u; a draw (almost) along u is redrawn.

    One projection leaves a part along u of a few ulps of the draw, which is
    large beside what is left of a draw that lies mostly along u: such a
    row, its part along u above 16 times the remainder, is projected again.
    """
    n = u.size
    v = None
    need = np.arange(count)
    while need.size:
        z = rng.standard_normal((need.size, n))
        along = z @ u
        for j in range(n):  # np.outer's products, a column at a time: 2-4x faster
            z[:, j] -= along * u[j]
        norms = _row_norms(z)
        again = np.flatnonzero(np.abs(along) > 16.0 * norms)
        if again.size:
            z[again] -= np.outer(z[again] @ u, u)
            norms[again] = _row_norms(z[again])
        ok = norms > 1e-12
        if v is None:
            if ok.all():  # almost always: the first draw is the answer
                z /= norms[:, None]
                return z
            v = np.empty((count, n))
        v[need[ok]] = z[ok] / norms[ok, None]
        need = need[~ok]
    return v


def sample_vmf(k, u, count, seed):
    """Exact vMF sampler (Ulrich/Wood rejection scheme for the cosine).

    The empirical mean converges to the closed-form expectation at the
    Monte-Carlo rate; deterministic for a given seed.
    """
    u = _check_direction(u)
    k = _check_concentration(k)
    count = _check_count(count)
    seed = _check_seed(seed)
    n = u.size
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    if k == 0.0:
        points = rng.standard_normal((count, n))
        points /= _row_norms(points)[:, None]
        return SampleBatch(points, 1.0, seed)

    d = n - 1
    b = d / (math.sqrt(4.0 * k * k + d * d) + 2.0 * k)
    x0 = (1.0 - b) / (1.0 + b)
    c = k * x0 + d * math.log(1.0 - x0 * x0)

    cosines = np.empty(count)
    got = 0
    proposed = 0
    while got < count:
        m = max(count - got, 1024)
        z = rng.beta(0.5 * d, 0.5 * d, size=m)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        accept = k * w + d * np.log1p(-x0 * w) - c >= np.log(rng.random(m))
        w = w[accept]
        take = min(w.size, count - got)
        cosines[got : got + take] = w[:take]
        got += take
        proposed += m
    points = _tangent_directions(rng, u, count)
    points *= np.sqrt(np.clip(1.0 - cosines * cosines, 0.0, None))[:, None]
    points += cosines[:, None] * u
    return SampleBatch(points, count / proposed, seed)


def sample_peanut(A, count, seed):
    """Exact peanut sampler: rejection against the uniform sphere.

    The envelope constant n lambda_max / tr(A) bounds the density ratio,
    so proposals are accepted with probability theta^T A theta / lambda_max.
    """
    count = _check_count(count)
    seed = _check_seed(seed)
    A = _peanut(A)._scaled[0]
    n = len(A)
    lam_max = float(np.linalg.eigvalsh(_symmetric_part(A))[-1])
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    points = np.empty((count, n))
    got = 0
    proposed = 0
    while got < count:
        m = max(count - got, 1024)
        theta = rng.standard_normal((m, n))
        theta /= _row_norms(theta)[:, None]
        ratio = _quadratic_form(A, theta) / lam_max
        theta = theta[rng.random(m) <= ratio]
        take = min(len(theta), count - got)
        points[got : got + take] = theta[:take]
        got += take
        proposed += m
    return SampleBatch(points, count / proposed, seed)
