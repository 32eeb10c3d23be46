"""Output checks for the benchmark workloads, against independent references.

The references do not call the library: Bessel ratios come from SciPy's
exponentially scaled ``ive`` (the Amos routines), the peanut moments from the
isotropic fourth-moment identity, and sampler/Monte-Carlo results are compared
with those closed forms by their standard errors.  The ODF and Bingham
densities have no closed-form moments; their formulas are written out here and
integrated with the benchmark's own quadrature (n = 2, 3) or importance sample
(Monte Carlo at n >= 4).  Each check returns a list
of problems; an empty list means the output is correct.  Checks run outside
the timed interval.

Monte-Carlo comparisons use 6 standard errors per entry, not 4: a 25-second
oracle run compares about ten thousand entries, so at 4 sigma about every
second run would report a false failure, at 6 about one in fifty thousand,
while a real formula error moves an entry by far more.
"""

import json
import math
from functools import lru_cache

import numpy as np
from scipy.special import ive

from workloads import ORACLE_POINTS, QUAD_RESOLUTION

QUAD_TOL = 1e-8
MC_SIGMAS = 6.0
SLACK = 1e-12
FA_MAX = {2: 2.0 / math.sqrt(10.0), 3: 2.0 / math.sqrt(11.0)}
PEANUT_RATIO_MAX = 3.0
# nodes per dimension of the reference quadrature; not the library's 256 or 512
REFERENCE_RESOLUTION = 320


def bessel_ratios(n, k):
    """(I_{n/2}/I_{n/2-1}, I_{n/2+1}/I_{n/2-1}) at k > 0 (scalar or array)."""
    below = ive(0.5 * n - 1.0, k)
    return ive(0.5 * n, k) / below, ive(0.5 * n + 1.0, k) / below


def vmf_reference(n, k, u, bimodal):
    """(mean, second moment) of the (bimodal) vMF distribution."""
    r, r2 = bessel_ratios(n, k)
    second = (r / k) * np.eye(n) + r2 * np.outer(u, u)
    return (np.zeros(n) if bimodal else r * u), second


def peanut_reference(A):
    """(mean, second moment) of the peanut, from E[x_i x_j x_k x_l] on the sphere."""
    n = len(A)
    trace = float(np.trace(A))
    return np.zeros(n), (trace * np.eye(n) + A + A.T) / ((n + 2) * trace)


def fractional_anisotropy(eigenvalues):
    lam = np.asarray(eigenvalues, dtype=float)
    spread = np.sum((lam - lam.mean(axis=-1, keepdims=True)) ** 2, axis=-1)
    scale = 2.0 if lam.shape[-1] == 2 else 1.5
    return np.sqrt(scale * spread / np.sum(lam * lam, axis=-1))


def _number(value):
    return math.inf if value == "inf" else float(value)


def _compare(problems, what, got, want, atol, rtol=0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{what}: shape {got.shape}, expected {want.shape}")
        return
    excess = np.abs(got - want) - (atol + rtol * np.abs(want))
    if not np.all(excess <= 0.0):
        worst = int(np.argmax(excess))
        problems.append(
            f"{what}: {got.flat[worst]!r} vs reference {want.flat[worst]!r}"
        )


def _check_moments(problems, mean, second, covariance):
    """trace 1, symmetric positive semi-definite covariance."""
    if abs(np.trace(second) - 1.0) > SLACK:
        problems.append(f"trace of second moment is {np.trace(second)!r}")
    if np.max(np.abs(covariance - covariance.T)) > 1e-14:
        problems.append("covariance not symmetric")
    elif np.linalg.eigvalsh(covariance).min() < -SLACK:
        problems.append("covariance not positive semi-definite")
    _compare(problems, "covariance", covariance, second - np.outer(mean, mean), 1e-15, 1e-12)


def _check_anisotropy(problems, got, covariance, factor):
    """Eigenvalues, FA and ratio of the tensor factor * covariance, plus bounds."""
    want = np.linalg.eigvalsh(factor * covariance)[::-1]
    _compare(problems, "eigenvalues", got["eigenvalues"], want, 1e-11 * factor, 1e-9)
    n = len(want)
    if n in (2, 3):
        _compare(problems, "fa", got["fa"], fractional_anisotropy(want), 1e-9)
    elif got["fa"] is not None:
        problems.append(f"fa should be null for n = {n}")
    _compare(problems, "ratio", _number(got["ratio"]), want[0] / want[-1], 0.0, 1e-6)
    if not all(got["bound_flags"].values()):
        problems.append(f"bound flags {got['bound_flags']}")


def check_closed_form(request, output, notes):
    args = request.args
    payload = args["payload"]
    out = json.loads(output)
    problems = []
    if out.get("schema") != "1" or out["closed_form"]["source"] != "closed_form":
        problems.append("schema or source field wrong")
    n = payload["n"]
    if payload["kind"] == "peanut":
        mean, second = peanut_reference(np.array(payload["A"]))
    else:
        mean, second = vmf_reference(n, payload["k"], np.array(payload["u"]),
                                     payload["kind"] == "bimodal_vmf")
    report = {name: np.array(out["closed_form"][name])
              for name in ("mean", "second_moment", "covariance")}
    covariance = second - np.outer(mean, mean)
    _compare(problems, "mean", report["mean"], mean, 1e-12, 1e-9)
    _compare(problems, "second moment", report["second_moment"], second, 1e-12, 1e-9)
    _check_moments(problems, report["mean"], report["second_moment"], report["covariance"])
    factor = args["s"] ** 2 / args["mu"]
    _check_anisotropy(problems, out["anisotropy"], covariance, factor)
    return problems


# ---------------------------------------------------------------------------
# sweep


def _read_rows(path, fmt):
    text = path.read_text()
    if fmt == "json":
        out = json.loads(text)
        return out["rows"] if out.get("schema") == "1" else None
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        row["fa"] = None if row["fa"] == "None" else row["fa"]
        rows.append(row)
    return rows


def sweep_reference(args, grid):
    """Per-row (descending eigenvalues, mean norm) for the swept family."""
    kind = args["payload"]["kind"]
    n = args["payload"]["n"]
    factor = args["s"] ** 2 / args["mu"]
    if kind == "peanut":
        lam = np.ones((grid.size, n))
        lam[:, 0] = grid
        trace = lam.sum(axis=1, keepdims=True)
        eig = factor / (n + 2) * (1.0 + 2.0 * lam / trace)
        return -np.sort(-eig, axis=1), np.zeros(grid.size)
    r, r2 = bessel_ratios(n, grid)
    eig = np.repeat((factor * r / grid)[:, None], n, axis=1)
    if kind == "bimodal_vmf":
        eig[:, 0] += factor * r2
        return eig, np.zeros(grid.size)
    eig[:, 0] += factor * (r2 - r * r)  # vmf: covariance loses the mean's outer product
    return -np.sort(-eig, axis=1), r


def check_sweep(request, output, notes):
    args = request.args
    lo, hi, count = args["grid"]
    kind = args["payload"]["kind"]
    n = args["payload"]["n"]
    rows = _read_rows(output, args["format"])
    if rows is None:
        return ["schema field wrong"]
    if len(rows) != count:
        return [f"{len(rows)} rows for a grid of {count}"]
    grid = np.geomspace(lo, hi, count)
    problems = []
    _compare(problems, "grid values", [_number(r["value"]) for r in rows], grid, 0.0)
    eig, mean_norm = sweep_reference(args, grid)
    got_eig = np.array([[_number(r[f"eigenvalue_{i}"]) for i in range(1, n + 1)] for r in rows])
    factor = args["s"] ** 2 / args["mu"]
    _compare(problems, "eigenvalues", got_eig, eig, 1e-11 * factor, 1e-9)
    ratio = np.array([_number(r["ratio"]) for r in rows])
    _compare(problems, "ratio", ratio, eig[:, 0] / eig[:, -1], 0.0, 1e-6)
    _compare(problems, "mean_norm", [_number(r["mean_norm"]) for r in rows], mean_norm, 1e-12, 1e-9)
    fa_max = FA_MAX.get(n) if kind == "peanut" else 1.0
    if n in (2, 3):
        fa = np.array([_number(r["fa"]) for r in rows])
        _compare(problems, "fa", fa, fractional_anisotropy(eig), 1e-9)
        if np.any(fa > fa_max + SLACK):
            problems.append(f"fa above its bound {fa_max}")
    elif any(r["fa"] is not None for r in rows):
        problems.append(f"fa should be empty for n = {n}")
    ratio_max = PEANUT_RATIO_MAX if kind == "peanut" else math.inf
    if np.any(ratio < 1.0 - SLACK) or np.any(ratio > ratio_max + SLACK):
        problems.append("ratio outside its bounds")
    return problems


# ---------------------------------------------------------------------------
# oracle


def _distribution_reference(dist):
    if dist.kind in ("vmf", "bimodal_vmf"):
        return vmf_reference(dist.n, dist.k, dist.u, dist.kind == "bimodal_vmf")
    if dist.kind == "peanut":
        return peanut_reference(dist.A)
    return None


def stated_density(dist, points):
    """The ODF or Bingham density as the library documents it, at (m, n) points.

    ODF: the angular central Gaussian det(A)^(-1/2) (x^T A^-1 x)^(-3/2) / (4 pi).
    Bingham: exp(-x^T A^-1 x / (4 delta)), divided at n = 3 by the stated
    constant sqrt(det A) (4 pi delta)^(3/2) (the R^3 Gaussian one), and
    unnormalised elsewhere.
    """
    q = np.einsum("mi,ij,mj->m", points, np.linalg.inv(dist.A), points)
    det = np.linalg.det(dist.A)
    if dist.kind == "odf":
        return q ** -1.5 / (4.0 * math.pi * math.sqrt(det))
    value = np.exp(-q / (4.0 * dist.delta))
    if dist.n == 3:
        value /= math.sqrt(det) * (4.0 * math.pi * dist.delta) ** 1.5
    return value


@lru_cache(maxsize=2)
def reference_rule(n):
    """(points, weights) on the circle (n = 2) or sphere (n = 3).

    Midpoint rule in the azimuth, offset by half a step from the library's
    nodes; Gauss-Legendre in the polar cosine on the sphere.
    """
    m = REFERENCE_RESOLUTION
    phi = (np.arange(m) + 0.5) * (2.0 * math.pi / m)
    if n == 2:
        return np.column_stack([np.cos(phi), np.sin(phi)]), np.full(m, 2.0 * math.pi / m)
    z, wz = np.polynomial.legendre.leggauss(m)
    ring = np.sqrt(1.0 - z * z)
    points = np.column_stack([np.outer(ring, np.cos(phi)).ravel(),
                              np.outer(ring, np.sin(phi)).ravel(),
                              np.repeat(z, m)])
    return points, np.repeat(wz, m) * (2.0 * math.pi / m)


def stated_quad_reference(dist):
    """(mass, mean / mass, second moment / mass) of the stated density, n = 2, 3."""
    points, weights = reference_rule(dist.n)
    wq = weights * stated_density(dist, points)
    mass = float(wq.sum())
    return mass, wq @ points / mass, (wq[:, None] * points).T @ points / mass


def bingham_is_reference(dist, seed, count=ORACLE_POINTS):
    """(second moment / mass, its standard error) of the Bingham density, any n.

    Self-normalised importance sample from the angular central Gaussian with
    matrix I + 2B, B = A^-1 / (4 delta): the weights exp(-q) (1 + 2q)^(n/2),
    q = x^T B x, are bounded, so the estimate has finite variance.
    """
    n = dist.n
    b = np.linalg.inv(dist.A) / (4.0 * dist.delta)
    rng = np.random.default_rng((seed, 0x5EED))
    z = rng.standard_normal((count, n)) @ np.linalg.cholesky(np.linalg.inv(np.eye(n) + 2.0 * b)).T
    x = z / np.linalg.norm(z, axis=1, keepdims=True)
    q = np.einsum("mi,ij,mj->m", x, b, x)
    w = np.exp(-q) * (1.0 + 2.0 * q) ** (0.5 * n)
    total = w.sum()
    second = (w[:, None] * x).T @ x / total
    # sum w^2 (x_i x_j - second_ij)^2 without the (count, n, n) products
    w2 = w * w
    squares = x * x
    spread = ((w2[:, None] * squares).T @ squares
              - 2.0 * second * ((w2[:, None] * x).T @ x) + second * second * w2.sum())
    return second, np.sqrt(np.clip(spread, 0.0, None)) / total


def _check_raw_identity(problems, report, mass):
    """trace(E[x x^T]) equals the mass on the unit sphere, for any density."""
    if abs(np.trace(report.second_moment) - mass) > SLACK * max(1.0, abs(mass)):
        problems.append(f"trace {np.trace(report.second_moment)!r} differs from mass {mass!r}")
    cov = report.covariance
    if np.max(np.abs(cov - cov.T)) > SLACK * max(1.0, abs(mass)):
        problems.append("covariance not symmetric")


def _check_quad(request, report, notes):
    dist = request.args["dist"]
    problems = []
    mass = report.provenance["mass"]
    if report.warnings:
        problems.append(f"quadrature warnings: {report.warnings}")
    if report.provenance["resolution"] != QUAD_RESOLUTION:
        problems.append("wrong resolution in provenance")
    _check_raw_identity(problems, report, mass)
    if dist.kind in ("odf", "bingham"):
        want_mass, want_mean, want_second = stated_quad_reference(dist)
        _compare(problems, "mass", mass, want_mass, 0.0, QUAD_TOL)
        _compare(problems, "mean / mass", report.mean / mass, want_mean, QUAD_TOL)
        _compare(problems, "second moment / mass", report.second_moment / mass,
                 want_second, QUAD_TOL)
    if dist.kind == "bingham":
        # the stated n = 3 constant is not the sphere's; record how far the mass is from 1
        key = f"bingham_n{dist.n}_mass_dev_max"
        notes[key] = max(notes.get(key, 0.0), abs(mass - 1.0))
        return problems
    if abs(mass - 1.0) > QUAD_TOL:
        problems.append(f"mass {mass!r}")
    reference = _distribution_reference(dist)
    if reference is None:
        return problems
    mean, second = reference
    _compare(problems, "mean", report.mean, mean, QUAD_TOL)
    _compare(problems, "covariance", report.covariance, second - np.outer(mean, mean), QUAD_TOL)
    return problems


def _within_sigmas(problems, what, got, se, want):
    z = float(np.max(np.abs(np.asarray(got) - want) / np.maximum(se, 1e-300)))
    if not z <= MC_SIGMAS:
        problems.append(f"{what}: {z:.2f} standard errors from the reference")


def _check_mc(request, report, notes):
    dist = request.args["dist"]
    problems = []
    prov = report.provenance
    if prov["samples"] != ORACLE_POINTS or prov["seed"] != request.args["seed"]:
        problems.append("wrong samples or seed in provenance")
    _check_raw_identity(problems, report, prov["mass"])
    reference = _distribution_reference(dist)
    if reference is None:  # bingham: antipodally symmetric, unnormalised outside n = 3
        mass, mass_se = prov["mass"], prov["mass_se"]
        _within_sigmas(problems, "mean", report.mean, report.mean_se, 0.0)
        want, want_se = bingham_is_reference(dist, request.args["seed"])
        ratio = report.second_moment / mass
        # a bound on the ratio's standard error whatever the correlation of its parts
        ratio_se = (report.second_moment_se + np.abs(ratio) * mass_se) / mass
        _within_sigmas(problems, "second moment / mass", ratio,
                       np.sqrt(ratio_se ** 2 + want_se ** 2), want)
        return problems
    mean, second = reference
    _within_sigmas(problems, "mass", prov["mass"], prov["mass_se"], 1.0)
    _within_sigmas(problems, "mean", report.mean, report.mean_se, mean)
    _within_sigmas(problems, "second moment", report.second_moment,
                   report.second_moment_se, second)
    return problems


def _check_sample(request, batch, notes):
    args = request.args
    points = batch.points
    problems = []
    n = len(args["u"]) if request.op == "sample_vmf" else len(args["A"])
    if points.shape != (ORACLE_POINTS, n):
        return [f"sample shape {points.shape}"]
    if np.max(np.abs(np.linalg.norm(points, axis=1) - 1.0)) > SLACK:
        problems.append("samples not on the unit sphere")
    if not 0.0 < batch.acceptance_rate <= 1.0:
        problems.append(f"acceptance rate {batch.acceptance_rate!r}")
    root_n = math.sqrt(len(points))
    if request.op == "sample_vmf":
        r, _ = bessel_ratios(n, args["k"])
        se = points.std(axis=0, ddof=1) / root_n
        _within_sigmas(problems, "sample mean", points.mean(axis=0), se, r * args["u"])
    else:
        # E[x_i x_j] and E[(x_i x_j)^2] without the (count, n, n) products
        count = len(points)
        second = points.T @ points / count
        squares = points * points
        variance = (squares.T @ squares / count - second * second) * count / (count - 1)
        _within_sigmas(problems, "sample second moment", second,
                       np.sqrt(np.clip(variance, 0.0, None)) / root_n,
                       peanut_reference(args["A"])[1])
    return problems


def check_oracle(request, output, notes):
    if request.op == "quad":
        return _check_quad(request, output, notes)
    if request.op == "mc":
        return _check_mc(request, output, notes)
    return _check_sample(request, output, notes)


CHECKS = {"closed_form": check_closed_form, "sweep": check_sweep, "oracle": check_oracle}
