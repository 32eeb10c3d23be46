"""Self-check suites behind ``sphermoments validate``.

Four suites: density normalization, closed-form/oracle moment
equivalence, half-integer Bessel-ratio identities, and anisotropy
bounds (which also cross-checks the closed-form reports against the
generic tensor->eigensolve route).  ``smoke`` keeps runtimes in the
seconds; ``full`` runs the acceptance-grade grids.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import anisotropy, distributions, moments, oracle, specfun

QUAD_TOL = 1e-8
MC_SIGMA = 3.0
MC_RETRY_SIGMA = 4.0
IDENTITY_TOL = 1e-9
CONSISTENCY_TOL = 1e-10


@dataclass
class SuiteResult:
    name: str
    passed: bool
    max_deviation: float
    details: dict = field(default_factory=dict)


def _random_unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _random_spd(rng, n, asymmetric=False):
    m = rng.standard_normal((n, n))
    a = m @ m.T + 0.05 * np.eye(n)
    if asymmetric:
        s = rng.standard_normal((n, n))
        a = a + 0.2 * (s - s.T)
    return a


def _rng(seed, stream):
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((oracle._check_seed(seed), stream)))
    )


def normalization_suite(level, seed):
    """Densities integrate to 1 (Bingham recorded but not asserted)."""
    rng = _rng(seed, 0)
    full = level == "full"
    samples = 1_000_000 if full else 20_000
    worst = 0.0
    worst_mc = 0.0
    bingham_masses = []
    passed = True
    for n in (2, 3):
        k = float(rng.uniform(0.1, 40.0))
        u = _random_unit(rng, n)
        dists = [
            distributions.vmf(u, k),
            distributions.bimodal_vmf(u, k),
            distributions.peanut(_random_spd(rng, n)),
        ]
        if n == 3:
            dists.append(distributions.odf(_random_spd(rng, 3)))
            dists.append(distributions.bingham(_random_spd(rng, 3), float(rng.uniform(0.05, 2.0))))
        for dist in dists:
            mass = oracle.quad_normalization(dist)
            if dist.kind == "bingham":
                bingham_masses.append(mass)
                continue
            worst = max(worst, abs(mass - 1.0))
            passed &= abs(mass - 1.0) <= QUAD_TOL
    high_dims = range(4, 9) if full else (4,)
    for n in high_dims:
        k = float(rng.uniform(0.5, 10.0))
        u = _random_unit(rng, n)
        for dist in (
            distributions.vmf(u, k),
            distributions.bimodal_vmf(u, k),
            distributions.peanut(_random_spd(rng, n)),
        ):
            mass, se = oracle.mc_normalization(
                dist, oracle.McSpec(n, samples, seed + n)
            )
            z = abs(mass - 1.0) / se
            worst_mc = max(worst_mc, z)
            passed &= z <= MC_SIGMA
    return SuiteResult(
        "normalization",
        passed,
        worst,
        {
            "max_quad_deviation": worst,
            "max_mc_sigma": worst_mc,
            "bingham_masses_reported": bingham_masses,
        },
    )


def _mc_equivalence_cell(dist, report_cf, samples, seed):
    """Max deviation in standard errors, with the marginal-retry rule.

    (3, 4]-sigma cells are re-run once at 4x the samples against a
    4-sigma bound; a fluke passes, a systematic 3-sigma-scale error
    doubles in sigma units and fails.
    """

    def z_of(m, s):
        rep = oracle.mc_moments(dist, oracle.McSpec(dist.n, m, s))
        return max(
            float(np.max(np.abs(report_cf.mean - rep.mean) / rep.mean_se)),
            float(
                np.max(
                    np.abs(report_cf.covariance - rep.covariance) / rep.covariance_se
                )
            ),
        )

    z = z_of(samples, seed)
    if z <= MC_SIGMA or z > MC_RETRY_SIGMA:
        return z, 0
    return z_of(4 * samples, seed + 104729), 1


def oracle_equivalence_suite(level, seed):
    """Closed-form moments match quadrature (n=2,3) and Monte Carlo (n>=4)."""
    rng = _rng(seed, 1)
    full = level == "full"
    ks = (0.1, 1.0, 5.0, 20.0, 100.0) if full else (1.0, 5.0)
    directions = 10 if full else 2
    worst_quad = 0.0
    for n in (2, 3):
        for k in ks:
            for _ in range(directions):
                u = _random_unit(rng, n)
                for dist, cf in (
                    (distributions.vmf(u, k), moments.vmf_moments(k, u)),
                    (distributions.bimodal_vmf(u, k), moments.bimodal_vmf_moments(k, u)),
                ):
                    rep = oracle.quad_moments(dist, check=False)
                    worst_quad = max(
                        worst_quad,
                        float(np.max(np.abs(cf.mean - rep.mean))),
                        float(np.max(np.abs(cf.covariance - rep.covariance))),
                    )
        for _ in range(5 if full else 2):
            a = _random_spd(rng, n, asymmetric=True)
            rep = oracle.quad_moments(distributions.peanut(a), check=False)
            cf = moments.peanut_moments(a)
            worst_quad = max(
                worst_quad, float(np.max(np.abs(cf.covariance - rep.covariance)))
            )
    passed = worst_quad <= QUAD_TOL
    worst_mc = 0.0
    retries = 0
    if full:
        samples = 1_000_000
        for n in range(4, 9):
            for k in (1.0, 5.0):
                u = _random_unit(rng, n)
                dist = distributions.vmf(u, k)
                z, attempt = _mc_equivalence_cell(
                    dist, moments.vmf_moments(k, u), samples, seed + 10 * n
                )
                retries += attempt
                worst_mc = max(worst_mc, z)
                passed &= z <= (MC_RETRY_SIGMA if attempt else MC_SIGMA)
    else:
        u = _random_unit(rng, 4)
        dist = distributions.vmf(u, 3.0)
        z, attempt = _mc_equivalence_cell(
            dist, moments.vmf_moments(3.0, u), 50_000, seed + 40
        )
        retries += attempt
        worst_mc = max(worst_mc, z)
        passed &= z <= (MC_RETRY_SIGMA if attempt else MC_SIGMA)
    return SuiteResult(
        "oracle_equivalence",
        passed,
        worst_quad,
        {
            "max_quad_deviation": worst_quad,
            "max_mc_sigma": worst_mc,
            "mc_retries": retries,
        },
    )


def bessel_identity_suite(level, seed):
    """coth-based identities for the n=3 Bessel ratios."""
    points = 200 if level == "full" else 50
    grid = np.geomspace(0.05, 50.0, points)
    # both orders in one array call; the identities run on Python floats
    both = specfun.bessel_ratio(np.repeat([1.5, 2.5], points), np.concatenate([grid, grid]))
    worst = 0.0
    for k, r, r_up in zip(grid.tolist(), *(half.tolist() for half in np.split(both, 2))):
        coth = 1.0 / math.tanh(k)
        dev1 = abs(r - (coth - 1.0 / k))
        r2 = r_up * r
        rhs = 1.0 - coth / k + 2.0 / k**2 - coth * coth
        dev2 = abs(r2 - r * r - rhs)
        worst = max(worst, dev1, dev2)
    return SuiteResult("bessel_identities", worst <= IDENTITY_TOL, worst, {"grid_points": points})


def anisotropy_bounds_suite(level, seed):
    """Peanut FA/R bounds, vMF FA/R range, closed-vs-generic agreement."""
    rng = _rng(seed, 2)
    draws = 1000 if level == "full" else 100
    params = anisotropy.MotilityParams(1.0, 1.0)
    passed = True
    worst_excess = 0.0
    worst_consistency = 0.0
    for n in (2, 3):
        fa_max = anisotropy.FA2_MAX if n == 2 else anisotropy.FA3_MAX
        stack = np.array([_random_spd(rng, n) for _ in range(draws)])
        rep = anisotropy.peanut_closed_form_report(stack, params)  # one row per matrix
        excess = np.maximum.reduce(
            [rep.fa - fa_max, rep.ratio - anisotropy.PEANUT_R_MAX, 1.0 - rep.ratio]
        )
        worst_excess = max(worst_excess, float(excess.max()))
        passed &= bool(np.all(excess <= anisotropy.BOUND_SLACK)) and rep.bounds_satisfied
        for _ in range(10 if level == "full" else 3):
            a = _random_spd(rng, n)
            rep = anisotropy.peanut_closed_form_report(a, params)
            gen = anisotropy.anisotropy_report(distributions.peanut(a), params)
            worst_consistency = max(
                worst_consistency,
                abs(rep.fa - gen.fa),
                abs(rep.ratio - gen.ratio),
                float(np.max(np.abs(rep.eigenvalues - gen.eigenvalues))),
            )
    grid = np.geomspace(1e-3, 500.0, 50)
    for n in (2, 3):
        u = np.zeros(n)
        u[0] = 1.0
        fas = []
        ratios = []
        for k in grid:
            rep = anisotropy.vmf_closed_form_report(float(k), u, params)
            fas.append(rep.fa)
            ratios.append(rep.ratio)
            gen = anisotropy.anisotropy_report(
                distributions.bimodal_vmf(u, float(k)), params
            )
            worst_consistency = max(
                worst_consistency, abs(rep.fa - gen.fa), abs(rep.ratio - gen.ratio)
            )
        fas = np.array(fas)
        ratios = np.array(ratios)
        passed &= fas[0] < 1e-2 and fas[-1] > 0.99 and ratios[0] < 1.01
        passed &= bool(np.all(np.diff(fas) >= 0)) and bool(np.all(np.diff(ratios) >= 0))
    passed &= worst_consistency <= CONSISTENCY_TOL
    return SuiteResult(
        "anisotropy_bounds",
        passed,
        max(worst_excess, 0.0),
        {
            "max_bound_excess": worst_excess,
            "max_closed_vs_generic": worst_consistency,
            "random_matrices_per_dim": draws,
        },
    )


def run_validation(level, seed):
    """Run all suites; returns a JSON-ready summary dict."""
    if level not in ("smoke", "full"):
        raise ValueError(f"level must be 'smoke' or 'full', got {level!r}")
    suites = [
        normalization_suite(level, seed),
        oracle_equivalence_suite(level, seed),
        bessel_identity_suite(level, seed),
        anisotropy_bounds_suite(level, seed),
    ]
    return {
        "schema": "1",
        "level": level,
        "seed": seed,
        "suites": [asdict(s) for s in suites],
        "passed": all(s.passed for s in suites),
    }
