"""The three benchmark workloads: input generation, the timed request, item counts.

Every workload is a deck of request templates, shuffled per cycle by the seed,
so each whole cycle holds the same mix of kinds, dimensions and sizes; the
seed draws the parameters inside each template.  A fixed mix keeps medians and
tails comparable across seeds and commits, while the drawn parameters keep any
result cache from being hit.

Library functions are always looked up as module attributes at call time, so
the wrappers that ``tracing`` installs on those bindings see every call.
Import this module only after ``_paths.use_checkout_library()``.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from sphermoments import anisotropy, cli, distributions, oracle, reports

from _paths import RUNS

SWEEP_OUTPUTS = "fa,ratio,eigenvalues,mean_norm"
QUAD_RESOLUTION = 256
ORACLE_POINTS = 100_000


def rng_for(seed, stream):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream))))


def random_unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_spd(rng, n, lo=0.2, hi=5.0):
    """Symmetric positive-definite matrix with log-uniform eigenvalues in [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * np.exp(rng.uniform(math.log(lo), math.log(hi), n))) @ q.T
    return 0.5 * (a + a.T)


def log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


@dataclass(frozen=True)
class Request:
    op: str
    args: dict


class Workload:
    """A deck of templates; ``cycle`` turns it into one shuffled round of requests."""

    name = ""
    deck = ()

    def cycle(self, rng):
        """[(deck slot, request)] in the seed's order for this round."""
        order = rng.permutation(len(self.deck))
        return [(int(i), self.make(rng, *self.deck[i])) for i in order]

    def cycles(self, seed):
        rng = rng_for(seed, 0)
        while True:
            yield self.cycle(rng)

    def make(self, rng, *template):
        raise NotImplementedError

    def run(self, request):
        raise NotImplementedError

    def items(self, request, output):
        return 1

    def warm_up(self):
        for _, request in self.cycle(rng_for(0, 1)):
            self.run(request)

    def close(self):
        """Remove what the workload left in the checkout."""


# ---------------------------------------------------------------------------
# closed_form: one JSON request at a time, as the CLI's moments/anisotropy path


class ClosedForm(Workload):
    name = "closed_form"
    # (kind, n, asymmetric): n weighted to 2-3, about 30% of peanuts asymmetric
    deck = (
        [("vmf", n, False) for n in (2, 2, 3, 3, 5, 10)]
        + [("bimodal_vmf", n, False) for n in (2, 2, 3, 3, 5, 10)]
        + [("peanut", n, False) for n in (2, 2, 3, 3, 5, 10)]
        + [("peanut", n, True) for n in (2, 3, 5)]
    )

    def make(self, rng, kind, n, asymmetric):
        if kind == "peanut":
            a = random_spd(rng, n)
            if asymmetric:
                s = rng.standard_normal((n, n))
                a = a + 0.3 * (s - s.T)
            payload = {"kind": kind, "n": n, "A": a.tolist()}
        else:
            payload = {
                "kind": kind,
                "n": n,
                "u": random_unit(rng, n).tolist(),
                "k": log_uniform(rng, 1e-3, 1e4),
            }
        return Request("closed_form", {
            "payload": payload,
            "s": float(rng.uniform(0.5, 2.0)),
            "mu": float(rng.uniform(0.5, 2.0)),
        })

    def run(self, request):
        args = request.args
        dist = distributions.distribution_from_json(args["payload"])
        # the CLI's own helpers, so the request takes whatever route the CLI picks
        report = cli._closed_form_report(dist)
        aniso = cli._anisotropy_report(dist, anisotropy.MotilityParams(args["s"], args["mu"]))
        return cli.dumps({
            "schema": "1",
            "closed_form": reports.moment_report_to_json(report),
            "anisotropy": {
                "eigenvalues": aniso.eigenvalues,
                "fa": aniso.fa,
                "ratio": aniso.ratio,
                "bound_flags": dict(aniso.bound_flags),
            },
        })


# ---------------------------------------------------------------------------
# sweep: in-process `sphermoments sweep ... --out FILE`


class Sweep(Workload):
    name = "sweep"
    # (kind, n, grid points, format); mostly bimodal k-sweeps.  Nine slots so
    # the median falls inside one slot's cluster of latencies, not between two.
    deck = (
        ("bimodal_vmf", 3, 2000, "csv"),
        ("bimodal_vmf", 2, 1000, "json"),
        ("bimodal_vmf", 3, 500, "json"),
        ("bimodal_vmf", 5, 1000, "csv"),
        ("bimodal_vmf", 10, 200, "csv"),
        ("vmf", 3, 500, "json"),
        ("vmf", 2, 200, "csv"),
        ("peanut", 3, 1000, "csv"),
        ("peanut", 2, 200, "json"),
    )

    def __init__(self):
        self.out = RUNS / f"sweep-{os.getpid()}.out"

    def make(self, rng, kind, n, count, fmt):
        if kind == "peanut":
            payload = {"kind": kind, "n": n, "A": np.eye(n).tolist()}
            parameter = "eigen_ratio"
            lo, hi = float(rng.uniform(0.05, 0.1)), float(rng.uniform(10.0, 20.0))
        else:
            payload = {"kind": kind, "n": n, "u": random_unit(rng, n).tolist(), "k": 1.0}
            parameter = "k"
            lo, hi = log_uniform(rng, 1e-3, 2e-3), log_uniform(rng, 5e3, 1e4)
        return self.request({
            "payload": payload,
            "parameter": parameter,
            "grid": (lo, hi, count),
            "format": fmt,
            "s": float(rng.uniform(0.5, 2.0)),
            "mu": float(rng.uniform(0.5, 2.0)),
        })

    def request(self, args):
        """The request with its command line built ahead of the timed call."""
        lo, hi, count = args["grid"]
        return Request("sweep", dict(args, argv=[
            "sweep",
            "--dist-json", json.dumps(args["payload"]),
            "--parameter", args["parameter"],
            "--grid-log", repr(lo), repr(hi), str(count),
            "--outputs", SWEEP_OUTPUTS,
            "--format", args["format"],
            "--s", repr(args["s"]),
            "--mu", repr(args["mu"]),
            "--out", str(self.out),
        ]))

    def run(self, request):
        code = cli.main(request.args["argv"])
        if code != 0:
            raise RuntimeError(f"sweep exited with status {code}")
        return self.out

    def items(self, request, output):
        return request.args["grid"][2]

    def warm_up(self):
        """One small sweep per slot: argument parsing, both formats, every route."""
        RUNS.mkdir(parents=True, exist_ok=True)
        try:
            for _, request in self.cycle(rng_for(0, 1)):
                lo, hi, _ = request.args["grid"]
                self.run(self.request(dict(request.args, grid=(lo, hi, 16))))
        finally:
            self.close()

    def close(self):
        self.out.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# oracle: quadrature, Monte Carlo and the exact samplers


def quad_nodes(n, resolution):
    return resolution if n == 2 else resolution * resolution


class Oracle(Workload):
    name = "oracle"
    # 27 calls: quadrature on every kind at n = 2, 3 (odf only exists at 3),
    # Monte Carlo at n = 4..8, and the samplers
    deck = (
        [("quad", kind, 2) for kind in ("vmf", "bimodal_vmf", "peanut", "bingham")]
        + [("quad", kind, 3) for kind in ("vmf", "bimodal_vmf", "peanut", "odf", "bingham")]
        + [("mc", kind, n) for kind in ("vmf", "peanut", "bingham") for n in range(4, 9)]
        + [("sample_vmf", "vmf", 3), ("sample_peanut", "peanut", 3), ("sample_peanut", "peanut", 5)]
    )

    def make(self, rng, op, kind, n):
        seed = int(rng.integers(2**31))
        if op == "sample_vmf":
            return Request(op, {"k": log_uniform(rng, 0.5, 50.0), "u": random_unit(rng, n), "seed": seed})
        if op == "sample_peanut":
            return Request(op, {"A": random_spd(rng, n), "seed": seed})
        if kind in ("vmf", "bimodal_vmf"):
            k = log_uniform(rng, 0.1, 50.0) if op == "quad" else float(rng.uniform(0.5, 10.0))
            dist = getattr(distributions, kind)(random_unit(rng, n), k)
        elif kind == "bingham":
            dist = distributions.bingham(random_spd(rng, n), float(rng.uniform(0.05, 1.0)))
        else:
            dist = getattr(distributions, kind)(random_spd(rng, n))
        return Request(op, {"dist": dist, "seed": seed})

    def run(self, request):
        args = request.args
        if request.op == "quad":
            return oracle.quad_moments(args["dist"], resolution=QUAD_RESOLUTION, check=True)
        if request.op == "mc":
            dist = args["dist"]
            return oracle.mc_moments(dist, oracle.McSpec(dist.n, ORACLE_POINTS, args["seed"]))
        if request.op == "sample_vmf":
            return oracle.sample_vmf(args["k"], args["u"], ORACLE_POINTS, args["seed"])
        return oracle.sample_peanut(args["A"], ORACLE_POINTS, args["seed"])

    def items(self, request, output):
        """Density evaluations: quadrature nodes on both grids, samples, or proposals."""
        if request.op == "quad":
            n = request.args["dist"].n
            return quad_nodes(n, QUAD_RESOLUTION) + quad_nodes(n, 2 * QUAD_RESOLUTION)
        if request.op == "mc":
            return ORACLE_POINTS
        return round(len(output.points) / output.acceptance_rate)

    def warm_up(self):
        """Fill the quadrature node caches (both grids) and touch every sampler."""
        rng = rng_for(0, 1)
        for n in (2, 3):
            oracle.quad_moments(distributions.vmf(random_unit(rng, n), 1.0), check=True)
        oracle.mc_moments(distributions.vmf(random_unit(rng, 4), 1.0), oracle.McSpec(4, 10_000, 0))
        oracle.sample_vmf(1.0, random_unit(rng, 3), 1000, 0)
        oracle.sample_peanut(random_spd(rng, 3), 1000, 0)


WORKLOADS = {w.name: w for w in (ClosedForm(), Sweep(), Oracle())}
