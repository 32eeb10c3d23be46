"""Self-test of the benchmark's output checks and of BENCHMARK.json.

    python3 perfbench/selftest.py

One cycle of each workload runs against the library as it is, where every
request must pass its check, and then once per injected fake: a library
function replaced (at every binding, as the tracer does) by one returning a
slightly wrong result.  Exactly the requests that go through the fake must be
counted as failed.  Finally the metric names in BENCHMARK.json must be the
ones the benchmark prints.  Exits 1 on any mismatch.
"""

import dataclasses
import json
import math
import sys

import numpy as np

from _paths import ROOT, RUNS, use_checkout_library

SEED = 7


def _inverse_swapped(density_many):
    """ODF and Bingham densities with A where the formula has inv(A)."""
    def fake(dist, thetas):
        if dist.kind in ("odf", "bingham"):
            dist = dataclasses.replace(dist, A=np.linalg.inv(dist.A))
        return density_many(dist, thetas)
    return fake


def _shorter_grid(main):
    def fake(argv):
        argv = list(argv)
        at = argv.index("--grid-log") + 3
        argv[at] = str(int(argv[at]) - 1)
        return main(argv)
    return fake


# (workload, module, function, fake factory, does a request go through the fake)
FAKES = (
    ("closed_form", "sphermoments.specfun", "bessel_ratio",
     lambda f: lambda p, x: f(p, x) * (1.0 + 1e-7),
     lambda request: request.args["payload"]["kind"] != "peanut"),
    ("sweep", "sphermoments.specfun", "bessel_ratio",
     lambda f: lambda p, x: f(p, x) * (1.0 + 1e-7),
     lambda request: request.args["payload"]["kind"] != "peanut"),
    ("sweep", "sphermoments.cli", "main", _shorter_grid, lambda request: True),
    # a Monte-Carlo Bingham check compares second moment over mass only, which a
    # constant factor leaves alone
    ("oracle", "sphermoments.distributions", "density_many",
     lambda f: lambda dist, thetas: 1.2 * f(dist, thetas),
     lambda request: request.op == "quad" or (request.op == "mc"
                                              and request.args["dist"].kind != "bingham")),
    ("oracle", "sphermoments.distributions", "density_many", _inverse_swapped,
     lambda request: request.op in ("quad", "mc")
     and request.args["dist"].kind in ("odf", "bingham")),
    ("oracle", "sphermoments.oracle", "sample_vmf",
     lambda f: lambda k, u, count, seed: f(1.5 * k, u, count, seed),
     lambda request: request.op == "sample_vmf"),
    ("oracle", "sphermoments.oracle", "sample_peanut",
     lambda f: lambda A, count, seed: f(A + np.trace(A) * np.eye(len(A)), count, seed),
     lambda request: request.op == "sample_peanut"),
)


def one_cycle(run, workload, check):
    """(per-request failed flags, run dict) for the first cycle of SEED."""
    result = run.run_requests(workload, check, SEED, 0.0)
    return [latency == math.inf for latency in result["latencies"]], result


def main():
    use_checkout_library()
    RUNS.mkdir(parents=True, exist_ok=True)
    import checks
    import run
    import tracing
    from workloads import WORKLOADS

    errors = []
    clean_runs = {}
    for name, workload in WORKLOADS.items():
        workload.warm_up()
        failed, result = one_cycle(run, workload, checks.CHECKS[name])
        clean_runs[name] = result
        print(f"{name}: {len(failed)} requests, {sum(failed)} failed without a fake")
        if any(failed):
            errors.append(f"{name}: correct results failed: {result['problems']}")

    for name, module_name, attr, make_fake, affected in FAKES:
        workload = WORKLOADS[name]
        expected = [affected(request) for _, request in next(workload.cycles(SEED))]
        module = sys.modules[module_name]
        original = getattr(module, attr)
        fake = make_fake(original)
        tracing.replace_bindings(original, fake)
        try:
            failed, _ = one_cycle(run, workload, checks.CHECKS[name])
        finally:
            tracing.replace_bindings(fake, original)
        print(f"{name} with a wrong {attr}: {sum(failed)} of {len(failed)} failed, "
              f"{sum(expected)} expected")
        if failed != expected or not any(expected):
            errors.append(f"{name}: fake {attr} was not caught exactly")
    WORKLOADS["sweep"].close()

    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    clean_runs["oracle"]["probes"] = [1.0]
    printed = set(run.end_to_end(clean_runs["oracle"], [1.0], [1.0], 1.0))
    if {m["name"] for m in declared["end_to_end"]} != printed:
        errors.append(f"BENCHMARK.json end_to_end differs from {sorted(printed)}")
    layers = run.per_layer(tracing.Tracer(), clean_runs["oracle"], clean_runs["oracle"])
    if {(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]} != {
            (name, unit, better) for name, (_, unit, better) in layers.items()}:
        errors.append("BENCHMARK.json per_layer differs from the traced metrics")

    for error in errors:
        print("FAIL", error)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
