"""Benchmark for sphermoments: three seeded workloads, checked outputs, optional trace.

    python3 perfbench/run.py --workload {closed_form,sweep,oracle} --seed N \
        --seconds S --trace {0,1}

Load model: closed loop, one client, no threads; each request is issued after
the previous one returned.  Requests are timed one by one and checked outside
the timed interval; whole cycles of the workload's request deck run until the
timed total reaches ``--seconds``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates untraced
cycles with cycles run under span wrappers on the library's functions; it
prints per-layer metrics, per traced request, and the tracing overhead (both
passes see the same machine), and writes its spans to
``results/runs/trace-<workload>-s<seed>.jsonl``.
The line before the last is a run record (seed, machine, versions, backend,
fail ratio, tail percentile and sample counts).  The last line is the result.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import calibrate
import tracing
from _paths import BENCH, ROOT, RUNS, use_checkout_library

SETUP_REPEATS = 9
PROBE_EVERY_S = 0.2  # of request time, so short cycles are not probed each time
# The tail is the highest percentile, at most the 99th, with at least TAIL_BEYOND
# samples beyond it.  Past the 99th the ten slowest of ~10^4 closed_form requests
# are the rarest eigensolves plus host stalls: on a shared 2-core host their
# ten-run spread reached 0.35, above the metric's bound.
TAIL_BEYOND = 10
LOAD_MODEL = "closed loop, 1 client, no threads"
KEEP_PROBLEMS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("closed_form", "sweep", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_child(command):
    """Run a command to its end: (wall seconds, peak RSS in MB)."""
    start = time.perf_counter()
    child = subprocess.Popen(list(command), cwd=ROOT, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    if status != 0:
        raise RuntimeError(f"{' '.join(command)} failed with status {status}")
    return wall, usage.ru_maxrss / 1024.0


def run_probe(*args):
    return run_child([sys.executable, str(BENCH / "probe.py"), *map(str, args)])


def measure_setup(workload):
    """Wall times of set-up interpreters, each followed by a reference interpreter.

    Returns (set-up seconds, reference seconds), in pairs.
    """
    setups, references = [], []
    for _ in range(SETUP_REPEATS):
        setups.append(run_probe(workload)[0])
        references.append(run_child(calibrate.REFERENCE_SETUP)[0])
    return setups, references


def new_pass():
    return {"latencies": [], "items": [], "timed_s": 0.0, "wall_s": 0.0,
            "failed": 0, "problems": [], "notes": {}, "probes": [], "probed_at": -PROBE_EVERY_S}


def run_cycle(workload, check, cycle, run, tracer=None, prober=None):
    """Time each request of one cycle, check it, add it to ``run``, probe the machine."""
    wall = time.perf_counter()
    for _, request in cycle:
        request_id = len(run["latencies"])
        output = error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                output = workload.run(request)
            else:
                with tracer.request(request_id):
                    output = workload.run(request)
        except Exception as exc:  # counted as a failed request; the run goes on
            error = exc
        elapsed = time.perf_counter() - start
        run["timed_s"] += elapsed
        found = [f"{type(error).__name__}: {error}"] if error else check(request, output, run["notes"])
        if found:
            run["failed"] += 1
            run["latencies"].append(math.inf)
            run["items"].append(0)
            if len(run["problems"]) < KEEP_PROBLEMS:
                run["problems"].append({"request": request_id, "op": request.op, "problems": found})
        else:
            run["latencies"].append(elapsed)
            run["items"].append(workload.items(request, output))
    if prober is not None and run["timed_s"] >= run["probed_at"] + PROBE_EVERY_S:
        run["probed_at"] = run["timed_s"]
        run["probes"].append(prober.probe())
    run["wall_s"] += time.perf_counter() - wall


def run_requests(workload, check, seed, seconds, prober=None):
    """Issue whole cycles of requests until ``seconds`` of request time has passed."""
    run = new_pass()
    for cycle in workload.cycles(seed):
        run_cycle(workload, check, cycle, run, prober=prober)
        if run["timed_s"] >= seconds:
            return run


def run_traced(workload, check, seed, seconds, tracer, swaps):
    """Alternate untraced and traced cycles, so both passes see the same machine.

    Stops after a traced cycle once both passes together reach ``seconds``.
    Returns (untraced pass, traced pass).
    """
    plain, traced = new_pass(), new_pass()
    cycles = workload.cycles(seed)
    while plain["timed_s"] + traced["timed_s"] < seconds:
        run_cycle(workload, check, next(cycles), plain)
        with tracing.installed(swaps):
            run_cycle(workload, check, next(cycles), traced, tracer)
    return plain, traced


def tail(latencies):
    """(value, percentile, samples beyond it) of the tail latency."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = max(TAIL_BEYOND, -(-n // 100))  # at least 1% beyond: at most the 99th
    if n <= beyond:
        return ordered[-1], 100.0, 0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(library):
    import numpy

    get_backend = getattr(library, "get_backend", None)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": get_backend() if get_backend else "n/a",
    }


def finite(value):
    return value if math.isfinite(value) else sys.float_info.max


def items_per_s(run):
    """Items of the checked-correct requests per second of request time."""
    return sum(run["items"]) / run["timed_s"]


def timings(run, setups):
    """The timing metrics as measured."""
    latencies = run["latencies"]
    tail_s, _, _ = tail(latencies)
    return {
        "items_per_s": items_per_s(run),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail_s,
        "setup_s": statistics.median(setups),
    }


def end_to_end(run, setups, references, peak_rss_mb):
    """The end-to-end metrics; timings at the reference machine speed."""
    raw = timings(run, setups)
    slow = calibrate.slowness(run["probes"])
    return {
        "items_per_s": (raw["items_per_s"] * slow, "1/s"),
        "latency_p50_ms": (raw["latency_p50_ms"] / slow, "ms"),
        "latency_tail_ms": (raw["latency_tail_ms"] / slow, "ms"),
        "setup_s": (calibrate.REFERENCE_SETUP_S * statistics.median(
            setup / reference for setup, reference in zip(setups, references)), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, run, traced):
    """The tracer's layer metrics plus the tracing overhead on items_per_s."""
    metrics = tracer.metrics()
    traced_rate = items_per_s(traced)
    untraced_rate = items_per_s(run)
    metrics["trace.items_per_s"] = (traced_rate, "1/s", "higher")
    metrics["trace.untraced_items_per_s"] = (untraced_rate, "1/s", "higher")
    metrics["trace.overhead_items_per_s"] = (traced_rate - untraced_rate, "1/s", "higher")
    return metrics


def run_summary(run):
    _, percentile, beyond = tail(run["latencies"])
    return {
        "requests": len(run["latencies"]),
        "failed": run["failed"],
        "fail_ratio": run["failed"] / len(run["latencies"]),
        "items": sum(run["items"]),
        "timed_s": run["timed_s"],
        "wall_s": run["wall_s"],
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
        "problems": run["problems"],
        "notes": run["notes"],
    }


def traced_pass(args, workload, check, record):
    """Per-layer metrics from alternating untraced and traced cycles."""
    tracer = tracing.Tracer()
    swaps, missing = tracing.bind(tracer)
    missing = [f"no function {name}" for name in missing]
    run, traced = run_traced(workload, check, args.seed, args.seconds, tracer, swaps)
    missing += [f"no calls to {span}" for span in tracer.missing_calls(args.workload)]
    metrics = per_layer(tracer, run, traced)
    request_ms = metrics["traced.request_ms"][0]
    remainder_ms = metrics["layer.remainder.self_ms"][0]
    spans_path = RUNS / f"trace-{args.workload}-s{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    record["run"] = run_summary(run)
    record["traced_run"] = run_summary(traced)
    record["layer_coverage"] = {
        "request_ms": request_ms,
        "library_self_ms": request_ms - remainder_ms,
        "remainder_ms": remainder_ms,
    }
    record["missing_spans"] = missing
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics, [run, traced], missing


def main(argv=None):
    args = parse_args(argv)
    library = use_checkout_library()
    RUNS.mkdir(parents=True, exist_ok=True)
    import checks
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    check = checks.CHECKS[args.workload]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": LOAD_MODEL,
        **machine_record(library),
    }
    missing = []
    try:
        if args.trace:
            workload.warm_up()
            metrics, runs, missing = traced_pass(args, workload, check, record)
        else:
            setups, references = measure_setup(args.workload)
            _, peak_rss_mb = run_probe(args.workload, args.seed)
            workload.warm_up()
            prober = calibrate.Prober()
            try:
                run = run_requests(workload, check, args.seed, args.seconds, prober)
            finally:
                prober.close()
            metrics = end_to_end(run, setups, references, peak_rss_mb)
            runs = [run]
            record["run"] = run_summary(run)
            record["setup_samples_s"] = setups
            record["setup_reference_samples_s"] = references
            record["raw"] = timings(run, setups)
            record["slowness"] = {
                "run": calibrate.slowness(run["probes"]),
                "setup": record["raw"]["setup_s"] / metrics["setup_s"][0],
            }
            record["benchmark_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        workload.close()
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and not missing
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(r["latencies"]) for r in runs),
        "failed": failed,
        "metrics": {name: {"value": finite(value), "unit": unit}
                    for name, (value, unit, *_) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
