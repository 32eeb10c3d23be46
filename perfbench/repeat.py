"""Run the benchmark once per seed and workload, and summarise every metric.

    python3 perfbench/repeat.py --workload closed_form sweep oracle --seeds 1 2 3 \
        [--seconds S] [--trace 0]

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.  Prints one JSON
object keyed by workload; for each metric: its unit, the values in seed
order, their median, quartiles (``statistics.quantiles(values, n=4)``) and
spread, the inter-quartile distance as a share of the median; the same for
the raw timings of the run records, before the machine-speed correction.
"""

import argparse
import json
import statistics
import subprocess
import sys

from _paths import BENCH, ROOT


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"seed {seed}: no result (status {done.returncode})\n{done.stderr}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def summarise(values):
    median = statistics.median(values)
    out = {"values": values, "median": median}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return out


def summarise_workload(workload, seeds, seconds, trace):
    results = [run_once(workload, seed, seconds, trace) for seed in seeds]
    metrics = {}
    raw = {}
    for record, result in results:
        for name, metric in result["metrics"].items():
            metrics.setdefault(name, {"unit": metric["unit"], "values": []})
            metrics[name]["values"].append(metric["value"])
        for name, value in record.get("raw", {}).items():
            raw.setdefault(name, []).append(value)
    return {
        "seeds": seeds,
        "seconds": seconds,
        "trace": trace,
        "correct": all(result["correct"] for _, result in results),
        "attempted": [result["attempted"] for _, result in results],
        "failed": [result["failed"] for _, result in results],
        "metrics": {name: {"unit": m["unit"], **summarise(m["values"])}
                    for name, m in metrics.items()},
        "raw": {name: summarise(values) for name, values in raw.items()},
        "record": results[0][0],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    with open(ROOT / "BENCHMARK.json") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    parser.add_argument("--seconds", type=int, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    summary = {workload: summarise_workload(workload, args.seeds, args.seconds, args.trace)
               for workload in args.workload}
    print(json.dumps(summary, indent=1))


if __name__ == "__main__":
    main()
