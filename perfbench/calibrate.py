"""Machine-speed probes, to factor a shared machine's speed out of the metrics.

    python3 perfbench/calibrate.py    (serves probes: one timing per input line)

On a shared 2-core host the speed of the same code swings by 20-40% for
minutes at a time, as other tenants come and go; a run cannot average that
out.  Both probes are fixed code that never imports the library, so their
times follow the machine and not the library.

- ``probe`` times a mix of the kinds of work the workloads do: interpreted
  float arithmetic, small NumPy calls, Python object churn, fresh memory
  pages and NumPy reductions over 50,000 points.  Each kind alone missed the
  slowdown of some workload; the mix follows it on all three, at the cost
  of a little noise on a quiet machine.  It runs in its own interpreter
  (``Prober``) while
  the benchmark process waits between cycles; ``run.py`` scales the rate
  and the latencies by the run's slowness, the probe's median time over
  ``REFERENCE_S``.
- ``REFERENCE_SETUP`` is an interpreter that imports NumPy.  ``run.py`` runs
  one after each set-up interpreter and scales ``setup_s`` by the median
  ratio of the pairs: interpreter start and the NumPy import are most of a
  set-up.

Limits: a probe sees everything that runs on the machine while it runs.
Work that the library leaves running after a request returns (busy worker
threads, say) slows the probe and so is credited to the machine, not charged
to the library.
"""

import mmap
import statistics
import subprocess
import sys
import time

import numpy as np

# near the probe's median time on a 2-core Intel Xeon guest, Python 3.11, NumPy 2.4
REFERENCE_S = 0.017
# an interpreter that imports NumPy and nothing of the library, and near its
# median wall time on the same machine
REFERENCE_SETUP = (sys.executable, "-c", "import numpy")
REFERENCE_SETUP_S = 0.17

_MATRIX = np.arange(9.0).reshape(3, 3)
_POINTS = np.random.default_rng(0).standard_normal((50_000, 3))
_AXIS = np.array([0.6, 0.0, 0.8])


def probe():
    """Seconds taken by a fixed piece of work."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(1, 20_000):
        acc += 1.0 / (i + acc * 1e-9)
    for _ in range(200):
        np.linalg.norm(_MATRIX @ _MATRIX.T)
    rows = [{"value": float(i), "pair": (i, i + 1.0)} for i in range(5_000)]
    sum(row["value"] + row["pair"][1] for row in rows)
    for _ in range(4):
        pages = mmap.mmap(-1, 1 << 21)
        np.frombuffer(pages, dtype=np.float64)[::512] = 1.0  # one write per page
        pages.close()
    weights = np.exp(_POINTS @ _AXIS)
    np.einsum("m,mi,mj->ij", weights, _POINTS, _POINTS)
    return time.perf_counter() - start


def slowness(samples):
    """How much slower than the reference the machine ran during ``samples``."""
    return statistics.median(samples) / REFERENCE_S


class Prober:
    """The probe in a separate interpreter; ``close`` stops it and waits for it."""

    def __init__(self):
        self.process = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)

    def probe(self):
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        return float(self.process.stdout.readline())

    def close(self):
        self.process.stdin.close()
        self.process.wait()
        self.process.stdout.close()


def serve():
    for _ in sys.stdin:
        print(repr(probe()), flush=True)


if __name__ == "__main__":
    serve()
