"""Set-up probe: a fresh interpreter imports the library and runs one workload's warm-up.

    python3 perfbench/probe.py WORKLOAD [SEED]

``run.py`` times whole runs of this script, interpreter start included, for
the ``setup_s`` metric.  Generating the benchmark's inputs is not part of it.
With SEED it then runs the first cycle of that seed's requests, unchecked, so
that ``run.py`` can read the peak memory of the library alone: this
interpreter never imports the checks or SciPy.
"""

import sys

from _paths import use_checkout_library

if __name__ == "__main__":
    use_checkout_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[sys.argv[1]]
    workload.warm_up()
    if len(sys.argv) > 2:
        try:
            for _, request in next(workload.cycles(int(sys.argv[2]))):
                workload.run(request)
        finally:
            workload.close()
