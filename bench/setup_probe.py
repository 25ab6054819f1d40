"""Set-up time of one workload in a fresh interpreter.

Usage: python3 bench/setup_probe.py <workload> <seed>

Times ``import pidpbc`` plus building the workload's scenarios, plants and
gains from the seed, then times the reference kernel in the same interpreter
(see ``reference.py``), and prints both in seconds on its last line:
``<setup seconds> <reference seconds>``.
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import pidpbc  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build_inputs(sys.argv[1], int(sys.argv[2]), BENCH / ".work" / sys.argv[1])
setup = time.perf_counter() - t0

import statistics  # noqa: E402

from reference import reference_kernel  # noqa: E402

reference_kernel()  # first call pays numpy.linalg's lazy set-up
print(setup, statistics.median(reference_kernel() for _ in range(3)))
