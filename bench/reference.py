"""Fixed reference kernel: the benchmark's yardstick for the host's speed.

The kernel is the same code on the same inputs every time and uses nothing
from pidpbc: small dense solves, determinants and contractions plus scalar
float arithmetic, the same mix of Python-level and small-array numpy work
that dominates the closed-loop right-hand side.  On a shared host the speed
of such code drifts by up to about 2x over minutes, and the kernel slows with
it, so a pass time divided by the kernel time measured around the pass's
own operations cancels most of that drift.

The set-up time is scaled the same way, by the kernel timed in the same
fresh interpreter, and reported in seconds of a nominal host on which one
kernel call takes ``NOMINAL_SECONDS``.
"""

import math
import time

import numpy as np

ITERATIONS = 1000
NOMINAL_SECONDS = 0.02


def reference_kernel() -> float:
    """Run the kernel once; return its wall time in seconds."""
    b = np.array([1.0, -0.5])
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(ITERATIONS):
        c = math.cos(0.01 * i)
        M = np.array([[2.0 + 0.1 * c, 0.3], [0.3, 1.0 + 0.05 * c]])
        x = np.linalg.solve(M, b)
        y = np.einsum("ij,j->i", M, x)
        acc += float(y @ x) * float(np.linalg.det(M))
        for k in range(20):
            acc += c * k - 0.5e-9 * acc + math.sin(k * c)
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("reference kernel produced a non-finite value")
    return elapsed
