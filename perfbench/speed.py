"""Machine-speed probe.

On the shared 2-core VM the benchmark was written on, CPU speed drifts
by up to 1.5x within seconds and over minutes.  ``probe()`` times a
fixed pure-Python loop: the seconds it takes at the current speed.
``REF`` is its time at the reference speed to which ``run.py`` scales
the times it reports.  The loop belongs to the benchmark, so a change
to the package does not move it.  Of the kernels tried (README.md,
Noise), the loop's time moved most nearly in proportion to the
workloads' times across runs.
"""

from __future__ import annotations

import time

REF = 0.75e-3


def _loop():
    acc = 0
    for i in range(10000):
        acc += i * i


def probe():
    """The faster of two timed runs of the loop, after one untimed run
    that warms it."""
    _loop()
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return best
