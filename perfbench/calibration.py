"""Fixed reference kernel that training-run times are expressed in.

The machines this benchmark runs on are shared: the speed of one core drifts
by 20-30 % over tens of seconds, so raw seconds from two runs of the same code
minutes apart differ by more than any bound worth enforcing. Both the kernel
and the training code slow down together, though, so the benchmark times
this kernel right before and right after every training run and reports
the run's time divided by the mean of the two (unit ``ref``). The kernel
never changes, so a change of the program moves the ratio exactly as it
moves the program's own time.

The kernel is shaped like the policy's per-token step: small matrix-vector
products, tanh, softmax and a sampled index inside a Python loop.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

ITERATIONS = 800
REPEATS = 5

_rng = np.random.default_rng(0)
_W_HIDDEN = _rng.uniform(-0.1, 0.1, size=(32, 65))
_W_OUT = _rng.uniform(-0.1, 0.1, size=(16, 33))
_X = _rng.uniform(-1.0, 1.0, size=64)


def kernel() -> float:
    acc = 0.0
    for i in range(ITERATIONS):
        h = np.tanh(_W_HIDDEN @ np.append(_X, 1.0))
        z = _W_OUT @ np.append(h, 1.0)
        e = np.exp(z - np.max(z))
        p = e / np.sum(e)
        acc += float(np.searchsorted(np.cumsum(p), (i % 7) / 7.0, side="right"))
    return acc


def time_kernel() -> tuple[float, float]:
    """Median (wall, CPU) seconds of ``REPEATS`` kernel calls."""
    walls, cpus = [], []
    for _ in range(REPEATS):
        cpu0, wall0 = time.process_time(), time.perf_counter()
        kernel()
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
    return statistics.median(walls), statistics.median(cpus)
