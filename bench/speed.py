"""Machine-speed calibration for the benchmark's timings.

On the 2-vCPU VM where this benchmark was defined, the same code runs up to
1.6x slower for stretches of tens of seconds because of load outside the
benchmark. That moves every timing by more than any sensible regression
bound. A fixed kernel of interpreter and small-array work, timed right
before each op, measures the machine's speed at that moment. Each latency is
rescaled to the speed at which the kernel takes ``REFERENCE_MS``, which is
its uncontended time on that VM. The kernel uses no p3poly code, so a change
to the package moves the rescaled figures as much as the raw ones. Raw
timings are kept in the run record.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

REFERENCE_MS = 0.5
WINDOW = 4  # kernel samples on each side of an op that set its speed

_MATRIX = np.arange(16.0).reshape(4, 4)
_MATRIX = _MATRIX + _MATRIX.T


def kernel_ms() -> float:
    """Time one fixed slice of work, in milliseconds."""
    start = perf_counter()
    total = 0
    for i in range(3000):
        total += i * i % 7
    counts: dict[int, int] = {}
    for i in range(300):
        counts[i % 17] = counts.get(i % 17, 0) + 1
    for _ in range(20):
        np.linalg.eigvalsh(_MATRIX)
    return (perf_counter() - start) * 1e3


def rescale(latencies: list[float], kernels_ms: list[float]) -> list[float]:
    """Latencies at the reference speed, using the median kernel time around each op."""
    scaled = []
    for i, latency in enumerate(latencies):
        local = median(kernels_ms[max(0, i - WINDOW): i + WINDOW + 1])
        scaled.append(latency * REFERENCE_MS / local)
    return scaled


def reference_factor(samples: int = 2 * WINDOW + 1) -> float:
    """REFERENCE_MS over the machine's current kernel time, for a one-off timing."""
    return REFERENCE_MS / median(kernel_ms() for _ in range(samples))
