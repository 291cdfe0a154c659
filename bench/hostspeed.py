"""Host-speed reference: a fixed kernel timed next to every measurement.

The benchmark runs on shared machines whose speed drifts by tens of
percent over seconds to minutes, for every process alike. Timing this
fixed kernel (an interpreter loop plus small numpy reductions, the mix
adoptindex itself executes) right next to a measurement gives the host's
current speed, and ``to_reference`` rescales a wall time to what it would
have been with the kernel taking ``REFERENCE_S``. The gated end-to-end
metrics are reported in these reference seconds; raw wall times are
printed alongside them.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal kernel time; the scale of reference seconds, fixed for all commits.
REFERENCE_S = 0.006

_ARRAY = np.arange(2000)


def kernel() -> float:
    """Seconds taken by the fixed reference kernel right now."""
    started = time.perf_counter()
    acc = 0
    for i in range(45_000):
        acc += (i * i) % 7
    for _ in range(450):
        _ARRAY.sum()
    return time.perf_counter() - started


def to_reference(seconds: float, kernel_s: float) -> float:
    """Rescale a wall time measured while the kernel took ``kernel_s``."""
    return seconds * REFERENCE_S / kernel_s
