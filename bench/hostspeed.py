"""Host-speed sampler: scales measured times to a quiet host.

On a shared host the speed of this process drops by up to half for spans of
seconds to minutes, while another tenant is busy. No statistic over the
run's own operations removes that, because a whole run can fall into a slow
span. The sampler runs a fixed reference computation every ``PERIOD_S``
seconds from a timer signal, in the benchmark's own process, and keeps each
sample's time. A measured interval is then reported as

    (wall time - sampler time inside the interval) * REFERENCE_S / local

where ``local`` is the median reference time of the samples taken in and
next to the interval. The reference computation is the benchmark's own code
and never calls okh, so a change to okh moves the scaled times as it moves
the wall times, while the host's state largely cancels out.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.2
# Reference computation time on a quiet host (2 vCPU x86-64 VM, Python 3.11,
# numpy 2.4 with one OpenBLAS thread); it fixes the unit of scaled times.
REFERENCE_S = 0.002
# Samples taken this long before or after an interval still describe it.
MARGIN_S = 1.0

_rng = random.Random(0)
_KEYS = [f"edge:{_rng.getrandbits(64):016x}" for _ in range(3000)]
_WEIGHT = {key: _rng.random() for key in _KEYS}
_LEFT = np.random.default_rng(0).normal(size=(96, 256))
_RIGHT = np.random.default_rng(1).normal(size=(256, 96))


def reference() -> None:
    """Dict lookups, a keyed sort, set algebra and a small product."""
    order = sorted(_KEYS, key=lambda key: (-_WEIGHT[key], key))
    pool = set(order[:1200]) | set(order[1800:2400])
    total = 0
    for key in order[:1200]:
        if key in pool:
            total += len(key)
    product = _LEFT @ _RIGHT
    np.exp(product - product.max(axis=1, keepdims=True)).sum()


class HostSpeed:
    """Samples the reference computation on a timer while started."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.took: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference()
        self.starts.append(start)
        self.took.append(time.perf_counter() - start)

    def start(self) -> None:
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample(None, None)

    def scaled(self, start: float, end: float) -> float:
        """Seconds the interval would take on a quiet host."""
        inside_lo = bisect.bisect_left(self.starts, start)
        inside_hi = bisect.bisect_left(self.starts, end)
        sampling = sum(self.took[inside_lo:inside_hi])
        lo = bisect.bisect_left(self.starts, start - MARGIN_S)
        hi = bisect.bisect_right(self.starts, end + MARGIN_S)
        nearby = self.took[lo:hi] or self.took
        return (end - start - sampling) * REFERENCE_S / statistics.median(nearby)
