"""Host-speed sampler: what the benchmark's seconds are measured against.

The sandbox this benchmark runs in shares its caches and memory bus with
other tenants; the same operation was seen to take 3.5 s and 6.2 s ten
minutes apart, CPU time tracking wall clock, so neither repetition nor
CPU time removes it.  A thread therefore times a fixed slice of
interpreter work (the *kernel*: dictionary updates, tuple and string
allocation, a sort, and byte reads scattered over an 8 MB buffer) every
``INTERVAL`` seconds beside everything the benchmark times, and every
reported time is scaled to the speed at which that slice takes
``NOMINAL_SLICE_MS``.  On three of the workloads, 27 operations each over
seven minutes, the interquartile range of the wall clock fell from
21-36 % of the median to 3-6 % (see README.md, "Host drift").

The kernel shares no code with ``repro``, so no change to the program
can speed it up; its duty cycle (about 2 % of one core) is part of every
measurement on both sides of a comparison.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Tuple

#: Seconds between two slices.
INTERVAL = 0.2
#: The slice time all reported seconds are scaled to: what the kernel
#: takes on the reference box when its neighbours are quiet.
NOMINAL_SLICE_MS = 4.0
#: A timed interval is judged by the slices from this long before it
#: starts to this long after it ends, so that even a 0.1 s operation is
#: scaled by several slices.
PAD = 0.6


class Kernel:
    """A fixed amount of interpreter work, sensitive to what slows the
    workloads down: cache and memory contention, not just clock rate."""

    STEPS = 6000
    MEGABYTES = 8

    def __init__(self):
        # Real pages, not the shared zero page: the reads must miss.
        self.buffer = bytes(range(256)) * (self.MEGABYTES << 12)
        self.position = 1

    def slice(self) -> None:
        buffer, mask, i = self.buffer, len(self.buffer) - 1, self.position
        counts: dict = {}
        chain = None
        for n in range(self.STEPS):
            # A full-period walk over the buffer, no two runs of a
            # slice reading the same cache lines.
            i = (i * 1103515245 + 12345) & mask
            byte = buffer[i]
            key = (byte, n & 7)
            # Allocation churn: 63 linked tuples, then all freed at once.
            chain = (key, chain) if n & 63 else None
            counts[key] = counts.get(key, 0) + byte
            if not n & 15:
                label = "f%d" % byte
                counts[label] = counts.get(label, 0) + len(label)
        sorted(counts.items(), key=str)
        self.position = i


class Sampler:
    """Runs a kernel slice every ``INTERVAL`` seconds on a thread of its
    own, from ``start()`` to ``stop()``, and remembers when each ran and
    how much CPU it took (thread CPU time: being descheduled is not the
    slowdown in question, running slower is)."""

    def __init__(self):
        self.kernel = Kernel()
        #: (perf_counter when the slice ended, its CPU seconds).
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="hostspeed", daemon=True
        )

    def _sample(self) -> None:
        t0 = time.thread_time()
        self.kernel.slice()
        elapsed = time.thread_time() - t0
        self.samples.append((time.perf_counter(), elapsed))

    def _loop(self) -> None:
        self._sample()
        while not self._stop.wait(INTERVAL):
            self._sample()
        self._sample()

    def start(self) -> None:
        # The first slices fault the buffer in and fill the caches; they
        # say nothing about the host.
        for _ in range(3):
            self.kernel.slice()
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def slice_ms(self, start: float, end: float) -> float:
        """Milliseconds a slice took around ``[start, end]``: the mean
        over the padded interval, without the fastest and the slowest
        slice when there are five or more (one cold or pre-empted slice
        should not move the scale).  If the sampler was starved for the
        whole interval, the nearest slice stands in."""
        inside = sorted(
            seconds
            for when, seconds in self.samples
            if start - PAD <= when <= end + PAD
        )
        if not inside:
            inside = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        if len(inside) >= 5:
            inside = inside[1:-1]
        return statistics.fmean(inside) * 1e3
