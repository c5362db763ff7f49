"""Timings at a fixed host speed.

On a shared host other tenants slow a vCPU by up to half, for seconds
to minutes at a time, and a slow stretch can cover a whole run: then no
quantile of the run's own samples recovers the quiet level.  So the
benchmark takes readings of a fixed reference workload of its own
between the timed operations, on the same CPU, and reports each sample
at the host speed of a quiet minute:

    sample_s / (slowdown of the readings just before and after it)

A reading's slowdown is its time over the reference's quiet time.  The
reference is benchmark code, not program code: a change to the program
moves a normalised time exactly as it moves the wall time, and only the
host's speed cancels.  Raw wall times stay in provenance.

The reference has two parts, a pure-Python loop over ints and a set and
a numpy peel over a fixed random CSR graph, because a busy host slows
them by different factors: in one slow stretch the loop ran 2.1 times
slower, the peel 1.45 times and the greedy d=4 query on the 200k graph
2.0 times.  ``numpy_share`` weighs the two (a geometric mean) to match
the workload's mix.  On the VM described in ``README.md``:

* ``search_200k`` (numpy share 0.5): over ten runs the per-query medians
  spread 0.21-0.32 raw, 0.06-0.12 normalised by the peel alone,
  0.04-0.07 by the loop alone and 0.03-0.05 by the geometric mean;
* ``serve_read`` (numpy share 0: the serving tier is interpreter work on
  a small graph): over five runs the per-kind medians spread 0.35-0.37
  raw, 0.07-0.08 by the loop alone and 0.14-0.15 by the geometric mean.
"""

import bisect
import statistics
import time

import numpy

# The reference's times in quiet minutes on that VM.
LOOP_MS = 5.0
PEEL_MS = 22.0
LOOP_ITERATIONS = 50_000
PEEL_VERTICES = 200_000


def _loop():
    seen = set()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
        seen.add(i & 1023)
    return total + len(seen)


def _peel(indptr, indices):
    """Three rounds of a 2-core peel over a fixed random CSR graph."""
    alive = numpy.ones(len(indptr) - 1, bool)
    for _ in range(3):
        counts = numpy.add.reduceat(alive[indices].astype(numpy.int32),
                                    indptr[:-1])
        alive &= counts >= 2
    return int(alive.sum())


def _timed(function, *args):
    begin = time.perf_counter()
    function(*args)
    return time.perf_counter() - begin


class HostSpeed:
    """Slowdown readings, and samples normalised by them."""

    def __init__(self, numpy_share):
        self.numpy_share = numpy_share
        if numpy_share:
            rng = numpy.random.default_rng(0)
            degrees = rng.integers(1, 8, size=PEEL_VERTICES)
            indptr = numpy.concatenate(([0], numpy.cumsum(degrees)))
            indices = rng.integers(0, PEEL_VERTICES, size=indptr[-1],
                                   dtype=numpy.int32)
            self.graph = (indptr, indices)
        self.starts = []
        self.ends = []
        self.slowdowns = []

    def read(self):
        """One reading: the loop (median of three runs), then the peel."""
        begin = time.perf_counter()
        loop_ms = statistics.median(_timed(_loop) for _ in range(3)) * 1e3
        slowdown = (loop_ms / LOOP_MS) ** (1 - self.numpy_share)
        if self.numpy_share:
            peel_ms = _timed(_peel, *self.graph) * 1e3
            slowdown *= (peel_ms / PEEL_MS) ** self.numpy_share
        self.starts.append(begin)
        self.ends.append(time.perf_counter())
        self.slowdowns.append(slowdown)

    def normalise(self, begin, end):
        """``end - begin`` seconds at the quiet host speed.

        Uses the mean slowdown of the last reading finished by ``begin``
        and the first one started at or after ``end``; either may be
        missing.
        """
        before = bisect.bisect_right(self.ends, begin) - 1
        after = bisect.bisect_left(self.starts, end)
        picks = [self.slowdowns[index] for index in (before, after)
                 if 0 <= index < len(self.slowdowns)]
        if not picks:
            raise ValueError("no reference reading around the sample")
        return (end - begin) / statistics.fmean(picks)

    def summary(self):
        """Count, median and extremes of the slowdowns, for provenance."""
        if not self.slowdowns:
            return {"readings": 0}
        return {"readings": len(self.slowdowns),
                "median_slowdown": statistics.median(self.slowdowns),
                "min_slowdown": min(self.slowdowns),
                "max_slowdown": max(self.slowdowns)}
