"""Calibrated wall-clock timing and the order statistics the benchmark reports.

The machines this benchmark runs on share cores with other tenants, and
their speed switches between a fast and a ~1.8x slower state many times a
minute, often in the middle of a timed step.  While :func:`sampling` is
active, ``SIGALRM`` fires every :data:`PERIOD_S` and its handler times a
fixed pure-Python micro-kernel, so the machine's speed is sampled all
through each step.  A :class:`Stopwatch` step is then rescaled to the speed
at which the micro-kernel takes :data:`REF_CAL_NS`:
``calibrated = raw * REF_CAL_NS / mean(kernel times sampled in the step)``.
The samples are evenly spaced in time, so their mean weights each speed by
how long the step ran at it, also in a step that straddles a switch.
Calibrated times are reported in ordinary units (s, ms); they read as wall
times on a machine running at the reference speed.  Every lap also keeps
its raw wall time, so the correction can be audited.  The handler's own
time is left out of raw and calibrated times alike, and of every span
``layers.py`` records; the garbage collector is off while the handler
runs, so a collection of the program's heap is never charged to it.
"""

import collections
import contextlib
import gc
import heapq
import math
import signal
import time

#: The micro-kernel's time at the fast, uncontended speed of the 2-CPU
#: machine the benchmark was written on.
REF_CAL_NS = 220_000
PERIOD_S = 0.01

#: Kernel times sampled by the active :func:`sampling` block.  SIGALRM and
#: the interval timer belong to the whole process, so there is at most one.
_samples = None
#: Nanoseconds spent in the sampling handler so far.
_handler_ns = 0


def _kernel():
    # Heap, dict and float work, like the simulator's event loop.
    heap, counts, acc = [], {}, 0.0
    for i in range(300):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        if len(heap) > 32:
            heapq.heappop(heap)
        key = i & 255
        counts[key] = counts.get(key, 0) + 1
        acc += math.sqrt(i) * 0.5
    return acc


def _sample(signum, frame):
    global _handler_ns
    start = time.perf_counter_ns()
    collecting = gc.isenabled()
    gc.disable()
    begin = time.perf_counter_ns()
    _kernel()
    _samples.append(time.perf_counter_ns() - begin)
    if collecting:
        gc.enable()
    _handler_ns += time.perf_counter_ns() - start


def handler_ns():
    """Nanoseconds the speed sampler has spent in its handler so far."""
    return _handler_ns


@contextlib.contextmanager
def sampling():
    """Sample the machine's speed for the stopwatches run inside the block."""
    global _samples
    if _samples is not None:
        raise RuntimeError("speed sampling is already active")
    _samples = []
    previous = signal.signal(signal.SIGALRM, _sample)
    # Restart interrupted system calls (sqlite, pipes) instead of failing.
    signal.siginterrupt(signal.SIGALRM, False)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        _samples = None


#: One step of a :class:`Stopwatch`: calibrated and raw nanoseconds.
Lap = collections.namedtuple("Lap", "ns raw_ns")


class Stopwatch:
    """Times consecutive steps in calibrated and raw nanoseconds.

    Outside :func:`sampling` there are no speed samples and calibrated
    times equal raw ones.
    """

    def __init__(self):
        self._seen = len(_samples) if _samples else 0
        self._speed = _samples[-1] if _samples else REF_CAL_NS
        self._handled = _handler_ns
        self._start = time.perf_counter_ns()

    def lap(self):
        """End the running step and start the next; returns its :data:`Lap`."""
        raw = time.perf_counter_ns() - self._start
        raw -= _handler_ns - self._handled
        if _samples is not None:
            fresh = _samples[self._seen:]
            self._seen += len(fresh)
            if fresh:
                self._speed = sum(fresh) / len(fresh)
            # A step shorter than a sampling period keeps the last speed.
        self._handled = _handler_ns
        self._start = time.perf_counter_ns()
        return Lap(raw * REF_CAL_NS / self._speed, raw)


def tail(samples):
    """The highest sample with at least ten samples beyond it.

    Returns ``(value, percentile)``.  With ten samples or fewer no sample
    qualifies, and the maximum is returned at percentile 100.
    """
    ordered = sorted(samples)
    if not ordered:
        return 0.0, 0.0
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n


def median(samples):
    """The median, or 0.0 for no samples (a layer the pass never entered)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0
    middle = n // 2
    if n % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2
