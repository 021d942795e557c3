"""Host-speed sampling, so that timings hold steady on a shared CPU.

On a shared virtual machine the speed a process gets swings by up to
2x from one fraction of a second to the next, as other tenants load the
physical cores, and the share of slow time drifts over minutes.  No
statistic of a run's own timings removes that drift: the fastest pass,
or each unit's fastest time, is itself slower in a slow minute.

So the benchmark measures the host's speed while the workload runs.  A
one-shot timer fires after a random delay of 0.5 to 1.5 PERIOD_S of
wall time, and its handler runs one fixed calibration chunk in the main
thread, between two bytecodes of whatever gcx is doing, then re-arms
the timer.  The random delays keep the samples from locking onto a
periodic load of the host.  Each chunk's duration samples the
speed the work gets at that moment, on the CPU it runs on; their mean
over the passes of a run measures the run's average slowdown against
REFERENCE_S.  Timings divided by that slowdown are expressed at the
reference host speed.  The chunks never count as work: ``clock`` is a
wall clock that stops while the handler runs.
"""

import gc
import random
import signal
import statistics
import time
from array import array

import numpy as np

PERIOD_S = 0.02
# mean duration of one sampled chunk at the reference host speed, about
# this machine's typical speed when the benchmark was written
REFERENCE_S = 3.0e-4

_ROUNDS = 15
_IDX = np.array([0, 3, 5, 6, 9, 10, 12, 15, 3, 5])
_MAT = np.arange(64, dtype=complex).reshape(16, 4) / 7.0
_VEC = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)


def chunk() -> float:
    """A fixed mix of small-array numpy calls and dict updates, like gcx's per-point work."""
    acc = 0.0
    table = {}
    for i in range(_ROUNDS):
        a = np.zeros(16, dtype=complex)
        np.add.at(a, _IDX, _MAT[:10, 0] * (i + 1))
        b = np.einsum("ij,j->i", _MAT, _VEC)
        c = np.outer(_VEC, _VEC)
        acc += float(np.abs(a + b).max()) + (c + c.T)[1, 2].real
        table[i % 7] = table.get(i % 7, 0) + i
    return acc + len(table)


class HostSpeed:
    """Context manager that samples the host speed while it is active."""

    def __init__(self):
        self.samples = array("d")
        self._spent = 0.0
        self._previous = None
        self._delays = random.Random(0)
        self._active = False

    def clock(self) -> float:
        """Wall-clock seconds, excluding the time spent in calibration chunks."""
        while True:
            spent = self._spent
            now = time.perf_counter()
            if spent == self._spent:  # no chunk ran in between
                return now - spent

    def _sample(self, signum, frame) -> None:
        # a garbage collection that the work's allocations have made due
        # belongs to the work: it must neither slow the sample nor leave
        # the work's clock
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        chunk()
        took = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.samples.append(took)
        self._spent += took
        if self._active:
            self._arm()

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self._delays.uniform(0.5, 1.5) * PERIOD_S)

    def __enter__(self) -> "HostSpeed":
        chunk()  # numpy's first-call costs must not count as a slow host
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._active = True
        self._arm()
        return self

    def __exit__(self, *exc) -> None:
        self._active = False  # a sample running now must not re-arm the timer
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, spans) -> float:
        """Mean chunk time sampled in the (lo, hi) index ranges of ``samples``, over REFERENCE_S."""
        window = [x for lo, hi in spans for x in self.samples[lo:hi]]
        if not window:
            raise RuntimeError("no host-speed samples were taken; the passes are too short")
        return statistics.fmean(window) / REFERENCE_S
