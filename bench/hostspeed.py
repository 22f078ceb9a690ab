"""Host-speed correction: times in nominal seconds.

The benchmark was set up on a shared 2-vCPU KVM guest (Intel Xeon, 2.1 GHz)
whose speed drifts by up to 1.7x, in phases from under a second to several
minutes, as other tenants load the host.  Over five 50 s runs of the same
code, each scheme's median step time spread by 13-29% and its minimum by
5-51%, so no statistic over a single run is steady.  Every gated time is
therefore corrected by a fixed reference kernel timed right before and after
it.

``NominalClock.mark()`` is called at every boundary the benchmark times
(step entry and exit, pass start and end).  It runs the kernel once, and the
stretch since the previous mark is scaled by ``REF_SECONDS`` over the mean of
the kernel's times at its two ends: a stretch reads what it would take on a
host where the kernel takes ``REF_SECONDS``.  The kernel's own runs are
outside every stretch.  Before scaling, a stretch's wall time loses the
guest's steal time (the hypervisor running other guests while a vCPU of this
one waits; /proc/stat, in 10 ms ticks): it reached 1 s in one 25 s run, and
a 0.4 ms kernel run seldom sees it.  CPU time excludes steal already.

The kernel lives here, not in the package, so a change to the package cannot
alter it; its working set is small, so what the package leaves in the caches
changes its time little.
"""

import os
import time

import numpy as np

# about the kernel's first-quartile time in benchmark runs on the host above
REF_SECONDS = 4.0e-4

_RNG = np.random.default_rng(20080801)
_GRID = _RNG.standard_normal((32, 32))
_MATRIX = _RNG.standard_normal((24, 24)) + 24.0 * np.eye(24)
_RHS = _RNG.standard_normal(24)


def kernel_seconds():
    """Wall time of one run of the reference kernel: a 2-D FFT pair, a small
    dense solve and an interpreted loop, the three kinds of work in a step."""
    start = time.perf_counter()
    np.fft.ifft2(np.fft.fft2(_GRID) * 0.5)
    np.linalg.solve(_MATRIX, _RHS)
    acc = 0.0
    for i in range(3000):
        acc += i * 0.5
    return time.perf_counter() - start


def steal_seconds():
    """The guest's cumulative steal time, or 0 where the system reports none."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


for _ in range(20):      # first calls pay numpy's one-time set-up
    kernel_seconds()


class NominalClock:
    """Nominal wall and CPU seconds accumulated between marks."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.kernel_s = []          # every kernel time, a log of host speed
        self.steal = 0.0            # steal seconds taken out of self.wall
        self._last = None           # (wall, cpu, steal, kernel s) at the previous mark

    def mark(self):
        wall, cpu, steal = time.perf_counter(), time.process_time(), steal_seconds()
        ref = kernel_seconds()
        self.kernel_s.append(ref)
        if self._last is not None:
            wall0, cpu0, steal0, ref0 = self._last
            self.steal += steal - steal0
            self.wall += nominal(wall - wall0 - (steal - steal0), ref0, ref)
            self.cpu += nominal(cpu - cpu0, ref0, ref)
        self._last = (time.perf_counter(), time.process_time(), steal, ref)


def nominal(seconds, ref_before, ref_after):
    """A time measured between two kernel runs, in nominal seconds."""
    return seconds * REF_SECONDS / (0.5 * (ref_before + ref_after))
