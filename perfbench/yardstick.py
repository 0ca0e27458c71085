"""Times in reference seconds: CPU time scaled by the host's speed during it.

Other tenants of a shared host slow this process through the hardware they
share with it: by up to 2× in CPU time for seconds at a time, and by up to
1.5× in the fastest tenth of a whole 35 s run, so no statistic over one
run's samples removes it. So a fixed kernel (small NumPy operations in a
Python loop, then a BLAS matrix product; none of it stutterkit code) runs
at both ends of every timed sample and, when sampling is on, from a SIGPROF
handler every SAMPLE_EVERY_S of CPU time inside it. Its CPU time follows
the host's speed. A sample's CPU time, less the kernel's, is scaled by
REFERENCE_S ÷ the kernel's mean time over the sample: the time the sample
would have taken with the host as fast as when the kernel took REFERENCE_S.

CPU time is user + system time of this process. BLAS runs on one thread,
so that is the time the program spent computing; time the process sat
descheduled, behind other processes or the hypervisor (steal time, which
this clock leaves out), is not counted.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# The kernel's CPU time with the host at its fastest, on a 2-vCPU Intel Xeon
# VM (Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread): the 10th
# percentile of 2000 runs of a form of the kernel that allocated the matrix
# product's result. Writing it into `_P` instead changed the time by 0.2%
# (median ratio over 1000 interleaved pairs). It only sets the scale: on
# another host the times are those of a host whose kernel takes this long.
REFERENCE_S = 0.0077
# A train-paper epoch lasts seconds and the host's speed changes within it.
SAMPLE_EVERY_S = 0.25

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((32, 96)).astype(np.float32)
_B = _rng.standard_normal((96, 32)).astype(np.float32)
_M = _rng.standard_normal((256, 256)).astype(np.float32)
# The product is written here: a 256 KB result allocated inside a sample
# would move where the program's own arrays land in the heap, and its peak
# RSS. The small operations allocate, as the program's Python-level code
# does; their time follows the host's speed the way that code's does.
_P = np.empty_like(_M)


def kernel_seconds() -> float:
    """CPU seconds of one run of the fixed kernel."""
    t0 = time.process_time()
    for _ in range(600):
        c = _A @ _B
        np.maximum(c + 1.0, 0.0, out=c)
        c.sum()
    for _ in range(16):
        np.matmul(_M, _M, out=_P)
    return time.process_time() - t0


class Stopwatch:
    """Timed samples in reference seconds.

    With `sample` the kernel also runs inside samples, from a SIGPROF
    handler; Python retries system calls the signal interrupts. `close`
    stops the timer.
    """

    def __init__(self, sample: bool):
        self.kernels: list[float] = []
        self._busy = True  # the handler does nothing while this is set
        if sample:
            signal.signal(signal.SIGPROF, self._on_timer)
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.start()

    def close(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def _kernel(self) -> float:
        k = kernel_seconds()
        self.kernels.append(k)
        return k

    def _on_timer(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.process_time()
        self._inside.append(self._kernel())
        self._excluded += time.process_time() - t0
        self._busy = False

    def _open(self, before: float):
        self._before, self._inside, self._excluded = before, [], 0.0
        self._t0 = time.process_time()
        self._busy = False

    def start(self):
        """Begin a sample here, after a run of the kernel."""
        self._busy = True
        self._open(self._kernel())

    def lap(self) -> float:
        """End the sample begun by the last `start` or `lap` and begin the next.

        Returns the sample's CPU time in reference seconds. The kernel's
        mean weighs each run by the share of the sample it stands for.
        """
        self._busy = True
        cpu = time.process_time() - self._t0 - self._excluded
        after = self._kernel()
        mean = (self._before / 2 + sum(self._inside) + after / 2) / (len(self._inside) + 1)
        self._open(after)
        return cpu * REFERENCE_S / mean

    def slowdown(self) -> float:
        """Median kernel time ÷ REFERENCE_S over every run of the kernel."""
        return statistics.median(self.kernels) / REFERENCE_S
