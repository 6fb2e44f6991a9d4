"""Processor-speed gauge: wall time scaled to a fixed reference speed.

On a shared VM the speed a process gets drifts by up to 1.8x over seconds,
with the host's other load. Raw wall times then measure that load.
The gauge samples the speed where the work runs, on its own thread: a
SIGALRM timer interrupts the timed work every INTERVAL_S, and the handler
times a fixed reference kernel (benchmark code, no partinv call). Each
stretch of work between two samples is scaled by REF_NOMINAL_S over the
mean of the reference times at its two ends, so the result reads as the
seconds the work would take at the speed where the kernel takes
REF_NOMINAL_S. The kernel's own time is excluded from the work.

The kernel builds, reverses and sorts small tuples: object allocation,
comparison and interpreter dispatch, the mix that dominates the workloads.
Among the kernels tried it tracked all three workloads best.
"""

import signal
from time import perf_counter

#: Time between speed samples.
INTERVAL_S = 0.025
#: Rounds of the reference kernel; about 0.5-0.9 ms on a 2-vCPU Xeon VM.
REF_ROUNDS = 600
#: The reference speed: the kernel takes this long.
REF_NOMINAL_S = 0.0005


def reference_kernel() -> None:
    out = []
    for i in range(REF_ROUNDS):
        t = tuple(range(i % 7 + 3))
        out.append(sorted([t[::-1], t]))
        if len(out) > 64:
            out = []


def kernel_s() -> float:
    """The median time of five runs of the reference kernel: the speed at
    this moment, for work too short for the timer to sample."""
    times = []
    for _ in range(5):
        start = perf_counter()
        reference_kernel()
        times.append(perf_counter() - start)
    return sorted(times)[2]


class SpeedGauge:
    """Context manager around timed work. After it exits, `wall_s` is the
    raw wall time of the work, without the kernel's time, and `scaled_s`
    the same work at the reference speed."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.marks = []  # (kernel start, kernel end) of each sample
        self._busy = False

    def _sample(self, *_) -> None:
        if self._busy:  # a kernel slower than the interval: skip, do not nest
            return
        self._busy = True
        start = perf_counter()
        reference_kernel()
        self.marks.append((start, perf_counter()))
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._sample()
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def wall_s(self) -> float:
        return sum(b[0] - a[1] for a, b in zip(self.marks, self.marks[1:]))

    @property
    def scaled_s(self) -> float:
        total = 0.0
        for a, b in zip(self.marks, self.marks[1:]):
            ref = ((a[1] - a[0]) + (b[1] - b[0])) / 2
            total += (b[0] - a[1]) * REF_NOMINAL_S / ref
        return total
