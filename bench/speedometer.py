"""The calibration kernel, run between and during operations.

Timings on a shared machine drift by tens of percent within seconds, and
the drift moves a fixed integer loop and the program alike.  So every
process that runs program operations also runs ``calibration_kernel``:
once before and once after each operation, and every ``PERIOD_S`` of wall
time during it (from a SIGALRM handler, which Python runs between
bytecodes of the main thread).  An operation's time in kernel units
("ref") is its busy time divided by the median kernel duration measured
before, during and after it; the time spent in the kernel is not counted
as busy time.

The kernel uses integers only and allocates nothing the garbage collector
tracks, so the program's heap cannot slow it.  It never changes: a change
to it would change the unit of every ``wall_ref`` figure.
"""

import signal
from time import perf_counter

KERNEL_STEPS = 10_000
KERNEL_RESULT = 248475197
PERIOD_S = 0.05


def calibration_kernel() -> int:
    x = 1
    for i in range(KERNEL_STEPS):
        x = (x * 48271 + i) % 2147483647
    return x


class Speedometer:
    """Kernel samples of one process, as (start, duration) pairs."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._in_kernel = False

    def sample(self) -> None:
        if self._in_kernel:
            return
        self._in_kernel = True
        start = perf_counter()
        value = calibration_kernel()
        self.durations.append(perf_counter() - start)
        self.starts.append(start)
        self._in_kernel = False
        if value != KERNEL_RESULT:
            raise RuntimeError("the calibration kernel gave a different result")

    def _tick(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, start: float, end: float, before: int) -> tuple[float, float]:
        """(busy seconds, ref) of the interval [start, end].

        ``before`` is the number of samples taken before ``start``.  The
        interval is cut at each kernel sample taken during it; every piece
        is divided by the mean duration of the two samples around it (the
        last one before the interval, those during it, the first after).
        """
        starts = self.starts[before:]
        durations = self.durations[before - 1 :]
        busy = ref = 0.0
        piece_start = start
        for i, s in enumerate(starts):
            piece_end = min(s, end)
            piece = max(piece_end - piece_start, 0.0)
            busy += piece
            ref += piece / ((durations[i] + durations[i + 1]) / 2)
            if s >= end:
                break
            piece_start = max(start, s + durations[i + 1])
        return busy, ref
