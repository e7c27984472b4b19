"""Machine-speed reference: keeps co-tenant load out of the timings.

On a shared machine the same work can take 1.5× as long from one few
seconds to the next, and the swing moves run medians by more than any
useful regression bound.  A fixed reference kernel (plain Python
arithmetic and small numpy matrix work, none of it from the program)
slows down with the machine, so the benchmark samples it through a run
(offline after every session, served every 0.5 s from a client-side
thread) and reports every timing at nominal speed::

    reported time = measured time × NOMINAL_S / median(reference samples)

(rates the other way round).  The raw timings and the factor are printed
in the run's info line.  The kernel lives here, so no change to the
program can move it.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

#: Median reference time on an unloaded core of the 2-core x86-64
#: container the benchmark was defined on; a constant, so reported
#: values stay comparable across runs and commits.
NOMINAL_S = 0.013

_MATRIX = np.random.default_rng(0).random((96, 96))


def reference_kernel() -> float:
    """Run the reference work once; its wall time in seconds."""
    started = time.perf_counter()
    total = 0
    for i in range(120_000):
        total += i * i % 7
    product = _MATRIX
    for _ in range(40):
        product = np.sort(_MATRIX @ product, axis=0) / 96.0
    return time.perf_counter() - started


class SpeedMeter:
    """Reference samples of one run, taken inline or from a thread."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = None

    def sample(self) -> None:
        self.samples.append(reference_kernel())

    def factor(self) -> float:
        """Measured slowdown: median reference time ÷ nominal."""
        return statistics.median(self.samples) / NOMINAL_S

    def start_background(self, interval_s: float = 0.5) -> None:
        """Sample every ``interval_s`` on a thread until :meth:`stop`."""

        def loop():
            while not self._stop.wait(interval_s):
                self.sample()

        self._stop.clear()
        self._thread = threading.Thread(target=loop, name="perfbench-speed")
        self._thread.start()

    def stop(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
