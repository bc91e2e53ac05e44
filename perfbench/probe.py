"""Speed probe: how fast the CPU running the workload executes plain Python.

On a shared VM the same pass can take a third longer from one minute to
the next: other guests slow the CPU under the workload for tens of seconds
at a time. Wall time alone then moves between runs by more than the bounds
a change is judged by. While the passes run, a 50 ms interval timer
interrupts the workload's thread, which then times a fixed pure-Python
loop in its own CPU time, on the CPU it is running on. The benchmark
divides a pass's wall time by the median loop time during that pass, giving
``command_rel``: the pass's length in probe loops, which a slow spell
stretches on both sides alike. The loop costs about 2 % of the wall time,
the same share on every side of a comparison.

Python runs signal handlers in the main thread between bytecodes, and it
retries system calls a signal interrupts (PEP 475), so the workload's own
work is delayed, never changed.
"""
from __future__ import annotations

import signal
import statistics
import time

LOOP = 10_000
INTERVAL_S = 0.05


class Probe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum, frame) -> None:
        started = time.thread_time()
        x = 0
        for i in range(LOOP):
            x += i * i
        self.samples.append((time.perf_counter(), time.thread_time() - started))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def loop_s(self, start: float, end: float) -> float:
        """Median loop time of the samples taken between two
        ``time.perf_counter()`` readings."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if not inside:
            raise RuntimeError(f"no probe samples between {start} and {end}")
        return statistics.median(inside)
