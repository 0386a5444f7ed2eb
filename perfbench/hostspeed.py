"""Host speed sampler: puts host-time metrics on one scale.

The virtual machines this benchmark runs on change speed both in
regimes that last minutes and from one second to the next: the same
serial sweep took 8.6 s per iteration for one stretch of runs and
4.8 s a quarter of an hour later, with CPU time tracking wall time
throughout, and consecutive half-second probes differ by up to 60 %.
No averaging inside a 30-second run removes that, so every host-time
metric is divided by the host's *slowdown*: how long a fixed slice of
work took while the run was measured, over its time on the reference
host (:data:`REFERENCE_S`).

The slice is fixed pure-Python work in the simulator's style —
attribute reads and writes on slotted objects, method calls, dict
updates, float arithmetic and a periodic sort — and imports nothing
from the program, so a change to the program can never move it.  A
:class:`Sampler` runs one slice every :data:`INTERVAL_S` of wall time
from a ``SIGALRM`` handler, inside the measured work, so its samples
cover the same seconds as the program's; it times each slice in the
main thread's CPU seconds, so a slice that waits for a core the
program's own workers hold is not read as a slow host.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

#: mean slice CPU seconds on the reference host (a 2-vCPU VM, Python
#: 3.11, sampled inside benchmark runs); it sets the scale of the
#: normalised metrics, never their ratios between two commits
REFERENCE_S = 0.0045
#: wall seconds between two slices
INTERVAL_S = 0.2
#: loop steps per slice
STEPS = 20_000


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float):
        self.key = key
        self.value = value

    def step(self, x: int) -> float:
        self.value = self.value * 0.5 + x
        return self.value


def _slice() -> None:
    cells = [_Cell(i, float(i)) for i in range(1024)]
    table: dict[int, float] = {}
    total = 0.0
    for i in range(STEPS):
        cell = cells[(i * 7919) & 1023]
        total += cell.step(i & 31)
        table[cell.key] = total
        if i & 1023 == 0:
            keep = sorted(table, key=table.__getitem__)[-256:]
            table = {key: table[key] for key in keep}


class Sampler:
    """Time one slice every :data:`INTERVAL_S` while active.

    Use as a context manager around measured work; the work must run in
    the main thread.  ``spent_s`` and ``spent_cpu_s`` are the wall and
    CPU seconds the slices took, for the caller to take out of its own
    measurements.
    """

    def __init__(self) -> None:
        #: CPU seconds of each slice, in order
        self.slices: list[float] = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self._previous = None

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        wall = time.perf_counter()
        cpu = time.thread_time()
        # a collection started by the slice's allocations would traverse
        # the program's heap and be timed as host speed
        enabled = gc.isenabled()
        gc.disable()
        _slice()
        if enabled:
            gc.enable()
        took = time.thread_time() - cpu
        self.slices.append(took)
        self.spent_cpu_s += took
        self.spent_s += time.perf_counter() - wall

    def slowdown(self) -> float:
        """Mean slice time over the reference host's."""
        return statistics.fmean(self.slices) / REFERENCE_S
