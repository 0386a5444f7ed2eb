"""Bench: the page-access kernel — Machine.touch, touch_write, the VM.

Every execution slice of the scheduler streams its pages through
:meth:`repro.opsys.vm.VirtualMemory.touch_pages` and then
:meth:`repro.hardware.machine.Machine.touch` (or ``touch_write``).
This bench times those entry points in isolation on the default
machine (4 sockets, a 96-page L3 per socket), one batch shape per row,
prints a table for ``benchmarks/results/access_kernel.txt`` and records
how many resident runs the executing socket's L3 holds after each case
(the run-length residency's cost driver: every sub-run scans them).

Rows:

* ``Machine.touch`` on a streamed uniform-home range (all misses), a
  re-read range (all hits), a ``PageSegments`` of four runs, a
  mixed-home run (five home pieces), scattered lists (which fragment
  the L3 into single-page runs), and a range against that fragmented
  L3;
* ``touch_pages`` on mixed-home runs, as runs (bulk) and as a plain
  list (the per-page loop);
* ``touch_write`` with no other socket holding the written pages, and
  with another socket having read them first (every write invalidates).

Host-time assertions carry generous margins: the point is catching a
structural regression (a bulk path falling back to per-page work,
residency that stops merging a streamed range into one run), not 10 %
jitter.
"""

from __future__ import annotations

import itertools
import random
import time

from repro.analysis.report import render_table
from repro.hardware.machine import Machine
from repro.opsys.thread import SimThread
from repro.opsys.vm import VirtualMemory
from repro.opsys.workitem import ListWorkSource
from repro.pages import PageSegments

#: pages in the placed region every case streams from
REGION = 8192
#: pages per batch (a typical execution slice)
BATCH = 40
#: calls timed per case (best of ``REPEATS`` passes)
CALLS = 2000
REPEATS = 3


def _machine(homes) -> Machine:
    """The default machine with ``REGION`` pages placed, page ``p`` on
    node ``homes(p)`` (placed in uniform blocks)."""
    machine = Machine()
    memory = machine.memory
    pages = memory.allocate(REGION)
    start = 0
    while start < REGION:
        stop = start + 1
        while stop < REGION and homes(stop) == homes(start):
            stop += 1
        memory.place_batch(pages[start:stop], homes(start))
        start = stop
    return machine


def _uniform(page: int) -> int:
    return 0


def _mixed(page: int) -> int:
    # five home pieces per BATCH-page run
    return (page // (BATCH // 5)) % 4


def _time(call, batches) -> float:
    """Best wall seconds per call of ``call(batch)`` over ``batches``."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for batch in batches:
            call(batch)
        best = min(best, (time.perf_counter() - start) / len(batches))
    return best


def _streamed(n_calls: int, shape) -> list:
    """``n_calls`` batches walking the region in order."""
    return [shape((i * BATCH) % (REGION - 4 * BATCH))
            for i in range(n_calls)]


def _touch_case(homes, batches):
    """(seconds per call, resident runs after) of Machine.touch from
    core 0.  Each call starts a second after the last, so banks and
    links are idle and a remote piece takes the closed form."""
    machine = _machine(homes)
    clock = itertools.count()
    seconds = _time(
        lambda batch: machine.touch(float(next(clock)), 0, batch), batches)
    return seconds, len(machine.caches[0].resident_runs())


def _fragmentation_case(scatter: bool):
    """(seconds per 8-page range touch, resident runs before it): the
    L3 is refilled before every timed call, with 96 scattered pages or
    with one 96-page run."""
    machine = _machine(_uniform)
    cache = machine.caches[0]
    rng = random.Random(7)
    best = float("inf")
    for i in range(CALLS // 4):
        fill = (rng.sample(range(REGION // 2, REGION), 96) if scatter
                else range(REGION - 96, REGION))
        cache.flush()
        machine.touch(2.0 * i, 0, fill)
        runs = len(cache.resident_runs())
        start = time.perf_counter()
        machine.touch(2.0 * i + 1.0, 0, range(8 * i, 8 * i + 8))
        best = min(best, time.perf_counter() - start)
    return best, runs


def _scattered(n_calls: int) -> list[list[int]]:
    rng = random.Random(4)
    return [rng.sample(range(REGION), 16) for _ in range(n_calls)]


def _vm_case(batches) -> float:
    """Seconds per touch_pages call from node 1 on mixed-home runs."""
    vm = VirtualMemory(_machine(_mixed))
    thread = SimThread(ListWorkSource())
    return _time(lambda batch: vm.touch_pages(batch, 1, thread), batches)


def _write_case(shared: bool):
    """(seconds per touch_write call, pages invalidated per call).

    Core 0 writes streamed ranges while sockets 1–3 hold a dozen runs
    of pages nobody writes; when ``shared``, socket 1 reads every batch
    just before it is written (timed as well, so the shared row is
    read plus write)."""
    machine = _machine(_uniform)
    other_core = machine.topology.cores_of_node(1)[0]
    for socket in (1, 2, 3):
        core = machine.topology.cores_of_node(socket)[0]
        for start in range(REGION - 96, REGION, 8):
            machine.touch(0.0, core, range(start, start + 4))
    clock = itertools.count(1)
    batches = _streamed(CALLS, lambda s: range(s, s + BATCH))

    def call(batch):
        now = float(next(clock))
        if shared:
            machine.touch(now, other_core, batch)
        machine.touch_write(now, 0, batch)

    seconds = _time(call, batches)
    dropped = machine.counters.total("l3_invalidations")
    return seconds, dropped / (REPEATS * len(batches))


def test_access_kernel(record_result):
    ranges = _streamed(CALLS, lambda s: range(s, s + BATCH))
    stream, stream_runs = _touch_case(_uniform, ranges)
    hot = [range(0, BATCH)] * CALLS
    hits, hit_runs = _touch_case(_uniform, hot)
    segments = _streamed(CALLS, lambda s: PageSegments(
        [range(s + k * 2 * BATCH // 4, s + (2 * k + 1) * BATCH // 4)
         for k in range(4)]))
    segmented, segment_runs = _touch_case(_uniform, segments)
    mixed, mixed_runs = _touch_case(_mixed, ranges)
    scattered = _scattered(CALLS)
    lists, list_runs = _touch_case(_uniform, scattered)
    fragmented, fragment_runs = _fragmentation_case(scatter=True)
    compact, compact_runs = _fragmentation_case(scatter=False)
    vm_bulk = _vm_case(ranges)
    vm_loop = _vm_case([list(batch) for batch in ranges])
    write_alone, dropped_alone = _write_case(shared=False)
    write_shared, dropped_shared = _write_case(shared=True)

    def row(name, seconds, pages, runs="-", extra="-"):
        return (name, f"{seconds * 1e6:.2f}", f"{seconds / pages * 1e9:.0f}",
                str(runs), extra)

    rows = [
        row("touch: range, streamed misses", stream, BATCH, stream_runs),
        row("touch: range, all hits", hits, BATCH, hit_runs),
        row("touch: PageSegments, 4 runs", segmented, BATCH, segment_runs),
        row("touch: mixed-home range, 5 homes", mixed, BATCH, mixed_runs),
        row("touch: scattered list, 16 pages", lists, 16, list_runs),
        row("touch: 8 pages vs fragmented L3", fragmented, 8,
            fragment_runs, "runs before"),
        row("touch: 8 pages vs one-run L3", compact, 8, compact_runs,
            "runs before"),
        row("touch_pages: mixed-home runs", vm_bulk, BATCH),
        row("touch_pages: same pages as a list", vm_loop, BATCH),
        row("touch_write: no sharer", write_alone, BATCH, "-",
            f"{dropped_alone:.0f} inval/call"),
        row("touch_write: read on socket 1 first", write_shared, BATCH,
            "-", f"{dropped_shared:.0f} inval/call"),
    ]
    text = render_table(
        ("operation", "us/call", "ns/page", "L3 runs after", "note"),
        rows, title="Page-access kernel, default machine (96-page L3)")
    record_result("access_kernel", text)

    # structural contracts: a streamed range stays one resident run,
    # and scattered lists fragment the L3 (the case a bound on the
    # resident run count would speed up)
    assert stream_runs == 1 and hit_runs == 1
    assert list_runs > 32
    # run-length residency: a range costs far less per page than a
    # scattered list does
    assert stream / BATCH < lists / 16
    # the VM's bulk path beats its per-page loop on mixed-home runs
    assert vm_bulk < vm_loop
    # writes nobody shares cost no more than a read-then-write pair
    assert dropped_alone == 0 and dropped_shared == BATCH
    assert write_alone < write_shared
