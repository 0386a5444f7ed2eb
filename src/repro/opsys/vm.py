"""Virtual-memory layer: first-touch placement and minor-fault accounting.

The paper leans on two kernel behaviours (§II-A/B):

* **first touch** — the node-local policy places a page on the node of the
  core that touches it first, raising a *minor page fault*;
* **remote access** — when a thread on a *different* node later maps the same
  page, another minor fault is raised and the data moves over the
  interconnect; the paper uses the minor-fault rate as its data-movement
  signal (Fig 4b).

This module implements both, and feeds each thread's per-node residency
histogram (the adaptive mode's raw material).

The per-page "which nodes mapped this" state is a dense ``bytearray``
bitmask indexed by page id (bit ``n`` = node ``n``), mirroring the dense
home map in :mod:`repro.hardware.memory`.  The hot
:meth:`VirtualMemory.touch_pages` call — one per execution chunk —
takes the batch's contiguous runs from :func:`repro.pages.page_runs`
and resolves each one on its own: fault detection runs as one
``bytes.translate`` + ``count`` over the bitmask slice, a uniform-home
run resolves placement and the residency histogram in O(1), and a
mixed-home run of placed pages builds the histogram from its
uniform-home pieces.  Mixed runs holding an unplaced page, runs outside
the allocated page space, scattered batches and batches below
:data:`~repro.pages.VECTOR_MIN_PAGES` take the per-page path with
identical semantics.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..errors import HardwareError
from ..hardware.machine import Machine
from ..hardware.memory import (UNPLACED, UNPLACED_PATTERN as
                               _UNPLACED_PATTERN, home_run, home_runs)
from ..pages import VECTOR_MIN_PAGES, page_runs
from .thread import SimThread


class VirtualMemory:
    """First-touch policy and fault counters on top of the machine.

    When ``numa_balancing`` is enabled (Linux AutoNUMA), pages that are
    accessed from the same remote node several batches in a row are
    migrated to that node; the mover pays the interconnect transfer and
    a kernel cost, and the page's old cache residency is invalidated.
    """

    def __init__(self, machine: Machine, numa_balancing: bool = False,
                 migration_streak: int = 3):
        self.machine = machine
        self.counters = machine.counters
        self._f_minor = machine.counters.family("minor_faults")
        self.numa_balancing = numa_balancing
        self.migration_streak = migration_streak
        # page -> bitmask of nodes that have already mapped it, dense
        # by page id (grown on demand to cover the allocated space)
        self._mapped = bytearray(1024)
        # per-node byte-translation tables, indexed by node: the seen
        # probe maps a bitmask byte to 1 when the node's bit is set (so
        # translate+count counts already-mapped pages in C), the bit-set
        # table maps it to the same byte with the node's bit ored in
        self._seen_tables = tuple(
            bytes(1 if b & (1 << node) else 0 for b in range(256))
            for node in machine.topology.all_nodes())
        self._set_tables = tuple(
            bytes(b | (1 << node) for b in range(256))
            for node in machine.topology.all_nodes())
        # AutoNUMA bookkeeping: page -> (last remote accessor, streak)
        self._remote_streak: dict[int, tuple[int, int]] = {}

    def _mapped_span(self, stop: int) -> bytearray:
        """The mapping bitmask, grown to cover page ids below ``stop``."""
        mapped = self._mapped
        if stop > len(mapped):
            capacity = len(mapped)
            while capacity < stop:
                capacity *= 2
            mapped.extend(bytes(capacity - len(mapped)))
        return mapped

    def touch_pages(self, pages: Sequence[int], node: int,
                    thread: SimThread | None = None) -> int:
        """Prepare ``pages`` for access from ``node``.

        Unplaced pages are first-touched (placed on ``node``); already-placed
        pages seen from a new node raise a remote-access minor fault.  The
        number of minor faults raised is returned and counted per node.
        """
        memory = self.machine.memory
        runs = (page_runs(pages)
                if (len(pages) >= VECTOR_MIN_PAGES
                    and 0 <= node < self.machine.topology.n_sockets)
                else None)
        if runs is None:
            faults = self._touch_each(pages, node, thread, memory)
        else:
            # each contiguous run takes the bulk path on its own (mapping
            # state commits run by run, so a page shared between runs
            # still faults at most once)
            faults = 0
            for run in runs:
                faults += self._touch_range(run, node, thread, memory)
        if faults:
            self._f_minor.add(node, faults)
        if self.numa_balancing:
            self._autonuma(pages, node)
        return faults

    def _touch_range(self, pages: range, node: int,
                     thread: SimThread | None, memory) -> int:
        """Bulk path for one contiguous allocated range.

        Fault detection and the mapping update are one ``translate`` +
        ``count`` over the run's bitmask slice, whatever the homes.  A
        *uniform* home-map run (one ``bytes`` comparison) resolves
        placement and the residency histogram in O(1); a mixed-home run
        of placed pages builds the histogram from its
        :func:`~repro.hardware.memory.home_runs` pieces, in first-seen
        order as the per-page loop would.  Mixed runs holding an
        unplaced page and runs outside the allocated page space fall
        back to the per-page loop unchanged.
        """
        start, stop = pages.start, pages.stop
        if not (0 <= start and stop <= memory._next_page):
            return self._touch_each(pages, node, thread, memory)
        n = stop - start
        home_arr = memory._home
        span_bytes = home_arr[start:stop].tobytes()
        pieces = None
        if span_bytes != span_bytes[:2] * n:
            pieces = home_runs(home_arr, pages)
            for home, _ in pieces:
                if home == UNPLACED:
                    # mixed span with pages to first-touch: per-page
                    # semantics (the caller adds the returned faults)
                    return self._touch_each(pages, node, thread, memory)
        mapped = self._mapped
        if stop > len(mapped):
            mapped = self._mapped_span(stop)
        segment = mapped[start:stop]
        faults = n - segment.translate(self._seen_tables[node]).count(1)
        unplaced = pieces is None and span_bytes[:2] == _UNPLACED_PATTERN
        if faults:
            if unplaced:
                # uniform-unplaced implies nothing mapped it yet: the
                # whole range first-touches onto ``node`` in one store
                if (memory._pages_per_node[node] + n
                        > memory.bank_pages):
                    raise HardwareError(
                        f"memory bank of node {node} is full")
                home_arr[start:stop] = home_run(node, n)
                memory._pages_per_node[node] += n
            mapped[start:stop] = segment.translate(self._set_tables[node])
        elif unplaced:
            # a mapped yet unplaced range adds nothing to the histogram
            return faults
        if thread is not None:
            if pieces is None:
                thread.note_pages(home_arr[start], n)
            else:
                histogram: dict[int, int] = {}
                for home, piece in pieces:
                    histogram[home] = histogram.get(home, 0) + len(piece)
                for home, count in histogram.items():
                    thread.note_pages(home, count)
        return faults

    def _touch_each(self, pages: Sequence[int], node: int,
                    thread: SimThread | None, memory) -> int:
        """Per-page path for arbitrary page sequences.

        One pass: fault detection and the residency histogram share the
        loop.  A page queued for first-touch placement is counted under
        ``node`` directly — that is the home :meth:`place_batch` assigns
        it right after the loop — and a mapped page always has a home
        (placement happens on the very first touch), so reading homes
        mid-batch equals reading them after the batch commits.
        """
        top = max(pages, default=-1) + 1
        mapped = self._mapped_span(max(top, memory._next_page))
        n_mapped = len(mapped)
        home_arr = memory._home
        next_page = memory._next_page
        mask = 1 << node
        faults = 0
        to_place: list[int] = []
        histogram: dict[int, int] = {}
        hist_get = histogram.get
        count_pages = thread is not None
        for page in pages:
            if 0 <= page < next_page:
                # allocated page: ``mapped`` covers it (grown above), so
                # the bitmask index needs no second bounds check
                seen = mapped[page]
                if not seen & mask:
                    mapped[page] = seen | mask
                    faults += 1
                    if home_arr[page] == UNPLACED:
                        to_place.append(page)
                if count_pages:
                    home = home_arr[page]
                    if home == UNPLACED:
                        # queued above (or by an earlier occurrence in
                        # this batch): lands on ``node`` at the flush
                        home = node
                    histogram[home] = hist_get(home, 0) + 1
            else:
                # never-allocated id: still raises a fault and queues,
                # so place_batch rejects it exactly as place() would
                in_range = 0 <= page < n_mapped
                seen = mapped[page] if in_range else 0
                if not seen & mask:
                    if in_range:
                        mapped[page] = seen | mask
                    faults += 1
                    to_place.append(page)
        if to_place:
            # first-touch placements flush in one batch (only first
            # occurrences queue, so the batch is duplicate-free)
            memory.place_batch(to_place, node)
        for home, count in histogram.items():
            thread.note_pages(home, count)
        return faults

    def _autonuma(self, pages: Sequence[int], node: int) -> None:
        """AutoNUMA: migrate pages hot on a remote node toward it."""
        memory = self.machine.memory
        streaks = self._remote_streak
        for page in pages:
            home = memory.home(page)
            if home == node:
                streaks.pop(page, None)
                continue
            last, streak = streaks.get(page, (node, 0))
            streak = streak + 1 if last == node else 1
            if streak >= self.migration_streak:
                self.migrate_page(page, node)
                streaks.pop(page, None)
            else:
                streaks[page] = (node, streak)

    def migrate_page(self, page: int, node: int) -> None:
        """Move one page to ``node``: re-home it, invalidate caches,
        count the traffic and the migration."""
        memory = self.machine.memory
        old_home = memory.home(page)
        if old_home == node:
            return
        memory.free([page])
        memory.place(page, node)
        # the page's contents cross the fabric once (the kernel moves it
        # in the background, so no requester stall is charged)
        self.counters.add("ht_tx_bytes", old_home, memory.page_bytes)
        for cache in self.machine.caches:
            cache.invalidate([page])
        self.counters.increment("numa_page_migrations", node)
        # remote mappings are stale after the move
        self._mapped_span(page + 1)[page] = 1 << node

    def forget(self, pages: Sequence[int]) -> None:
        """Drop mapping state and free the pages (intermediates released)."""
        runs = page_runs(pages)
        if runs is None:
            mapped = self._mapped
            n = len(mapped)
            for page in pages:
                if 0 <= page < n:
                    mapped[page] = 0
            self.machine.memory.free(pages)
            return
        for run in runs:
            stop = min(run.stop, len(self._mapped))
            begin = max(run.start, 0)
            if begin < stop:
                self._mapped[begin:stop] = bytes(stop - begin)
            self.machine.memory.free(run)

    def nodes_mapping(self, page: int) -> list[int]:
        """Which nodes have mapped ``page`` so far."""
        seen = (self._mapped[page]
                if 0 <= page < len(self._mapped) else 0)
        return [n for n in self.machine.topology.all_nodes()
                if seen & (1 << n)]

    def total_minor_faults(self) -> float:
        """Cumulative minor faults across all nodes."""
        return self.counters.total("minor_faults")
