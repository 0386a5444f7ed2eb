"""Per-socket shared last-level cache, modelled at page granularity.

The paper's locality effects all flow through the L3: threads that stay on
one socket keep their working set resident; threads migrated by the OS load
balancer arrive at a socket whose L3 does not hold their pages and must pull
everything over the interconnect again (§II-B2, §V-A1).  A page-granular LRU
reproduces exactly that behaviour without simulating cache lines.

Residency is **run-length encoded**: an ordered list of disjoint step-1
page ranges, coldest first, plus a page count.  The concatenation of the
runs *is* the LRU order.  The access path streams page runs, so a hit
cuts a sub-run out of its resident run and appends it at the back, and a
miss drops whole runs (or a run's head) from the front and appends one
run — O(runs) work per sub-run instead of O(pages).  Appending a run
that continues the hottest one merges the two, so a streamed scan stays
one run however many batches it spans.

:meth:`repro.hardware.machine.Machine.touch` inlines the miss half of
this bookkeeping in its batch walk; :meth:`SharedCache.access` is the
one-page form of the same walk.

Private L1/L2 effects are folded into the operators' cycles-per-byte
constants (see :mod:`repro.db.cost`); only the shared L3 is stateful.
"""

from __future__ import annotations

from ..errors import HardwareError
from ..pages import ascending_runs, page_runs


class SharedCache:
    """An LRU set of resident page ids with a fixed page capacity."""

    def __init__(self, capacity_pages: int, socket_id: int = 0):
        if capacity_pages < 1:
            raise HardwareError("cache capacity must be at least one page")
        self.capacity_pages = capacity_pages
        self.socket_id = socket_id
        #: disjoint resident page runs, coldest first; their
        #: concatenation is the LRU order
        self._runs: list[range] = []
        #: resident pages (the runs' total length)
        self._size = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __contains__(self, page: int) -> bool:
        for run in self._runs:
            if page in run:
                return True
        return False

    def __len__(self) -> int:
        return self._size

    def access(self, page: int) -> bool:
        """Touch one page.  Returns ``True`` on hit, ``False`` on miss.

        A miss inserts the page, evicting the least recently used resident
        page when the cache is full.
        """
        for index, run in enumerate(self._runs):
            if page in run:
                self._hit(index, page, page + 1)
                self.hits += 1
                return True
        self.misses += 1
        if self._size >= self.capacity_pages:
            self.evictions += 1
        self._miss(page, page + 1)
        return False

    def access_many(self, pages) -> tuple[int, int]:
        """Touch pages in order; returns ``(hits, misses)``."""
        hits = 0
        for page in pages:
            if self.access(page):
                hits += 1
        return hits, len(pages) - hits

    def _hit(self, index: int, start: int, stop: int) -> None:
        """Move resident pages ``[start, stop)``, all inside run
        ``index``, to the hot end: the run keeps what lies either side."""
        runs = self._runs
        run = runs[index]
        if run.start < start:
            if stop < run.stop:
                runs[index:index + 1] = (range(run.start, start),
                                         range(stop, run.stop))
            else:
                runs[index] = range(run.start, start)
        elif stop < run.stop:
            runs[index] = range(stop, run.stop)
        else:
            del runs[index]
        if runs and runs[-1].stop == start:
            runs[-1] = range(runs[-1].start, stop)
        else:
            runs.append(range(start, stop))

    def _miss(self, start: int, stop: int) -> None:
        """Insert non-resident pages ``[start, stop)`` at the hot end,
        evicting the coldest pages that overflow the capacity."""
        runs = self._runs
        size = self._size
        capacity = self.capacity_pages
        overflow = size + (stop - start) - capacity
        if overflow >= size:
            # the run alone fills the cache: it keeps the last pages
            runs[:] = (range(stop - capacity, stop),)
            self._size = capacity
            return
        if overflow > 0:
            size -= overflow
            while overflow:
                head = runs[0]
                if len(head) <= overflow:
                    overflow -= len(head)
                    del runs[0]
                else:
                    runs[0] = head[overflow:]
                    overflow = 0
        if runs and runs[-1].stop == start:
            runs[-1] = range(runs[-1].start, stop)
        else:
            runs.append(range(start, stop))
        self._size = size + stop - start

    def invalidate(self, pages) -> int:
        """Drop specific pages (e.g. on writer invalidation); returns the
        number of distinct resident pages dropped."""
        runs = self._runs
        if not runs:
            return 0
        victims = page_runs(pages)
        if victims is None:
            victims = ascending_runs(sorted(set(pages)))
        dropped = 0
        for victim in victims:
            lo, hi = victim.start, victim.stop
            for run in runs:
                if run.start < hi and lo < run.stop:
                    break
            else:
                # the common case: cross-socket sharing is rare
                continue
            kept = []
            for run in runs:
                start, stop = run.start, run.stop
                if start < hi and lo < stop:
                    dropped += min(stop, hi) - max(start, lo)
                    if start < lo:
                        kept.append(range(start, lo))
                    if hi < stop:
                        kept.append(range(hi, stop))
                else:
                    kept.append(run)
            runs[:] = kept
        self._size -= dropped
        return dropped

    def flush(self) -> None:
        """Empty the cache."""
        self._runs.clear()
        self._size = 0

    def resident_pages(self) -> list[int]:
        """Resident page ids from coldest to hottest."""
        return [page for run in self._runs for page in run]

    def resident_runs(self) -> list[range]:
        """Resident page runs from coldest to hottest."""
        return list(self._runs)

    @property
    def occupancy(self) -> float:
        """Fraction of capacity currently resident."""
        return self._size / self.capacity_pages

    def hit_ratio(self) -> float:
        """Lifetime hit ratio; 0.0 before any access."""
        accesses = self.hits + self.misses
        return self.hits / accesses if accesses else 0.0
