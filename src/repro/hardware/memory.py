"""Per-node memory banks and the global page space.

Pages are identified by dense global integers handed out by
:meth:`MemorySystem.allocate`.  A page has no *home node* until it is
**placed** — placement is the hardware half of the OS first-touch policy
(:mod:`repro.opsys.vm` decides *where*, this module records it and tracks
bank occupancy).

The home map is a dense ``array('h')`` indexed by page id (pages are
dense by construction), with :data:`UNPLACED` as the sentinel.  Batch
operations on contiguous page ranges — the common case, since
allocations are ranges — run as slice stores and one-``bytes``
uniformity probes, while per-page reads stay plain C-speed integer
indexing (a numpy home map would make every scalar probe in the touch
hot loops allocate a numpy scalar, several times the cost of the
lookup itself), and a snapshot pickles one buffer instead of one dict
entry per page.

The per-node byte counters written during accesses (``imc_bytes``) live in
the shared :class:`~repro.hardware.counters.CounterBank`, wired in by
:class:`~repro.hardware.machine.Machine`.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from itertools import groupby

from ..errors import HardwareError
from .topology import Topology

UNPLACED = -1

#: initial home-map capacity in pages; grown by doubling on allocate
_INITIAL_CAPACITY = 1024

#: one :data:`UNPLACED` cell in the home map's native byte order; what
#: an unplaced run looks like through ``tobytes()``
UNPLACED_PATTERN = array("h", [UNPLACED]).tobytes()


def home_run(node: int, n: int) -> array:
    """An ``array('h')`` of ``n`` cells all set to ``node`` (slice fill)."""
    return array("h", [node]) * n


def home_runs(homes: array, run: range) -> list[tuple[int, range]]:
    """Split a contiguous allocated ``run`` into uniform-home pieces.

    Returns ``(home, pages)`` pairs in page order, each ``pages`` the
    longest sub-range whose pages all share ``home`` in the home map
    ``homes`` (:data:`UNPLACED` included).  A uniform run is detected
    with one ``bytes`` comparison; a mixed one is grouped in C.
    """
    span = homes[run.start:run.stop]
    span_bytes = span.tobytes()
    if span_bytes == span_bytes[:2] * len(span):
        return [(span[0], run)] if span else []
    pieces = []
    start = run.start
    for node, group in groupby(span):
        stop = start + len(list(group))
        pieces.append((node, range(start, stop)))
        start = stop
    return pieces


class MemorySystem:
    """Page-space bookkeeping for every memory bank of the machine."""

    def __init__(self, topology: Topology):
        self.topology = topology
        self.page_bytes = topology.config.page_bytes
        self.bank_pages = topology.config.dram_bytes // self.page_bytes
        self._next_page = 0
        #: home node per page id, :data:`UNPLACED` until first touch;
        #: sized to capacity, valid through ``_next_page``
        self._home = home_run(UNPLACED, _INITIAL_CAPACITY)
        self._pages_per_node = [0] * topology.n_sockets

    def allocate(self, n_pages: int) -> range:
        """Reserve ``n_pages`` fresh, unplaced page ids."""
        if n_pages < 0:
            raise HardwareError("cannot allocate a negative page count")
        start = self._next_page
        self._next_page += n_pages
        if self._next_page > len(self._home):
            capacity = len(self._home)
            while capacity < self._next_page:
                capacity *= 2
            self._home.extend(
                home_run(UNPLACED, capacity - len(self._home)))
        return range(start, self._next_page)

    def allocate_bytes(self, n_bytes: int) -> range:
        """Reserve enough pages to hold ``n_bytes``."""
        n_pages = -(-max(n_bytes, 0) // self.page_bytes)
        return self.allocate(n_pages)

    def is_allocated(self, page: int) -> bool:
        """Whether ``page`` was ever handed out by :meth:`allocate`."""
        return 0 <= page < self._next_page

    def place(self, page: int, node: int) -> None:
        """Assign ``page`` a home node (first touch).  Idempotent-checked."""
        if not self.is_allocated(page):
            raise HardwareError(f"page {page} was never allocated")
        if self._home[page] != UNPLACED:
            raise HardwareError(f"page {page} already placed")
        if not 0 <= node < self.topology.n_sockets:
            raise HardwareError(f"node {node} out of range")
        if self._pages_per_node[node] >= self.bank_pages:
            raise HardwareError(f"memory bank of node {node} is full")
        self._home[page] = node
        self._pages_per_node[node] += 1

    def place_batch(self, pages: Sequence[int], node: int) -> None:
        """Assign every page in ``pages`` a home node in one pass.

        The bulk first-touch path: a whole batch of fresh pages lands on
        one node, so the node-range and bank-capacity checks run once for
        the batch instead of once per page (a bad batch therefore raises
        *before* any page is placed).  The per-page allocation and
        double-placement checks of :meth:`place` still apply; duplicates
        inside ``pages`` are rejected as double placements.  A contiguous
        ascending range places as one array-slice store.
        """
        if not 0 <= node < self.topology.n_sockets:
            raise HardwareError(f"node {node} out of range")
        if self._pages_per_node[node] + len(pages) > self.bank_pages:
            raise HardwareError(f"memory bank of node {node} is full")
        home = self._home
        next_page = self._next_page
        if (type(pages) is range and pages.step == 1
                and 0 <= pages.start and pages.stop <= next_page):
            n = pages.stop - pages.start
            span_bytes = home[pages.start:pages.stop].tobytes()
            if span_bytes == UNPLACED_PATTERN * n:
                home[pages.start:pages.stop] = home_run(node, n)
                self._pages_per_node[node] += n
                return
            # a page in the range is already placed: fall through to the
            # per-page loop, which lands the prefix then aborts exactly
            # as per-page placement would
        placed = 0
        try:
            for page in pages:
                if not 0 <= page < next_page:
                    raise HardwareError(
                        f"page {page} was never allocated")
                if home[page] != UNPLACED:
                    raise HardwareError(f"page {page} already placed")
                home[page] = node
                placed += 1
        finally:
            # a bad page aborts the batch mid-way (same as per-page
            # placement would); the occupancy count must still cover
            # what did land
            self._pages_per_node[node] += placed

    def home(self, page: int) -> int:
        """Home node of ``page``, or :data:`UNPLACED` when not yet touched."""
        if not 0 <= page < self._next_page:
            return UNPLACED
        return self._home[page]

    def is_placed(self, page: int) -> bool:
        """Whether ``page`` already has a home node."""
        return (0 <= page < self._next_page
                and self._home[page] != UNPLACED)

    def free(self, pages: Iterable[int]) -> None:
        """Return pages to the system (intermediates being dropped)."""
        home = self._home
        if (type(pages) is range and pages.step == 1
                and 0 <= pages.start and pages.stop <= self._next_page):
            # one fill per uniform-home piece (one query's intermediates
            # usually share a home)
            for node, run in home_runs(home, pages):
                if node != UNPLACED:
                    self._pages_per_node[node] -= len(run)
                    home[run.start:run.stop] = home_run(UNPLACED, len(run))
            return
        next_page = self._next_page
        per_node = self._pages_per_node
        for page in pages:
            if not 0 <= page < next_page:
                continue
            node = home[page]
            if node != UNPLACED:
                home[page] = UNPLACED
                per_node[node] -= 1

    def pages_on_node(self, node: int) -> int:
        """Number of placed pages homed on ``node``."""
        return self._pages_per_node[node]

    def placement_histogram(self) -> list[int]:
        """Placed page counts per node, indexed by node id."""
        return list(self._pages_per_node)

    def placed_total(self) -> int:
        """Number of pages currently holding a home node."""
        span = self._home[:self._next_page]
        return len(span) - sum(1 for node in span if node == UNPLACED)

    def pages_of(self, pages: Iterable[int]) -> dict[int, int]:
        """Histogram (node -> count) of where the given pages live.

        Unplaced pages are reported under :data:`UNPLACED`.  This is the
        primitive behind the adaptive mode's priority queue (§IV-B2): the
        mechanism asks where a thread's address space resides.
        """
        if (type(pages) is range and pages.step == 1
                and 0 <= pages.start and pages.stop <= self._next_page):
            histogram: dict[int, int] = {}
            for node, run in home_runs(self._home, pages):
                histogram[node] = histogram.get(node, 0) + len(run)
            # report unplaced first, then nodes ascending — the order
            # the bincount-based implementation exposed
            return {node: histogram[node] for node in sorted(histogram)}
        home = self._home
        next_page = self._next_page
        histogram = {}
        for page in pages:
            node = (home[page] if 0 <= page < next_page
                    else UNPLACED)
            histogram[node] = histogram.get(node, 0) + 1
        return histogram
