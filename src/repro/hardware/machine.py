"""Runtime machine: wires topology, caches, memory, interconnect, counters.

The single hot-path entry point is :meth:`Machine.touch` — the OS scheduler
calls it for every execution chunk with the set of pages the running thread
streams through.  It resolves each page against the executing socket's L3,
charges DRAM/interconnect time for misses, and writes every likwid-style
counter the controller and the experiment harnesses later read.

There is one access path, and it works on page runs throughout.  A batch
becomes step-1 runs (:func:`repro.pages.page_runs`, or the maximal
ascending runs of a scattered list), each run splits into uniform-home
pieces (:func:`repro.hardware.memory.home_runs`; pages outside the
allocated space form pieces of their own), and each piece is walked as
alternating hit and miss sub-runs against the socket's run-length L3
(:class:`repro.hardware.cache.SharedCache`).  A hit sub-run only moves
pages to the LRU's hot end.  A miss sub-run evicts and appends as one
run, then reserves bank and link time: in closed form when the bank
paces it, page by page when a busy or slow link does.  The cache work
per batch is O(sub-runs x resident runs), not O(pages), and every float
is folded in the order a page-by-page walk would fold it.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from ..config import MachineConfig
from ..errors import HardwareError
from .cache import SharedCache
from .counters import CounterBank
from .interconnect import FifoChannel, Interconnect
from ..pages import ascending_runs, page_runs
from .memory import UNPLACED, MemorySystem, home_runs
from .topology import Topology


class AccessResult(NamedTuple):
    """Outcome of one :meth:`Machine.touch` call.

    A named tuple rather than a dataclass: one is allocated per touch,
    and tuple construction is several times cheaper than a generated
    dataclass ``__init__``.
    """

    stall_time: float
    hits: int
    misses: int
    remote_misses: int
    bytes_local: int
    bytes_remote: int

    @property
    def bytes_total(self) -> int:
        """All bytes pulled from DRAM (local and remote)."""
        return self.bytes_local + self.bytes_remote


class Machine:
    """A live NUMA machine instance for one simulation run."""

    def __init__(self, config: MachineConfig | None = None,
                 topology: Topology | None = None):
        if topology is None:
            topology = Topology(config or MachineConfig())
        elif config is not None and topology.config is not config:
            raise HardwareError("pass either config or topology, not both")
        self.topology = topology
        self.config = topology.config
        self.counters = CounterBank()
        self.memory = MemorySystem(topology)
        self.interconnect = Interconnect(topology, self.counters)
        self.caches = [
            SharedCache(self.config.l3_pages, socket_id=s)
            for s in topology.all_nodes()
        ]
        # per-bank FIFO channels: threads sharing one memory bank queue for
        # its bandwidth (the effect that lets the paper's adaptive mode
        # "exploit the memory bandwidth of all sockets" and that bounds
        # p(nalloc), making a local optimum exist)
        self.banks = [FifoChannel(self.config.dram_bandwidth)
                      for _ in topology.all_nodes()]
        # latency-bound seconds per page miss: lines/page divided by the
        # core's miss-level parallelism, times the DRAM latency
        cfg = self.config
        lines = cfg.page_bytes / cfg.cache_line_bytes
        self._latency_per_page = (lines / cfg.memory_parallelism
                                  * cfg.dram_latency)
        # --- touch() fast-path precomputation ------------------------------
        # every page fetch moves exactly cfg.page_bytes, so bank and link
        # reservation service times are loop invariants; remote paths also
        # fix the hop count, the post-link store-and-forward extra and the
        # hop-inflated requester latency per (home, socket) pair.  All
        # values are computed with the same expressions the general-purpose
        # FifoChannel/Interconnect paths use, so results stay bit-identical.
        self._bank_service = cfg.page_bytes / cfg.dram_bandwidth
        self._remote_paths: dict[tuple[int, int],
                                 tuple[FifoChannel, float, float]] = {}
        link_service = cfg.page_bytes / self.interconnect.link_bandwidth
        for home in topology.all_nodes():
            for socket in topology.all_nodes():
                if home == socket:
                    continue
                hops = topology.distance(home, socket)
                self._remote_paths[(home, socket)] = (
                    self.interconnect.link(home, socket),
                    (hops - 1) * (cfg.page_bytes
                                  / self.interconnect.link_bandwidth)
                    if hops > 1 else 0.0,
                    self._latency_per_page * (cfg.remote_penalty ** hops),
                )
        self._link_service = link_service
        # the bulk commit of a remote piece assumes the bank chain alone
        # paces it (the link drains at least as fast as the bank feeds
        # it); slower links take the per-page loop
        self._link_after_bank = link_service <= self._bank_service
        # memoised requester-latency chains: a batch's first bulk piece
        # accumulates ``per_page_latency`` n times from 0.0, an
        # order-sensitive float fold over only a handful of distinct
        # (latency, n) pairs
        self._latency_chains: dict[tuple[float, int], float] = {}
        # family handles: one dict probe per counter event instead of a
        # name lookup plus probe (handles survive CounterBank.reset)
        self._f_imc = self.counters.family("imc_bytes")
        self._f_ht_tx = self.counters.family("ht_tx_bytes")
        self._f_l3_hit = self.counters.family("l3_hit")
        self._f_l3_miss = self.counters.family("l3_miss")
        self._f_l3_inval = self.counters.family("l3_invalidations")
        self._f_busy = self.counters.family("busy_time")

    def bank_backlog(self, node: int, now: float) -> float:
        """Seconds of reserved work queued at one bank."""
        return self.banks[node].backlog(now)

    def node_of_core(self, core_id: int) -> int:
        """Convenience passthrough to the topology."""
        return self.topology.node_of_core(core_id)

    def touch(self, now: float, core_id: int,
              pages: Sequence[int]) -> AccessResult:
        """Stream ``pages`` from core ``core_id``; returns stalls/counters.

        Every page must already have a home node — the OS virtual-memory
        layer performs first-touch placement *before* handing work to the
        hardware (see :class:`repro.opsys.vm.VirtualMemory`).

        Fetches within one call pipeline: bandwidth reservations at banks
        and links overlap (the batch stalls until the *last* completion),
        while the requester-side line-latency term accumulates per page.

        Each uniform-home piece is walked in page order as alternating
        hit and miss sub-runs, each decided on the state the earlier
        ones left, so the batch ends exactly as touching its pages one
        by one would leave it.
        """
        socket = self.topology.node_of_core(core_id)
        cache = self.caches[socket]
        home_arr = self.memory._home
        next_page = self.memory._next_page

        # (home, run) pieces in page order; an UNPLACED home marks pages
        # outside the allocated space as well as unplaced ones
        pieces: Sequence[tuple[int, range]]
        if (type(pages) is range and pages.step == 1
                and 0 <= pages.start < pages.stop <= next_page):
            # the dominant shape, one allocated range on one home, is
            # resolved with one bytes comparison and no home_runs call
            span_bytes = home_arr[pages.start:pages.stop].tobytes()
            if span_bytes == span_bytes[:2] * len(pages):
                pieces = ((home_arr[pages.start], pages),)
            else:
                pieces = home_runs(home_arr, pages)
        else:
            runs = page_runs(pages)
            if runs is None:
                runs = ascending_runs(pages)
            split: list[tuple[int, range]] = []
            for run in runs:
                start, stop = run.start, run.stop
                if 0 <= start and stop <= next_page:
                    split.extend(home_runs(home_arr, run))
                    continue
                if start < 0:
                    split.append((UNPLACED, range(start, min(stop, 0))))
                    start = 0
                if start < next_page and start < stop:
                    split.extend(home_runs(
                        home_arr, range(start, min(stop, next_page))))
                    start = next_page
                if start < stop:
                    split.append((UNPLACED, range(start, stop)))
            pieces = split

        # accumulators every sub-run folds into; misses, evictions, the
        # remote share and the byte counts follow from them exactly
        resident = cache._runs
        size = resident_before = cache._size
        capacity = cache.capacity_pages
        latency_stall = 0.0
        batch_done = now
        hits = 0
        imc_pages: dict[int, int] = {}
        banks = self.banks
        bank_service = self._bank_service

        for piece_home, piece in pieces:
            pos = piece.start
            end = piece.stop
            while pos < end:
                # the sub-run at ``pos``: a hit through the end of the
                # resident run holding it, or else a miss up to the next
                # resident run's start (runs are disjoint)
                stop = end
                hit = -1
                for index, run in enumerate(resident):
                    if run.start <= pos:
                        if pos < run.stop:
                            hit = index
                            break
                    elif run.start < stop:
                        stop = run.start
                if hit >= 0:
                    if run.stop < stop:
                        stop = run.stop
                    cache._hit(hit, pos, stop)
                    hits += stop - pos
                    pos = stop
                    continue
                if piece_home == UNPLACED:
                    # the page is inserted, then refused, exactly as a
                    # page-by-page walk leaves the cache
                    cache._size = size
                    cache._miss(pos, pos + 1)
                    raise HardwareError(
                        f"page {pos} touched before first-touch placement")
                # residency: evict the overflow from the cold end, then
                # append the sub-run (SharedCache._miss, inlined)
                n = stop - pos
                overflow = size + n - capacity
                if overflow >= size:
                    resident[:] = (range(stop - capacity, stop),)
                    size = capacity
                else:
                    if overflow > 0:
                        size -= overflow
                        while overflow:
                            head = resident[0]
                            if len(head) <= overflow:
                                overflow -= len(head)
                                del resident[0]
                            else:
                                resident[0] = head[overflow:]
                                overflow = 0
                    if resident and resident[-1].stop == pos:
                        resident[-1] = range(resident[-1].start, stop)
                    else:
                        resident.append(range(pos, stop))
                    size += n
                pos = stop
                imc_pages[piece_home] = imc_pages.get(piece_home, 0) + n
                bank = banks[piece_home]
                free = bank._free_at
                first = (now if now > free else free) + bank_service
                if piece_home == socket:
                    link = None
                    per_page_latency = self._latency_per_page
                else:
                    link, extra, per_page_latency = self._remote_paths[
                        (piece_home, socket)]
                    if not (self._link_after_bank
                            and link._free_at <= first):
                        # a busy or slow link paces the sub-run: the
                        # per-page bank and link chains, in page order
                        link_service = self._link_service
                        link_free = link._free_at
                        for _ in range(n):
                            free = ((now if now > free else free)
                                    + bank_service)
                            link_free = ((free if free > link_free
                                          else link_free) + link_service)
                            done = link_free + extra if extra else link_free
                            latency_stall += per_page_latency
                            if done > batch_done:
                                batch_done = done
                        bank._free_at = free
                        link._free_at = link_free
                        continue
                # the bank alone paces the sub-run (a remote link drains
                # at least as fast as the bank feeds it and is free by
                # the first page's arrival): the per-page chains in
                # closed form, each float produced by the same
                # left-to-right additions
                last = first
                for _ in range(n - 1):
                    last += bank_service
                bank._free_at = last
                if latency_stall:
                    for _ in range(n):
                        latency_stall += per_page_latency
                else:
                    # a fold from 0.0 over a handful of distinct
                    # (latency, n) pairs: memoised
                    key = (per_page_latency, n)
                    latency_stall = self._latency_chains.get(key)
                    if latency_stall is None:
                        latency_stall = 0.0
                        for _ in range(n):
                            latency_stall += per_page_latency
                        self._latency_chains[key] = latency_stall
                if link is None:
                    done = last
                else:
                    done = last + self._link_service
                    link._free_at = done
                    if extra:
                        done += extra
                if done > batch_done:
                    batch_done = done
        stall = (batch_done - now) + latency_stall

        misses = len(pages) - hits
        cache.hits += hits
        cache.misses += misses
        # every miss inserts one page and every eviction drops one
        cache._size = size
        cache.evictions += resident_before + misses - size
        page_bytes = self.memory.page_bytes
        remote_misses = 0
        for home, n_pages in imc_pages.items():
            self._f_imc.add(home, n_pages * page_bytes)
            if home != socket:
                remote_misses += n_pages
                # outbound link traffic, attributed to the sending node
                # exactly as Interconnect.transfer does
                self._f_ht_tx.add(home, n_pages * page_bytes)
        self._f_l3_hit.add(socket, hits)
        self._f_l3_miss.add(socket, misses)
        # positional: keyword arguments cost the named tuple's
        # generated __new__ about twice as much
        return AccessResult(stall, hits, misses, remote_misses,
                            (misses - remote_misses) * page_bytes,
                            remote_misses * page_bytes)

    def touch_write(self, now: float, core_id: int,
                    pages: Sequence[int]) -> AccessResult:
        """Like :meth:`touch`, for written pages: writing a page also
        **invalidates** it in every other socket's L3 (the coherence
        traffic the paper's introduction blames on threads "sharing the
        same cache memory" being split across nodes).  Invalidations are
        counted per victim socket as ``l3_invalidations``.

        A socket's L3 is probed only when one of its resident runs
        overlaps a written run: written pages are mostly fresh
        intermediates no other socket has read, so the exact overlap
        test usually settles every socket without a call.
        """
        socket = self.topology.node_of_core(core_id)
        victims = page_runs(pages)
        if victims is None:
            victims = ascending_runs(sorted(set(pages)))
        for other, cache in enumerate(self.caches):
            if other == socket:
                continue
            resident = cache._runs
            for victim in victims:
                lo, hi = victim.start, victim.stop
                for run in resident:
                    if run.start < hi and lo < run.stop:
                        break
                else:
                    continue
                self._f_l3_inval.add(other, cache.invalidate(pages))
                break
        return self.touch(now, core_id, pages)

    def account_busy(self, core_id: int, seconds: float) -> None:
        """Record core busy time (the mpstat source)."""
        if seconds < 0:
            raise HardwareError("busy time cannot be negative")
        self._f_busy.add(core_id, seconds)

    def flush_caches(self) -> None:
        """Empty every L3 (used between experiment repetitions)."""
        for cache in self.caches:
            cache.flush()

    def compute_time(self, cycles: float) -> float:
        """Seconds a core needs to retire ``cycles`` of pure compute."""
        return cycles / self.config.frequency_hz
