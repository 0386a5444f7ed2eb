"""Property tests: the run-based access path equals a per-page model.

:meth:`repro.hardware.machine.Machine.touch` resolves every batch as
page runs: each uniform-home piece is walked as hit and miss sub-runs
against run-length L3 residency.  :class:`PerPageModel` is an
independent reference — a dict LRU per socket plus the per-page bank
and link chains built from :meth:`FifoChannel.reserve` — and the
machine property test drives deep-copied twins through random scripts
and compares every piece of state either side writes, error paths
included.  :meth:`repro.opsys.vm.VirtualMemory.touch_pages` resolves
runs with bulk commits and scattered pages with a per-page loop; the
VM property tests feed the same pages once as runs and once as a plain
``list`` and compare the mapping state, mixed-home runs, unplaced holes
and pages outside the allocated space included.  The write-probe test
checks that :meth:`Machine.touch_write`, which asks a socket's L3 to
invalidate only when its resident runs overlap the written pages, drops
exactly what asking every socket drops.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HardwareError
from repro.hardware.machine import AccessResult, Machine
from repro.hardware.memory import UNPLACED
from repro.hardware.prebuilt import ring_topology, small_numa
from repro.opsys.thread import SimThread
from repro.opsys.vm import VirtualMemory
from repro.opsys.workitem import ListWorkSource
from repro.pages import PageSegments

#: small_numa's L3 holds 8 pages, so runs of up to 30 pages overflow it
MAX_RUN = 30

MACHINES = {
    # fully connected, link faster than a bank: remote runs can commit
    "three_nodes": lambda: Machine(small_numa(n_sockets=3)),
    # multi-hop paths add a store-and-forward extra per remote page
    "ring": lambda: Machine(topology=ring_topology(small_numa(n_sockets=4))),
    # a link slower than a bank: remote runs always take the page chain
    "slow_link": lambda: Machine(small_numa(n_sockets=3,
                                            ht_link_bandwidth=1e9)),
}


class PerPageModel:
    """The access path page by page: the reference for Machine.touch.

    Residency is a plain dict per socket whose insertion order is the
    LRU order (a hit re-inserts at the back, a miss evicts the front).
    Fetch timing reserves the home bank and, for a remote page, the
    directed link through :meth:`FifoChannel.reserve`, adding the
    multi-hop store-and-forward time as :meth:`Interconnect.transfer`
    does.  Banks, links, counters and the home map are the wrapped
    machine's own (a deep copy of the subject); its caches keep only
    their hit, miss and eviction counts.
    """

    def __init__(self, machine: Machine):
        self.machine = machine
        self.lru = [dict.fromkeys(cache.resident_pages())
                    for cache in machine.caches]

    def touch(self, now, core, pages):
        machine = self.machine
        cfg = machine.config
        counters = machine.counters
        socket = machine.topology.node_of_core(core)
        lru = self.lru[socket]
        cache = machine.caches[socket]
        size_before = len(lru)
        latency = (cfg.page_bytes / cfg.cache_line_bytes
                   / cfg.memory_parallelism * cfg.dram_latency)
        link_bandwidth = machine.interconnect.link_bandwidth
        latency_stall = 0.0
        batch_done = now
        hits = 0
        imc_pages = {}
        for page in pages:
            if page in lru:
                del lru[page]
                lru[page] = None
                hits += 1
                continue
            if len(lru) >= cache.capacity_pages:
                del lru[next(iter(lru))]
            lru[page] = None
            home = machine.memory.home(page)
            if home == UNPLACED:
                raise HardwareError(
                    f"page {page} touched before first-touch placement")
            imc_pages[home] = imc_pages.get(home, 0) + 1
            done = machine.banks[home].reserve(now, cfg.page_bytes)
            if home == socket:
                latency_stall += latency
            else:
                hops = machine.topology.distance(home, socket)
                done = machine.interconnect.link(home, socket).reserve(
                    done, cfg.page_bytes)
                if hops > 1:
                    done += (hops - 1) * (cfg.page_bytes / link_bandwidth)
                latency_stall += latency * cfg.remote_penalty ** hops
            if done > batch_done:
                batch_done = done
        misses = len(pages) - hits
        cache.hits += hits
        cache.misses += misses
        cache.evictions += size_before + misses - len(lru)
        remote = 0
        for home, n in imc_pages.items():
            counters.add("imc_bytes", home, n * cfg.page_bytes)
            if home != socket:
                remote += n
                counters.add("ht_tx_bytes", home, n * cfg.page_bytes)
        counters.add("l3_hit", socket, hits)
        counters.add("l3_miss", socket, misses)
        return AccessResult(
            stall_time=(batch_done - now) + latency_stall, hits=hits,
            misses=misses, remote_misses=remote,
            bytes_local=(misses - remote) * cfg.page_bytes,
            bytes_remote=remote * cfg.page_bytes)

    def touch_write(self, now, core, pages):
        socket = self.machine.topology.node_of_core(core)
        for other, lru in enumerate(self.lru):
            victims = [page for page in set(pages) if page in lru]
            if other == socket or not victims:
                continue
            for page in victims:
                del lru[page]
            self.machine.counters.add("l3_invalidations", other,
                                      len(victims))
        return self.touch(now, core, pages)

    def resident(self):
        return [list(lru) for lru in self.lru]


@st.composite
def home_maps(draw, n_nodes):
    """Uniform-home blocks over 1–3 nodes, then an unplaced tail."""
    homes = draw(st.lists(st.integers(0, n_nodes - 1), min_size=1,
                          max_size=3, unique=True))
    blocks = draw(st.lists(
        st.tuples(st.sampled_from(homes), st.integers(1, MAX_RUN)),
        min_size=1, max_size=5))
    tail = draw(st.sampled_from([0, 0, 0, 4]))
    return blocks, tail


@st.composite
def batches(draw, n_pages):
    """A page batch as a step-1 range or as PageSegments of runs."""
    def run():
        start = draw(st.integers(0, n_pages - 1))
        stop = draw(st.integers(start + 1, min(start + MAX_RUN, n_pages)))
        return range(start, stop)

    if draw(st.booleans()):
        return run()
    return PageSegments([run() for _ in range(draw(st.integers(1, 4)))])


@st.composite
def machine_batches(draw, n_pages):
    """Any batch Machine.touch accepts: runs that may overlap, cross the
    allocated space's end or start below page 0, scattered lists with
    duplicates, strided ranges and empty batches.  Most runs fall in a
    window about twice the L3's size, so batches often hit mid-run."""
    window = draw(st.integers(0, max(0, n_pages - 16)))
    width = min(16, n_pages) - 1

    def run():
        if draw(st.integers(0, 9)):
            start = window + draw(st.integers(0, width))
            length = draw(st.integers(1, 12))
        else:
            start = draw(st.integers(-2, n_pages + 2))
            length = draw(st.integers(1, MAX_RUN))
        return range(start, start + length)

    kind = draw(st.sampled_from(
        ["range", "range", "segments", "segments", "list", "strided",
         "empty"]))
    if kind == "range":
        return run()
    if kind == "segments":
        return PageSegments([run() for _ in range(draw(st.integers(1, 4)))])
    if kind == "list":
        pages = []
        for _ in range(draw(st.integers(1, 4))):
            if draw(st.booleans()):
                pages.append(window + draw(st.integers(0, width)))
            else:
                pages.extend(run())
        return pages
    if kind == "strided":
        start = window + draw(st.integers(0, width))
        stop = start + draw(st.integers(1, 12))
        step = draw(st.sampled_from([2, 3, -1]))
        return range(start, stop, step) if step > 0 else range(
            stop, start, step)
    return range(0)


def _place(memory, blocks, tail):
    for node, length in blocks:
        memory.place_batch(memory.allocate(length), node)
    memory.allocate(tail)
    return memory._next_page


def _state(machine, resident):
    return {
        "resident": resident,
        "cache_counts": [(cache.hits, cache.misses, cache.evictions)
                         for cache in machine.caches],
        "banks": [bank._free_at for bank in machine.banks],
        "links": {key: link._free_at for key, link
                  in machine.interconnect._links.items()},
        "counters": [(name, list(family.slots.items()),
                      list(family.values))
                     for name, family in machine.counters._families.items()],
        "homes": list(machine.memory._home[:machine.memory._next_page]),
    }


def _subject_state(machine):
    return _state(machine, [cache.resident_pages()
                            for cache in machine.caches])


def _model_state(model):
    return _state(model.machine, model.resident())


def _call(touch, *args):
    try:
        return touch(*args)
    except HardwareError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_machine_touch_runs_equal_the_per_page_loop(data):
    kind = data.draw(st.sampled_from(sorted(MACHINES)))
    subject = MACHINES[kind]()
    n_nodes = subject.topology.n_sockets
    n_pages = _place(subject.memory, *data.draw(home_maps(n_nodes)))
    n_cores = len(subject.topology.all_cores())
    # bank and link backlogs, in units of a few page services
    service = subject._bank_service
    for bank in subject.banks:
        bank._free_at = data.draw(st.integers(0, 40)) * service / 3
    for link in subject.interconnect._links.values():
        link._free_at = data.draw(st.integers(0, 40)) * service / 3
    model = PerPageModel(copy.deepcopy(subject))
    now = 0.0
    for _ in range(data.draw(st.integers(1, 10))):
        now += data.draw(st.integers(0, 20)) * service / 7
        core = data.draw(st.integers(0, n_cores - 1))
        op = data.draw(st.sampled_from(["touch", "touch", "touch",
                                        "touch_write", "free"]))
        if op == "free":
            # freed pages stay resident: later hits on unplaced pages
            pages = data.draw(batches(n_pages))
            subject.memory.free(pages)
            model.machine.memory.free(pages)
            continue
        pages = data.draw(machine_batches(n_pages))
        got = _call(getattr(subject, op), now, core, pages)
        want = _call(getattr(model, op), now, core, pages)
        assert got == want
        assert _subject_state(subject) == _model_state(model)


def _vm_state(vm, thread):
    memory = vm.machine.memory
    return {
        "mapped": bytes(vm._mapped[:memory._next_page]),
        "homes": list(memory._home[:memory._next_page]),
        "pages_per_node": list(memory._pages_per_node),
        "pages_by_node": list(thread.pages_by_node.items()),
        "minor_faults": list(
            vm.machine.counters.by_index("minor_faults").items()),
    }


@st.composite
def vm_batches(draw, n_pages):
    """Batches for the VM: step-1 ranges or PageSegments whose runs may
    overlap, start below page 0 or run past the allocated space."""
    def run():
        start = draw(st.integers(-2, n_pages + 1))
        return range(start, start + draw(st.integers(1, MAX_RUN)))

    if draw(st.booleans()):
        return run()
    return PageSegments([run() for _ in range(draw(st.integers(1, 4)))])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_vm_touch_runs_equal_the_per_page_loop(data):
    """Runs, mixed-home ones included, equal the per-page loop on a twin
    fed the same pages as a list: faults, mapping bits, the home map,
    per-node page counts, the thread's histogram (values and insertion
    order) and the error raised.  After an error the script stops: runs
    commit one by one, the loop after its whole batch."""
    vm = VirtualMemory(Machine(small_numa(n_sockets=3)))
    memory = vm.machine.memory
    n_nodes = vm.machine.topology.n_sockets
    # blocks first-touched from several nodes, interleaved with
    # never-touched and released blocks (unplaced holes)
    for _ in range(data.draw(st.integers(1, 6))):
        block = memory.allocate(data.draw(st.integers(1, 12)))
        kind = data.draw(st.sampled_from(["touched", "touched", "hole",
                                          "released"]))
        if kind != "hole":
            vm.touch_pages(block, data.draw(st.integers(0, n_nodes - 1)))
        if kind == "released":
            vm.forget(block)
    n_pages = memory._next_page
    # earlier mappings from other nodes
    for _ in range(data.draw(st.integers(0, 3))):
        seen = data.draw(st.lists(st.integers(0, n_pages - 1),
                                  max_size=12))
        vm.touch_pages(seen, data.draw(st.integers(0, n_nodes - 1)))
    thread = SimThread(ListWorkSource())
    subject = (vm, thread)
    reference = copy.deepcopy(subject)
    for _ in range(data.draw(st.integers(1, 4))):
        node = data.draw(st.integers(0, n_nodes - 1))
        pages = data.draw(vm_batches(n_pages))
        got = _call(subject[0].touch_pages, pages, node, subject[1])
        want = _call(reference[0].touch_pages, list(pages), node,
                     reference[1])
        assert got == want
        if isinstance(got, str):
            return
        assert _vm_state(*subject) == _vm_state(*reference)
    # releasing runs: the mapping bits and the home map per run
    pages = data.draw(batches(n_pages))
    subject[0].forget(pages)
    reference[0].forget(list(pages))
    assert _vm_state(*subject) == _vm_state(*reference)


def test_an_overflowing_run_keeps_its_last_capacity_pages():
    """A miss sub-run longer than the L3 leaves only its last pages."""
    machine = Machine(small_numa())
    capacity = machine.caches[0].capacity_pages
    pages = machine.memory.allocate(3 * capacity)
    machine.memory.place_batch(pages, 0)
    machine.touch(0.0, 0, pages[:2])
    machine.touch(0.0, 0, pages[capacity:])
    cache = machine.caches[0]
    assert cache.resident_pages() == list(pages[-capacity:])
    assert cache.evictions == 2 + 2 * capacity - capacity


@pytest.mark.parametrize("pages", [range(6, 16), PageSegments(
    [range(0, 5), range(12, 17)])])
def test_an_unplaced_run_raises_like_the_loop(pages):
    machine = Machine(small_numa())
    machine.memory.place_batch(machine.memory.allocate(12), 0)
    machine.memory.allocate(8)
    model = PerPageModel(copy.deepcopy(machine))
    assert _call(machine.touch, 0.0, 0, pages) == _call(model.touch, 0.0,
                                                        0, pages)
    assert _subject_state(machine) == _model_state(model)


def test_a_hit_inside_a_piece_splits_it_into_sub_runs():
    """A resident run in the middle of a piece is a hit sub-run between
    two miss sub-runs, and is timed like the page-by-page walk."""
    machine = Machine(small_numa(n_sockets=3))
    pages = machine.memory.allocate(20)
    machine.memory.place_batch(pages, 1)
    machine.touch(0.0, 0, range(8, 11))
    model = PerPageModel(copy.deepcopy(machine))
    got = machine.touch(1e-6, 0, range(5, 15))
    assert got == model.touch(1e-6, 0, range(5, 15))
    assert (got.hits, got.misses) == (3, 7)
    assert _subject_state(machine) == _model_state(model)


def test_a_mixed_home_run_of_placed_pages_takes_the_bulk_path(monkeypatch):
    vm = VirtualMemory(Machine(small_numa(n_sockets=3)))
    memory = vm.machine.memory
    for node in (0, 1, 2, 0):
        vm.touch_pages(memory.allocate(5), node)
    thread = SimThread(ListWorkSource())

    def per_page(*args):
        raise AssertionError("mixed-home run took the per-page loop")

    monkeypatch.setattr(vm, "_touch_each", per_page)
    assert vm.touch_pages(range(2, 18), 1, thread) == 11
    assert list(thread.pages_by_node.items()) == [(0, 6), (1, 5), (2, 5)]
    assert vm.nodes_mapping(2) == [0, 1]


def _probe_every_socket(machine, now, core, pages):
    """touch_write as it was: every other socket's L3 is asked to
    invalidate the written pages."""
    socket = machine.topology.node_of_core(core)
    for other, cache in enumerate(machine.caches):
        if other == socket:
            continue
        dropped = cache.invalidate(pages)
        if dropped:
            machine.counters.add("l3_invalidations", other, dropped)
    return machine.touch(now, core, pages)


def _never_a_no_op(invalidate):
    """Wrap a cache's invalidate: every call must drop a page."""
    def probe(pages):
        dropped = invalidate(pages)
        assert dropped, "a socket was probed for pages it does not hold"
        return dropped
    return probe


def _probe_state(machine):
    family = machine.counters._families.get("l3_invalidations")
    return {
        "invalidations": (None if family is None else
                          (list(family.slots.items()), list(family.values))),
        "resident": [cache.resident_runs() for cache in machine.caches],
        "sizes": [len(cache) for cache in machine.caches],
    }


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_write_probe_drops_what_probing_every_socket_drops(data):
    """touch_write asks a socket to invalidate only when its resident
    runs overlap the written pages; it must drop exactly the pages, and
    count exactly the invalidations, of probing every socket.  Writes
    land mostly on pages other sockets have read, some of them freed
    while still resident."""
    subject = MACHINES[data.draw(st.sampled_from(sorted(MACHINES)))]()
    n_nodes = subject.topology.n_sockets
    n_pages = _place(subject.memory, *data.draw(home_maps(n_nodes)))
    n_cores = len(subject.topology.all_cores())
    reference = copy.deepcopy(subject)
    for cache in subject.caches:
        cache.invalidate = _never_a_no_op(cache.invalidate)
    now = 0.0
    for _ in range(data.draw(st.integers(1, 12))):
        now += 1e-3
        core = data.draw(st.integers(0, n_cores - 1))
        op = data.draw(st.sampled_from(["read", "read", "write", "write",
                                        "free"]))
        pages = data.draw(machine_batches(n_pages))
        if op == "free":
            subject.memory.free(pages)
            reference.memory.free(pages)
            continue
        if op == "read":
            got = _call(subject.touch, now, core, pages)
            want = _call(reference.touch, now, core, pages)
        else:
            got = _call(subject.touch_write, now, core, pages)
            want = _call(_probe_every_socket, reference, now, core, pages)
        assert got == want
        assert _probe_state(subject) == _probe_state(reference)
