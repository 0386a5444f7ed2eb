"""Property tests: the bulk access path equals the per-page loop.

:meth:`repro.hardware.machine.Machine.touch` and
:meth:`repro.opsys.vm.VirtualMemory.touch_pages` resolve contiguous
runs (a step-1 ``range`` or a :class:`~repro.pages.PageSegments`) with
bulk commits, and scattered pages with a per-page loop.  The choice
must be invisible: these tests feed the same pages once as runs and
once as a plain ``list`` (which always takes the loop) to deep-copied
twins, then compare every piece of state either path writes.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HardwareError
from repro.hardware.machine import Machine
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
    # a link slower than a bank: remote runs always take the loop
    "slow_link": lambda: Machine(small_numa(n_sockets=3,
                                            ht_link_bandwidth=1e9)),
}


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


def _place(memory, blocks, tail):
    for node, length in blocks:
        memory.place_batch(memory.allocate(length), node)
    memory.allocate(tail)
    return memory._next_page


def _machine_state(machine):
    return {
        "resident": [list(cache._resident) for cache in machine.caches],
        "cache_counts": [(cache.hits, cache.misses, cache.evictions)
                         for cache in machine.caches],
        "banks": [bank._free_at for bank in machine.banks],
        "links": {key: link._free_at for key, link
                  in machine.interconnect._links.items()},
        "counters": [(name, list(family.slots.items()),
                      list(family.values))
                     for name, family in machine.counters._families.items()],
    }


def _touch(machine, now, core, pages):
    try:
        return machine.touch(now, core, pages)
    except HardwareError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_machine_touch_runs_equal_the_per_page_loop(data):
    kind = data.draw(st.sampled_from(sorted(MACHINES)))
    machine = MACHINES[kind]()
    n_nodes = machine.topology.n_sockets
    n_pages = _place(machine.memory, *data.draw(home_maps(n_nodes)))
    n_cores = len(machine.topology.all_cores())
    # pre-warm caches and counters through the loop
    for _ in range(data.draw(st.integers(0, 3))):
        warm = data.draw(st.lists(st.integers(0, n_pages - 1),
                                  max_size=12))
        _touch(machine, 0.0, data.draw(st.integers(0, n_cores - 1)), warm)
    # bank and link backlogs, in units of a few page services
    service = machine._bank_service
    for bank in machine.banks:
        bank._free_at = data.draw(st.integers(0, 40)) * service / 3
    for link in machine.interconnect._links.values():
        link._free_at = data.draw(st.integers(0, 40)) * service / 3
    subject = machine
    reference = copy.deepcopy(machine)
    now = 0.0
    for _ in range(data.draw(st.integers(1, 3))):
        now += data.draw(st.integers(0, 20)) * service / 7
        core = data.draw(st.integers(0, n_cores - 1))
        pages = data.draw(batches(n_pages))
        got = _touch(subject, now, core, pages)
        want = _touch(reference, now, core, list(pages))
        assert got == want
        assert _machine_state(subject) == _machine_state(reference)


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


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_vm_touch_runs_equal_the_per_page_loop(data):
    vm = VirtualMemory(Machine(small_numa(n_sockets=3)))
    memory = vm.machine.memory
    n_nodes = vm.machine.topology.n_sockets
    # blocks first-touched by the VM from their node, plus an unplaced
    # tail the batches may first-touch
    blocks, tail = data.draw(home_maps(n_nodes))
    for node, length in blocks:
        vm.touch_pages(memory.allocate(length), node)
    memory.allocate(tail)
    n_pages = memory._next_page
    # earlier mappings from other nodes
    for _ in range(data.draw(st.integers(0, 3))):
        seen = data.draw(st.lists(st.integers(0, n_pages - 1),
                                  max_size=12))
        vm.touch_pages(seen, data.draw(st.integers(0, n_nodes - 1)))
    thread = SimThread(ListWorkSource())
    subject = (vm, thread)
    reference = copy.deepcopy(subject)
    for _ in range(data.draw(st.integers(1, 3))):
        node = data.draw(st.integers(0, n_nodes - 1))
        pages = data.draw(batches(n_pages))
        got = subject[0].touch_pages(pages, node, subject[1])
        want = reference[0].touch_pages(list(pages), node, reference[1])
        assert got == want
        assert _vm_state(*subject) == _vm_state(*reference)
    # releasing runs: the mapping bits and the home map per run
    pages = data.draw(batches(n_pages))
    subject[0].forget(pages)
    reference[0].forget(list(pages))
    assert _vm_state(*subject) == _vm_state(*reference)


def test_an_overflowing_run_keeps_its_last_capacity_pages():
    """A run longer than the L3 commits in closed form."""
    machine = Machine(small_numa())
    capacity = machine.caches[0].capacity_pages
    pages = machine.memory.allocate(3 * capacity)
    machine.memory.place_batch(pages, 0)
    machine.touch(0.0, 0, pages[:2])
    machine.touch(0.0, 0, pages[capacity:])
    cache = machine.caches[0]
    assert list(cache._resident) == list(pages[-capacity:])
    assert cache.evictions == 2 + 2 * capacity - capacity


@pytest.mark.parametrize("pages", [range(6, 16), PageSegments(
    [range(0, 5), range(12, 17)])])
def test_an_unplaced_run_raises_like_the_loop(pages):
    machine = Machine(small_numa())
    machine.memory.place_batch(machine.memory.allocate(12), 0)
    machine.memory.allocate(8)
    reference = copy.deepcopy(machine)
    assert _touch(machine, 0.0, 0, pages) == _touch(reference, 0.0, 0,
                                                    list(pages))
    assert _machine_state(machine) == _machine_state(reference)
