"""Shared L3 model: LRU behaviour, eviction, statistics, run residency."""

import pytest

from repro.errors import HardwareError
from repro.hardware.cache import SharedCache
from repro.hardware.machine import Machine
from repro.hardware.prebuilt import small_numa
from repro.pages import PageSegments


def test_miss_then_hit():
    cache = SharedCache(capacity_pages=4)
    assert cache.access(1) is False
    assert cache.access(1) is True
    assert cache.hits == 1
    assert cache.misses == 1


def test_eviction_is_lru():
    cache = SharedCache(capacity_pages=2)
    cache.access(1)
    cache.access(2)
    cache.access(1)          # 1 is now more recent than 2
    cache.access(3)          # evicts 2
    assert 1 in cache
    assert 3 in cache
    assert 2 not in cache
    assert cache.evictions == 1


def test_capacity_never_exceeded():
    cache = SharedCache(capacity_pages=3)
    for page in range(10):
        cache.access(page)
    assert len(cache) == 3


def test_access_many_counts():
    cache = SharedCache(capacity_pages=8)
    hits, misses = cache.access_many([1, 2, 3, 1, 2])
    assert (hits, misses) == (2, 3)


def test_invalidate_drops_named_pages():
    cache = SharedCache(capacity_pages=4)
    cache.access_many([1, 2, 3])
    dropped = cache.invalidate([2, 99])
    assert dropped == 1
    assert 2 not in cache
    assert 1 in cache


def test_flush_empties():
    cache = SharedCache(capacity_pages=4)
    cache.access_many([1, 2, 3])
    cache.flush()
    assert len(cache) == 0
    # stats survive a flush
    assert cache.misses == 3


def test_residency_order_cold_to_hot():
    cache = SharedCache(capacity_pages=4)
    cache.access_many([1, 2, 3])
    cache.access(1)
    assert cache.resident_pages() == [2, 3, 1]


def test_occupancy_and_hit_ratio():
    cache = SharedCache(capacity_pages=4)
    assert cache.hit_ratio() == 0.0
    cache.access_many([1, 2, 1, 2])
    assert cache.occupancy == pytest.approx(0.5)
    assert cache.hit_ratio() == pytest.approx(0.5)


def test_zero_capacity_rejected():
    with pytest.raises(HardwareError):
        SharedCache(capacity_pages=0)


# ---------------------------------------------------------------------
# run-length residency


def test_adjacent_appends_merge_into_one_run():
    cache = SharedCache(capacity_pages=8)
    cache.access_many([3, 4, 5])
    cache.access(9)
    cache.access(10)
    assert cache.resident_runs() == [range(3, 6), range(9, 11)]
    assert len(cache) == 5


def test_a_hit_inside_a_run_moves_only_that_page_to_the_hot_end():
    cache = SharedCache(capacity_pages=8)
    cache.access_many(range(6))
    assert cache.access(3) is True
    assert cache.resident_runs() == [range(0, 3), range(4, 6), range(3, 4)]
    assert cache.resident_pages() == [0, 1, 2, 4, 5, 3]


def test_a_touched_sub_run_moves_to_the_hot_end_in_page_order():
    machine = Machine(small_numa())
    machine.memory.place_batch(machine.memory.allocate(8), 0)
    machine.touch(0.0, 0, range(0, 6))
    result = machine.touch(0.0, 0, range(2, 4))
    assert (result.hits, result.misses) == (2, 0)
    assert machine.caches[0].resident_runs() == [
        range(0, 2), range(4, 6), range(2, 4)]


def test_eviction_trims_the_coldest_run():
    cache = SharedCache(capacity_pages=4)
    cache.access_many([0, 1, 2, 3])
    cache.access(10)
    assert cache.resident_runs() == [range(1, 4), range(10, 11)]
    assert cache.evictions == 1


def test_invalidation_splits_a_run():
    cache = SharedCache(capacity_pages=8)
    cache.access_many(range(6))
    assert cache.invalidate([2]) == 1
    assert cache.resident_runs() == [range(0, 2), range(3, 6)]
    assert len(cache) == 5


def test_invalidation_counts_each_dropped_page_once():
    cache = SharedCache(capacity_pages=8)
    cache.access_many(range(6))
    cache.access_many([20, 21])
    # overlapping victim runs, and a list with duplicates
    assert cache.invalidate(PageSegments([range(1, 4), range(2, 5)])) == 4
    assert cache.invalidate([21, 21, 0, 99]) == 2
    assert cache.resident_pages() == [5, 20]
    assert len(cache) == 2
