"""PageSegments and page_runs: the page-batch formats of the access path."""

from __future__ import annotations

import pytest

from repro.errors import SchedulerError
from repro.pages import PageSegments, page_runs

RUNS = [range(10, 14), range(3, 5), range(20, 23)]
FLAT = [10, 11, 12, 13, 3, 4, 20, 21, 22]


def test_iterates_in_flat_run_order():
    assert list(PageSegments(RUNS)) == FLAT


def test_len_is_the_total_page_count():
    assert len(PageSegments(RUNS)) == len(FLAT)
    assert len(PageSegments([])) == 0


def test_indexing_matches_the_flat_list():
    pages = PageSegments(RUNS)
    for index in range(-len(FLAT), len(FLAT)):
        assert pages[index] == FLAT[index]
    for index in (len(FLAT), -len(FLAT) - 1):
        with pytest.raises(IndexError):
            pages[index]


def test_a_slice_within_one_run_is_a_range():
    piece = PageSegments(RUNS)[5:6]
    assert type(piece) is range
    assert piece == range(4, 5)
    assert PageSegments(RUNS)[1:3] == range(11, 13)


def test_a_boundary_crossing_slice_equals_the_list_slice():
    pages = PageSegments(RUNS)
    for start in range(len(FLAT) + 1):
        for stop in range(start, len(FLAT) + 1):
            assert list(pages[start:stop]) == FLAT[start:stop]
    piece = pages[2:8]
    assert type(piece) is PageSegments
    assert page_runs(piece) == [range(12, 14), range(3, 5), range(20, 22)]


def test_a_strided_slice_is_rejected():
    with pytest.raises(SchedulerError):
        PageSegments(RUNS)[::2]


@pytest.mark.parametrize("run", [range(0, 10, 2), range(5, 5), [1, 2],
                                 (3, 4), range(4, 0, -1)])
def test_runs_must_be_non_empty_step_one_ranges(run):
    with pytest.raises(SchedulerError):
        PageSegments([range(0, 2), run])


def test_page_runs_of_each_batch_format():
    assert page_runs(range(3, 9)) == (range(3, 9),)
    assert page_runs(range(3, 3)) == ()
    assert page_runs(range(0, 10, 2)) is None
    assert page_runs([1, 2, 3]) is None
    assert page_runs(PageSegments(RUNS)) == RUNS
