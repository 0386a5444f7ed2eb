"""Page-footprint sequences shared by the DB, OS and hardware layers.

A page batch is a step-1 :class:`range` (one contiguous run), a
:class:`PageSegments` (several runs) or anything else (scattered
pages).  :func:`page_runs` is the only code that tells these apart; the
VM and the machine's cache model stream the runs it returns with their
array fast paths, and the machine cuts scattered pages into runs with
:func:`ascending_runs`.  The module is dependency-free because it is the
interface type between layers: query compilation (:mod:`repro.db.cost`)
produces the runs and work items carry them, so placing it under
:mod:`repro.opsys` or :mod:`repro.db` would force the hardware layer to
import upward.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import SchedulerError

#: batches below this size skip the VM's vectorised fast path: its
#: fixed per-batch costs (home-map ``tobytes`` probe, translation
#: tables) exceed a handful of scalar loop iterations, and both paths
#: are bit-identical so the cut-over is trace-neutral
VECTOR_MIN_PAGES = 8


class PageSegments:
    """A read-only concatenation of contiguous page runs.

    Query compilation produces page footprints that are concatenations
    of a few contiguous ranges (base-column slices, consumed
    intermediates, shared builds).  Materialising them into one flat
    list would destroy the contiguity the VM and cache layers exploit —
    this sequence keeps the runs, and a slice that falls inside a single
    run comes back as a native :class:`range` (the array fast-path key).
    Slices crossing run boundaries come back as another
    :class:`PageSegments` holding the sub-runs, preserving the exact
    element order of the flat concatenation, so chunked execution
    (:meth:`repro.opsys.workitem.WorkItem.take_reads`) never degrades a
    footprint into per-page work.

    Every run is a non-empty step-1 :class:`range`; anything else is
    rejected at construction, so consumers of :func:`page_runs` never
    re-check a run's type.
    """

    __slots__ = ("_segments", "_starts", "_len")

    def __init__(self, segments):
        self._segments = list(segments)
        starts = []
        total = 0
        for segment in self._segments:
            if not (type(segment) is range and segment.step == 1
                    and len(segment)):
                raise SchedulerError(
                    f"page runs must be non-empty step-1 ranges, "
                    f"got {segment!r}")
            starts.append(total)
            total += len(segment)
        self._starts = starts
        self._len = total

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        for segment in self._segments:
            yield from segment

    def _locate(self, offset: int) -> int:
        """Index of the segment containing flat position ``offset``."""
        starts = self._starts
        lo, hi = 0, len(starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._len)
            if step != 1:
                raise SchedulerError("page runs slice with step 1 only")
            if start >= stop:
                return range(0)
            seg_idx = self._locate(start)
            base = self._starts[seg_idx]
            segment = self._segments[seg_idx]
            if stop - base <= len(segment):
                return segment[start - base:stop - base]
            # boundary-crossing slice: keep the runs (slicing a range
            # yields a range), same element order as the equivalent
            # slice of the concatenated list
            head = segment[start - base:]
            runs = [head]
            taken = len(head)
            want = stop - start
            for nxt in self._segments[seg_idx + 1:]:
                missing = want - taken
                if missing <= 0:
                    break
                run = nxt[:missing] if missing < len(nxt) else nxt
                runs.append(run)
                taken += len(run)
            return PageSegments(runs)
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("page index out of range")
        seg_idx = self._locate(index)
        return self._segments[seg_idx][index - self._starts[seg_idx]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PageSegments {self._segments!r}>"


def page_runs(pages) -> Sequence[range] | None:
    """The contiguous runs of a page batch in page order, or ``None``
    for scattered pages (a list, a strided range).  Runs are not
    bounds-checked: each consumer checks them against its page space.
    """
    if type(pages) is range:
        if pages.step != 1:
            return None
        return (pages,) if pages else ()
    if type(pages) is PageSegments:
        return pages._segments
    return None


def ascending_runs(pages) -> list[range]:
    """Any page sequence as its maximal ascending step-1 runs, in order
    (a scattered list yields one run per break in the sequence)."""
    runs = []
    pages = iter(pages)
    # the outer loop takes the first page; the inner one drains the rest
    for start in pages:
        prev = start
        for page in pages:
            if page != prev + 1:
                runs.append(range(start, prev + 1))
                start = page
            prev = page
        runs.append(range(start, prev + 1))
    return runs
