"""Parallel experiment runner: process fan-out and the benchmark harness.

Every figure harness is a sweep of independent *cells* — each cell builds
its own machine, OS and engine from scratch (:func:`build_system` resets
thread ids per cell), runs one configuration and returns a plain result
record.  Cells therefore parallelise embarrassingly: :mod:`.pool` fans
them across persistent spawn-safe worker processes and merges results in
submission order, so a parallel run is bit-identical to the serial one.
A task carries only the cell's scalar parameters, never captured state,
so it pickles to a few hundred bytes.

:mod:`.bench` wall-times the experiment suite (``repro bench``), writes a
``BENCH_<rev>.json`` snapshot under ``benchmarks/results/`` and compares
against the last committed baseline — the CI regression gate for the
simulation kernel's fast path.  Parallel bench passes record pool
telemetry (shipped bytes, worker utilisation, per-task seconds) that
feeds the next run's longest-expected-first dispatch.
"""

from .bench import (BENCH_SUITE, QUICK_SUITE, BenchReport, SweepSnapshot,
                    load_baseline, load_cost_hints, run_bench)
from .cache import ResultCache, configure, current, tree_fingerprint
from .pool import (PoolStats, Task, TaskError, configure_cost_hints,
                   last_pool_stats, resolve, run_tasks, task_cost_key)

__all__ = [
    "Task",
    "TaskError",
    "resolve",
    "run_tasks",
    "PoolStats",
    "last_pool_stats",
    "configure_cost_hints",
    "task_cost_key",
    "ResultCache",
    "configure",
    "current",
    "tree_fingerprint",
    "BENCH_SUITE",
    "QUICK_SUITE",
    "BenchReport",
    "SweepSnapshot",
    "load_baseline",
    "load_cost_hints",
    "run_bench",
]
