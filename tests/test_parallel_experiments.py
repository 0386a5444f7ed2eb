"""Parallel fan-out produces bit-identical results to serial runs.

These tests exercise the real spawn pool, so they carry worker start-up
cost; the parameterisations are kept minimal.  The fig16 test is the
parallel half of the golden-trace contract: the fan-out may not perturb
a single exported byte.  Every fan-out ships scalar cell parameters
only, so each task pickles to well under a kilobyte.
"""

from __future__ import annotations

import pathlib
import pickle

import pytest

from repro.experiments import (fig13_scheduling, fig14_memory,
                               fig15_selectivity, fig16_migration_modes,
                               fig17_strategies)
from repro.experiments.trials import run_trials
from repro.runner.pool import last_pool_stats
from repro.sim.export import dump_records

GOLDEN = (pathlib.Path(__file__).parent / "fixtures" / "golden"
          / "fig16_trace.jsonl")

#: must match tests/test_golden_trace.py FIG16_PARAMS
FIG16_PARAMS = dict(repetitions=1, warmup=1, scale=0.01, sim_scale=1.0)


#: bulk data never rides on a task: each pickles to under this
TASK_BYTES_BOUND = 1024


def _assert_parameters_only() -> None:
    stats = last_pool_stats()
    assert stats is not None and stats.tasks > 0
    assert stats.ipc_task_bytes < TASK_BYTES_BOUND * stats.tasks


def test_fig13_parallel_equals_serial():
    kwargs = dict(users=(1, 4), repetitions=1)
    serial = fig13_scheduling.run(**kwargs)
    par = fig13_scheduling.run(**kwargs, parallel=2)
    _assert_parameters_only()
    assert list(par.cells) == list(serial.cells)
    assert par.cells == serial.cells


@pytest.mark.parametrize("module, kwargs, attr", [
    (fig14_memory, dict(n_clients=4, repetitions=1), "cells"),
    (fig15_selectivity, dict(levels=(0.02, 1.0), n_clients=2,
                             repetitions=1), "misses"),
    (fig17_strategies, dict(repetitions=1, warmup=1), "cells"),
], ids=["fig14", "fig15", "fig17"])
def test_cell_fanout_parallel_equals_serial(module, kwargs, attr):
    serial = getattr(module.run(**kwargs), attr)
    par = getattr(module.run(**kwargs, parallel=2), attr)
    _assert_parameters_only()
    assert list(par) == list(serial)
    assert pickle.dumps(par) == pickle.dumps(serial)


def test_fig16_parallel_trace_is_bit_identical_to_golden(tmp_path):
    if not GOLDEN.exists():
        import pytest
        pytest.skip("golden fixture missing")
    result = fig16_migration_modes.run(**FIG16_PARAMS, parallel=2)
    records = [r for cell in result.cells.values() for r in cell.records]
    path = tmp_path / "trace.jsonl"
    dump_records(records, path)
    assert path.read_bytes() == GOLDEN.read_bytes()
    _assert_parameters_only()
    stats = last_pool_stats()
    assert stats.tasks == len(result.cells)
    assert 0.0 < stats.mean_utilisation() <= 1.0


def _trial_runner(seed):
    return seed * 2


def test_run_trials_parallel_matches_serial():
    spec = "tests.test_parallel_experiments:_trial_runner"
    serial = run_trials(spec, extract=lambda r: {"value": r},
                        seeds=(1, 2, 3))
    par = run_trials(spec, extract=lambda r: {"value": r},
                     seeds=(1, 2, 3), parallel=2)
    assert par.samples == serial.samples == {"value": [2.0, 4.0, 6.0]}
