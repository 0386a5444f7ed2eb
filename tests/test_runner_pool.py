"""Unit tests for the parallel runner's pool and bench machinery.

These stay in-process (``parallel=1`` short-circuits the pool), so they
are cheap; the spawn path is covered by
``tests/test_parallel_experiments.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.runner.bench import (BENCH_SUITE, QUICK_SUITE, BenchReport,
                                _report_from_dict, load_baseline,
                                load_cost_hints, run_bench, write_report)
from repro.runner import pool as pool_mod
from repro.runner.cache import ResultCache
from repro.runner.pool import (PoolStats, Task, TaskError, _dispatch_order,
                               last_pool_stats, resolve, run_tasks,
                               task_cost_key)


# ---------------------------------------------------------------------
# pool


def _double(x):
    return 2 * x


def test_run_tasks_serial_preserves_submission_order():
    tasks = [Task("tests.test_runner_pool:_double", dict(x=i))
             for i in range(5)]
    assert run_tasks(tasks, parallel=1) == [0, 2, 4, 6, 8]


@pytest.mark.parametrize("parallel, n_tasks", [(1, 3), (2, 1)])
def test_a_serial_run_clears_the_last_pool_stats(monkeypatch, parallel,
                                                 n_tasks):
    """A call that takes the serial shortcut ran no pool, so it must not
    report the previous fan-out's stats."""
    monkeypatch.setattr(pool_mod, "_LAST_STATS", PoolStats(tasks=2))
    tasks = [Task("tests.test_runner_pool:_double", dict(x=i))
             for i in range(n_tasks)]
    run_tasks(tasks, parallel=parallel)
    assert last_pool_stats() is None


def test_an_all_cache_hit_run_clears_the_last_pool_stats(monkeypatch,
                                                         tmp_path):
    store = ResultCache(tmp_path)
    tasks = [Task("tests.test_runner_pool:_double", dict(x=i))
             for i in range(2)]
    run_tasks(tasks, parallel=1, cache=store)
    monkeypatch.setattr(pool_mod, "_LAST_STATS", PoolStats(tasks=2))
    assert run_tasks(tasks, parallel=2, cache=store) == [0, 2]
    assert last_pool_stats() is None


def _fail(x):
    return x / 0


def test_serial_failures_wrap_as_task_error_with_context():
    tasks = [Task("tests.test_runner_pool:_fail", dict(x=3))]
    with pytest.raises(TaskError) as excinfo:
        run_tasks(tasks, parallel=1)
    err = excinfo.value
    assert err.fn == "tests.test_runner_pool:_fail"
    assert "x" in err.kwargs and "3" in err.kwargs  # canonical string
    assert "ZeroDivisionError" in str(err)
    assert "kwargs" in str(err)


def test_task_error_is_not_rewrapped():
    # a TaskError raised inside a task (e.g. a nested run) passes
    # through unchanged instead of nesting messages
    original = TaskError("inner", fn="a:b", kwargs={"k": 1})

    def raiser():
        raise original

    import tests.test_runner_pool as mod
    mod._raiser = raiser
    try:
        with pytest.raises(TaskError) as excinfo:
            run_tasks([Task("tests.test_runner_pool:_raiser", {})],
                      parallel=1)
    finally:
        del mod._raiser
    assert excinfo.value is original


def test_task_cost_key_is_stable_and_kwarg_sensitive():
    key = task_cost_key("m:f", dict(b=2, a=1))
    assert key == task_cost_key("m:f", dict(a=1, b=2))  # order-free
    assert key != task_cost_key("m:f", dict(a=1, b=3))
    assert key != task_cost_key("m:g", dict(a=1, b=2))
    assert len(key) == 16 and int(key, 16) >= 0  # short hex token


def test_dispatch_order_ranks_unknown_then_longest():
    keys = ["a", "b", "c", "d"]
    hints = {"a": 0.5, "c": 2.0}  # b and d unknown
    # unknown tasks first (in submission order), then longest-first
    assert _dispatch_order(keys, hints) == [1, 3, 2, 0]
    # no hints: pure submission order
    assert _dispatch_order(keys, {}) == [0, 1, 2, 3]
    # equal hints tie-break by submission index
    assert _dispatch_order(["a", "b"], {"a": 1.0, "b": 1.0}) == [0, 1]


def test_pool_stats_utilisation_and_dict_shape():
    stats = PoolStats(workers=2, wall_seconds=2.0, tasks=4,
                      ipc_task_bytes=100, ipc_result_bytes=50)
    stats.busy_seconds = {0: 1.0, 1: 2.5}  # 2.5 > wall: clamped
    stats.worker_tasks = {0: 1, 1: 3}
    util = stats.worker_utilisation()
    assert util == {"0": pytest.approx(0.5), "1": pytest.approx(1.0)}
    assert stats.mean_utilisation() == pytest.approx(0.75)
    assert stats.ipc_bytes_shipped == 150
    data = stats.as_dict()
    assert data["ipc_bytes_shipped"] == 150
    assert data["worker_utilisation"] == util
    assert "shm_bytes" not in data  # tasks ship parameters only
    assert json.dumps(data)  # snapshot-serialisable


def test_run_tasks_rejects_nonpositive_parallel():
    with pytest.raises(ReproError):
        run_tasks([], parallel=0)


def test_resolve_rejects_malformed_specs():
    with pytest.raises(ReproError):
        resolve("no-colon")
    with pytest.raises(ReproError):
        resolve("definitely.not.a.module:fn")
    with pytest.raises(ReproError):
        resolve("math:no_such_attr")
    with pytest.raises(ReproError):
        resolve("math:pi")  # not callable


def test_bench_suite_specs_resolve():
    """Every suite entry points at an importable runner."""
    for name, (fn, kwargs) in BENCH_SUITE.items():
        runner = resolve(fn)
        assert callable(runner), name
        for key in kwargs:
            assert key in runner.__code__.co_varnames, (name, key)
    assert set(QUICK_SUITE) <= set(BENCH_SUITE)


# ---------------------------------------------------------------------
# bench report + baseline


def _report(rev, recorded_at, scores):
    report = BenchReport(rev=rev, recorded_at=recorded_at,
                         calibration_seconds=0.1)
    for name, score in scores.items():
        report.experiments[name] = (score * 0.1, score)
    return report


def test_compare_flags_regressions_beyond_tolerance():
    baseline = _report("aaa", 1.0, {"fig13": 10.0, "fig16": 4.0})
    current = _report("bbb", 2.0, {"fig13": 13.0, "fig16": 4.1})
    _, regressions = current.compare(baseline, tolerance=0.25)
    assert len(regressions) == 1
    assert "fig13" in regressions[0]
    _, regressions = current.compare(baseline, tolerance=0.5)
    assert regressions == []


def test_compare_headline_is_events_per_second_when_available():
    baseline = _report("aaa", 1.0, {"fig13": 10.0})
    baseline.events["fig13"] = 1000
    current = _report("bbb", 2.0, {"fig13": 10.0})
    current.events["fig13"] = 500  # throughput halved, scores equal
    table, regressions = current.compare(baseline, tolerance=0.25)
    assert "events/s" in table
    assert len(regressions) == 1
    assert "events/s" in regressions[0]

    current.events["fig13"] = 1000  # throughput restored
    _, regressions = current.compare(baseline, tolerance=0.25)
    assert regressions == []


def test_compare_falls_back_to_score_without_event_counts():
    # schema-1 baselines carry no event counts: fig13 compares by
    # events/s, fig16 (missing on the baseline side) by score
    baseline = _report("aaa", 1.0, {"fig13": 10.0, "fig16": 4.0})
    baseline.events["fig13"] = 1000
    current = _report("bbb", 2.0, {"fig13": 10.0, "fig16": 6.0})
    current.events["fig13"] = 1000
    current.events["fig16"] = 500
    table, regressions = current.compare(baseline, tolerance=0.25)
    assert len(regressions) == 1
    assert "fig16" in regressions[0] and "score" in regressions[0]


def test_compare_treats_new_experiments_as_informational():
    baseline = _report("aaa", 1.0, {"fig13": 10.0})
    current = _report("bbb", 2.0, {"fig13": 10.0, "fig16": 99.0})
    table, regressions = current.compare(baseline)
    assert regressions == []
    assert "new" in table


def test_write_and_load_baseline_roundtrip(tmp_path):
    old = _report("aaa", 1.0, {"fig13": 10.0})
    new = _report("bbb", 2.0, {"fig13": 11.0})
    write_report(old, tmp_path)
    path = write_report(new, tmp_path)
    assert path.name == "BENCH_bbb.json"
    data = json.loads(path.read_text())
    assert data["experiments"]["fig13"]["score"] == 11.0
    # latest by recorded_at wins...
    assert load_baseline(tmp_path).rev == "bbb"
    # ...unless excluded (the snapshot the run just wrote)
    assert load_baseline(tmp_path, exclude_rev="bbb").rev == "aaa"
    assert load_baseline(tmp_path / "missing") is None


def test_load_baseline_skips_corrupt_snapshots(tmp_path):
    (tmp_path / "BENCH_bad.json").write_text("{not json")
    (tmp_path / "BENCH_empty.json").write_text("{}")
    assert load_baseline(tmp_path) is None
    write_report(_report("ok", 3.0, {"fig13": 1.0}), tmp_path)
    assert load_baseline(tmp_path).rev == "ok"


def test_report_from_dict_tolerates_missing_fields():
    report = _report_from_dict({"experiments": {
        "fig13": {"seconds": 1.0, "score": 5.0}}})
    assert report.rev == "unknown"
    assert report.experiments["fig13"] == (1.0, 5.0)
    assert report.speedup is None


def test_run_bench_rejects_unknown_experiments():
    with pytest.raises(ReproError):
        run_bench(names=("not-an-experiment",))


def test_report_pool_telemetry_roundtrips_and_tolerates_absence():
    report = _report("ccc", 3.0, {"fig13": 10.0})
    stats = PoolStats(workers=2, wall_seconds=1.0, tasks=2,
                      ipc_task_bytes=10, ipc_result_bytes=5)
    stats.busy_seconds = {0: 0.4, 1: 0.6}
    stats.worker_tasks = {0: 1, 1: 1}
    stats.task_seconds = {"deadbeefdeadbeef": 0.5}
    report.pool = stats.as_dict()
    again = _report_from_dict(report.as_dict())
    assert again.pool == report.pool
    assert "(pool)" in again.table()
    # pre-pool snapshots (and serial-only runs) simply have no pool
    # block — compare() and the table must not care
    old = _report_from_dict({"experiments": {
        "fig13": {"seconds": 1.0, "score": 10.0}}})
    assert old.pool is None
    assert "(pool)" not in old.table()
    _, regressions = report.compare(old, tolerance=0.25)
    assert regressions == []


def test_load_cost_hints_reads_latest_baseline(tmp_path):
    assert load_cost_hints(tmp_path) == {}  # no snapshots yet
    old = _report("aaa", 1.0, {"fig13": 10.0})
    write_report(old, tmp_path)
    assert load_cost_hints(tmp_path) == {}  # serial snapshot: no pool
    new = _report("bbb", 2.0, {"fig13": 11.0})
    new.pool = {"task_seconds": {"deadbeefdeadbeef": 1.5}}
    write_report(new, tmp_path)
    assert load_cost_hints(tmp_path) == {"deadbeefdeadbeef": 1.5}
    assert load_cost_hints(tmp_path / "missing") == {}


def test_speedup_uses_serial_total_over_parallel_wall():
    report = _report("x", 1.0, {"a": 2.0, "b": 2.0})
    report.parallel = 4
    report.parallel_wall_seconds = 0.2
    assert report.speedup == pytest.approx(
        report.serial_total_seconds / 0.2)
    assert "speedup" in report.table()
