"""The benchmark's own tests: tracing, determinism and the oracle.

Run from the root of a checkout with ``python -m pytest perfbench/tests``.
Most tests trace small configurations of the workloads' harnesses; the
last ones run ``perfbench/run.py`` itself.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import hostspeed, oracle, trace, workloads
from repro.experiments import fig13_scheduling, fig19_mixed_phases
from repro.obs import (LiveBus, Recorder, install, install_live, uninstall,
                       uninstall_live)
from repro.runner import cache
from repro.sim.engine import delivered_total

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: counts that depend only on the simulated work, never on the host
DETERMINISTIC = (
    "sim.events", "hardware.touch.pages", "hardware.touch.pages_range",
    "hardware.touch.pages_segments", "hardware.touch.pages_list",
    "hardware.touch.pages_over_l3", "hardware.sim.l3_misses",
    "hardware.sim.ht_bytes", "hardware.sim.imc_bytes",
    "opsys.vm.touch.pages", "opsys.vm.minor_faults",
)


@pytest.fixture(autouse=True)
def no_result_cache():
    cache.configure(False)
    yield
    cache.configure(None)


def small_mixed():
    return workloads.mixed_iteration(5, n_clients=8, queries_per_client=2)


def small_sweep(parallel: int = 1):
    return fig13_scheduling.run(users=(1, 4), repetitions=2,
                                parallel=parallel).cells


def traced(fn, *args):
    """(value, span payload, wall seconds) of one traced call."""
    tracer = trace.Tracer()
    before = delivered_total()
    start = time.perf_counter()
    with tracer:
        value = fn(*args)
    wall = time.perf_counter() - start
    tracer.log.add("sim.events", delivered_total() - before)
    return value, tracer.log.export(), wall


def test_mixed_iteration_is_fig19_under_telemetry():
    it = small_mixed()
    install(Recorder())
    install_live(LiveBus())
    try:
        result = fig19_mixed_phases.run(
            engine="monetdb", n_clients=8, queries_per_client=2, seed=5,
            modes=workloads.MIXED_MODES)
    finally:
        uninstall_live()
        uninstall()
    for mode, run in result.runs.items():
        cell = it.cells[f"5/{mode}"]
        assert cell["mean_latency"] == run.mean_latency
        assert cell["ht_imc_ratio"] == run.ht_imc_ratio
        assert cell["makespan"] == run.makespan
        assert cell["throughput"] == run.throughput
    assert it.speedup == result.mean_speedup()


@pytest.mark.parametrize("fn", [small_mixed, small_sweep])
def test_spans_nest_and_self_times_fit_in_wall(fn):
    _, payload, wall = traced(fn)
    assert len(payload["name"]) > 1000
    assert trace.nesting_violations(payload) == 0
    own = trace.self_times(payload)
    assert min(own.values()) >= 0.0
    assert sum(own.values()) <= wall


def test_no_wrapper_left_after_a_traced_run():
    traced(small_mixed)
    assert trace.leftover_wrappers() == []
    with pytest.raises(ZeroDivisionError):
        with trace.Tracer():
            assert trace.leftover_wrappers()
            1 / 0
    assert trace.leftover_wrappers() == []


def test_traced_outcomes_equal_untraced():
    assert traced(small_mixed)[0].cells == small_mixed().cells


def test_deterministic_counts_repeat_exactly():
    cells_a, a, _ = traced(small_sweep)
    cells_b, b, _ = traced(small_sweep)
    assert cells_a == cells_b
    for key in DETERMINISTIC:
        assert a["counts"].get(key) == b["counts"].get(key), key
    assert a["counts"]["hardware.touch.pages"] > 0
    calls_a, calls_b = trace.call_counts(a), trace.call_counts(b)
    assert calls_a == calls_b
    assert calls_a["sim.state.capture"] == 2  # one warm base per user count


def test_parallel_sweep_traces_inside_workers():
    serial_cells, serial, _ = traced(small_sweep)
    parallel_cells, parallel, _ = traced(small_sweep, 2)
    assert parallel_cells == serial_cells
    assert len(parallel["tracks"]) == 2  # one traced task per user count
    for key in DETERMINISTIC:
        assert parallel["counts"].get(key) == serial["counts"].get(key), key
    serial_calls = trace.call_counts(serial)
    parallel_calls = trace.call_counts(parallel)
    for name in ("hardware.touch", "opsys.vm.touch", "sim.state.capture",
                 "sim.state.restore", "control.tick"):
        assert parallel_calls[name] == serial_calls[name], name
    assert trace.nesting_violations(parallel) == 0
    assert trace.leftover_wrappers() == []


def test_oracle_accepts_the_reference_and_flags_a_changed_cell():
    reference = oracle.load_reference()
    cells = dict(reference["scheduling_sweep"])
    assert oracle.failed_cells("scheduling_sweep_p2", cells, [],
                               reference) == []
    cells["adaptive/64"] = dict(cells["adaptive/64"])
    cells["adaptive/64"]["stolen_tasks"] += 1
    assert oracle.failed_cells("scheduling_sweep_p2", cells, [],
                               reference) == ["adaptive/64"]
    del cells["OS/1"]
    assert "OS/1" in oracle.failed_cells("scheduling_sweep", cells, [],
                                         reference)


def test_oracle_invariants_hold_without_a_reference():
    it = small_mixed()
    assert oracle.failed_cells("mixed_phases", it.cells, [], {}) == []
    short = {label: dict(cell) for label, cell in it.cells.items()}
    short["5/OS"]["queries_completed"] -= 1
    assert oracle.failed_cells("mixed_phases", short, [], {}) == ["5/OS"]
    assert oracle.failed_cells("mixed_phases", {}, ["5/adaptive"],
                               {}) == ["5/OS", "5/adaptive"]


def test_reference_records_the_held_out_seeds():
    mixed = oracle.load_reference()["mixed_phases"]
    for seed in oracle.HELD_OUT_SEEDS:
        for index in range(workloads.iterations("mixed_phases",
                                                BENCHMARK["run_seconds"])):
            stream = workloads.stream_seed(seed, index)
            assert f"{stream}/OS" in mixed
            assert f"{stream}/adaptive" in mixed


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)


def test_untraced_run_prints_every_end_to_end_metric():
    done = run_bench("--workload", "scheduling_sweep", "--seed", "3",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 16
    names = [metric["name"] for metric in BENCHMARK["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for metric in BENCHMARK["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0


def test_traced_run_prints_every_per_layer_metric():
    done = run_bench("--workload", "scheduling_sweep_p2", "--seed", "3",
                     "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"]
    names = [metric["name"] for metric in BENCHMARK["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    for metric in BENCHMARK["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["runner.tasks"]["value"] == 4
    assert (ROOT / "perfbench" / "out"
            / "spans-scheduling_sweep_p2-3.npz").is_file()


def test_sampler_times_slices_and_puts_the_alarm_back():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        end = time.perf_counter() + 5 * hostspeed.INTERVAL_S
        while time.perf_counter() < end:  # busy, as measured work is
            pass
    assert len(sampler.slices) >= 3
    assert sampler.slowdown() > 0
    assert 0 < sampler.spent_cpu_s <= sampler.spent_s
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert gc.isenabled()


def test_stop_resource_tracker_reaps_the_tracker():
    from multiprocessing import resource_tracker

    from perfbench.run import stop_resource_tracker

    resource_tracker.ensure_running()
    pid = resource_tracker._resource_tracker._pid
    stop_resource_tracker()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):  # already waited for
        os.waitpid(pid, os.WNOHANG)


def test_parallel_run_leaves_no_process_behind():
    done = run_bench("--workload", "scheduling_sweep_p2", "--seed", "4",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    # the pool's workers and its resource tracker run in the checkout;
    # every one of them must have ended before run.py exited
    assert multiprocessing_helpers_in(ROOT) == []


def multiprocessing_helpers_in(cwd: Path) -> list[str]:
    """Command lines of live multiprocessing helpers working in ``cwd``,
    leaving out this test process's own."""
    found = []
    for proc in Path("/proc").iterdir():
        try:
            if not proc.name.isdigit() or Path(proc, "cwd").resolve() != cwd:
                continue
            stat = Path(proc, "stat").read_text()
            if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
                continue
            argv = Path(proc, "cmdline").read_bytes().split(b"\0")
        except OSError:  # ended meanwhile, or not ours to read
            continue
        # spawn workers and the resource tracker run ``python -c "from
        # multiprocessing.<module> import ..."``
        if any(arg.startswith(b"from multiprocessing.") for arg in argv):
            found.append(b" ".join(argv).decode(errors="replace"))
    return found


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "mixed_phases", "--seed", "1",
                     "--seconds", "10", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
