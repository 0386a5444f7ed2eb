"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mixed_phases --seed 1 \\
        --seconds 30 --trace 0

With ``--trace 0`` the run makes ``round(seconds / nominal)``
iterations of the workload (see :mod:`perfbench.workloads`), checks
every simulated cell against the oracle and prints the end-to-end
metrics, host times normalised by :mod:`perfbench.hostspeed`.  With
``--trace 1`` it runs the workload's first iteration twice, untraced
and then with every layer's entry points wrapped in spans, prints the
per-layer metrics and writes the spans to
``perfbench/out/spans-<workload>-<seed>.npz``.

Each metric is printed as ``name value unit``; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted`` (cells), ``failed`` (cells) and ``metrics``.  The exit
code is 0 only when every cell passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
for _path in (str(ROOT), str(SRC)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: fresh interpreters timed for ``setup_s``; the median is reported
SETUP_PROBES = 7
#: what a user of the reproduction pays before the first system is
#: built: the imports of both experiment harnesses and of telemetry,
#: and the TPC-H dataset generation.  The child times itself, so the
#: interpreter's own start-up — not the program's, and the part of a
#: fresh process whose cost swings most on this host — is left out.
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import repro.experiments.fig13_scheduling, "
    "repro.experiments.fig19_mixed_phases, repro.obs\n"
    "from repro.experiments.common import dataset_for\n"
    "dataset_for()\n"
    "print(time.perf_counter() - start)\n")

SPAN_DIR = Path(__file__).resolve().parent / "out"

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "queries_per_s": "1/s", "cpu_s": "s",
    "peak_rss_mib": "MiB", "passed_cell_ratio": "ratio",
    "sim_makespan_s": "sim_s", "adaptive_speedup": "x",
}


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup() -> float:
    """Median wall seconds of a fresh interpreter's set-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=ROOT, check=True, capture_output=True,
                              text=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def peak_rss_mib(parallel: int) -> float:
    """Peak RSS of this process, plus its largest worker's if any."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if parallel > 1:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def geo_mean(values) -> float:
    values = list(values)
    return math.exp(sum(map(math.log, values)) / len(values))


def check(workload, runs, reference) -> tuple[int, int]:
    """(cells attempted, cells failed) over a run's iterations."""
    from perfbench.oracle import expected_labels, failed_cells

    first = None if workload == "mixed_phases" else runs[0].cells
    attempted = failed = 0
    for index, it in enumerate(runs):
        labels = failed_cells(workload, it.cells, it.raised, reference,
                              first if index else None)
        for label in labels:
            print(f"FAILED cell {workload} {label}", file=sys.stderr)
        attempted += len(expected_labels(workload, it.cells, it.raised))
        failed += len(labels)
    return attempted, failed


def timed_run(workload: str, seed: int, seconds: float):
    """The end-to-end metrics of one untraced run."""
    from perfbench import workloads
    from perfbench.hostspeed import Sampler
    from perfbench.oracle import load_reference

    workloads.prepare()
    # one sampler across the run: the mean of all its slices estimates
    # the host's speed over the run more steadily than any one
    # iteration's share of them
    sampler = Sampler()
    runs = []
    for index in range(workloads.iterations(workload, seconds)):
        spent_s, spent_cpu_s = sampler.spent_s, sampler.spent_cpu_s
        with sampler:
            it = workloads.run_iteration(workload, seed, index)
        it.wall_s -= sampler.spent_s - spent_s
        it.cpu_s -= sampler.spent_cpu_s - spent_cpu_s
        runs.append(it)
    attempted, failed = check(workload, runs, load_reference())
    rss = peak_rss_mib(workloads.PARALLEL[workload])
    with sampler:
        setup = measure_setup()
    slowdown = sampler.slowdown()
    wall = statistics.median(it.wall_s for it in runs)
    cpu = statistics.median(it.cpu_s for it in runs)
    print(f"host slowdown {slowdown:.4f} (raw setup_s {setup:.4f}, "
          f"wall_s {wall:.4f}, cpu_s {cpu:.4f})")
    metrics = {
        "setup_s": setup / slowdown,
        "wall_s": wall / slowdown,
        "queries_per_s": statistics.median(
            it.queries / it.wall_s for it in runs) * slowdown,
        "cpu_s": cpu / slowdown,
        "peak_rss_mib": rss,
        "passed_cell_ratio": 1.0 - failed / attempted,
        "sim_makespan_s": sum(it.sim_makespan_s for it in runs)
        / len(runs),
        "adaptive_speedup": geo_mean(it.speedup for it in runs),
    }
    print(f"iterations {len(runs)}  failed_cell_ratio "
          f"{failed / attempted:.4f}")
    return attempted, failed, {
        name: (value, END_TO_END_UNITS[name])
        for name, value in metrics.items()}


#: per-layer metric -> the span whose summed self time it reports
SELF_TIMES = {
    "opsys.run.self_s": "opsys.run",
    "opsys.vm.touch.self_s": "opsys.vm.touch",
    "hardware.touch.self_s": "hardware.touch",
    "hardware.touch_write.self_s": "hardware.touch_write",
    "db.submit.self_s": "db.submit",
    "db.compile.self_s": "db.compile",
    "control.tick.self_s": "control.tick",
    "control.sense.self_s": "control.sense",
    "sim.state.capture_s": "sim.state.capture",
    "sim.state.restore_s": "sim.state.restore",
    "obs.flush.self_s": "obs.flush",
}
#: per-layer metric -> the span whose calls it counts
CALLS = {
    "opsys.spawn.calls": "opsys.spawn",
    "opsys.vm.touch.calls": "opsys.vm.touch",
    "hardware.touch.calls": "hardware.touch",
    "hardware.touch_write.calls": "hardware.touch_write",
    "db.submit.calls": "db.submit",
    "db.compile.calls": "db.compile",
    "control.ticks": "control.tick",
    "control.apply.calls": "control.apply",
    "sim.state.captures": "sim.state.capture",
    "sim.state.restores": "sim.state.restore",
    "obs.flushes": "obs.flush",
}
#: per-layer metric -> unit, for the work counts the wrappers add up
COUNTS = {
    "opsys.vm.touch.pages": "count",
    "opsys.vm.minor_faults": "count",
    "hardware.touch.pages": "count",
    "hardware.touch.pages_range": "count",
    "hardware.touch.pages_segments": "count",
    "hardware.touch.pages_list": "count",
    "hardware.touch.pages_over_l3": "count",
    "hardware.touch_write.pages": "count",
    "hardware.sim.l3_misses": "count",
    "hardware.sim.ht_bytes": "B",
    "hardware.sim.imc_bytes": "B",
    "control.cores_moved": "count",
    "sim.state.capture_bytes": "B",
}


def pool_metrics(pool) -> dict:
    """The runner's metrics from one fan-out's PoolStats (zero when
    the iteration ran serially)."""
    if pool is None:
        return {"runner.tasks": (0, "count"),
                "runner.worker_utilisation": (0.0, "ratio"),
                "runner.idle_s": (0.0, "s"),
                "runner.task_s.max": (0.0, "s"),
                "runner.ipc_bytes": (0, "B"),
                "runner.shm_bytes": (0, "B"),
                "runner.respawns": (0, "count")}
    return {
        "runner.tasks": (pool.tasks, "count"),
        "runner.worker_utilisation": (pool.mean_utilisation(), "ratio"),
        "runner.idle_s": (pool.workers * pool.wall_seconds
                          - sum(pool.busy_seconds.values()), "s"),
        "runner.task_s.max": (max(pool.task_seconds.values(),
                                  default=0.0), "s"),
        "runner.ipc_bytes": (pool.ipc_bytes_shipped, "B"),
        "runner.shm_bytes": (pool.shm_bytes, "B"),
        "runner.respawns": (pool.respawns, "count"),
    }


def layer_metrics(payload: dict, untraced, traced, events: int) -> dict:
    """Per-layer metrics of one traced iteration."""
    from perfbench.trace import call_counts, self_times

    own = self_times(payload)
    calls = call_counts(payload)
    counts = payload["counts"]
    recorder = traced.recorder
    out = {
        "sim.events": (events, "count"),
        "sim.events_per_s": (events / untraced.wall_s, "1/s"),
        "obs.spans": (len(recorder.spans) if recorder else 0, "count"),
        "obs.decisions": (len(recorder.decisions) if recorder else 0,
                          "count"),
        "trace.overhead": (traced.wall_s / untraced.wall_s - 1.0,
                           "ratio"),
    }
    out.update((metric, (own.get(span, 0.0), "s"))
               for metric, span in SELF_TIMES.items())
    out.update((metric, (calls.get(span, 0), "count"))
               for metric, span in CALLS.items())
    out.update((metric, (counts.get(metric, 0.0), unit))
               for metric, unit in COUNTS.items())
    out.update(pool_metrics(untraced.pool))
    return out


def traced_run(workload: str, seed: int):
    """The per-layer metrics of one traced iteration."""
    from perfbench import workloads
    from perfbench.oracle import load_reference
    from perfbench.trace import (Tracer, leftover_wrappers,
                                 nesting_violations, write_spans)
    from repro.sim.engine import delivered_total

    workloads.prepare()
    untraced = workloads.run_iteration(workload, seed, 0)
    tracer = Tracer()
    before = delivered_total()
    with tracer:
        traced = workloads.run_iteration(workload, seed, 0)
    events = delivered_total() - before \
        + int(tracer.log.counts.get("sim.events", 0))
    payload = tracer.log.export()
    attempted, failed = check(workload, [untraced, traced],
                              load_reference())
    problems = []
    if traced.cells != untraced.cells:
        problems.append("traced cells differ from untraced cells")
    counts = payload["counts"]
    if counts.get("experiment.queries_completed") \
            != counts.get("experiment.queries_issued"):
        problems.append("a client pool completed fewer queries than "
                        "it issued")
    if leftover_wrappers():
        problems.append(f"wrappers left installed: {leftover_wrappers()}")
    if nesting_violations(payload):
        problems.append("spans do not nest")
    for problem in problems:
        print(f"FAILED {workload}: {problem}", file=sys.stderr)
    if problems and not failed:
        failed = attempted
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload}-{seed}.npz"
    write_spans(payload, path)
    print(f"traced wall_s {traced.wall_s:.3f} (untraced "
          f"{untraced.wall_s:.3f}); spans written to {path}")
    return attempted, failed, layer_metrics(payload, untraced, traced,
                                            events)


def stop_resource_tracker() -> None:
    """Stop the resource tracker a spawn pool started and wait for it.

    Left alone it outlives this process by a moment, cleaning up after
    the workers; stopping it here means the run ends with every process
    it started.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()  # no-op when not running


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    from repro.runner import cache

    cache.configure(False)  # every cell is simulated, never replayed
    try:
        if args.trace:
            attempted, failed, metrics = traced_run(args.workload,
                                                    args.seed)
        else:
            attempted, failed, metrics = timed_run(
                args.workload, args.seed, args.seconds)
    finally:
        stop_resource_tracker()
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
