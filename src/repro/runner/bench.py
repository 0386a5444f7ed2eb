"""``repro bench`` — wall-clock the experiment suite, keep a baseline.

The harness times a fixed set of figure experiments (small, pinned
parameterisations — the *bench suite*), normalises each wall time by a
calibration loop run on the same interpreter (so scores transfer across
machines of different speeds), and writes the snapshot to
``benchmarks/results/BENCH_<rev>.json``.

The latest *committed* snapshot acts as the regression baseline: CI runs
``repro bench --quick`` and fails when any experiment's headline metric
— calibrated simulation events/sec, falling back to the normalised
wall-time score against schema-1 baselines — regresses by more than the
tolerance (default 25 %).  With
``--parallel N`` the suite is additionally fanned across worker
processes (one experiment per worker) and the serial/parallel speedup is
reported and recorded.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..analysis.report import render_table
from ..errors import ReproError
from .pool import PoolStats, Task, resolve, run_tasks, task_cost_key

#: the benchmark parameterisations.  Small enough for CI, large enough to
#: exercise the scheduler, the controller and the memory system; pinned
#: so scores stay comparable across revisions.
BENCH_SUITE: dict[str, tuple[str, dict]] = {
    "fig4": ("repro.experiments.fig04_microbench:run",
             dict(users=(1, 4, 16), repetitions=2)),
    "fig7": ("repro.experiments.fig07_state_transitions:run",
             dict(repetitions=6)),
    "fig13": ("repro.experiments.fig13_scheduling:run",
              dict(users=(1, 4, 16), repetitions=2)),
    "fig14": ("repro.experiments.fig14_memory:run",
              dict(n_clients=16, repetitions=2)),
    "fig15": ("repro.experiments.fig15_selectivity:run",
              dict(n_clients=8, repetitions=1)),
    "fig16": ("repro.experiments.fig16_migration_modes:run",
              dict(repetitions=2, warmup=2)),
    "fig17": ("repro.experiments.fig17_strategies:run",
              dict(repetitions=2, warmup=3)),
}

#: the CI smoke subset: one controller trace, one scheduling sweep, one
#: migration-map harness — the three hot paths the fast-path kernel touches
QUICK_SUITE = ("fig7", "fig13", "fig16")

RESULTS_DIR = Path("benchmarks") / "results"
#: schema 2 adds per-experiment delivered-event counts and the list of
#: cache-replayed entries; schema-1 snapshots still load (events empty)
SCHEMA = 2

#: spec string the result cache keys bench entries under
_BENCH_FN = "repro.runner.bench:_bench_one"

#: serial suite entries are timed best-of-N, like :func:`_calibrate`;
#: the shortest suite member is ~50 ms, where single-shot wall time on
#: a busy host swings further than the regression gate's tolerance
TIMING_REPEATS = 3


def _calibrate(iterations: int = 2_000_000, repeats: int = 3) -> float:
    """Time a fixed arithmetic loop; the unit of normalised scores.

    Takes the best of ``repeats`` runs — the minimum is the standard
    robust timing estimator (noise only ever makes a run slower), and a
    drifting calibration would scale *every* score and trip the
    regression tolerance spuriously.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0.0
        for i in range(iterations):
            acc += i * 0.5 - (i & 7)
        elapsed = time.perf_counter() - start
        # keep the accumulator alive so the loop cannot be optimised away
        if acc != float("inf") and elapsed < best:
            best = elapsed
    return best


def _git_rev() -> str:
    """Short revision of the working tree, or ``local`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except OSError:
        return "local"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "local"


def _bench_one(name: str, fn: str, kwargs: dict,
               repeats: int = 1) -> tuple[str, float, int]:
    """Worker entry point: run and time one suite experiment.

    Returns ``(name, wall seconds, events delivered)`` — the event count
    comes from the engine's process-wide delivery counter, so it is
    exact whether the experiment ran serially or in this worker.

    With ``repeats`` > 1 the experiment runs that many times and the
    *minimum* wall time is kept — the same robust estimator
    :func:`_calibrate` uses (noise only ever makes a run slower).  The
    serial suite times with :data:`TIMING_REPEATS` so short entries
    (fig7 is ~50 ms) don't swing past the regression tolerance on a
    noisy host; the parallel pass times single runs, since it measures
    fan-out wall clock, not per-experiment throughput.  The delivered
    count is per run (every repetition delivers the same events — the
    simulation is deterministic), so rates stay comparable with
    single-run snapshots.
    """
    from ..sim.engine import delivered_total
    runner = resolve(fn)
    best = float("inf")
    events = 0
    for _ in range(max(repeats, 1)):
        before = delivered_total()
        start = time.perf_counter()
        runner(**kwargs)
        elapsed = time.perf_counter() - start
        events = delivered_total() - before
        if elapsed < best:
            best = elapsed
    return name, best, events


@dataclass
class SweepSnapshot:
    """One benchmark snapshot (what ``BENCH_<rev>.json`` serialises)."""

    rev: str
    recorded_at: float
    calibration_seconds: float
    #: experiment -> (wall seconds, normalised score)
    experiments: dict[str, tuple[float, float]] = field(
        default_factory=dict)
    #: experiment -> simulation events delivered during the timed run
    events: dict[str, int] = field(default_factory=dict)
    #: suite entries replayed from the result cache (their seconds and
    #: event counts are the original run's, not re-measured)
    cached: list[str] = field(default_factory=list)
    parallel: int = 0
    parallel_wall_seconds: float | None = None
    #: cores visible to this interpreter; a parallel speedup below 1.0
    #: on a single-core host is expected, not a defect
    cpu_count: int = field(default_factory=lambda: os.cpu_count() or 1)
    #: pool telemetry from the parallel pass
    #: (:meth:`~repro.runner.pool.PoolStats.as_dict`: shipped IPC bytes,
    #: per-worker utilisation, per-task seconds); absent in snapshots
    #: recorded before it existed and in serial-only runs
    pool: dict | None = None

    @property
    def serial_total_seconds(self) -> float:
        """Sum of the serial per-experiment wall times."""
        return sum(seconds for seconds, _ in self.experiments.values())

    @property
    def speedup(self) -> float | None:
        """Serial-total over parallel wall clock, when both were run."""
        if not self.parallel_wall_seconds:
            return None
        return self.serial_total_seconds / self.parallel_wall_seconds

    def as_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "schema": SCHEMA,
            "rev": self.rev,
            "recorded_at": self.recorded_at,
            "calibration_seconds": self.calibration_seconds,
            "experiments": {
                name: {"seconds": seconds, "score": score,
                       "events": self.events.get(name, 0)}
                for name, (seconds, score) in self.experiments.items()},
            "cached": list(self.cached),
            "serial_total_seconds": self.serial_total_seconds,
            "parallel": self.parallel,
            "parallel_wall_seconds": self.parallel_wall_seconds,
            "speedup": self.speedup,
            "cpu_count": self.cpu_count,
            "pool": self.pool,
        }

    def _events_per_second(self, name: str) -> str:
        seconds, _ = self.experiments[name]
        events = self.events.get(name, 0)
        if not events or seconds <= 0:
            return ""
        return f"{events / seconds:,.0f}"

    def calibrated_rate(self, name: str) -> float | None:
        """Calibration-normalised throughput: events per calibration unit.

        Dividing the wall time by the calibration loop's makes the rate
        transfer across machines the same way scores do; ``None`` when
        the snapshot carries no event count for the experiment (e.g. a
        schema-1 baseline).
        """
        entry = self.experiments.get(name)
        if entry is None:
            return None
        seconds, _ = entry
        events = self.events.get(name, 0)
        if not events or seconds <= 0 or self.calibration_seconds <= 0:
            return None
        return events / (seconds / self.calibration_seconds)

    def table(self) -> str:
        """The snapshot as a text table."""
        rows: list[list[object]] = [
            [name + (" (cached)" if name in self.cached else ""),
             seconds, self._events_per_second(name), score]
            for name, (seconds, score) in self.experiments.items()]
        rows.append(["(serial total)", self.serial_total_seconds, "",
                     ""])
        if self.parallel_wall_seconds is not None:
            rows.append([f"(parallel x{self.parallel})",
                         self.parallel_wall_seconds, "",
                         f"speedup {self.speedup:.2f}x on "
                         f"{self.cpu_count} core(s)"])
        if self.pool:
            shipped = int(self.pool.get("ipc_bytes_shipped", 0) or 0)
            util = float(self.pool.get("mean_utilisation", 0.0) or 0.0)
            rows.append(["(pool)", "", "",
                         f"util {util:.0%}, {shipped:,} B IPC"])
        return render_table(
            ["experiment", "wall s", "events/s", "score (calibrated)"],
            rows,
            title=f"repro bench @ {self.rev} "
                  f"(calibration {self.calibration_seconds:.3f}s)")

    # ------------------------------------------------------------------

    def compare(self, baseline: "SweepSnapshot",
                tolerance: float = 0.25) -> tuple[str, list[str]]:
        """(comparison table, regression messages) vs a baseline.

        The headline metric is calibrated events/sec — simulation
        throughput, which is what the fast-path work actually optimises
        — whenever both snapshots carry event counts for an experiment;
        a drop beyond the tolerance is a regression.  Experiments
        missing an event count on either side (schema-1 baselines) fall
        back to the normalised wall-time score, where a *rise* beyond
        the tolerance regresses.  Both metrics are calibration-
        normalised, so a slower CI machine does not read as a
        regression.
        """
        rows: list[list[object]] = []
        regressions: list[str] = []
        for name, (_, score) in self.experiments.items():
            base = baseline.experiments.get(name)
            if base is None:
                rows.append([name, "", "", f"{score:.2f}", "new"])
                continue
            rate = self.calibrated_rate(name)
            base_rate = baseline.calibrated_rate(name)
            if rate is not None and base_rate:
                change = (rate - base_rate) / base_rate
                verdict = f"{change:+.1%}"
                if change < -tolerance:
                    verdict += " REGRESSION"
                    regressions.append(
                        f"{name}: events/s {rate:,.0f} vs baseline "
                        f"{base_rate:,.0f} ({change:+.1%} < "
                        f"-{tolerance:.0%} tolerance)")
                rows.append([name, "events/s", f"{base_rate:,.0f}",
                             f"{rate:,.0f}", verdict])
                continue
            base_score = base[1]
            change = (score - base_score) / base_score if base_score \
                else 0.0
            verdict = f"{change:+.1%}"
            if change > tolerance:
                verdict += " REGRESSION"
                regressions.append(
                    f"{name}: score {score:.2f} vs baseline "
                    f"{base_score:.2f} ({change:+.1%} > "
                    f"{tolerance:.0%} tolerance)")
            rows.append([name, "score", f"{base_score:.2f}",
                         f"{score:.2f}", verdict])
        table = render_table(
            ["experiment", "metric", f"baseline ({baseline.rev})",
             "current", "change"],
            rows, title="vs committed baseline")
        return table, regressions


#: historical name, still constructed directly by callers and tests
BenchReport = SweepSnapshot


def retry_regressions(report: SweepSnapshot, baseline: SweepSnapshot,
                      tolerance: float = 0.25, rounds: int = 2,
                      cache: object = None) -> int:
    """Re-measure regressed suite entries before declaring failure.

    On a shared host a multi-second suite entry can land entirely
    inside a neighbour's load burst, reading 2× slow while the short
    calibration loop (best-of-3 over ~0.2 s windows) slips between
    bursts and cannot compensate.  A *real* code regression reproduces
    on every re-run, so re-timing only the entries that tripped the
    gate — keeping the minimum wall time, up to ``rounds`` extra
    rounds, each re-measured against a fresh calibration so sustained
    load cancels out of the ratio — removes transient false positives
    without loosening the gate for true regressions.  Mutates
    ``report`` in place (and the
    result ``cache``, when given, so a stale slow timing is not
    replayed later); returns the number of entries re-measured.
    """
    retried = 0
    for _ in range(max(rounds, 0)):
        _, regressions = report.compare(baseline, tolerance=tolerance)
        names = [m.split(":", 1)[0] for m in regressions]
        names = [n for n in names
                 if n in BENCH_SUITE and n in report.experiments
                 and n not in report.cached]
        if not names:
            break
        # re-calibrate per round: if the load persists through the
        # retry, the fresh calibration is slow too, and scaling the
        # re-measured wall back into the report's calibration units
        # compensates — the original calibration ran in a window the
        # regressed entry did not get
        scale = report.calibration_seconds / _calibrate()
        for name in names:
            fn, kwargs = BENCH_SUITE[name]
            _, wall, events = _bench_one(name, fn, kwargs,
                                         repeats=TIMING_REPEATS)
            retried += 1
            seconds = wall * scale
            if seconds < report.experiments[name][0]:
                report.experiments[name] = (
                    seconds, seconds / report.calibration_seconds)
                report.events[name] = events
                if cache is not None:
                    key = cache.task_key(
                        _BENCH_FN, dict(name=name, fn=fn, kwargs=kwargs))
                    cache.store(key, (name, seconds, events))
    return retried


def run_bench(names: tuple[str, ...] | None = None, quick: bool = False,
              parallel: int = 0, cache: object = None) -> SweepSnapshot:
    """Time the bench suite; optionally add a parallel fan-out pass.

    ``cache`` follows the :func:`~repro.runner.pool.run_tasks`
    convention (``None`` defers to the process-wide cache, ``False``
    forces it off).  A cached suite entry replays its original wall time
    and event count instead of re-running — those entries are listed in
    the snapshot's ``cached`` field, and callers should not persist a
    snapshot whose timings were replayed.
    """
    from .cache import resolve_cache

    if names is None:
        names = QUICK_SUITE if quick else tuple(BENCH_SUITE)
    unknown = [n for n in names if n not in BENCH_SUITE]
    if unknown:
        raise ReproError(
            f"not in the bench suite: {', '.join(unknown)} "
            f"(available: {', '.join(BENCH_SUITE)})")
    report = SweepSnapshot(
        rev=_git_rev(),
        # snapshot metadata, not simulated time
        recorded_at=time.time(),  # verify: allow=lint:wall-clock
        calibration_seconds=_calibrate(),
    )
    store = resolve_cache(cache)
    results: dict[str, tuple[float, int]] = {}
    misses: list[tuple[str, str, dict, str | None]] = []
    for name in names:
        fn, kwargs = BENCH_SUITE[name]
        key = None
        if store is not None:
            key = store.task_key(
                _BENCH_FN, dict(name=name, fn=fn, kwargs=kwargs))
            hit, value = store.lookup(key)
            if hit:
                results[name] = (value[1], value[2])
                report.cached.append(name)
                continue
        misses.append((name, fn, kwargs, key))
    if misses:
        # untimed warmup: the first experiment of a run otherwise pays
        # for module imports and the shared dataset cache, which reads
        # as a spurious regression on whichever suite member goes first
        _bench_one("warmup", *BENCH_SUITE["fig7"])
        for name, fn, kwargs, key in misses:
            _, seconds, events = _bench_one(name, fn, kwargs,
                                            repeats=TIMING_REPEATS)
            results[name] = (seconds, events)
            if store is not None and key is not None:
                store.store(key, (name, seconds, events))
    for name in names:
        seconds, events = results[name]
        report.experiments[name] = (
            seconds, seconds / report.calibration_seconds)
        report.events[name] = events
    if parallel > 1:
        # cache=False: the parallel pass measures fan-out wall clock,
        # which replayed results would turn into a no-op
        tasks = [Task(_BENCH_FN,
                      dict(name=name, fn=BENCH_SUITE[name][0],
                           kwargs=BENCH_SUITE[name][1]))
                 for name in names]
        # straggler-aware dispatch: this run's own serial wall times
        # are the best available cost estimates for its parallel pass
        hints = {task_cost_key(task.fn, task.kwargs): results[name][0]
                 for name, task in zip(names, tasks)}
        pool_stats = PoolStats()
        start = time.perf_counter()
        run_tasks(tasks, parallel=parallel, cache=False,
                  cost_hints=hints, stats=pool_stats)
        report.parallel = parallel
        report.parallel_wall_seconds = time.perf_counter() - start
        report.pool = pool_stats.as_dict()
    return report


# ----------------------------------------------------------------------
# snapshot persistence


def write_report(report: SweepSnapshot,
                 out_dir: Path | str = RESULTS_DIR) -> Path:
    """Serialise the snapshot to ``<out_dir>/BENCH_<rev>.json``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{report.rev}.json"
    path.write_text(json.dumps(report.as_dict(), indent=2,
                               sort_keys=True) + "\n")
    return path


def _report_from_dict(data: dict) -> SweepSnapshot:
    report = SweepSnapshot(
        rev=str(data.get("rev", "unknown")),
        recorded_at=float(data.get("recorded_at", 0.0)),
        calibration_seconds=float(data.get("calibration_seconds", 1.0)),
        parallel=int(data.get("parallel", 0) or 0),
        parallel_wall_seconds=data.get("parallel_wall_seconds"),
        cpu_count=int(data.get("cpu_count", 0) or 1),
        # absent in pre-pool snapshots; compare() never reads it
        pool=data.get("pool") or None,
    )
    report.cached = [str(name) for name in data.get("cached", [])]
    for name, entry in data.get("experiments", {}).items():
        report.experiments[name] = (float(entry["seconds"]),
                                    float(entry["score"]))
        # schema-1 snapshots carry no event counts
        events = int(entry.get("events", 0) or 0)
        if events:
            report.events[name] = events
    return report


def load_cost_hints(results_dir: Path | str = RESULTS_DIR
                    ) -> dict[str, float]:
    """Per-task timings from the latest snapshot's pool telemetry.

    Feeds :func:`~repro.runner.pool.configure_cost_hints` so a later
    parallel run dispatches longest-expected-first from the start;
    missing or pre-pool snapshots yield an empty mapping (unknown tasks
    simply dispatch in submission order).
    """
    baseline = load_baseline(results_dir)
    if baseline is None or not baseline.pool:
        return {}
    hints: dict[str, float] = {}
    for key, value in (baseline.pool.get("task_seconds") or {}).items():
        try:
            hints[str(key)] = float(value)
        except (TypeError, ValueError):
            continue
    return hints


def load_baseline(results_dir: Path | str = RESULTS_DIR,
                  exclude_rev: str | None = None) -> SweepSnapshot | None:
    """Latest snapshot under ``results_dir`` (by ``recorded_at``).

    ``exclude_rev`` skips the snapshot the current run just wrote, so a
    rerun on the same revision still compares against the previous
    baseline instead of itself.
    """
    directory = Path(results_dir)
    if not directory.is_dir():
        return None
    best: SweepSnapshot | None = None
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(data, dict) or not data.get("experiments"):
            continue
        report = _report_from_dict(data)
        if exclude_rev is not None and report.rev == exclude_rev:
            continue
        if best is None or report.recorded_at > best.recorded_at:
            best = report
    return best
