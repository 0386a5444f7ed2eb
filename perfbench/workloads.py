"""The benchmark's three workloads, built from the paper's experiments.

Each workload is run as a number of *iterations*; one iteration is

* ``mixed_phases`` — the Fig 19 / headline-trials run: the MonetDB-like
  engine, 32 closed-loop clients x 4 queries drawn from the 22 TPC-H
  queries by one stream seed, under OS scheduling and then under the
  adaptive mode, with telemetry on (a :class:`repro.obs.Recorder` and a
  live bus, as ``repro run --telemetry`` / ``repro monitor`` install
  them; nothing is exported).  Iteration ``i`` of a run with seed ``s``
  draws its queries with stream seed ``s * 100 + i``.
* ``scheduling_sweep`` — :func:`repro.experiments.fig13_scheduling.run`
  at its committed parameters (users 1, 4, 16, 64; 4 repetitions; all
  four modes; warm-start forks on), serially.
* ``scheduling_sweep_p2`` — the same sweep fanned over two spawn
  workers.  Its simulated outcomes must equal the serial sweep's.

Every iteration returns its *cells* — one simulated outcome per
(stream, mode) or (mode, users) — as plain JSON-ready dicts, so the
oracle can compare them with the recorded reference exactly.
"""

from __future__ import annotations

import resource
import time
import traceback
from dataclasses import dataclass, field

WORKLOADS = ("mixed_phases", "scheduling_sweep", "scheduling_sweep_p2")

#: host seconds one iteration takes on the 2-core reference host; a run
#: of ``--seconds S`` makes ``round(S / NOMINAL_S)`` iterations, a count
#: that depends on ``S`` only, so a run's simulated outcomes depend on
#: its seed and length and never on how fast the host happens to be
NOMINAL_S = {"mixed_phases": 7.0, "scheduling_sweep": 7.0,
             "scheduling_sweep_p2": 8.0}

MIXED_CLIENTS = 32
MIXED_QUERIES = 4
MIXED_MODES = (None, "adaptive")
#: stream seeds of one run: ``seed * STREAM_STRIDE + iteration``
STREAM_STRIDE = 100

SWEEP_USERS = (1, 4, 16, 64)
SWEEP_REPETITIONS = 4
PARALLEL = {"mixed_phases": 1, "scheduling_sweep": 1,
            "scheduling_sweep_p2": 2}


def iterations(workload: str, seconds: float) -> int:
    """How many iterations a run of ``seconds`` makes."""
    return max(1, round(seconds / NOMINAL_S[workload]))


def stream_seed(seed: int, iteration: int) -> int:
    """The mixed-phases stream seed of one iteration."""
    return seed * STREAM_STRIDE + iteration


@dataclass
class Iteration:
    """One iteration's simulated outcomes and host costs."""

    #: cell label -> simulated outcome (JSON-ready)
    cells: dict[str, dict] = field(default_factory=dict)
    #: labels of cells that raised
    raised: list[str] = field(default_factory=list)
    #: simulated queries completed
    queries: int = 0
    #: simulated speedup of adaptive over OS: the geo-mean per-query
    #: latency ratio (mixed phases), the throughput ratio at the highest
    #: user count (sweeps)
    speedup: float = 1.0
    #: simulated seconds summed over cells
    sim_makespan_s: float = 0.0
    wall_s: float = 0.0
    #: CPU seconds of this process and of the workers it waited for
    cpu_s: float = 0.0
    #: :class:`repro.runner.pool.PoolStats` of a parallel iteration
    pool: object = None
    #: the telemetry recorder of a mixed-phases iteration
    recorder: object = None


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def prepare() -> None:
    """Finish lazy set-up before anything is timed: the harness imports
    and the TPC-H dataset every iteration shares (what ``setup_s``
    measures in fresh interpreters)."""
    import repro.obs  # noqa: F401
    from repro.experiments import (fig13_scheduling,  # noqa: F401
                                   fig19_mixed_phases)
    from repro.experiments.common import dataset_for

    dataset_for()


def run_iteration(workload: str, seed: int, index: int) -> Iteration:
    """Run iteration ``index`` of ``workload`` for ``seed``, timed."""
    wall = time.perf_counter()
    cpu = _cpu_seconds()
    if workload == "mixed_phases":
        out = mixed_iteration(stream_seed(seed, index))
    else:
        out = sweep_iteration(PARALLEL[workload])
    out.wall_s = time.perf_counter() - wall
    out.cpu_s = _cpu_seconds() - cpu
    return out


# ----------------------------------------------------------------------
# mixed phases


def mixed_cell(sut, workload, stream, n_clients: int) -> dict:
    """One mixed-phases configuration's simulated outcome."""
    from repro.workloads.tpch.queries import QUERY_NAMES

    mean_latency = {}
    for query in QUERY_NAMES:
        latencies = workload.latencies(query)
        if latencies:
            mean_latency[query] = sum(latencies) / len(latencies)
    return {
        "makespan": workload.makespan,
        "throughput": workload.throughput,
        "queries_issued": sum(len(stream(c)) for c in range(n_clients)),
        "queries_completed": workload.queries_completed,
        "mean_latency": mean_latency,
        "ht_imc_ratio": {q: sut.query_ht_imc_ratio(q)
                         for q in QUERY_NAMES},
        "l3_misses": sut.delta("l3_miss"),
        "ht_bytes": sut.delta("ht_tx_bytes"),
        "imc_bytes": sut.delta("imc_bytes"),
        "steals": sut.delta("stolen_tasks"),
    }


def mixed_iteration(seed: int, n_clients: int = MIXED_CLIENTS,
                    queries_per_client: int = MIXED_QUERIES) -> Iteration:
    """OS then adaptive on one mixed-phases stream, telemetry on.

    The loop is :func:`repro.experiments.fig19_mixed_phases.run`'s, with
    the per-cell counters the oracle checks read from each system before
    it is dropped (the benchmark's tests pin the equality).
    """
    from repro.experiments.common import build_system
    from repro.experiments.fig19_mixed_phases import Fig19Result, Fig19Run
    from repro.obs import (LiveBus, Recorder, install, install_live,
                           uninstall, uninstall_live)
    from repro.obs.alerts import AlertEngine
    from repro.workloads.phases import mixed_phases_stream

    out = Iteration()
    stream = mixed_phases_stream(queries_per_client, seed=seed)
    result = Fig19Result(engine="monetdb")
    recorder = Recorder()
    install(recorder)
    install_live(LiveBus(alerts=AlertEngine()))
    try:
        for mode in MIXED_MODES:
            label = f"{seed}/{mode or 'OS'}"
            try:
                sut = build_system(engine="monetdb", mode=mode)
                sut.mark()
                workload = sut.run_clients(n_clients, stream)
                cell = mixed_cell(sut, workload, stream, n_clients)
            except Exception:  # a failing cell is counted, not fatal
                traceback.print_exc()
                out.raised.append(label)
                continue
            out.cells[label] = cell
            out.queries += cell["queries_completed"]
            out.sim_makespan_s += cell["makespan"]
            result.runs[mode or "OS"] = Fig19Run(
                mean_latency=cell["mean_latency"],
                ht_imc_ratio=cell["ht_imc_ratio"],
                makespan=cell["makespan"],
                throughput=cell["throughput"])
    finally:
        uninstall_live()
        uninstall()
    if len(result.runs) == len(MIXED_MODES):
        out.speedup = result.mean_speedup()
    out.recorder = recorder
    return out


# ----------------------------------------------------------------------
# scheduling sweep


def sweep_iteration(parallel: int) -> Iteration:
    """Fig 13 at its committed parameters, ``parallel`` workers."""
    from repro.experiments import fig13_scheduling
    from repro.runner import pool as pool_mod

    out = Iteration()
    try:
        result = fig13_scheduling.run(users=SWEEP_USERS,
                                      repetitions=SWEEP_REPETITIONS,
                                      parallel=parallel)
    except Exception:  # the whole sweep's cells fail together
        traceback.print_exc()
        out.raised.extend(
            f"{mode or 'OS'}/{users}"
            for mode in fig13_scheduling.MODES for users in SWEEP_USERS)
        return out
    measured = SWEEP_REPETITIONS - 1  # the first repetition warms up
    for (mode, users), cell in result.cells.items():
        out.cells[f"{mode}/{users}"] = {
            "throughput": cell.throughput, "cpu_load": cell.cpu_load,
            "tasks": cell.tasks, "stolen_tasks": cell.stolen_tasks}
        issued = users * measured
        out.queries += issued
        if cell.throughput > 0:
            out.sim_makespan_s += issued / cell.throughput
    # the paper's Fig 13 claim is at the highest concurrency
    base = result.cell(None, SWEEP_USERS[-1]).throughput
    if base > 0:
        out.speedup = result.cell("adaptive", SWEEP_USERS[-1]).throughput \
            / base
    if parallel > 1:
        out.pool = pool_mod.last_pool_stats()
    return out
