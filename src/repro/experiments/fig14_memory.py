"""Fig 14 — memory-access metrics at high concurrency (§V-A1).

The paper reports, for 256 clients running the thetasubselect under the
four scheduling configurations: per-socket L3 load misses (a), per-socket
memory throughput (b) and interconnect traffic (c).

Expected shapes: the OS scheduler moves the most data over the
interconnect; the controlled modes reduce L3 misses and interconnect
traffic; the dense mode leaves the last socket underused (its memory bank
serves little) while the adaptive mode spreads throughput best among the
controlled modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import render_table
from ..db.clients import repeat_stream
from .common import build_system

MODES = (None, "dense", "sparse", "adaptive")
WORKLOAD_QUERY = "sel_45pct"


@dataclass(frozen=True)
class Fig14Cell:
    """One mode's memory picture."""

    l3_misses_by_socket: dict[int, float]
    mem_tp_by_socket: dict[int, float]
    ht_traffic: float
    makespan: float

    @property
    def l3_misses_total(self) -> float:
        """Machine-wide L3 misses."""
        return sum(self.l3_misses_by_socket.values())

    @property
    def ht_rate(self) -> float:
        """Interconnect bytes per second over the run."""
        return self.ht_traffic / max(self.makespan, 1e-9)


@dataclass
class Fig14Result:
    """Cells per mode label."""

    n_clients: int
    cells: dict[str, Fig14Cell] = field(default_factory=dict)

    def cell(self, mode: str | None) -> Fig14Cell:
        """Fetch one mode's cell; ``None`` is the OS baseline."""
        return self.cells[mode or "OS"]

    def rows(self) -> list[list[object]]:
        """One row per (mode, socket) plus interconnect totals."""
        out: list[list[object]] = []
        for mode, cell in self.cells.items():
            for socket in sorted(cell.mem_tp_by_socket):
                out.append([
                    mode, socket,
                    cell.l3_misses_by_socket.get(socket, 0.0) / 1e3,
                    cell.mem_tp_by_socket[socket] / 1e9,
                    cell.ht_rate / 1e9,
                ])
        return out

    def table(self) -> str:
        """The Fig 14 series as a text table."""
        return render_table(
            ["mode", "socket", "L3 misses (k)", "mem GB/s", "HT GB/s"],
            self.rows(),
            title=f"Fig 14 - memory metrics, {self.n_clients} clients")


def run_cell(mode: str | None, n_clients: int = 32,
             repetitions: int = 3, scale: float = 0.01,
             sim_scale: float = 1.0) -> Fig14Cell:
    """One mode's memory picture on a freshly built system."""
    sut = build_system(engine="monetdb", mode=mode, scale=scale,
                       sim_scale=sim_scale)
    sut.mark()
    workload = sut.run_clients(
        n_clients, repeat_stream(WORKLOAD_QUERY, repetitions))
    makespan = max(workload.makespan, 1e-9)
    sockets = list(sut.os.topology.all_nodes())
    return Fig14Cell(
        l3_misses_by_socket={
            s: sut.delta("l3_miss", s) for s in sockets},
        mem_tp_by_socket={
            s: sut.delta("imc_bytes", s) / makespan for s in sockets},
        ht_traffic=sut.delta("ht_tx_bytes"),
        makespan=makespan,
    )


def run(n_clients: int = 32, repetitions: int = 3, scale: float = 0.01,
        sim_scale: float = 1.0, parallel: int = 1) -> Fig14Result:
    """High-concurrency thetasubselect across the four configurations.

    Every cell builds its own system, so ``parallel > 1`` ships each
    worker only the cell's parameters.
    """
    from ..runner.pool import Task, run_tasks

    result = Fig14Result(n_clients=n_clients)
    tasks = [Task("repro.experiments.fig14_memory:run_cell",
                  dict(mode=mode, n_clients=n_clients,
                       repetitions=repetitions, scale=scale,
                       sim_scale=sim_scale))
             for mode in MODES]
    cells = run_tasks(tasks, parallel=parallel)
    for mode, cell in zip(MODES, cells):
        result.cells[mode or "OS"] = cell
    return result
