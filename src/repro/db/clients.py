"""Concurrent client driver: the paper's 1..256-user workloads.

Clients are closed-loop: each client submits its next query the moment the
previous one finishes (zero think time), matching the execution protocol
the paper borrows from Psaroudakis et al. [13].  A client's query sequence
comes from a *stream factory* — any callable mapping the client id to an
iterable of registered query names.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

from ..errors import WorkloadError
from ..units import left_sum
from .engine import DatabaseEngine
from .volcano import QueryExecution


@dataclass
class WorkloadResult:
    """Aggregate outcome of one multi-client run."""

    n_clients: int
    started_at: float
    finished_at: float = 0.0
    #: (client_id, query_name, elapsed) per completed query
    completions: list[tuple[int, str, float]] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        """Wall-clock from first submission to last completion."""
        return self.finished_at - self.started_at

    @property
    def queries_completed(self) -> int:
        """Total completed queries."""
        return len(self.completions)

    @property
    def throughput(self) -> float:
        """Queries per second over the makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.queries_completed / self.makespan

    def latencies(self, query_name: str | None = None) -> list[float]:
        """Per-query latencies, optionally filtered by query name."""
        return [elapsed for _, name, elapsed in self.completions
                if query_name is None or name == query_name]

    def mean_latency(self, query_name: str | None = None) -> float:
        """Average latency, optionally filtered by query name."""
        values = self.latencies(query_name)
        if not values:
            return 0.0
        return left_sum(values) / len(values)


class ClientPool:
    """Drives ``n_clients`` closed-loop query streams against one engine."""

    def __init__(self, engine: DatabaseEngine, n_clients: int,
                 stream_factory: Callable[[int], Iterable[str]]):
        if n_clients < 1:
            raise WorkloadError("need at least one client")
        self.engine = engine
        self.n_clients = n_clients
        self._streams: dict[int, Iterator[str]] = {
            client: iter(stream_factory(client))
            for client in range(n_clients)
        }
        self.result: WorkloadResult | None = None

    def start(self) -> WorkloadResult:
        """Submit the first query of every client; returns the live result
        object (populated as the simulation runs)."""
        if self.result is not None:
            raise WorkloadError("client pool already started")
        self.result = WorkloadResult(n_clients=self.n_clients,
                                     started_at=self.engine.os.now)
        for client in range(self.n_clients):
            self._submit_next(client)
        return self.result

    def run(self) -> WorkloadResult:
        """Start all clients and drive the simulation to completion."""
        result = self.start()
        self.engine.os.run_until_idle()
        result.finished_at = self.engine.os.now
        return result

    def _submit_next(self, client: int) -> None:
        try:
            query_name = next(self._streams[client])
        except StopIteration:
            return
        self.engine.submit(query_name, client_id=client,
                           on_done=self._on_query_done)

    def _on_query_done(self, execution: QueryExecution) -> None:
        assert self.result is not None
        self.result.completions.append(
            (execution.client_id, execution.query_name, execution.elapsed))
        self.result.finished_at = self.engine.os.now
        self._submit_next(execution.client_id)


def repeat_stream(query_name: str, repetitions: int,
                  ) -> Callable[[int], list[str]]:
    """Every client runs the same query ``repetitions`` times (the Q6
    microbenchmark protocol)."""
    if repetitions < 1:
        raise WorkloadError("repetitions must be >= 1")
    return lambda client: [query_name] * repetitions
