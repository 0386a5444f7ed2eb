"""Persistent spawn-worker pool for cell fan-out.

Tasks name their function as a ``"module:attr"`` spec string instead of
a bare callable: spec strings pickle under every start method, survive
``__main__`` aliasing, and make the task list printable.  Workers import
the module and call the attribute with the task's kwargs.

The pool always uses the ``spawn`` start context.  ``fork`` would be
faster to start but inherits the parent's dataset cache, open telemetry
recorders and heap layout — ``spawn`` guarantees every worker starts
from the same cold, deterministic state a serial run starts from.

Tasks carry scalar cell parameters, never captured simulation state:
each cell builds what it needs inside its worker, so a task pickles to
a few hundred bytes and tasks and results travel as plain pickles.
Workers are **long-lived**: each imports experiment modules once and
keeps its dataset cache across tasks.  Every result is tagged with its
submission index, so merging is positional and parallel output stays
bit-identical to serial regardless of completion order.

Dispatch is **straggler-aware**: with per-task timings installed
(:func:`configure_cost_hints`, fed from ``BENCH_<rev>.json`` snapshots
or a bench run's own serial pass), tasks dispatch longest-expected-first
so the slowest cell never starts last; unknown cells go first (they
*could* be the longest).  Each parallel execution records a
:class:`PoolStats` — per-worker utilisation and shipped IPC bytes —
retrievable via :func:`last_pool_stats`.

A failing task raises :class:`TaskError` carrying the task's ``fn``
spec, its canonicalised kwargs and the worker's traceback; a *crashing*
worker (hard exit) fails only the task it was running, and the pool
respawns a replacement while work remains.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import pickle
import queue as queue_lib
import time
from collections import deque
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Any

from ..errors import ReproError

_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: parent poll interval while waiting on results — short enough that a
#: crashed worker is noticed promptly, long enough not to spin
_POLL_SECONDS = 0.05

#: grace between the shutdown sentinel and terminate()
_JOIN_SECONDS = 5.0


@dataclass(frozen=True)
class Task:
    """One unit of fan-out: ``resolve(fn)(**kwargs)`` in some process."""

    fn: str
    kwargs: Mapping[str, Any] = field(default_factory=dict)


class TaskError(ReproError):
    """One task failed; carries the cell's identity.

    ``fn`` is the failing task's ``"module:attr"`` spec and ``kwargs``
    its canonicalised parameters, so a failing cell in a hundred-task
    sweep is identifiable straight from the traceback.
    """

    def __init__(self, message: str, fn: str | None = None,
                 kwargs: str | None = None):
        super().__init__(message)
        self.fn = fn
        self.kwargs = kwargs


def resolve(spec: str):
    """Import the callable named by a ``"module:attr"`` spec string."""
    module_name, sep, attr = spec.partition(":")
    if not sep or not module_name or not attr:
        raise ReproError(
            f"task spec {spec!r} is not of the form 'module:attr'")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ReproError(f"cannot import task module {module_name!r}: "
                         f"{exc}") from exc
    fn = getattr(module, attr, None)
    if fn is None:
        raise ReproError(f"module {module_name!r} has no attribute "
                         f"{attr!r}")
    if not callable(fn):
        raise ReproError(f"task target {spec!r} is not callable")
    return fn


def _describe_kwargs(kwargs: Mapping[str, Any]) -> str:
    """Canonicalised kwargs for error messages (best effort)."""
    from .cache import canonical
    try:
        return json.dumps(canonical(dict(kwargs)), sort_keys=True,
                          separators=(",", ":"))
    except Exception:
        return repr(dict(kwargs))


def _invoke(task: Task) -> Any:
    """Resolve and call one task; failures carry the task's identity."""
    fn = resolve(task.fn)
    try:
        return fn(**dict(task.kwargs))
    except TaskError:
        raise  # nested run_tasks: already identified
    except Exception as exc:
        described = _describe_kwargs(task.kwargs)
        raise TaskError(
            f"task {task.fn!r} failed: {type(exc).__name__}: {exc}\n"
            f"  kwargs: {described}",
            fn=task.fn, kwargs=described) from exc


def task_cost_key(fn: str, kwargs: Mapping[str, Any]) -> str:
    """Stable identity for per-task timing hints.

    Unlike the result-cache key this excludes the source-tree
    fingerprint: a code edit rarely reorders cells by cost, and a stale
    hint only affects dispatch order, never results.
    """
    from .cache import canonical
    try:
        params: Any = canonical(dict(kwargs))
    except ReproError:
        params = repr(sorted(kwargs))
    material = json.dumps({"fn": fn, "params": params}, sort_keys=True,
                          separators=(",", ":"))
    return hashlib.sha256(material.encode()).hexdigest()[:16]


@dataclass
class PoolStats:
    """Telemetry for one parallel :func:`run_tasks` execution."""

    workers: int = 0
    wall_seconds: float = 0.0
    tasks: int = 0
    #: pickled task payloads sent to workers
    ipc_task_bytes: int = 0
    #: pickled result payloads received from workers
    ipc_result_bytes: int = 0
    #: always 0: tasks ship parameters only (kept for existing readers)
    shm_bytes: int = 0
    respawns: int = 0
    #: worker id -> seconds spent executing tasks
    busy_seconds: dict[int, float] = field(default_factory=dict)
    #: worker id -> tasks completed
    worker_tasks: dict[int, int] = field(default_factory=dict)
    #: task cost key -> observed wall seconds (feeds future dispatch)
    task_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def ipc_bytes_shipped(self) -> int:
        """Per-task bytes that crossed the process boundary, both ways."""
        return self.ipc_task_bytes + self.ipc_result_bytes

    def worker_utilisation(self) -> dict[str, float]:
        """worker id -> busy fraction of the pool's wall clock."""
        if self.wall_seconds <= 0:
            return {}
        return {str(wid): min(busy / self.wall_seconds, 1.0)
                for wid, busy in sorted(self.busy_seconds.items())}

    def mean_utilisation(self) -> float:
        util = self.worker_utilisation()
        if not util:
            return 0.0
        return sum(util.values()) / len(util)

    def as_dict(self) -> dict:
        """JSON-serialisable form (what bench snapshots embed)."""
        return {
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "tasks": self.tasks,
            "ipc_bytes_shipped": self.ipc_bytes_shipped,
            "ipc_task_bytes": self.ipc_task_bytes,
            "ipc_result_bytes": self.ipc_result_bytes,
            "respawns": self.respawns,
            "worker_utilisation": self.worker_utilisation(),
            "mean_utilisation": self.mean_utilisation(),
            "task_seconds": dict(self.task_seconds),
        }


#: stats of the most recent run_tasks execution in this process, or
#: ``None`` when it took the serial shortcut (diagnostics; the CLI
#: prints them after a --parallel run)
_LAST_STATS: PoolStats | None = None

#: expected per-task seconds keyed by :func:`task_cost_key`, consulted
#: when run_tasks gets no explicit hints (installed by the CLI from the
#: latest bench snapshot)
_COST_HINTS: dict[str, float] = {}


def last_pool_stats() -> PoolStats | None:
    """Stats of this process's most recent :func:`run_tasks` execution;
    ``None`` when that execution used no pool (``parallel=1``, a single
    task, or every task a cache hit)."""
    return _LAST_STATS


def configure_cost_hints(hints: Mapping[str, float] | None) -> None:
    """Install (or with ``None`` clear) process-wide dispatch hints."""
    _COST_HINTS.clear()
    if hints:
        _COST_HINTS.update(hints)


def run_tasks(tasks: Iterable[Task], parallel: int = 1,
              cache: Any = None,
              cost_hints: Mapping[str, float] | None = None,
              stats: PoolStats | None = None) -> list[Any]:
    """Run every task; results in submission order.

    ``parallel <= 1`` (or a single task) short-circuits to a plain
    serial loop in this process — no pool, no pickling, no import
    indirection beyond :func:`resolve`.  Larger values fan tasks across
    at most ``parallel`` persistent spawn workers: dispatch is
    longest-expected-first, and results merge back by submission index
    so parallel output is bit-identical to serial.

    ``cache`` accepts a :class:`~repro.runner.cache.ResultCache`,
    ``True`` (the default store), ``False`` (off even when a
    process-wide cache is configured) or ``None`` (defer to
    :func:`~repro.runner.cache.current`).  Lookup and store both happen
    in the parent, so only cache misses are executed and hits merge
    back into their original submission slots.

    ``cost_hints`` maps :func:`task_cost_key` to expected seconds
    (defaults to the hints installed via :func:`configure_cost_hints`);
    ``stats`` collects a caller-visible :class:`PoolStats`.
    """
    task_list = list(tasks)
    if parallel < 1:
        raise ReproError(f"parallel must be >= 1, got {parallel}")

    from .cache import resolve_cache
    store = resolve_cache(cache)
    if store is None:
        return _execute(task_list, parallel, cost_hints=cost_hints,
                        stats=stats)

    results: list[Any] = [None] * len(task_list)
    misses: list[tuple[int, Task, str]] = []
    for index, task in enumerate(task_list):
        key = store.task_key(task.fn, task.kwargs)
        hit, value = store.lookup(key)
        if hit:
            results[index] = value
        else:
            misses.append((index, task, key))
    for (index, _, key), value in zip(
            misses, _execute([task for _, task, _ in misses], parallel,
                             cost_hints=cost_hints, stats=stats)):
        results[index] = value
        store.store(key, value)
    return results


def _execute(task_list: list[Task], parallel: int,
             cost_hints: Mapping[str, float] | None = None,
             stats: PoolStats | None = None) -> list[Any]:
    """Run tasks serially or across the pool; submission order."""
    global _LAST_STATS
    if parallel == 1 or len(task_list) <= 1:
        # no pool ran: an earlier fan-out's stats would describe
        # another call
        _LAST_STATS = None
        return [_invoke(task) for task in task_list]
    workers = min(parallel, len(task_list))
    outcomes = _run_pool(task_list, workers, get_context("spawn"),
                         cost_hints=cost_hints, stats=stats)
    failures = [(index, outcome) for index, outcome in
                enumerate(outcomes)
                if outcome is not None and outcome.failure is not None]
    if failures:
        index, outcome = failures[0]
        raise _failure_error(outcome.failure, task_list[index])
    if any(outcome is None for outcome in outcomes):
        raise ReproError(
            "pool finished without an outcome for every task")
    return [outcome.value for outcome in outcomes]


def _failure_error(info: Mapping[str, Any], task: Task) -> TaskError:
    """Rebuild a parent-side TaskError from a worker's failure record."""
    message = str(info.get("message") or f"task {task.fn!r} failed")
    trace = info.get("traceback")
    if trace:
        message = (f"{message}\n--- worker traceback ---\n"
                   f"{str(trace).rstrip()}")
    return TaskError(message, fn=str(info.get("fn") or task.fn),
                     kwargs=info.get("kwargs"))


def _failure_info(exc: BaseException) -> dict:
    """Picklable record of a worker-side failure."""
    import traceback
    info: dict[str, Any] = {
        "message": (str(exc) if isinstance(exc, TaskError)
                    else f"{type(exc).__name__}: {exc}"),
        "traceback": traceback.format_exc(),
    }
    if isinstance(exc, TaskError):
        info["fn"] = exc.fn
        info["kwargs"] = exc.kwargs
    return info


@dataclass
class _Outcome:
    """Terminal state of one task inside :func:`_run_pool`."""

    value: Any = None
    failure: dict | None = None


def _dispatch_order(keys: list[str],
                    hints: Mapping[str, float]) -> list[int]:
    """Submission indices, longest-expected-first.

    Tasks without a recorded timing dispatch first — an unknown cell
    could be the longest, and starting it late is the worst case —
    then known cells longest-first; ties keep submission order.
    """
    def rank(index: int) -> tuple:
        hint = hints.get(keys[index])
        if hint is None:
            return (0, 0.0, index)
        return (1, -float(hint), index)

    return sorted(range(len(keys)), key=rank)


def _worker_main(worker_id: int, task_queue: Any,
                 result_queue: Any) -> None:
    """Long-lived worker loop: serve tasks until the sentinel.

    Replies ``("done", worker id, index, ok, payload, seconds)`` per
    task; a ``None`` sentinel shuts the worker down.
    """
    while True:
        item = task_queue.get()
        if item is None:
            break
        index, payload = item
        start = time.perf_counter()
        try:
            value = _invoke(pickle.loads(payload))
            body = pickle.dumps(value, protocol=_PROTOCOL)
            ok = True
        except Exception as exc:
            body = pickle.dumps(_failure_info(exc), protocol=_PROTOCOL)
            ok = False
        result_queue.put(("done", worker_id, index, ok, body,
                          time.perf_counter() - start))


def _run_pool(task_list: list[Task], workers: int, context: Any,
              cost_hints: Mapping[str, float] | None = None,
              stats: PoolStats | None = None,
              fail_fast: bool = True) -> list["_Outcome | None"]:
    """Drive tasks across persistent workers; one outcome per index.

    The engine behind :func:`run_tasks`'s parallel path, split out so
    the property suite can run it with an injected thread-backed
    ``context`` and inspect every outcome without the raise-on-first-
    failure policy (``fail_fast=False`` keeps dispatching after a
    failure).  Each worker has a private task queue, so the parent
    always knows which task a crashed worker was running; ``None``
    outcomes are tasks never attempted (dispatch aborted first).
    """
    global _LAST_STATS
    hints = dict(cost_hints) if cost_hints is not None \
        else dict(_COST_HINTS)
    if stats is None:
        stats = PoolStats()
    stats.workers = workers
    keys = [task_cost_key(task.fn, task.kwargs) for task in task_list]
    order = deque(_dispatch_order(keys, hints))
    outcomes: list[_Outcome | None] = [None] * len(task_list)
    start_wall = time.perf_counter()
    result_queue = context.Queue()
    procs: dict[int, Any] = {}
    queues: dict[int, Any] = {}
    try:
        payloads: dict[int, bytes] = {}
        for index, task in enumerate(task_list):
            try:
                payloads[index] = pickle.dumps(task, protocol=_PROTOCOL)
            except (pickle.PicklingError, AttributeError,
                    TypeError) as exc:
                described = _describe_kwargs(task.kwargs)
                raise TaskError(
                    f"task {task.fn!r} cannot be shipped to a worker: "
                    f"{exc}\n  kwargs: {described}",
                    fn=task.fn, kwargs=described) from exc

        pending = set(range(len(task_list)))
        assigned: dict[int, int] = {}  # worker id -> in-flight index
        idle: deque[int] = deque()
        next_worker_id = 0
        respawn_budget = workers + len(task_list)
        aborted = False

        def spawn() -> None:
            nonlocal next_worker_id
            wid = next_worker_id
            next_worker_id += 1
            task_queue = context.Queue()
            proc = context.Process(
                target=_worker_main,
                args=(wid, task_queue, result_queue),
                daemon=True)
            proc.start()
            procs[wid] = proc
            queues[wid] = task_queue
            idle.append(wid)

        def abort() -> None:
            nonlocal aborted
            aborted = True
            while order:  # never-attempted tasks stay None
                pending.discard(order.popleft())

        def dispatch() -> None:
            while order and idle and not aborted:
                wid = idle.popleft()
                if wid not in procs:
                    continue
                index = order.popleft()
                payload = payloads.pop(index)
                stats.ipc_task_bytes += len(payload)
                assigned[wid] = index
                queues[wid].put((index, payload))

        def reap() -> None:
            for wid, proc in list(procs.items()):
                if proc.is_alive():
                    continue
                del procs[wid]
                try:
                    idle.remove(wid)
                except ValueError:
                    pass
                index = assigned.pop(wid, None)
                if index is not None and index in pending:
                    task = task_list[index]
                    outcomes[index] = _Outcome(failure={
                        "message": (
                            f"worker {wid} died (exit code "
                            f"{getattr(proc, 'exitcode', None)}) while "
                            f"running task {task.fn!r}"),
                        "fn": task.fn,
                        "kwargs": _describe_kwargs(task.kwargs)})
                    pending.discard(index)
                    if fail_fast:
                        abort()
            nonlocal respawn_budget
            while (not aborted and respawn_budget > 0
                   and len(procs) < min(workers, len(pending))):
                spawn()
                respawn_budget -= 1
                stats.respawns += 1
            if not procs and pending:
                # respawn budget exhausted (or aborted with casualties
                # in flight): nothing left to run the remaining tasks
                for index in sorted(pending):
                    if outcomes[index] is None:
                        task = task_list[index]
                        outcomes[index] = _Outcome(failure={
                            "message": (
                                f"worker pool lost every worker; task "
                                f"{task.fn!r} never completed"),
                            "fn": task.fn,
                            "kwargs": _describe_kwargs(task.kwargs)})
                    pending.discard(index)

        for _ in range(workers):
            spawn()
        dispatch()
        while pending:
            try:
                message = result_queue.get(timeout=_POLL_SECONDS)
            except queue_lib.Empty:
                reap()
                dispatch()
                continue
            _, wid, index, ok, body, seconds = message
            assigned.pop(wid, None)
            if wid in procs:
                idle.append(wid)
            if index in pending:
                stats.tasks += 1
                stats.ipc_result_bytes += len(body)
                stats.busy_seconds[wid] = (
                    stats.busy_seconds.get(wid, 0.0) + seconds)
                stats.worker_tasks[wid] = (
                    stats.worker_tasks.get(wid, 0) + 1)
                stats.task_seconds[keys[index]] = seconds
                if ok:
                    try:
                        value = pickle.loads(body)
                    except Exception as exc:
                        outcomes[index] = _Outcome(failure={
                            "message": (
                                f"cannot deserialise the result of "
                                f"task {task_list[index].fn!r}: {exc}"),
                            "fn": task_list[index].fn})
                    else:
                        outcomes[index] = _Outcome(value=value)
                else:
                    outcomes[index] = _Outcome(
                        failure=pickle.loads(body))
                pending.discard(index)
                failed = outcomes[index].failure is not None
                if failed and fail_fast:
                    abort()
            dispatch()
        return outcomes
    finally:
        for wid in list(procs):
            try:
                queues[wid].put(None)
            except Exception:  # pragma: no cover - teardown races
                pass
        # drain stragglers so worker queue feeders never block on exit
        while True:
            try:
                result_queue.get_nowait()
            except Exception:
                break
        deadline = time.perf_counter() + _JOIN_SECONDS
        for proc in procs.values():
            proc.join(timeout=max(deadline - time.perf_counter(), 0.1))
            if proc.is_alive():
                terminate = getattr(proc, "terminate", None)
                if terminate is not None:  # pragma: no cover
                    terminate()
                    proc.join(timeout=1.0)
        stats.wall_seconds = time.perf_counter() - start_wall
        _LAST_STATS = stats
