"""Host-time spans around each layer's public entry points.

The benchmark measures the simulator from outside: a :class:`Tracer`
replaces a fixed table of public functions and methods with wrappers
that record one span per call (name, start, end, parent) plus a few
work counts, and puts every original back when it is uninstalled.  Nothing
under ``src/`` knows it is being traced.

Spans live in flat arrays (a traced mixed-phases iteration records a
few hundred thousand of them) and are written out once, at the end.
A span's *self time* is its duration minus the durations of its direct
children; children nest strictly inside their parent because every
wrapper pushes onto one per-process stack.

Spawned pool workers start from a fresh import and never see the
parent's wrappers, so while tracing, the tracer also rewrites each
parallel :func:`repro.runner.pool.run_tasks` fan-out to route every
task through :func:`traced_call`, which installs the wrappers inside
the worker and ships the worker's spans back with the result.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np

#: (module, owner attribute or None for a module function, attribute,
#: span name).  The layers the benchmark attributes time to.
ENTRY_POINTS = (
    ("repro.opsys.system", "OperatingSystem", "run", "opsys.run"),
    ("repro.opsys.system", "OperatingSystem", "run_until_idle",
     "opsys.run"),
    ("repro.opsys.scheduler", "Scheduler", "spawn", "opsys.spawn"),
    ("repro.opsys.vm", "VirtualMemory", "touch_pages", "opsys.vm.touch"),
    ("repro.hardware.machine", "Machine", "touch", "hardware.touch"),
    ("repro.hardware.machine", "Machine", "touch_write",
     "hardware.touch_write"),
    ("repro.db.engine", "DatabaseEngine", "submit", "db.submit"),
    ("repro.db.engine", None, "compile_profile", "db.compile"),
    ("repro.db.morsel", None, "compile_profile", "db.compile"),
    ("repro.core.controller", "ElasticController", "run_pipeline_once",
     "control.tick"),
    ("repro.control.stages", "MonitorSensor", "sense", "control.sense"),
    ("repro.control.stages", "LeaseActuator", "apply", "control.apply"),
    ("repro.sim.state", "SimState", "capture", "sim.state.capture"),
    ("repro.sim.state", "SimState", "restore", "sim.state.restore"),
    ("repro.obs.live", "LiveBus", "flush", "obs.flush"),
    ("repro.experiments.common", "SystemUnderTest", "run_clients",
     "experiment.clients"),
    ("repro.runner.pool", None, "run_tasks", "runner.run_tasks"),
)


class SpanLog:
    """Spans and work counts of one process, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        #: additive work counts (pages, faults, bytes, ...)
        self.counts: dict[str, float] = {}
        #: one span block per traced pool task, merged in submission
        #: order: (task label, payload from :meth:`export`)
        self.tracks: list[tuple[str, dict]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def export(self) -> dict:
        """A picklable copy (what a traced worker ships back)."""
        return {"names": list(self.names),
                "name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start).copy(),
                "end": np.frombuffer(self.end).copy(),
                "parent": np.frombuffer(self.parent,
                                        dtype=np.int32).copy(),
                "counts": dict(self.counts),
                "tracks": list(self.tracks)}

    def merge_track(self, label: str, payload: dict) -> None:
        """Adopt a worker's spans and counts as one more track."""
        self.tracks.append((label, payload))
        for key, value in payload["counts"].items():
            self.add(key, value)


# ----------------------------------------------------------------------
# per-entry-point count hooks: (log, args, kwargs, result) -> None


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_vm(log, args, kwargs, faults):
    pages = _arg(args, kwargs, 1, "pages")
    log.add("opsys.vm.touch.pages", len(pages))
    log.add("opsys.vm.minor_faults", faults)


def _count_touch(log, args, kwargs, result):
    machine, pages = args[0], _arg(args, kwargs, 3, "pages")
    n = len(pages)
    log.add("hardware.touch.pages", n)
    kind = type(pages).__name__
    if kind == "range":
        log.add("hardware.touch.pages_range", n)
    elif kind == "PageSegments":
        log.add("hardware.touch.pages_segments", n)
    else:
        log.add("hardware.touch.pages_list", n)
    if n > machine.caches[0].capacity_pages:
        log.add("hardware.touch.pages_over_l3", n)


def _count_touch_write(log, args, kwargs, result):
    log.add("hardware.touch_write.pages",
            len(_arg(args, kwargs, 3, "pages")))


def _count_apply(log, args, kwargs, applied):
    log.add("control.cores_moved",
            len(applied.allocate) + len(applied.release))


def _count_capture(log, args, kwargs, state):
    log.add("sim.state.capture_bytes", len(state.payload))


def _count_clients(log, args, kwargs, result):
    sut = args[0]
    n_clients = _arg(args, kwargs, 1, "n_clients")
    stream = _arg(args, kwargs, 2, "stream")
    issued = sum(len(list(stream(c))) for c in range(n_clients))
    log.add("experiment.queries_issued", issued)
    log.add("experiment.queries_completed", result.queries_completed)
    # counter increases since the system's last mark (or, unmarked,
    # since it was built): exactly this client pool's run in every
    # harness the workloads use
    log.add("hardware.sim.l3_misses", sut.delta("l3_miss"))
    log.add("hardware.sim.ht_bytes", sut.delta("ht_tx_bytes"))
    log.add("hardware.sim.imc_bytes", sut.delta("imc_bytes"))


COUNT_HOOKS = {
    "opsys.vm.touch": _count_vm,
    "hardware.touch": _count_touch,
    "hardware.touch_write": _count_touch_write,
    "control.apply": _count_apply,
    "sim.state.capture": _count_capture,
    "experiment.clients": _count_clients,
}


def _wrap(fn, log: SpanLog, name: str):
    name_id = log.name_id(name)
    hook = COUNT_HOOKS.get(name)
    stack = log.stack
    names, starts, ends, parents = log.name, log.start, log.end, log.parent

    def traced(*args, **kwargs):
        index = len(starts)
        names.append(name_id)
        parents.append(stack[-1] if stack else -1)
        starts.append(0.0)
        ends.append(0.0)
        stack.append(index)
        begin = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[index] = perf_counter()
            starts[index] = begin
            stack.pop()
        if hook is not None:
            hook(log, args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    return traced


def _wrap_run_tasks(fn, log: SpanLog, name: str):
    """run_tasks that also traces inside spawned workers."""
    traced = _wrap(fn, log, name)

    def run_tasks(tasks, parallel=1, *args, **kwargs):
        from repro.runner.pool import Task

        tasks = list(tasks)
        if parallel <= 1 or len(tasks) <= 1:
            return traced(tasks, parallel, *args, **kwargs)
        routed = [Task("perfbench.trace:traced_call",
                       {"fn": task.fn, "kwargs": dict(task.kwargs)})
                  for task in tasks]
        outcomes = traced(routed, parallel, *args, **kwargs)
        results = []
        for task, (value, payload) in zip(tasks, outcomes):
            if payload is not None:
                log.merge_track(task.fn, payload)
            results.append(value)
        return results

    run_tasks.__wrapped__ = fn
    return run_tasks


# ----------------------------------------------------------------------
# installation


def _entry(module_name: str, owner_name: str | None, attr: str):
    """(owner, attribute as stored on it) of one entry point."""
    module = importlib.import_module(module_name)
    owner = module if owner_name is None else getattr(module, owner_name)
    return owner, vars(owner)[attr]


class Tracer:
    """Installs the wrappers into the live modules, and removes them."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("another tracer is installed")
        for module_name, owner_name, attr, name in ENTRY_POINTS:
            owner, raw = _entry(module_name, owner_name, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(raw.__func__, self.log, name))
            elif attr == "run_tasks":
                wrapped = _wrap_run_tasks(raw, self.log, name)
            else:
                wrapped = _wrap(raw, self.log, name)
            setattr(owner, attr, wrapped)
        _ACTIVE = self
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
        if _ACTIVE is self:
            _ACTIVE = None

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


#: the tracer installed in this process, if any
_ACTIVE: Tracer | None = None


def leftover_wrappers() -> list[str]:
    """Entry points that are still wrapped (empty after uninstall)."""
    left = []
    for module_name, owner_name, attr, _ in ENTRY_POINTS:
        _, raw = _entry(module_name, owner_name, attr)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if hasattr(fn, "__wrapped__"):
            left.append(f"{module_name}:{owner_name or ''}.{attr}")
    return left


def traced_call(fn: str, kwargs: dict):
    """Pool task spec: run ``fn(**kwargs)`` with the wrappers installed.

    Returns ``(value, spans)``; ``spans`` is ``None`` when this process
    already traces (a serial fallback inside a traced parent), since the
    parent's wrappers record the call directly.
    """
    from repro.runner.pool import resolve
    from repro.sim.engine import delivered_total

    target = resolve(fn)
    if _ACTIVE is not None:
        return target(**kwargs), None
    tracer = Tracer()
    events = delivered_total()
    with tracer:
        value = target(**kwargs)
    tracer.log.add("sim.events", delivered_total() - events)
    return value, tracer.log.export()


# ----------------------------------------------------------------------
# analysis


def _blocks(payload: dict):
    yield payload
    for _, track in payload["tracks"]:
        yield from _blocks(track)


def self_times(payload: dict) -> dict[str, float]:
    """Span name -> summed self time over every track."""
    out: dict[str, float] = {}
    for block in _blocks(payload):
        name, start, end, parent = (block["name"], block["start"],
                                    block["end"], block["parent"])
        if not len(name):
            continue
        duration = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested],
                            minlength=len(name))
        own = duration - child
        sums = np.bincount(name, weights=own,
                           minlength=len(block["names"]))
        for i, label in enumerate(block["names"]):
            out[label] = out.get(label, 0.0) + float(sums[i])
    return out


def call_counts(payload: dict) -> dict[str, int]:
    """Span name -> number of spans over every track."""
    out: dict[str, int] = {}
    for block in _blocks(payload):
        counts = np.bincount(block["name"],
                             minlength=len(block["names"]))
        for i, label in enumerate(block["names"]):
            out[label] = out.get(label, 0) + int(counts[i])
    return out


def nesting_violations(payload: dict) -> int:
    """Spans that start before or end after their parent."""
    bad = 0
    for block in _blocks(payload):
        parent = block["parent"]
        nested = parent >= 0
        if not nested.any():
            continue
        start, end = block["start"], block["end"]
        p = parent[nested]
        bad += int(np.count_nonzero(
            (start[nested] < start[p]) | (end[nested] > end[p])
            | (end[nested] < start[nested])))
    return bad


def write_spans(payload: dict, path) -> None:
    """Write every track's spans to one compressed ``.npz`` file.

    Arrays are stored per track as ``<track>.name|start|end|parent``
    with the track's name table as ``<track>.names``; track 0 is the
    benchmark process, the rest are traced pool tasks in submission
    order.
    """
    arrays = {}
    for index, block in enumerate(_blocks(payload)):
        for key in ("name", "start", "end", "parent"):
            arrays[f"{index}.{key}"] = block[key]
        arrays[f"{index}.names"] = np.array(block["names"], dtype=str)
    np.savez_compressed(path, **arrays)
