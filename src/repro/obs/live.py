"""The live telemetry bus: streaming aggregation over a *running* sim.

The batch exporters of :mod:`repro.obs.export` leave the process only
after an experiment ends; nothing can observe, alert on, or react to a
run while it executes.  This module is the streaming twin: a process-wide
:class:`LiveBus` receives samples tick-by-tick — controller decisions
through the :meth:`LiveBus.on_decision` stage hook, core-lease edits
through :meth:`LiveBus.on_core_change`, and time-windowed *flushes* that
read the run's metrics registry incrementally (the Elasecutor
monitor -> depository loop, SNIPPETS.md §1) — and keeps rolling
aggregates the monitor endpoint, the alert engine and the terminal
dashboard read concurrently.

Three aggregator primitives do the rolling work:

* :class:`Ewma` — exponentially weighted moving average with an explicit
  warm-up (``value`` is ``None`` until the first observation);
* :class:`WindowRate` — per-second rate of a cumulative counter between
  flushes, following the Prometheus reset convention (a decrease means
  the counter restarted, and the post-reset value is the delta);
* :class:`P2Quantile` — the P² streaming quantile sketch (Jain & Chlamtac
  1985): five markers, O(1) memory, exact below five observations.

Everything on the bus is keyed by **simulated time**.  The flush cadence
is driven by the simulation itself: :class:`LiveFlushTimer` is a
self-rescheduling sim event armed by ``OperatingSystem.run*`` whenever a
bus is installed, so windows close as sim time advances and stop when
the machine goes idle.  The bus is deliberately *not* part of any
captured system graph — emission sites reach it through
:func:`live_bus` at call time, so warm-start forks (whose recorders are
pickle copies) still stream into the one process-wide bus.

Thread-safety: the experiment thread emits, the HTTP server thread
scrapes.  One lock guards the bus; readers take consistent snapshots
through :meth:`LiveBus.snapshot`.
"""

from __future__ import annotations

import contextlib
import threading
from collections import deque
from collections.abc import Iterable, Sequence

from ..errors import ReproError
from .health import HealthConfig, HealthSuite, SloObjective, SloTracker

#: flush-window length in simulated seconds (default; CLI-overridable)
DEFAULT_WINDOW = 0.25

#: ring-buffer depth per series (samples kept for trend rules/sparklines)
DEFAULT_KEEP = 512


# ----------------------------------------------------------------------
# rolling aggregators
# ----------------------------------------------------------------------

class Ewma:
    """Exponentially weighted moving average with explicit warm-up.

    ``value`` stays ``None`` until the first observation (an EWMA seeded
    with 0.0 would report a phantom cold start); the first observation
    initialises it exactly, later ones blend with weight ``alpha``.
    """

    __slots__ = ("alpha", "value", "count")

    def __init__(self, alpha: float = 0.3):
        if not 0.0 < alpha <= 1.0:
            raise ReproError(f"EWMA alpha {alpha} outside (0, 1]")
        self.alpha = alpha
        self.value: float | None = None
        self.count = 0

    def update(self, value: float) -> float:
        """Blend in one observation; returns the new average."""
        self.count += 1
        if self.value is None:
            self.value = float(value)
        else:
            self.value += self.alpha * (value - self.value)
        return self.value


class WindowRate:
    """Per-second rate of a cumulative counter, reset-aware.

    Feed it ``(time, cumulative_value)`` once per flush; it returns the
    rate over the closed window, or ``None`` for the very first call
    (no window exists yet).  A value *below* the previous one means the
    counter restarted (a forked run replaying a warm prefix, a process
    handover); per the Prometheus convention the counter is assumed to
    have restarted from zero, so the post-reset value is the delta.
    """

    __slots__ = ("_prev_time", "_prev_value")

    def __init__(self) -> None:
        self._prev_time: float | None = None
        self._prev_value = 0.0

    def update(self, time: float, value: float) -> float | None:
        """Close one window; returns its rate (``None`` on the first)."""
        prev_t, prev_v = self._prev_time, self._prev_value
        self._prev_time, self._prev_value = time, float(value)
        if prev_t is None:
            return None
        delta = value - prev_v if value >= prev_v else value
        dt = time - prev_t
        if dt <= 0:
            return 0.0
        return delta / dt

    def delta(self, value: float) -> float:
        """The reset-aware increment the *next* update would see."""
        return value - self._prev_value if value >= self._prev_value \
            else value


class P2Quantile:
    """The P² single-quantile streaming sketch (Jain & Chlamtac 1985).

    Five markers track (min, q/2, q, (1+q)/2, max); marker heights are
    adjusted with a piecewise-parabolic fit as observations arrive.
    Exact for the first five observations, O(1) memory after. The
    sketch also counts the observations equal to its minimum and its
    maximum, so a marker whose rank falls among those copies holds the
    extreme exactly instead of creeping toward it by interpolation.
    ``value()`` is ``None`` while empty — an empty window has no
    quantile, and callers must not invent one.
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_rates",
                 "count", "_low_ties", "_high_ties")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ReproError(f"quantile {q} outside (0, 1)")
        self.q = q
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, 5.0]
        self._rates = [0.0, q / 2, q, (1 + q) / 2, 1.0]
        self.count = 0
        self._low_ties = self._high_ties = 0

    def observe(self, value: float) -> None:
        """Fold one observation into the sketch."""
        self.count += 1
        heights = self._heights
        if self.count <= 5:
            heights.append(float(value))
            heights.sort()
            if self.count == 5:
                self._low_ties = heights.count(heights[0])
                self._high_ties = heights.count(heights[4])
            return
        positions = self._positions
        if value < heights[0]:
            self._low_ties = 1
        elif value == heights[0]:
            self._low_ties += 1
        if value > heights[4]:
            self._high_ties = 1
        elif value == heights[4]:
            self._high_ties += 1
        # locate the cell and clamp the extremes
        if value < heights[0]:
            heights[0] = float(value)
            cell = 0
        elif value >= heights[4]:
            heights[4] = float(value)
            cell = 3
        else:
            cell = 0
            while cell < 3 and value >= heights[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        desired = self._desired
        for i in range(5):
            desired[i] += self._rates[i]
        # adjust the three interior markers
        for i in (1, 2, 3):
            drift = desired[i] - positions[i]
            right = positions[i + 1] - positions[i]
            left = positions[i - 1] - positions[i]
            if (drift >= 1.0 and right > 1.0) or \
                    (drift <= -1.0 and left < -1.0):
                step = 1.0 if drift >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step
        # a marker ranked among the copies of an extreme is that extreme
        low_rank, high_rank = self._low_ties, self.count - self._high_ties
        for i in (1, 2, 3):
            if positions[i] <= low_rank:
                heights[i] = heights[0]
            elif positions[i] > high_rank:
                heights[i] = heights[4]

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1])
            / (n[i] - n[i - 1]))

    def _linear(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> float | None:
        """The current quantile estimate (``None`` while empty)."""
        count = self.count
        if count == 0:
            return None
        heights = self._heights
        if count <= 5:
            # exact: interpolation-free order statistic on what we hold
            rank = max(0, min(count - 1, int(self.q * count)))
            return heights[rank]
        return heights[2]


# ----------------------------------------------------------------------
# series
# ----------------------------------------------------------------------

class Series:
    """One named live series: last value, EWMA, bounded sample ring."""

    __slots__ = ("name", "samples", "ewma", "last", "last_time", "count")

    def __init__(self, name: str, keep: int = DEFAULT_KEEP,
                 alpha: float = 0.3):
        self.name = name
        self.samples: deque[tuple[float, float]] = deque(maxlen=keep)
        self.ewma = Ewma(alpha)
        self.last: float | None = None
        self.last_time: float | None = None
        self.count = 0

    def add(self, time: float, value: float) -> None:
        """Record one sample at simulated ``time``."""
        value = float(value)
        self.samples.append((time, value))
        self.ewma.update(value)
        self.last = value
        self.last_time = time
        self.count += 1

    def trend(self, lookback: int) -> float | None:
        """Per-second slope over the last ``lookback`` samples.

        ``None`` with fewer than two samples or zero elapsed time — a
        trend needs an interval to exist.
        """
        if lookback < 2 or len(self.samples) < 2:
            return None
        window = list(self.samples)[-lookback:]
        (t0, v0), (t1, v1) = window[0], window[-1]
        if t1 <= t0:
            return None
        return (v1 - v0) / (t1 - t0)

    def as_dict(self) -> dict:
        """JSON-ready summary (not the full ring)."""
        return {"name": self.name, "last": self.last,
                "last_time": self.last_time, "count": self.count,
                "ewma": self.ewma.value}


# ----------------------------------------------------------------------
# registry taps
# ----------------------------------------------------------------------

class CounterTap:
    """Flush hook: cumulative counter -> windowed rate series.

    ``flush`` runs under the bus lock (the bus calls it), so it must
    emit through :meth:`LiveBus._emit_locked`, never :meth:`LiveBus.emit`.
    """

    __slots__ = ("metric", "series", "_rate")

    def __init__(self, metric: str, series: str):
        self.metric = metric
        self.series = series
        self._rate = WindowRate()

    def flush(self, bus: "LiveBus", registry, now: float) -> None:
        if self.metric not in registry:
            return
        rate = self._rate.update(now, registry.get(self.metric).value)
        if rate is not None:
            bus._emit_locked(self.series, now, rate)


class GaugeTap:
    """Flush hook: gauge level -> series sample per window."""

    __slots__ = ("metric", "series")

    def __init__(self, metric: str, series: str):
        self.metric = metric
        self.series = series

    def flush(self, bus: "LiveBus", registry, now: float) -> None:
        if self.metric not in registry:
            return
        bus._emit_locked(self.series, now,
                         registry.get(self.metric).value)


class HistogramTap:
    """Flush hook: histogram deltas -> windowed mean + quantile series.

    Quantiles are computed from the *bucket-count deltas* of the window
    (conservative upper-edge estimates, exactly like
    :meth:`~repro.obs.metrics.Histogram.quantile`); a window with no new
    observations emits nothing — an empty window has no latency.
    """

    __slots__ = ("metric", "series", "quantiles", "_prev_buckets",
                 "_prev_sum", "_prev_count")

    def __init__(self, metric: str, series: str,
                 quantiles: Sequence[float] = (0.5, 0.95)):
        self.metric = metric
        self.series = series
        self.quantiles = tuple(quantiles)
        self._prev_buckets: list[int] | None = None
        self._prev_sum = 0.0
        self._prev_count = 0

    def flush(self, bus: "LiveBus", registry, now: float) -> None:
        if self.metric not in registry:
            return
        hist = registry.get(self.metric)
        buckets = list(hist.bucket_counts)
        prev = self._prev_buckets
        if prev is None or hist.count < self._prev_count:
            # first window, or the histogram restarted (forked run)
            prev = [0] * len(buckets)
            self._prev_sum, self._prev_count = 0.0, 0
        delta_buckets = [b - p for b, p in zip(buckets, prev)]
        delta_count = hist.count - self._prev_count
        delta_sum = hist.total - self._prev_sum
        self._prev_buckets = buckets
        self._prev_sum, self._prev_count = hist.total, hist.count
        if delta_count <= 0:
            return
        bus._emit_locked(f"{self.series}.mean", now,
                         delta_sum / delta_count)
        for q in self.quantiles:
            rank = q * delta_count
            seen = 0
            value = hist.boundaries[-1]
            for edge, n in zip(hist.boundaries, delta_buckets):
                seen += n
                if seen >= rank and n:
                    value = edge
                    break
            else:
                if delta_buckets[-1]:
                    value = hist.max
            bus._emit_locked(f"{self.series}.p{int(q * 100)}", now,
                             value)


def default_taps() -> tuple:
    """The standard registry taps a monitored run starts with."""
    return (
        CounterTap("db.queries", "live.throughput"),
        HistogramTap("db.query_seconds", "live.latency"),
        GaugeTap("cpuset.allowed_cores", "live.cores_allowed"),
        CounterTap("scheduler.migrations", "live.migrations_per_s"),
    )


# ----------------------------------------------------------------------
# the bus
# ----------------------------------------------------------------------

class LiveBus:
    """Process-wide streaming hub for one monitored run.

    Sources push with :meth:`emit` / :meth:`on_decision` /
    :meth:`on_core_change`; the sim-driven flush timer calls
    :meth:`flush` once per window; readers (HTTP server, dashboard,
    tests) call :meth:`snapshot`.  All entry points lock — emissions
    come from the experiment thread, scrapes from the server thread.
    """

    def __init__(self, window: float = DEFAULT_WINDOW,
                 taps: Iterable | None = None,
                 slos: Iterable[SloObjective] = (),
                 health: HealthConfig | None = None,
                 alerts=None,
                 keep: int = DEFAULT_KEEP):
        if window <= 0:
            raise ReproError(f"flush window must be positive, got {window}")
        self.window = window
        self.keep = keep
        self.series: dict[str, Series] = {}
        self.taps = tuple(default_taps() if taps is None else taps)
        self.health = HealthSuite(health or HealthConfig())
        self.slos = tuple(SloTracker(objective) for objective in slos)
        #: the alert engine (an ``alerts.AlertEngine``); optional so the
        #: bus works headless, injected to avoid an import cycle
        self.alerts = alerts
        self.sinks: list = []
        self.windows = 0
        self.last_flush: float | None = None
        self.decisions_seen = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

    def add_sink(self, sink) -> None:
        """Attach a streaming sink (``sink.write(kind, payload)``)."""
        self.sinks.append(sink)

    def _series(self, name: str) -> Series:
        series = self.series.get(name)
        if series is None:
            series = Series(name, keep=self.keep)
            self.series[name] = series
        return series

    def _emit_locked(self, name: str, time: float, value: float) -> None:
        self._series(name).add(time, value)
        for sink in self.sinks:
            sink.write("sample", {"t": time, "series": name,
                                  "value": float(value)})

    def emit(self, name: str, time: float, value: float) -> None:
        """Record one sample on one series (thread-safe)."""
        with self._lock:
            self._emit_locked(name, time, value)

    def on_decision(self, decision) -> None:
        """Stage hook: one controller pipeline pass just completed."""
        with self._lock:
            self.decisions_seen += 1
            tenant = self.health.observe(decision)
            t = decision.time
            prefix = f"health.{decision.tenant}"
            self._emit_locked(f"live.metric.{decision.tenant}", t,
                              decision.metric)
            self._emit_locked(f"{prefix}.oscillation", t,
                              tenant.oscillation)
            self._emit_locked(f"{prefix}.flapping", t, tenant.flapping)
            if tenant.last_lag is not None:
                self._emit_locked(f"{prefix}.allocation_lag", t,
                                  float(tenant.last_lag))
            self._emit_locked(f"{prefix}.converged", t,
                              1.0 if tenant.converged else 0.0)
            if tenant.convergence_time is not None:
                self._emit_locked(f"{prefix}.convergence_time", t,
                                  tenant.convergence_time)
            for sink in self.sinks:
                sink.write("decision", {
                    "t": t, "tenant": decision.tenant,
                    "tick": decision.tick, "state": decision.state,
                    "action": decision.action, "core": decision.core,
                    "cores_after": decision.cores_after})

    def on_core_change(self, time: float, tenant: str,
                       n_allocated: int) -> None:
        """Stage hook: an actuator changed a tenant's core holdings."""
        self.emit(f"live.cores.{tenant}", time, float(n_allocated))

    # ------------------------------------------------------------------
    # the window flush
    # ------------------------------------------------------------------

    def flush(self, os_) -> None:
        """Close one window against a running system's registry.

        Called by the :class:`LiveFlushTimer` with simulated cadence
        ``self.window``; reads cumulative instruments incrementally and
        turns them into windowed series, then scores SLO objectives and
        evaluates alert rules on the fresh values.
        """
        with self._lock:
            now = os_.now
            registry = os_.obs.metrics
            for tap in self.taps:
                tap.flush(self, registry, now)
            self.windows += 1
            self.last_flush = now
            for tracker in self.slos:
                series = self.series.get(tracker.objective.series)
                value = None
                if series is not None and series.last_time is not None \
                        and series.last_time > now - self.window:
                    value = series.last
                burn = tracker.observe_window(value)
                if burn is not None:
                    self._emit_locked(
                        f"slo.{tracker.objective.name}.burn", now, burn)
            if self.alerts is not None:
                transitions = self.alerts.evaluate(now, self)
                for event in transitions:
                    for sink in self.sinks:
                        sink.write("alert", event)
            for sink in self.sinks:
                sink.write("window", {
                    "t": now, "windows": self.windows,
                    "decisions": self.decisions_seen})
                sink.flush()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """A consistent JSON-ready view for servers and dashboards."""
        with self._lock:
            out = {
                "window": self.window,
                "windows": self.windows,
                "last_flush": self.last_flush,
                "decisions": self.decisions_seen,
                "series": {name: series.as_dict()
                           for name, series in sorted(self.series.items())},
                "health": self.health.snapshot(),
                "slo": [tracker.snapshot() for tracker in self.slos],
            }
            if self.alerts is not None:
                out["alerts"] = self.alerts.snapshot()
            return out


# ----------------------------------------------------------------------
# the sim-driven flush timer
# ----------------------------------------------------------------------

class LiveFlushTimer:
    """Self-rescheduling sim event that closes bus windows.

    Armed by ``OperatingSystem.run``/``run_until_idle`` whenever a bus
    is installed.  After each flush it re-arms only while the simulation
    has other pending work, so a drained machine goes idle instead of
    ticking forever; the next ``run*`` call re-arms it.  Module-level
    class (not a closure) so captured systems stay picklable; the bus is
    looked up at fire time, never stored, so warm-start forks flush into
    the process-wide bus.
    """

    __slots__ = ("os", "event")

    def __init__(self, os_):
        self.os = os_
        self.event = None

    def arm(self) -> None:
        """Queue the next flush if none is pending."""
        bus = live_bus()
        if bus is None:
            return
        event = self.event
        if event is not None and not (event.delivered or event.cancelled):
            return
        if event is None or event.cancelled:
            self.event = self.os.sim.schedule(bus.window, self)
        else:
            self.event = self.os.sim.reschedule(event, bus.window)

    def __call__(self) -> None:
        bus = live_bus()
        if bus is None:
            return
        bus.flush(self.os)
        if self.os.sim.pending() > 0:
            self.event = self.os.sim.reschedule(self.event, bus.window)


# ----------------------------------------------------------------------
# process-wide installation
# ----------------------------------------------------------------------

_installed: LiveBus | None = None


def install_live(bus: LiveBus | None = None) -> LiveBus:
    """Make ``bus`` the process-wide live bus; returns it."""
    global _installed
    _installed = bus if bus is not None else LiveBus()
    return _installed


def uninstall_live() -> None:
    """Remove the installed bus; emission sites become no-ops again."""
    global _installed
    _installed = None


def live_bus() -> LiveBus | None:
    """The installed live bus, or ``None`` (the fast-path check)."""
    return _installed


@contextlib.contextmanager
def streaming(bus: LiveBus | None = None):
    """Install a live bus for the duration of a ``with`` block."""
    installed = install_live(bus)
    try:
        yield installed
    finally:
        uninstall_live()
