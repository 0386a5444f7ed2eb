"""Live telemetry: rolling aggregators, the bus, the sim-driven flush."""

from types import SimpleNamespace

import pytest

from repro.db.clients import repeat_stream
from repro.errors import ReproError
from repro.experiments.common import build_system
from repro.obs import Recorder
from repro.obs.live import (CounterTap, Ewma, GaugeTap, HistogramTap,
                            LiveBus, P2Quantile, Series, WindowRate,
                            default_taps, install_live, live_bus,
                            streaming, uninstall_live)
from repro.obs.metrics import MetricsRegistry


def fake_system(registry: MetricsRegistry, now: float):
    """The duck the bus flush needs: ``.now`` and ``.obs.metrics``."""
    return SimpleNamespace(now=now, obs=SimpleNamespace(metrics=registry))


# ----------------------------------------------------------------------
# aggregators
# ----------------------------------------------------------------------

class TestEwma:
    def test_warm_up_is_explicit(self):
        ewma = Ewma(alpha=0.5)
        assert ewma.value is None
        assert ewma.update(10.0) == 10.0  # first observation is exact

    def test_blending(self):
        ewma = Ewma(alpha=0.5)
        ewma.update(10.0)
        assert ewma.update(20.0) == pytest.approx(15.0)
        assert ewma.count == 2

    def test_alpha_validation(self):
        with pytest.raises(ReproError):
            Ewma(alpha=0.0)
        with pytest.raises(ReproError):
            Ewma(alpha=1.5)
        Ewma(alpha=1.0)  # boundary is legal: no smoothing


class TestWindowRate:
    def test_first_window_does_not_exist(self):
        rate = WindowRate()
        assert rate.update(1.0, 100.0) is None

    def test_steady_rate(self):
        rate = WindowRate()
        rate.update(1.0, 100.0)
        assert rate.update(2.0, 150.0) == pytest.approx(50.0)
        assert rate.update(4.0, 250.0) == pytest.approx(50.0)

    def test_counter_reset_uses_post_reset_value(self):
        # Prometheus convention: a decrease means the counter restarted
        # from zero, so the post-reset reading *is* the delta
        rate = WindowRate()
        rate.update(1.0, 1000.0)
        assert rate.update(2.0, 30.0) == pytest.approx(30.0)

    def test_zero_interval_is_zero_rate(self):
        rate = WindowRate()
        rate.update(1.0, 10.0)
        assert rate.update(1.0, 20.0) == 0.0

    def test_delta_preview(self):
        rate = WindowRate()
        rate.update(1.0, 10.0)
        assert rate.delta(14.0) == pytest.approx(4.0)
        assert rate.delta(3.0) == pytest.approx(3.0)  # reset


class TestP2Quantile:
    def test_empty_sketch_has_no_quantile(self):
        assert P2Quantile(0.5).value() is None

    def test_exact_below_five_observations(self):
        sketch = P2Quantile(0.5)
        for v in (5.0, 1.0, 3.0):
            sketch.observe(v)
        assert sketch.value() == 3.0

    def test_q_validation(self):
        with pytest.raises(ReproError):
            P2Quantile(0.0)
        with pytest.raises(ReproError):
            P2Quantile(1.0)

    def test_median_of_uniform_stream(self):
        sketch = P2Quantile(0.5)
        # deterministic pseudo-shuffled stream over [0, 1)
        for i in range(1000):
            sketch.observe((i * 37 % 1000) / 1000.0)
        assert sketch.value() == pytest.approx(0.5, abs=0.05)

    def test_markers_ranked_among_extreme_copies_hold_the_extreme(self):
        # interpolation toward a late 1001 would lift the median above
        # 1000, though 49 of the 50 observations are 1000
        median = P2Quantile(0.5)
        for v in [1000.0] * 47 + [1001.0, 1000.0, 1000.0]:
            median.observe(v)
        assert median.value() == 1000.0
        low = P2Quantile(0.05)
        for i in range(50):
            low.observe(1000.0 if i % 4 else 1000.0 + 37 * i)
        assert low.value() == 1000.0

    def test_p95_of_uniform_stream(self):
        sketch = P2Quantile(0.95)
        for i in range(1000):
            sketch.observe((i * 37 % 1000) / 1000.0)
        assert sketch.value() == pytest.approx(0.95, abs=0.05)


class TestSeries:
    def test_add_and_summary(self):
        series = Series("s")
        series.add(1.0, 10.0)
        series.add(2.0, 20.0)
        assert series.last == 20.0
        assert series.last_time == 2.0
        assert series.count == 2
        assert series.as_dict()["ewma"] is not None

    def test_trend_is_per_second_slope(self):
        series = Series("s")
        series.add(0.0, 0.0)
        series.add(2.0, 10.0)
        assert series.trend(2) == pytest.approx(5.0)

    def test_trend_needs_an_interval(self):
        series = Series("s")
        assert series.trend(4) is None
        series.add(1.0, 1.0)
        assert series.trend(4) is None
        series.add(1.0, 2.0)  # zero elapsed time
        assert series.trend(4) is None

    def test_ring_is_bounded(self):
        series = Series("s", keep=8)
        for i in range(100):
            series.add(float(i), float(i))
        assert len(series.samples) == 8
        assert series.count == 100


# ----------------------------------------------------------------------
# registry taps
# ----------------------------------------------------------------------

class TestTaps:
    def test_counter_tap_emits_windowed_rate(self):
        bus = LiveBus(taps=(CounterTap("db.queries",
                                       "live.throughput"),))
        registry = MetricsRegistry()
        counter = registry.counter("db.queries")
        counter.inc(10)
        bus.flush(fake_system(registry, 1.0))
        assert "live.throughput" not in bus.series  # no window yet
        counter.inc(20)
        bus.flush(fake_system(registry, 2.0))
        assert bus.series["live.throughput"].last == pytest.approx(20.0)

    def test_gauge_tap_samples_the_level(self):
        bus = LiveBus(taps=(GaugeTap("cpuset.allowed_cores",
                                     "live.cores_allowed"),))
        registry = MetricsRegistry()
        registry.gauge("cpuset.allowed_cores").set(4)
        bus.flush(fake_system(registry, 1.0))
        assert bus.series["live.cores_allowed"].last == 4.0

    def test_missing_metric_is_skipped(self):
        bus = LiveBus()  # default taps, empty registry
        bus.flush(fake_system(MetricsRegistry(), 1.0))
        assert bus.windows == 1
        assert bus.series == {}

    def test_histogram_tap_windows_mean_and_quantiles(self):
        bus = LiveBus(taps=(HistogramTap("db.query_seconds",
                                         "live.latency"),))
        registry = MetricsRegistry()
        hist = registry.histogram("db.query_seconds", (0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5):
            hist.observe(v)
        bus.flush(fake_system(registry, 1.0))
        assert bus.series["live.latency.mean"].last == \
            pytest.approx((0.05 + 0.5 + 0.5) / 3)
        # conservative upper-edge quantiles from the bucket deltas
        assert bus.series["live.latency.p50"].last == 1.0
        assert bus.series["live.latency.p95"].last == 1.0

    def test_histogram_empty_window_emits_nothing(self):
        bus = LiveBus(taps=(HistogramTap("db.query_seconds",
                                         "live.latency"),))
        registry = MetricsRegistry()
        hist = registry.histogram("db.query_seconds", (0.1, 1.0))
        hist.observe(0.5)
        bus.flush(fake_system(registry, 1.0))
        count = bus.series["live.latency.mean"].count
        bus.flush(fake_system(registry, 2.0))  # no new observations
        assert bus.series["live.latency.mean"].count == count

    def test_default_taps_cover_the_headline_metrics(self):
        metrics = {tap.metric for tap in default_taps()}
        assert {"db.queries", "db.query_seconds",
                "cpuset.allowed_cores",
                "scheduler.migrations"} <= metrics


# ----------------------------------------------------------------------
# the bus
# ----------------------------------------------------------------------

class TestLiveBus:
    def test_window_must_be_positive(self):
        with pytest.raises(ReproError):
            LiveBus(window=0.0)

    def test_emit_and_snapshot(self):
        bus = LiveBus()
        bus.emit("x", 1.0, 42.0)
        snapshot = bus.snapshot()
        assert snapshot["series"]["x"]["last"] == 42.0
        assert snapshot["windows"] == 0
        assert snapshot["decisions"] == 0

    def test_on_core_change_streams_per_tenant(self):
        bus = LiveBus()
        bus.on_core_change(1.0, "db", 3)
        assert bus.series["live.cores.db"].last == 3.0

    def test_sinks_receive_samples_and_windows(self):
        records = []
        sink = SimpleNamespace(
            write=lambda kind, payload: records.append(kind),
            flush=lambda: None)
        bus = LiveBus(taps=())
        bus.add_sink(sink)
        bus.emit("x", 1.0, 1.0)
        bus.flush(fake_system(MetricsRegistry(), 1.0))
        assert records == ["sample", "window"]

    def test_install_uninstall(self):
        assert live_bus() is None
        bus = install_live()
        try:
            assert live_bus() is bus
        finally:
            uninstall_live()
        assert live_bus() is None

    def test_streaming_context_manager(self):
        with streaming() as bus:
            assert live_bus() is bus
        assert live_bus() is None


# ----------------------------------------------------------------------
# the sim-driven flush (end to end on a real system)
# ----------------------------------------------------------------------

class TestSimDrivenFlush:
    def test_windows_close_as_sim_time_advances(self):
        with streaming(LiveBus(window=0.05)) as bus:
            sut = build_system(obs=Recorder(), engine="morsel",
                               mode="adaptive", scale=0.004,
                               sim_scale=0.125)
            sut.run_clients(2, repeat_stream("q6", 2))
            # the run returning proves the flush timer terminated: it
            # re-arms only while other events are pending
        assert bus.windows > 0
        assert bus.decisions_seen > 0
        assert "live.throughput" in bus.series
        assert "live.cores.db" in bus.series
        assert "health.db.oscillation" in bus.series
        # every query landed in some closed window: the latency tap saw
        # at least one non-empty delta
        assert bus.series["live.latency.mean"].last > 0

    def test_unmonitored_run_pays_nothing(self):
        # no bus installed: the system never arms a flush timer
        sut = build_system(obs=Recorder(), engine="morsel",
                           mode="adaptive", scale=0.004,
                           sim_scale=0.125)
        sut.run_clients(2, repeat_stream("q6", 2))
        assert sut.os._live_timer is None
