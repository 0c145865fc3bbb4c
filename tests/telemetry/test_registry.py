"""Telemetry primitives and the registry: recording, sampling, merging."""

import pickle

import pytest

from repro.telemetry.registry import (
    DEFAULT_BUCKET_BOUNDS,
    DEFAULT_INTERVAL,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_SERIES,
    NULL_TRANSITIONS,
    Counter,
    Gauge,
    Histogram,
    IntervalSeries,
    TelemetryRegistry,
    TransitionMatrix,
)
from repro.rca.states import RegionState


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("c")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_reset(self):
        c = Counter("c")
        c.inc(3)
        c.reset()
        assert c.value == 0

    def test_merge_adds(self):
        a, b = Counter("a"), Counter("b")
        a.inc(2)
        b.inc(5)
        a.merge_from(b)
        assert a.value == 7

    def test_to_dict(self):
        c = Counter("c")
        c.inc(9)
        assert c.to_dict() == {"value": 9}


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("g")
        g.set(1.5)
        g.set(2.5)
        assert g.value == 2.5

    def test_merge_keeps_latest_non_default(self):
        a, b = Gauge("a"), Gauge("b")
        a.set(3.0)
        a.merge_from(b)  # b is default (0.0): keep ours
        assert a.value == 3.0
        b.set(7.0)
        a.merge_from(b)
        assert a.value == 7.0


class TestHistogram:
    def test_bucket_placement_is_le_semantics(self):
        h = Histogram("h", bounds=[1, 10, 100])
        for value in (0, 1, 2, 10, 11, 1000):
            h.observe(value)
        # counts: <=1, <=10, <=100, overflow
        assert h.counts == [2, 2, 1, 1]
        assert h.count == 6
        assert h.cumulative_counts() == [2, 4, 5, 6]

    def test_moments_come_from_running_stat(self):
        h = Histogram("h", bounds=[10])
        for value in (2.0, 4.0, 6.0):
            h.observe(value)
        assert h.stat.mean == pytest.approx(4.0)
        assert h.total == pytest.approx(12.0)
        assert h.stat.minimum == 2.0
        assert h.stat.maximum == 6.0

    def test_percentiles_exposed(self):
        h = Histogram("h", bounds=[1000])
        for value in range(101):
            h.observe(float(value))
        assert h.percentile(50) == pytest.approx(50.0)
        assert h.percentile(100) == pytest.approx(100.0)

    def test_empty_bounds_raise(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=[])

    def test_default_bounds_are_powers_of_two(self):
        h = Histogram("h")
        assert h.bounds == DEFAULT_BUCKET_BOUNDS
        assert h.bounds[0] == 1 and h.bounds[-1] == 1 << 20

    def test_reset_preserves_layout(self):
        h = Histogram("h", bounds=[1, 2])
        h.observe(1.5)
        h.reset()
        assert h.count == 0
        assert h.counts == [0, 0, 0]
        assert h.bounds == (1, 2)

    def test_merge_combines(self):
        a, b = Histogram("a", bounds=[10]), Histogram("b", bounds=[10])
        a.observe(5.0)
        b.observe(15.0)
        a.merge_from(b)
        assert a.count == 2
        assert a.counts == [1, 1]
        assert a.total == pytest.approx(20.0)

    def test_merge_different_bounds_raises(self):
        a, b = Histogram("a", bounds=[10]), Histogram("b", bounds=[20])
        with pytest.raises(ValueError):
            a.merge_from(b)

    @staticmethod
    def _eviction_histograms():
        """Two RCA-eviction-shaped layouts: 4 and 8 lines per region."""
        short = Histogram("short", bounds=range(5))
        long = Histogram("long", bounds=range(9))
        for value in (0, 1, 4, 4):
            short.observe(value)
        for value in (2, 7, 8):
            long.observe(value)
        return short, long

    @pytest.mark.parametrize("short_first", [True, False])
    def test_merge_prefix_bounds_into_the_longer_layout(self, short_first):
        short, long = self._eviction_histograms()
        into, other = (short, long) if short_first else (long, short)
        into.merge_from(other)
        assert into.bounds == tuple(range(9))
        assert into.counts == [1, 1, 1, 0, 2, 0, 0, 1, 1, 0]
        assert into.count == 7
        assert into.total == pytest.approx(26.0)
        assert (into.stat.minimum, into.stat.maximum) == (0, 8)

    def test_merge_prefix_bounds_with_short_overflow_raises(self):
        short, long = self._eviction_histograms()
        short.observe(6)   # above the short layout's last bound
        with pytest.raises(ValueError):
            short.merge_from(long)
        with pytest.raises(ValueError):
            long.merge_from(short)

    def test_merge_bounds_that_are_not_a_prefix_raises(self):
        a = Histogram("a", bounds=[1, 2, 4])
        b = Histogram("b", bounds=[1, 3, 4, 8])
        with pytest.raises(ValueError):
            a.merge_from(b)
        with pytest.raises(ValueError):
            b.merge_from(a)

    def test_to_dict_includes_percentiles_when_populated(self):
        h = Histogram("h", bounds=[10])
        assert "p50" not in h.to_dict()
        h.observe(3.0)
        assert h.to_dict()["p50"] == pytest.approx(3.0)


class TestIntervalSeries:
    def test_records_into_windows(self):
        s = IntervalSeries("s", window=100)
        s.record(0)
        s.record(99)
        s.record(100, 2.5)
        assert s.buckets == {0: 2.0, 1: 2.5}
        assert s.total == pytest.approx(4.5)

    def test_series_is_dense_from_zero(self):
        s = IntervalSeries("s", window=10)
        s.record(25, 3.0)
        assert s.series() == [0.0, 0.0, 3.0]
        assert IntervalSeries("empty", window=10).series() == []

    def test_bad_window_raises(self):
        with pytest.raises(ValueError):
            IntervalSeries("s", window=0)

    def test_merge_adds_bucketwise(self):
        a, b = IntervalSeries("a", window=10), IntervalSeries("b", window=10)
        a.record(5, 1.0)
        b.record(5, 2.0)
        b.record(15, 4.0)
        a.merge_from(b)
        assert a.buckets == {0: 3.0, 1: 4.0}
        assert a.total == pytest.approx(7.0)

    def test_merge_different_windows_raises(self):
        a, b = IntervalSeries("a", window=10), IntervalSeries("b", window=20)
        with pytest.raises(ValueError):
            a.merge_from(b)


class TestTransitionMatrix:
    def test_records_enum_values_as_strings(self):
        m = TransitionMatrix("m")
        m.record(RegionState.INVALID, "local.read", RegionState.CLEAN_INVALID)
        m.record(RegionState.INVALID, "local.read", RegionState.CLEAN_INVALID)
        m.record("CI", "evict", "I")
        assert m.counts[("I", "local.read", "CI")] == 2
        assert m.counts[("CI", "evict", "I")] == 1
        assert m.total == 3
        assert m.coverage() == 2

    def test_count_records_that_many_transitions(self):
        # The class-mask region snoop records one count per class group;
        # that must equal one record per observer.
        batched, single = TransitionMatrix("b"), TransitionMatrix("s")
        batched.record(RegionState.CLEAN_CLEAN, "external.rfo",
                       RegionState.CLEAN_DIRTY, count=3)
        for _ in range(3):
            single.record(RegionState.CLEAN_CLEAN, "external.rfo",
                          RegionState.CLEAN_DIRTY)
        assert batched.counts == single.counts == {("CC", "external.rfo",
                                                    "CD"): 3}
        assert batched.to_dict() == single.to_dict()
        NULL_TRANSITIONS.record("CC", "external.rfo", "CD", count=3)
        assert NULL_TRANSITIONS.total == 0

    def test_merge_adds_cells(self):
        a, b = TransitionMatrix("a"), TransitionMatrix("b")
        a.record("I", "x", "CI")
        b.record("I", "x", "CI")
        b.record("CI", "y", "I")
        a.merge_from(b)
        assert a.counts == {("I", "x", "CI"): 2, ("CI", "y", "I"): 1}


class TestRegistryFactories:
    def test_create_or_return_by_name(self):
        reg = TelemetryRegistry()
        c1 = reg.counter("a.b", help="first")
        c2 = reg.counter("a.b", help="ignored on refetch")
        assert c1 is c2
        assert len(reg) == 1
        assert "a.b" in reg
        assert reg.get("a.b") is c1

    def test_kind_mismatch_raises(self):
        reg = TelemetryRegistry()
        reg.counter("m")
        with pytest.raises(TypeError):
            reg.gauge("m")

    def test_interval_series_defaults_to_registry_interval(self):
        reg = TelemetryRegistry(interval=5000)
        s = reg.interval_series("s")
        assert s.window == 5000

    def test_bad_interval_raises(self):
        with pytest.raises(ValueError):
            TelemetryRegistry(interval=0)

    def test_default_interval_matches_figure_10_window(self):
        assert TelemetryRegistry().interval == DEFAULT_INTERVAL == 100_000


class TestProbesAndSampling:
    def test_probe_records_delta_since_previous_sample(self):
        reg = TelemetryRegistry(interval=100)
        source = {"v": 0}
        series = reg.add_probe("p", lambda: source["v"])
        source["v"] = 3
        reg.maybe_sample(100)  # window 0 closes
        source["v"] = 10
        reg.maybe_sample(200)  # window 1 closes
        assert series.buckets == {0: 3.0, 1: 7.0}
        assert series.total == pytest.approx(10.0)

    def test_totals_reconcile_exactly_with_source(self):
        reg = TelemetryRegistry(interval=10)
        source = {"v": 0}
        series = reg.add_probe("p", lambda: source["v"])
        for step in range(1, 50):
            source["v"] += step % 3
            reg.maybe_sample(step * 7)
        reg.finalize(49 * 7)
        assert series.total == pytest.approx(source["v"])

    def test_maybe_sample_catches_up_over_skipped_boundaries(self):
        reg = TelemetryRegistry(interval=10)
        source = {"v": 0}
        series = reg.add_probe("p", lambda: source["v"])
        source["v"] = 5
        reg.maybe_sample(35)  # boundaries 10, 20, 30 are all due
        assert reg.next_sample_time == 40
        # The whole delta lands in the first closed window.
        assert series.buckets == {0: 5.0}

    def test_source_reset_treated_as_restart(self):
        reg = TelemetryRegistry(interval=10)
        source = {"v": 8}
        series = reg.add_probe("p", lambda: source["v"])
        reg.maybe_sample(10)
        source["v"] = 2  # reset behind our back
        reg.maybe_sample(20)
        assert series.buckets[1] == pytest.approx(2.0)

    def test_finalize_flushes_trailing_partial_window(self):
        reg = TelemetryRegistry(interval=100)
        source = {"v": 0}
        series = reg.add_probe("p", lambda: source["v"])
        source["v"] = 4
        reg.finalize(50)  # run ended mid-window
        assert series.total == pytest.approx(4.0)
        assert reg.finalized_at == 50

    def test_finalizers_run_with_end_time(self):
        reg = TelemetryRegistry()
        seen = []
        reg.add_finalizer(seen.append)
        reg.finalize(777)
        assert seen == [777]

    def test_finalized_registry_drops_its_callbacks_and_pickles(self):
        reg = TelemetryRegistry(interval=100)
        source = {"v": 0}
        reg.add_probe("p", lambda: source["v"])
        reg.add_finalizer(lambda end: reg.gauge("g").set(end))
        reg.counter("c").inc(3)
        reg.histogram("h", bounds=[10]).observe(4)
        reg.transition_matrix("t").record("I", "load", "CI")
        source["v"] = 5
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(reg)   # the lambdas do not pickle
        reg.finalize(250)
        copy = pickle.loads(pickle.dumps(reg))
        assert copy.to_dict() == reg.to_dict()
        assert copy.get("p").total == 5.0
        assert copy.get("g").value == 250

    def test_restart_sampling_aligns_past_now(self):
        reg = TelemetryRegistry(interval=100)
        reg.restart_sampling(250)
        assert reg.next_sample_time == 300
        reg.restart_sampling(300)
        assert reg.next_sample_time == 400

    def test_reset_zeroes_metrics_and_rebaselines_probes(self):
        reg = TelemetryRegistry(interval=10)
        source = {"v": 0}
        series = reg.add_probe("p", lambda: source["v"])
        counter = reg.counter("c")
        counter.inc(5)
        source["v"] = 9
        reg.reset()
        reg.maybe_sample(10)
        assert counter.value == 0
        # Pre-reset growth must not leak into the post-reset series.
        assert series.total == 0.0


class TestDisabledMode:
    def test_factories_hand_out_shared_null_singletons(self):
        reg = TelemetryRegistry(enabled=False)
        assert reg.counter("c") is NULL_COUNTER
        assert reg.gauge("g") is NULL_GAUGE
        assert reg.histogram("h") is NULL_HISTOGRAM
        assert reg.interval_series("s") is NULL_SERIES
        assert reg.transition_matrix("t") is NULL_TRANSITIONS
        assert len(reg) == 0

    def test_null_metrics_record_nothing(self):
        reg = TelemetryRegistry(enabled=False)
        reg.counter("c").inc(100)
        reg.gauge("g").set(9.0)
        reg.histogram("h").observe(3.0)
        reg.transition_matrix("t").record("I", "x", "CI")
        series = reg.add_probe("p", lambda: 42)
        reg.maybe_sample(1_000_000)
        reg.finalize(2_000_000)
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.value == 0.0
        assert NULL_HISTOGRAM.count == 0
        assert NULL_TRANSITIONS.total == 0
        assert series.total == 0.0
        assert reg.finalized_at is None

    def test_disabled_snapshot_is_empty(self):
        reg = TelemetryRegistry(enabled=False)
        reg.counter("c").inc()
        snap = reg.to_dict()
        assert snap["counters"] == {}
        assert snap["histograms"] == {}


class TestRegistryMerge:
    def test_merge_combines_every_kind(self):
        a = TelemetryRegistry(interval=10)
        b = TelemetryRegistry(interval=10)
        for reg, scale in ((a, 1), (b, 2)):
            reg.counter("c").inc(scale)
            reg.gauge("g").set(scale * 1.0)
            reg.histogram("h", bounds=[10]).observe(scale)
            reg.interval_series("s").record(5, scale)
            reg.transition_matrix("t").record("I", "x", "CI")
        a.merge_from(b)
        assert a.get("c").value == 3
        assert a.get("g").value == 2.0
        assert a.get("h").count == 2
        assert a.get("s").total == pytest.approx(3.0)
        assert a.get("t").counts[("I", "x", "CI")] == 2

    def test_merge_copies_metrics_absent_here(self):
        a = TelemetryRegistry()
        b = TelemetryRegistry()
        b.counter("only.in.b").inc(4)
        a.merge_from(b)
        assert a.get("only.in.b").value == 4
        # And the copy is independent of b's metric.
        b.get("only.in.b").inc()
        assert a.get("only.in.b").value == 4
