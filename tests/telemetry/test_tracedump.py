"""Trace-dump mode: merging the event log with interval series."""

import json

from repro.coherence.requests import RequestType
from repro.system.eventlog import EventLog
from repro.system.machine import RequestPath
from repro.telemetry.registry import TelemetryRegistry
from repro.telemetry.tracedump import merged_records, render, save_trace_dump


def make_sources():
    """An event log and a registry covering two 100-cycle windows."""
    log = EventLog(capacity=16)
    log.record(10, 0, RequestType.READ, 0x1000, RequestPath.BROADCAST, 50)
    log.record(99, 1, RequestType.RFO, 0x2000, RequestPath.DIRECT, 20)
    log.record(150, 0, RequestType.IFETCH, 0x3000, RequestPath.NO_REQUEST, 0)
    registry = TelemetryRegistry(interval=100)
    series = registry.interval_series("bus.broadcasts")
    series.record(10, 1.0)
    series.record(150, 2.0)
    other = registry.interval_series("stats.directs")
    other.record(99, 1.0)
    return registry, log


class TestMergedRecords:
    def test_chronological_with_intervals_after_events(self):
        registry, log = make_sources()
        records = merged_records(registry, log)
        times = [(r["time"], r["kind"]) for r in records]
        assert times == [
            (10, "event"),
            (99, "event"),
            (99, "interval"),   # window 0 summary follows its events
            (150, "event"),
            (199, "interval"),
        ]

    def test_interval_records_group_all_series(self):
        registry, log = make_sources()
        first_interval = next(
            r for r in merged_records(registry, log) if r["kind"] == "interval"
        )
        assert first_interval["series"] == {
            "bus.broadcasts": 1.0, "stats.directs": 1.0,
        }

    def test_event_fields_are_plain_values(self):
        registry, log = make_sources()
        event = merged_records(registry, log)[0]
        assert event == {
            "kind": "event", "time": 10, "processor": 0, "request": "read",
            "address": 0x1000, "path": "broadcast", "latency": 50,
        }

    def test_equal_timestamps_keep_insertion_order(self):
        # Several grants can land on the same cycle; the merge must not
        # shuffle them (the sort is stable over the (time, kind) key).
        log = EventLog(capacity=16)
        log.record(50, 3, RequestType.READ, 0x1000, RequestPath.BROADCAST, 10)
        log.record(50, 1, RequestType.RFO, 0x2000, RequestPath.DIRECT, 20)
        log.record(50, 2, RequestType.READ, 0x3000, RequestPath.BROADCAST, 30)
        records = merged_records(None, log)
        assert [r["processor"] for r in records] == [3, 1, 2]

    def test_event_precedes_interval_at_the_same_time(self):
        log = EventLog(capacity=4)
        log.record(99, 0, RequestType.READ, 0x1000, RequestPath.BROADCAST, 10)
        registry = TelemetryRegistry(interval=100)
        registry.interval_series("bus.broadcasts").record(0, 1.0)
        kinds = [r["kind"] for r in merged_records(registry, log)]
        assert kinds == ["event", "interval"]  # both at time 99

    def test_empty_sources_merge_to_nothing(self):
        # Empty is not None: an attached-but-idle log and a registry
        # with no interval series must merge cleanly.
        registry, log = TelemetryRegistry(interval=100), EventLog(capacity=4)
        assert merged_records(registry, log) == []
        assert render(registry, log) == ""

    def test_empty_source_merges_with_a_full_one(self):
        registry, log = make_sources()
        events_only = merged_records(TelemetryRegistry(interval=100), log)
        assert [r["kind"] for r in events_only] == ["event"] * 3
        intervals_only = merged_records(registry, EventLog(capacity=4))
        assert [r["kind"] for r in intervals_only] == ["interval"] * 2

    def test_either_source_may_be_none(self):
        registry, log = make_sources()
        only_events = merged_records(None, log)
        assert all(r["kind"] == "event" for r in only_events)
        assert len(only_events) == 3
        only_intervals = merged_records(registry, None)
        assert all(r["kind"] == "interval" for r in only_intervals)
        assert len(only_intervals) == 2
        assert merged_records(None, None) == []


class TestDumpAndRender:
    def test_save_trace_dump_writes_parseable_jsonl(self, tmp_path):
        registry, log = make_sources()
        path = tmp_path / "trace.jsonl"
        count = save_trace_dump(registry, log, path)
        lines = path.read_text().splitlines()
        assert count == len(lines) == 5
        parsed = [json.loads(line) for line in lines]
        assert parsed == merged_records(registry, log)

    def test_render_marks_intervals_and_limits(self):
        registry, log = make_sources()
        text = render(registry, log)
        assert "interval:" in text
        assert "broadcast" in text
        assert len(render(registry, log, limit=2).splitlines()) == 2
