"""Exporter round-trips: JSON, CSV, Prometheus text exposition."""

import pytest

from repro.telemetry.export import (
    load_csv,
    load_json,
    load_prometheus,
    save_all,
    save_csv,
    save_json,
    save_prometheus,
    to_csv,
    to_json,
    to_prometheus,
)
from repro.telemetry.registry import TelemetryRegistry


@pytest.fixture
def registry():
    reg = TelemetryRegistry(interval=100)
    reg.counter("machine.requests", help="external requests").inc(42)
    reg.gauge("bus.utilization").set(0.25)
    hist = reg.histogram("machine.latency", bounds=[10, 100])
    for value in (5, 50, 500):
        hist.observe(value)
    series = reg.interval_series("bus.broadcasts")
    series.record(50, 7.0)
    series.record(150, 3.0)
    matrix = reg.transition_matrix("rca.transitions")
    matrix.record("I", "local.read", "CI")
    matrix.record("CI", "evict", "I")
    return reg


class TestJson:
    def test_round_trip(self, registry):
        snapshot = load_json(to_json(registry))
        assert snapshot == registry.to_dict()

    def test_save_and_load_path(self, registry, tmp_path):
        path = tmp_path / "t.json"
        save_json(registry, path)
        assert load_json(str(path)) == registry.to_dict()

    def test_counters_and_series_content(self, registry):
        snapshot = load_json(to_json(registry))
        assert snapshot["counters"]["machine.requests"]["value"] == 42
        assert snapshot["series"]["bus.broadcasts"]["total"] == 10.0
        assert snapshot["series"]["bus.broadcasts"]["buckets"] == {
            "0": 7.0, "1": 3.0,
        }


class TestCsv:
    def test_round_trip_scalars(self, registry, tmp_path):
        path = tmp_path / "t.csv"
        save_csv(registry, path)
        parsed = load_csv(str(path))
        assert parsed["counter"]["machine.requests"]["value"] == 42.0
        assert parsed["gauge"]["bus.utilization"]["value"] == 0.25
        hist = parsed["histogram"]["machine.latency"]
        assert hist["count"] == 3.0
        assert hist["sum"] == 555.0
        assert hist["bucket_le_10"] == 1.0
        assert hist["bucket_le_+Inf"] == 1.0
        series = parsed["series"]["bus.broadcasts"]
        assert series["total"] == 10.0
        assert series["window_0"] == 7.0
        trans = parsed["transitions"]["rca.transitions"]
        assert trans["coverage"] == 2.0
        assert trans["I->local.read->CI"] == 1.0

    def test_bad_header_raises(self):
        with pytest.raises(ValueError):
            load_csv("a,b,c\n1,2,3\n")


class TestPrometheus:
    def test_names_are_legal_and_prefixed(self, registry):
        text = to_prometheus(registry)
        assert "repro_machine_requests 42" in text
        assert "repro_bus_utilization 0.25" in text
        # No raw dotted names escape into the exposition.
        for line in text.splitlines():
            if not line.startswith("#"):
                assert "." not in line.split("{")[0].split(" ")[0]

    def test_histogram_exposition(self, registry):
        parsed = load_prometheus(to_prometheus(registry))
        assert parsed["types"]["repro_machine_latency"] == "histogram"
        samples = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in parsed["samples"]
        }
        assert samples[("repro_machine_latency_bucket", (("le", "10"),))] == 1
        assert samples[("repro_machine_latency_bucket", (("le", "+Inf"),))] == 3
        assert samples[("repro_machine_latency_sum", ())] == 555
        assert samples[("repro_machine_latency_count", ())] == 3

    def test_series_and_transition_labels(self, registry, tmp_path):
        path = tmp_path / "t.prom"
        save_prometheus(registry, path)
        parsed = load_prometheus(str(path))
        samples = parsed["samples"]
        windows = {
            labels["window"]: value
            for name, labels, value in samples
            if name == "repro_bus_broadcasts"
        }
        assert windows == {"0": 7.0, "1": 3.0}
        cells = {
            (labels["from"], labels["event"], labels["to"]): value
            for name, labels, value in samples
            if name == "repro_rca_transitions"
        }
        assert cells[("I", "local.read", "CI")] == 1.0
        assert cells[("CI", "evict", "I")] == 1.0

    def test_empty_registry_exports_empty_document(self):
        empty = TelemetryRegistry()
        assert to_prometheus(empty) == ""
        assert load_csv(to_csv(empty)) == {}
        assert load_json(to_json(empty))["counters"] == {}

    def test_every_metric_gets_help_and_type(self, registry):
        parsed = load_prometheus(to_prometheus(registry))
        assert set(parsed["helps"]) == set(parsed["types"])
        assert parsed["helps"]["repro_machine_requests"] == \
            "external requests"
        # Metrics registered without help text fall back to their name.
        assert parsed["helps"]["repro_bus_utilization"] == "bus.utilization"
        for line in to_prometheus(registry).splitlines():
            if line.startswith("# HELP") or line.startswith("# TYPE"):
                assert len(line.split(" ", 3)) == 4 or \
                    line.startswith("# TYPE")

    def test_hostile_label_values_round_trip(self):
        reg = TelemetryRegistry()
        matrix = reg.transition_matrix("rca.hostile")
        hostile = [
            'quote"inside',
            "back\\slash",
            "new\nline",
            "literal\\nbackslash-n",
            'all\\"three\n',
        ]
        for i, state in enumerate(hostile):
            matrix.record(state, f"event{i}", state)
        text = to_prometheus(reg)
        assert "\n\n" not in text  # no raw newline broke a sample line
        parsed = load_prometheus(text)
        seen = {
            labels["from"]
            for name, labels, _ in parsed["samples"]
            if name == "repro_rca_hostile"
        }
        assert seen == set(hostile)

    def test_hostile_help_text_round_trips(self):
        reg = TelemetryRegistry()
        help_text = 'multi\nline "help" with back\\slash and literal \\n'
        reg.counter("machine.hostile", help=help_text).inc()
        text = to_prometheus(reg)
        # The exposition stays line-oriented: exactly one HELP, one
        # TYPE, one sample.
        assert len(text.splitlines()) == 3
        parsed = load_prometheus(text)
        assert parsed["helps"]["repro_machine_hostile"] == help_text


def test_save_all_writes_the_three_exports_into_a_new_directory(
        registry, tmp_path):
    out = tmp_path / "nested" / "telemetry"
    save_all(registry, out)
    assert sorted(p.name for p in out.iterdir()) == [
        "telemetry.csv", "telemetry.json", "telemetry.prom"]
    assert (out / "telemetry.json").read_text() == to_json(registry) + "\n"
    assert (out / "telemetry.csv").read_bytes() == \
        to_csv(registry).encode()
    assert (out / "telemetry.prom").read_text() == to_prometheus(registry)
