"""Telemetry must observe without perturbing: bit-identical runs.

The whole subsystem's contract is that attaching a registry records the
simulation and changes nothing about it — same cycles, same stats, same
everything, for baseline and CGCT machines, with and without warm-up.
These tests also pin down the reconciliation property (interval series
totals equal end-of-run aggregates) and the one event stream every
request observer reads.
"""

import pytest

from repro.harness.perfbench import result_fingerprint
from repro.obs.analyze import critical_path
from repro.obs.simtrace import SimTracer
from repro.system.config import SystemConfig
from repro.system.eventlog import EventLog
from repro.system.simulator import Simulator, run_workload
from repro.telemetry.registry import TelemetryRegistry
from repro.workloads.benchmarks import build_benchmark


def small_workload(config, ops=3000, name="ocean"):
    return build_benchmark(
        name, num_processors=config.num_processors,
        ops_per_processor=ops, seed=0,
    )


@pytest.mark.parametrize("factory", ["paper_baseline", "paper_cgct"])
@pytest.mark.parametrize("warmup", [0.0, 0.4])
def test_runs_are_bit_identical_with_and_without_telemetry(factory, warmup):
    config = getattr(SystemConfig, factory)()
    workload = small_workload(config)
    plain = run_workload(config, workload, seed=1, warmup_fraction=warmup)
    registry = TelemetryRegistry(interval=50_000)
    instrumented = run_workload(
        config, workload, seed=1, warmup_fraction=warmup, telemetry=registry,
    )
    # RunResult is a frozen dataclass: equality covers cycles, stats,
    # traffic, latency means — everything the experiments consume.
    assert instrumented == plain
    assert len(registry) > 0


def test_disabled_registry_is_also_identical_and_records_nothing():
    config = SystemConfig.paper_cgct()
    workload = small_workload(config)
    plain = run_workload(config, workload, seed=0, warmup_fraction=0.25)
    disabled = TelemetryRegistry(enabled=False)
    instrumented = run_workload(
        config, workload, seed=0, warmup_fraction=0.25, telemetry=disabled,
    )
    assert instrumented == plain
    assert len(disabled) == 0


def test_interval_series_totals_reconcile_with_final_stats():
    config = SystemConfig.paper_cgct()
    workload = small_workload(config)
    registry = TelemetryRegistry(interval=20_000)
    result = run_workload(
        config, workload, seed=0, warmup_fraction=0.4, telemetry=registry,
    )
    # Probe series record deltas, so after the warm-up reset their totals
    # must equal the measured-portion aggregates exactly.
    assert registry.get("stats.external_requests").total == \
        result.stats.total_external
    assert registry.get("stats.broadcasts").total == \
        result.stats.total_broadcasts
    assert registry.get("stats.avoided").total == result.stats.total_avoided
    assert registry.get("bus.broadcasts").total == result.broadcasts
    assert registry.get("machine.l1_hits").total == result.l1_hits
    assert registry.get("machine.l2_hits").total == result.l2_hits


def test_per_path_counters_partition_external_requests():
    config = SystemConfig.paper_cgct()
    workload = small_workload(config)
    registry = TelemetryRegistry()
    result = run_workload(
        config, workload, seed=0, warmup_fraction=0.4, telemetry=registry,
    )
    by_path = {
        name.rsplit(".", 1)[1]: metric.value
        for name, metric in (
            (m.name, m) for m in registry.metrics() if m.kind == "counter"
        )
        if name.startswith("machine.paths.")
    }
    # Eviction castouts count in the stats but are not processor-issued
    # events; their own counters complete the partition.
    castouts = (registry.get("machine.writebacks.direct").value
                + registry.get("machine.writebacks.broadcast").value)
    assert sum(by_path.values()) + castouts == result.stats.total_external
    assert by_path["broadcast"] + \
        registry.get("machine.writebacks.broadcast").value == \
        result.stats.total_broadcasts


def test_latency_histograms_cover_every_external_request():
    config = SystemConfig.paper_cgct()
    workload = small_workload(config)
    registry = TelemetryRegistry()
    result = run_workload(
        config, workload, seed=0, warmup_fraction=0.4, telemetry=registry,
    )
    observed = sum(
        m.count for m in registry.metrics()
        if m.kind == "histogram" and m.name.startswith("machine.latency.")
        and m.name != "machine.latency.demand"
    )
    castouts = (registry.get("machine.writebacks.direct").value
                + registry.get("machine.writebacks.broadcast").value)
    assert observed + castouts == result.stats.total_external


def test_finalizer_gauges_are_set():
    config = SystemConfig.paper_cgct()
    workload = small_workload(config)
    registry = TelemetryRegistry()
    result = run_workload(
        config, workload, seed=0, warmup_fraction=0.0, telemetry=registry,
    )
    assert registry.finalized_at == result.cycles
    assert registry.get("machine.demand_latency_mean").value == \
        pytest.approx(result.demand_latency_mean)
    assert registry.get("rca.mean_line_count").value == \
        pytest.approx(result.rca_mean_line_count)


def test_sink_only_registration_receives_the_event_stream():
    """Every request observer reads the one funnel: an event log, a
    telemetry registry and a full-sampling span tracer attached to one
    machine see the same resolved requests, and none of them perturbs
    the run."""
    config = SystemConfig.paper_cgct()
    workload = small_workload(config, ops=1500)
    registry = TelemetryRegistry()
    tracer = SimTracer(sample=1)
    log = EventLog(capacity=1 << 20)
    simulator = Simulator(config, seed=0, telemetry=registry, tracer=tracer)
    simulator.machine.attach_event_log(log)
    result = simulator.run(workload, warmup_fraction=0.0)

    paths = sum(
        m.value for m in registry.metrics()
        if m.kind == "counter" and m.name.startswith("machine.paths.")
    )
    castouts = (registry.get("machine.writebacks.direct").value
                + registry.get("machine.writebacks.broadcast").value)
    assert log.recorded == paths == result.stats.total_external - castouts
    assert isinstance(log.tail(1)[0].path, str)  # read as the plain value

    report = critical_path(list(tracer.to_spans()),
                           telemetry=registry.to_dict())
    recon = report["reconciliation"]
    assert sum(entry["trace_count"] for entry in recon.values()) == paths
    for path, entry in recon.items():
        assert entry["trace_count"] == entry["telemetry_count"], path
        assert entry["trace_mean"] == pytest.approx(
            entry["telemetry_mean"]), path

    plain = run_workload(config, workload, seed=0, warmup_fraction=0.0)
    assert result_fingerprint(result) == result_fingerprint(plain)
