"""The tracer's bit-identity contract.

Attaching a :class:`SimTracer` must never change simulated results —
the same contract the reference snoop walks
(``tests/system/reference_snoop.py``) and the telemetry funnel are held
to. These tests compare full result fingerprints (cycles, request
routing, hit counters) with tracing off and on, across CGCT and baseline
machines, sampled and ring capture modes, the production snoop paths
and the reference walks, and with telemetry attached alongside.
"""

import pytest

from repro.harness.perfbench import bench_config
from repro.obs.simtrace import SimTracer
from repro.system.simulator import run_workload
from repro.workloads.benchmarks import build_benchmark

from tests.system.reference_snoop import snoop_path

OPS = 600


def _workload(config, name="barnes"):
    return build_benchmark(
        name, num_processors=config.num_processors,
        ops_per_processor=OPS, seed=0,
    )


def _fingerprint(result):
    return (
        result.cycles,
        result.stats.total_external,
        result.stats.total_broadcasts,
        result.stats.total_directs,
        result.stats.total_no_requests,
        result.l1_hits,
        result.l2_hits,
    )


def _run(config, workload, tracer=None, **kwargs):
    return run_workload(config, workload, seed=0, tracer=tracer, **kwargs)


@pytest.mark.parametrize("config_name", ["8p-cgct", "8p-baseline"])
def test_tracing_never_changes_results(config_name):
    config = bench_config(config_name)
    workload = _workload(config)
    plain = _fingerprint(_run(config, workload))
    tracer = SimTracer()
    traced = _fingerprint(_run(config, workload, tracer=tracer))
    assert traced == plain
    assert tracer.accesses == config.num_processors * OPS
    assert tracer.recorded == tracer.accesses


def test_sampled_and_ring_modes_are_equivalent_too():
    config = bench_config("8p-cgct")
    workload = _workload(config)
    plain = _fingerprint(_run(config, workload))
    sampled = SimTracer(sample=7)
    assert _fingerprint(_run(config, workload, tracer=sampled)) == plain
    # Ids advance for unsampled accesses: ordinals stay global.
    assert sampled.accesses == config.num_processors * OPS
    assert sampled.recorded == (sampled.accesses + 6) // 7
    ring = SimTracer(ring=32)
    assert _fingerprint(_run(config, workload, tracer=ring)) == plain
    assert len(ring.transactions) == 32


def test_walk_snoop_with_tracer_matches_bitmask_without():
    config = bench_config("8p-cgct")
    workload = _workload(config)
    plain = _fingerprint(_run(config, workload))
    with snoop_path("walk"):
        traced = _fingerprint(_run(config, workload, tracer=SimTracer()))
    assert traced == plain


def test_tracer_coexists_with_telemetry():
    from repro.telemetry import TelemetryRegistry

    config = bench_config("8p-cgct")
    workload = _workload(config)
    plain = _fingerprint(_run(config, workload))
    registry = TelemetryRegistry()
    tracer = SimTracer()
    traced = _fingerprint(
        _run(config, workload, tracer=tracer, telemetry=registry)
    )
    assert traced == plain
    # Both observers saw the same external-request population.
    snapshot = registry.to_dict()
    routes = [
        child for txn in tracer.transactions
        for child in txn.children
        if child[0] in ("external", "prefetch", "nested")
    ]
    total = sum(
        data["count"] for name, data in snapshot["histograms"].items()
        if name.startswith("machine.latency.")
        and name != "machine.latency.demand"
    )
    assert len(routes) == total


def test_warmup_resets_the_tracer_with_the_statistics():
    config = bench_config("8p-cgct")
    workload = _workload(config)
    plain = _fingerprint(_run(config, workload, warmup_fraction=0.4))
    tracer = SimTracer()
    traced = _fingerprint(
        _run(config, workload, tracer=tracer, warmup_fraction=0.4)
    )
    assert traced == plain
    # Every access was seen, but only the measured portion is retained.
    assert tracer.accesses == config.num_processors * OPS
    assert 0 < tracer.recorded < tracer.accesses
    # Retained trace ids are exactly the post-warmup ordinals.
    assert tracer.recorded == tracer.accesses - tracer.transactions[0].trace_id
