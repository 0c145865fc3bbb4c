"""A dropped simulator is freed by reference counting alone.

Nothing a plain run installs may close a reference cycle back to the
machine (the residency hooks, the probe-debt closures, the run-ahead
streaks): otherwise every run's machine outlives it until the next
full cyclic collection, and a process running many traces in a row
holds several machines at once. Each run is checked with streaks
(``"streak"``) and single-stepping under a step observer (``"off"``),
on both phase-1 snoop paths: the holder bitmask (``"bitmask"``, every
filter-free machine) and the per-peer loop (``"walk"``, which only
Jetty/RegionScout-filtered machines run, so it adds a Jetty filter).
A finished telemetry registry kept past its run must not hold the
machine either; a tracer and a sanitizer are not covered.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.system.config import SystemConfig
from repro.system.simulator import Simulator
from repro.workloads.benchmarks import build_benchmark

CONFIGS = {
    "baseline": SystemConfig.paper_baseline,
    "cgct": SystemConfig.paper_cgct,
}


@pytest.mark.parametrize("stepping", ["streak", "off"])
@pytest.mark.parametrize("snoop", ["bitmask", "walk"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_dropped_simulator_frees_its_machine(config, snoop, stepping):
    workload = build_benchmark("tpc-b", 4, seed=0, ops_per_processor=400)
    enabled = gc.isenabled()
    gc.disable()
    machine_config = CONFIGS[config]()
    if snoop == "walk":
        machine_config = dataclasses.replace(machine_config, jetty_enabled=True)
    try:
        simulator = Simulator(
            machine_config,
            step_observer=[].append if stepping == "off" else None,
        )
        assert simulator.machine._bitmask_snoop is (snoop == "bitmask")
        simulator.run(workload, warmup_fraction=0.25)
        machine = weakref.ref(simulator.machine)
        del simulator
        assert machine() is None
    finally:
        if enabled:
            gc.enable()


def test_finished_registry_does_not_hold_its_machine():
    """A kept telemetry registry lets its run's machine go: its probes
    and finalizers, which close over the machine, end with the run."""
    from repro.telemetry.registry import TelemetryRegistry

    workload = build_benchmark("tpc-b", 4, seed=0, ops_per_processor=400)
    enabled = gc.isenabled()
    gc.disable()
    try:
        registry = TelemetryRegistry(interval=5_000)
        simulator = Simulator(SystemConfig.paper_cgct(), telemetry=registry)
        simulator.run(workload, warmup_fraction=0.25)
        machine = weakref.ref(simulator.machine)
        del simulator
        assert machine() is None
        assert registry.get("stats.external_requests").total > 0
    finally:
        if enabled:
            gc.enable()
