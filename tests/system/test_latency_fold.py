"""Buffered latency samples read exactly as if each were added at once.

The machine appends demand and per-(request, path) latencies to plain
lists and folds them into their ``RunningStat``s when read
(``RunningStat.extend``), and whenever a list reaches the fold chunk.
Here every buffer also feeds a reference ``RunningStat`` one ``add`` per
sample, as the machine used to; every reader — the ``demand_latency``
and ``path_latency`` properties, a telemetry probe mid-run, the
end-of-run gauge, the statistics reset at the end of warm-up — must see
the reference's exact state.
"""

import pytest

import repro.system.machine as machine_module
from repro.common.stats import RunningStat
from repro.system.simulator import Simulator
from repro.telemetry.registry import TelemetryRegistry
from repro.workloads.benchmarks import build_benchmark

from tests.common.test_stats import _state
from tests.conftest import make_config


class Recorder(list):
    """A sample buffer that also adds each sample to a reference."""

    def __init__(self):
        super().__init__()
        self.reference = RunningStat()

    def append(self, value):
        self.reference.add(value)
        super().append(value)


def record_samples(machine):
    """Swap the machine's sample buffers for recorders; the statistics
    reset restarts their references too. Returns (demand, per-path)."""
    demand = machine._demand_samples = Recorder()
    paths = machine._path_samples = [
        Recorder() for _ in machine._path_samples
    ]
    reset = machine.reset_stats

    def reset_stats():
        for recorder in (demand, *paths):
            recorder.reference = RunningStat()
        reset()

    machine.reset_stats = reset_stats
    return demand, paths


def assert_folded(machine, demand, paths):
    assert _state(machine.demand_latency) == _state(demand.reference)
    flat = machine._path_latency_stats
    observed = machine.path_latency
    assert len(observed) == sum(1 for r in paths if r.reference.count)
    for index, recorder in enumerate(paths):
        if recorder.reference.count:
            assert flat[index] in observed.values()
            assert _state(flat[index]) == _state(recorder.reference)
        else:
            assert flat[index] is None


@pytest.mark.parametrize("chunk", [1, 7, machine_module._FOLD_CHUNK])
@pytest.mark.parametrize("cgct", [False, True])
@pytest.mark.parametrize("warmup", [0.0, 0.4])
def test_folded_latencies_equal_per_sample_adds(monkeypatch, chunk, cgct,
                                                warmup):
    monkeypatch.setattr(machine_module, "_FOLD_CHUNK", chunk)
    workload = build_benchmark("tpc-b", num_processors=4,
                               ops_per_processor=600, seed=0)
    registry = TelemetryRegistry(interval=2_000)
    simulator = Simulator(make_config(cgct=cgct, prefetch=True,
                                      perturbation=8),
                          seed=1, telemetry=registry)
    machine = simulator.machine
    demand, paths = record_samples(machine)
    mid_run = []

    def probe():
        # Read at every interval boundary (and at the warm-up reset's
        # rebaseline), between two steps of the run.
        mid_run.append((_state(machine.demand_latency),
                        _state(demand.reference)))
        assert_folded(machine, demand, paths)
        return machine.demand_latency.count

    registry.add_probe("test.demand_count", probe)
    result = simulator.run(workload, warmup_fraction=warmup)
    assert len(mid_run) > 3
    assert all(folded == reference for folded, reference in mid_run)
    assert_folded(machine, demand, paths)
    assert demand.reference.count > 0
    assert result.demand_latency_mean == demand.reference.mean
    gauge = registry.get("machine.demand_latency_mean")
    assert gauge.value == demand.reference.mean


def test_reset_drops_buffered_samples():
    machine = machine_module.Machine(make_config(cgct=True))
    for step, address in enumerate(range(0, 64 * 40, 64)):
        machine.load(0, address, now=100 * step)
    assert machine._demand_samples and any(machine._path_samples)
    machine.reset_stats()
    assert machine.demand_latency.count == 0
    assert machine.path_latency == {}
    machine.load(1, 0x80000, now=10_000)
    assert machine.demand_latency.count == 1
    assert sum(s.count for s in machine.path_latency.values()) == 1
