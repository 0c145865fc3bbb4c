"""What a cell reuses instead of rebuilding.

Every seed of a harness cell replays trace seed 0, so a worker's cells
share a few traces; ``ExperimentTask.execute`` reuses the ones its
process built most recently (``parallel._recent_workload``). A pooled
sweep tabulates the region protocols in the coordinator, so that the
forked workers share the tables.
"""

from dataclasses import replace

import pytest

from repro.harness import parallel
from repro.harness.parallel import ExperimentTask, ParallelRunner, \
    _recent_workload
from repro.rca import protocol
from repro.system.config import SystemConfig
from repro.system.simulator import run_workload
from repro.traces.reader import load_workload, save_workload
from repro.workloads.benchmarks import build_benchmark

OPS = 300


@pytest.fixture(autouse=True)
def empty_recent_workloads(monkeypatch):
    monkeypatch.setattr(parallel, "_RECENT_WORKLOADS", {})


def test_equal_key_returns_the_same_workload_object():
    first = _recent_workload("barnes", 4, 0, OPS)
    assert _recent_workload("barnes", 4, 0, OPS) is first
    assert first.per_processor[0].ops.tolist() == build_benchmark(
        "barnes", num_processors=4, seed=0,
        ops_per_processor=OPS).per_processor[0].ops.tolist()


@pytest.mark.parametrize("changed", [
    ("tpc-w", 4, 0, OPS),
    ("barnes", 2, 0, OPS),
    ("barnes", 4, 1, OPS),
    ("barnes", 4, 0, OPS + 1),
])
def test_any_key_part_changed_builds_a_new_workload(changed):
    first = _recent_workload("barnes", 4, 0, OPS)
    other = _recent_workload(*changed)
    assert other is not first
    benchmark, processors, _, ops = changed
    assert other.name == benchmark
    assert other.num_processors == processors
    assert len(other.per_processor[0]) == ops


def test_a_fourth_key_evicts_the_least_recently_used():
    assert parallel._RECENT_LIMIT == 3
    a = _recent_workload("barnes", 4, 0, OPS)
    b = _recent_workload("tpc-w", 4, 0, OPS)
    c = _recent_workload("ocean", 4, 0, OPS)
    assert _recent_workload("barnes", 4, 0, OPS) is a  # now most recent
    _recent_workload("tpc-b", 4, 0, OPS)               # evicts tpc-w
    assert len(parallel._RECENT_WORKLOADS) == 3
    assert _recent_workload("ocean", 4, 0, OPS) is c
    assert _recent_workload("barnes", 4, 0, OPS) is a
    assert _recent_workload("tpc-w", 4, 0, OPS) is not b


def test_trace_file_rewritten_between_cells_replays_new_contents(tmp_path):
    path = tmp_path / "t.bin"
    generated = build_benchmark("barnes", num_processors=4, seed=0,
                                ops_per_processor=OPS)
    save_workload(generated, path, "binary")
    config = SystemConfig.paper_cgct(512)
    task = ExperimentTask(f"trace:{path}", config, OPS)
    before = task.execute()

    save_workload(generated.scaled(OPS // 3), path, "binary")
    after = task.execute()
    expected = run_workload(
        config, load_workload(path, num_processors=4, ops_per_processor=OPS,
                              name=f"trace:{path}"),
        seed=0, warmup_fraction=task.warmup_fraction)
    assert after == expected
    assert sum(after.per_processor_cycles) < sum(before.per_processor_cycles)
    assert not parallel._RECENT_WORKLOADS


def test_pooled_sweep_tabulates_its_protocols_before_forking(monkeypatch):
    monkeypatch.setattr(protocol, "_TABLES", {})
    config = replace(SystemConfig.paper_cgct(512), two_bit_response=False)
    tasks = [ExperimentTask("barnes", config, OPS, seed=seed)
             for seed in (0, 1)]
    results = ParallelRunner(workers=2).run(tasks)
    assert set(protocol._TABLES) == {(False, True)}
    assert results == ParallelRunner(workers=0).run(tasks)
