"""Parallel runner: determinism, caching, retry, and observability.

The determinism tests run the same ≥8-cell experiment grid serially and
through process pools of 2 and 4 workers and require *bit-identical*
results (full ``RunResult`` equality, every field). The failure tests
inject faults through the runner's ``execute`` hook — a picklable
top-level function that consults an on-disk marker so the fault fires a
controlled number of times across processes.
"""

import os
from functools import partial
from pathlib import Path

import pytest

from repro.common.errors import SimulationError
from repro.harness.cache import DiskCache
from repro.harness.experiments import EXPERIMENTS, RunOptions, \
    experiment_tasks, run_experiment
from repro.harness.parallel import (
    ExperimentTask,
    ParallelRunner,
    execute_envelope,
    replicated_tasks,
)
from repro.harness.runcache import RunCache
from repro.harness.runlog import RunLog, read_runlog, summarize
from repro.system.config import SystemConfig


def grid_tasks(seeds=(0, 1), ops=800):
    """2 benchmarks × 2 configs × len(seeds) — 8 cells by default."""
    tasks = []
    for name in ("barnes", "tpc-w"):
        for config in (SystemConfig.paper_baseline(),
                       SystemConfig.paper_cgct(512)):
            for seed in seeds:
                tasks.append(ExperimentTask(name, config, ops, seed=seed,
                                            warmup_fraction=0.25))
    return tasks


def tiny_tasks(count=2):
    return [
        ExperimentTask("barnes", SystemConfig.paper_baseline(), 400,
                       seed=seed, warmup_fraction=0.0)
        for seed in range(count)
    ]


# ----------------------------------------------------------------------
# Determinism: serial == 2 workers == 4 workers, field for field
# ----------------------------------------------------------------------
def test_parallel_matches_serial_bit_for_bit():
    tasks = grid_tasks()
    assert len(tasks) == 8
    serial = ParallelRunner(workers=0).run(tasks)
    two = ParallelRunner(workers=2).run(tasks)
    four = ParallelRunner(workers=4).run(tasks)
    # RunResult is a dataclass: == compares every field, including the
    # full per-category stats and per-processor cycle lists.
    assert serial == two
    assert serial == four


def test_parallel_matches_serial_at_16_processors():
    # The scaling machine: 16 snoopers make grant-order tie-breaks (and
    # the heap scheduler behind them) far busier than the 4p grid above.
    from dataclasses import replace

    from repro.interconnect.topology import Topology

    topology = Topology(cores_per_chip=2, chips_per_switch=2,
                        switches_per_board=2, boards=2)
    tasks = [
        ExperimentTask(name, replace(config, topology=topology), 300,
                       seed=seed, warmup_fraction=0.0)
        for name in ("barnes", "ocean")
        for config in (SystemConfig.paper_baseline(),
                       SystemConfig.paper_cgct(512))
        for seed in (0, 1)
    ]
    serial = ParallelRunner(workers=0).run(tasks)
    fanned = ParallelRunner(workers=4).run(tasks)
    assert serial == fanned


def test_cache_replay_is_identical_and_simulates_nothing(tmp_path):
    tasks = grid_tasks(seeds=(0,))  # 4 cells
    disk = DiskCache(tmp_path / "cache")
    cold_log = tmp_path / "cold.jsonl"
    warm_log = tmp_path / "warm.jsonl"
    with RunLog(cold_log) as log:
        cold = ParallelRunner(workers=2, cache=disk, runlog=log).run(tasks)
    with RunLog(warm_log) as log:
        warm = ParallelRunner(workers=2, cache=disk, runlog=log).run(tasks)
    assert cold == warm
    cold_summary = summarize(read_runlog(cold_log))
    warm_summary = summarize(read_runlog(warm_log))
    assert cold_summary["simulated"] == 4
    assert cold_summary["cache_hits"] == 0
    assert warm_summary["simulated"] == 0
    assert warm_summary["cache_hits"] == 4
    assert len(disk) == 4


def test_replicated_tasks_fix_seeds_at_creation_time():
    config = SystemConfig.paper_cgct(512)
    first = replicated_tasks("barnes", config, 1000, replicates=3)
    again = replicated_tasks("barnes", config, 1000, replicates=3)
    assert first == again
    assert len({task.seed for task in first}) == 3
    other = replicated_tasks("ocean", config, 1000, replicates=3)
    assert {t.seed for t in first}.isdisjoint({t.seed for t in other})


def test_runlog_records_carry_observability_fields(tmp_path):
    log_path = tmp_path / "runs.jsonl"
    with RunLog(log_path) as log:
        ParallelRunner(workers=2, runlog=log).run(tiny_tasks())
    records = read_runlog(log_path)
    assert records[0]["event"] == "sweep-start"
    assert records[-1]["event"] == "sweep-end"
    runs = [r for r in records if r["event"] == "run"]
    assert len(runs) == 2
    for record in runs:
        assert record["status"] == "ok"
        assert record["wall_s"] >= 0
        assert record["worker"] > 0
        assert record["peak_rss_kb"] > 0
        assert record["task"]["benchmark"] == "barnes"


# ----------------------------------------------------------------------
# Failure injection: retry-once, surfacing, cache integrity
# ----------------------------------------------------------------------
def _poisoned_execute(envelope, marker, fail_times):
    """Raise on task 0 until the marker file has counted *fail_times*."""
    path = Path(marker)
    if envelope.index == 0:
        count = int(path.read_text()) if path.exists() else 0
        if count < fail_times:
            path.write_text(str(count + 1))
            raise RuntimeError("injected transient fault")
    return execute_envelope(envelope)


def _dying_execute(envelope, marker):
    """Kill the whole worker process on task 0's first attempt."""
    path = Path(marker)
    if envelope.index == 0 and not path.exists():
        path.write_text("died")
        os._exit(43)
    return execute_envelope(envelope)


def test_worker_exception_retried_once_then_succeeds(tmp_path):
    disk = DiskCache(tmp_path / "cache")
    log_path = tmp_path / "runs.jsonl"
    execute = partial(_poisoned_execute, marker=str(tmp_path / "marker"),
                      fail_times=1)
    with RunLog(log_path) as log:
        runner = ParallelRunner(workers=2, cache=disk, runlog=log,
                                execute=execute)
        results = runner.run(tiny_tasks())
    assert all(result is not None for result in results)
    records = read_runlog(log_path)
    errors = [r for r in records if r.get("status") == "error"]
    assert len(errors) == 1
    assert errors[0]["will_retry"] is True
    assert "injected transient fault" in errors[0]["error"]
    summary = summarize(records)
    assert summary["retries"] == 1
    assert summary["failures"] == 0
    assert summary["completed"] == 2


def test_persistent_failure_surfaced_without_corrupting_cache(tmp_path):
    disk = DiskCache(tmp_path / "cache")
    log_path = tmp_path / "runs.jsonl"
    execute = partial(_poisoned_execute, marker=str(tmp_path / "marker"),
                      fail_times=5)  # more than the retry budget
    with RunLog(log_path) as log:
        runner = ParallelRunner(workers=2, cache=disk, runlog=log,
                                execute=execute)
        with pytest.raises(SimulationError, match="failed after"):
            runner.run(tiny_tasks())
    records = read_runlog(log_path)
    surfaced = [r for r in records
                if r.get("status") == "error" and not r["will_retry"]]
    assert len(surfaced) == 1
    assert "injected transient fault" in surfaced[0]["error"]
    # The healthy task's result is cached intact; the failing attempts
    # left no partial entries behind.
    assert len(disk) == 1
    assert not list((tmp_path / "cache").rglob("*.tmp"))


def test_non_strict_runner_returns_none_for_failed_cells(tmp_path):
    execute = partial(_poisoned_execute, marker=str(tmp_path / "marker"),
                      fail_times=5)
    runner = ParallelRunner(workers=0, strict=False, execute=execute)
    results = runner.run(tiny_tasks())
    assert results[0] is None
    assert results[1] is not None
    assert len(runner.failures) == 1


def test_worker_death_is_retried_on_a_fresh_pool(tmp_path):
    execute = partial(_dying_execute, marker=str(tmp_path / "marker"))
    runner = ParallelRunner(workers=2, execute=execute)
    results = runner.run(tiny_tasks())
    assert all(result is not None for result in results)


# ----------------------------------------------------------------------
# Grid enumeration and cache warming
# ----------------------------------------------------------------------
def test_experiment_tasks_cover_fig8_grid():
    options = RunOptions(ops_per_processor=1000, seeds=2,
                         benchmarks=("barnes", "ocean"),
                         region_sizes=(256, 512))
    tasks = experiment_tasks(["fig8"], options)
    # 2 benchmarks × 2 seeds × (baseline + 2 regions) = 12 unique cells.
    assert len(tasks) == 12
    assert len(set(tasks)) == len(tasks)


def test_experiment_tasks_deduplicate_across_experiments():
    options = RunOptions(ops_per_processor=1000, seeds=1,
                         benchmarks=("barnes",), region_sizes=(512,))
    together = experiment_tasks(["fig2", "fig7", "fig10"], options)
    # fig2's baseline run and fig10's cells are subsets of fig7's.
    assert together == experiment_tasks(["fig7"], options)


def test_experiment_tasks_keep_each_traces_cells_together():
    """Cells replaying one trace are contiguous, so a process running a
    share of them in order builds each trace once."""
    options = RunOptions(ops_per_processor=1000, seeds=2,
                         benchmarks=("barnes", "ocean", "tpc-w"),
                         region_sizes=(256, 512))
    tasks = experiment_tasks(["fig2", "fig7", "fig8", "fig9", "scaling"],
                             options)
    keys = [task.trace_key() for task in tasks]
    runs = [key for i, key in enumerate(keys) if i == 0 or key != keys[i - 1]]
    assert len(runs) == len(set(keys))
    # Three 4-processor traces, plus scaling's 8p and 16p tpc-w.
    assert len(set(keys)) == 5


def test_static_experiments_need_no_simulations():
    options = RunOptions()
    assert experiment_tasks(["table1", "table2", "table3", "table4", "fig6"],
                            options) == []


def test_warm_cache_preloads_so_experiments_run_from_memory():
    options = RunOptions(ops_per_processor=600, seeds=1,
                         benchmarks=("barnes",), region_sizes=(512,))
    cache = RunCache()
    cache.warm(experiment_tasks(["fig2"], options), workers=0)
    assert len(cache) == 1
    result = run_experiment("fig2", options, cache)
    assert result.rows
    # The experiment added no new runs: everything came from the warmed
    # cache.
    assert len(cache) == 1


#: Small enough that every experiment's grid simulates in seconds.
GRID_OPTIONS = RunOptions(ops_per_processor=200, seeds=2,
                          benchmarks=("barnes", "tpc-w"),
                          region_sizes=(256, 512))


@pytest.fixture(scope="module")
def grid_cache():
    """Every registered experiment's cells, simulated once."""
    cache = RunCache()
    cache.warm(experiment_tasks(list(EXPERIMENTS), GRID_OPTIONS))
    return cache


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_warm_grid_is_each_experiments_grid(experiment_id, grid_cache):
    """Each render reads only the cells its experiment declares: it
    succeeds on a mapping holding exactly ``cells(options)``."""
    experiment = EXPERIMENTS[experiment_id]
    cells = experiment.cells(GRID_OPTIONS)
    assert len(set(cells)) == len(cells)
    results = {task: grid_cache[task] for task in cells}
    assert experiment.render(GRID_OPTIONS, results).rows


@pytest.mark.parametrize("experiment_id", [
    experiment_id for experiment_id, experiment in EXPERIMENTS.items()
    if experiment.cells(GRID_OPTIONS)])
def test_render_without_a_declared_cell_raises_key_error(experiment_id,
                                                         grid_cache):
    """Rendering never simulates, and reads every cell it declares: a
    mapping missing any one of them is a KeyError."""
    experiment = EXPERIMENTS[experiment_id]
    cells = experiment.cells(GRID_OPTIONS)
    for missing in cells:
        results = {task: grid_cache[task] for task in cells
                   if task != missing}
        with pytest.raises(KeyError):
            experiment.render(GRID_OPTIONS, results)


def test_run_experiment_with_workers_matches_serial():
    options = RunOptions(ops_per_processor=600, seeds=1,
                         benchmarks=("barnes",), region_sizes=(512,))
    serial = run_experiment("fig7", options, RunCache())
    fanned = run_experiment("fig7", options, RunCache(), workers=2)
    assert serial.rows == fanned.rows
