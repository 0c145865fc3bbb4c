"""The committed ``BENCH_core.json`` corpus, pinned in tier-1.

Re-running the 4- and 8-processor baseline and CGCT scaling rows at the
file's ``suite`` parameters must reproduce each row exactly, and a
stratified subset of the corpus — each of the twelve corpus configs
once, rotating benchmark and seed — must reproduce each cell's
fingerprint, record digest and telemetry digest, and its plain run
(no telemetry) the record digest alone. ``python -m
repro.harness perf --check BENCH_core.json`` checks every row and cell.
"""

import json
import os
from pathlib import Path

import pytest

from repro.harness.parallel import ExperimentTask, ParallelRunner
from repro.harness.perfbench import (
    CORPUS,
    CORPUS_CONFIGS,
    SUITE,
    cell_name,
    corpus_config,
    corpus_trace,
    digest,
    result_fingerprint,
    run_record,
    scaling_row,
)
from repro.harness.runlog import RunLog, read_runlog
from repro.system.simulator import Simulator
from repro.telemetry.registry import TelemetryRegistry
from repro.workloads.benchmarks import BENCHMARKS

BENCH_CORE = Path(__file__).resolve().parents[2] / "BENCH_core.json"

#: One cell per corpus config: benchmarks in Table 4 order, wrapping
#: after the ninth, and seeds alternating.
STRATIFIED = [
    (list(BENCHMARKS)[i % len(BENCHMARKS)], name, i % 2)
    for i, (name, _, _) in enumerate(CORPUS_CONFIGS)
]


@pytest.fixture(scope="module")
def committed():
    return json.loads(BENCH_CORE.read_text())


@pytest.mark.parametrize(
    "config_name", ["4p-baseline", "4p-cgct", "8p-baseline", "8p-cgct"]
)
def test_fingerprint_matches_committed(committed, config_name):
    assert committed["suite"] == SUITE
    assert scaling_row(config_name) == committed["configs"][config_name]


def run_cell(cell, telemetry=None):
    """One corpus cell's simulator and result, as the corpus runs it."""
    benchmark, config_name, seed = cell
    simulator = Simulator(corpus_config(config_name), seed=seed,
                          telemetry=telemetry)
    result = simulator.run(
        corpus_trace(benchmark, CORPUS["processors"],
                     CORPUS["ops_per_processor"]),
        warmup_fraction=CORPUS["warmup_fraction"])
    return simulator, result


@pytest.mark.parametrize(
    "cell", STRATIFIED, ids=[cell_name(*cell) for cell in STRATIFIED]
)
def test_corpus_cell_matches_committed(committed, cell):
    # One run with telemetry attached checks both committed digests: the
    # record digest was taken from the plain run, and generating the
    # corpus requires the telemetry run's record to equal it.
    registry = TelemetryRegistry(interval=CORPUS["telemetry_interval"])
    simulator, result = run_cell(cell, telemetry=registry)
    assert {
        "fingerprint": result_fingerprint(result),
        "digest": digest(run_record(simulator, result)),
        "telemetry_digest": digest(registry.to_dict()),
    } == committed["corpus"]["cells"][cell_name(*cell)]


@pytest.mark.parametrize(
    "cell", STRATIFIED, ids=[cell_name(*cell) for cell in STRATIFIED]
)
def test_corpus_cell_plain_run_matches_committed(committed, cell):
    # The plain run takes the telemetry-off paths (deferred latency
    # folds, streaks entered at every pop) the telemetry run does not
    # exercise everywhere: its record digest must match on its own.
    simulator, result = run_cell(cell)
    assert digest(run_record(simulator, result)) == (
        committed["corpus"]["cells"][cell_name(*cell)]["digest"])


def test_corpus_cells_ship_their_registries_from_forked_workers(
        committed, tmp_path):
    # A sweep's cells record telemetry in the worker that simulates
    # them; the finished registry pickles back on the cell's outcome
    # and must be the registry the corpus committed.
    cells = STRATIFIED[:2]
    tasks = [
        ExperimentTask(benchmark, corpus_config(name),
                       CORPUS["ops_per_processor"], seed=seed,
                       warmup_fraction=CORPUS["warmup_fraction"])
        for benchmark, name, seed in cells
    ]
    with RunLog(tmp_path / "run.jsonl") as runlog:
        runner = ParallelRunner(
            workers=2, runlog=runlog,
            telemetry_interval=CORPUS["telemetry_interval"])
        runner.run(tasks)
    workers = {record["worker"] for record in read_runlog(runlog.path)
               if record["event"] == "run"}
    assert workers and os.getpid() not in workers
    assert [digest(registry.to_dict()) for registry in runner.registries] \
        == [committed["corpus"]["cells"][cell_name(*cell)]
            ["telemetry_digest"] for cell in cells]
