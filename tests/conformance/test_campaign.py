"""The conformance campaign driver: modes, failures, resume and budget.

Each campaign runs a few tiny iterations on the 4-processor machine
points. Faults are injected by replacing the module's ``_execute_task``,
which the campaign hands to its pool when it starts; forked workers
inherit the replacement.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.conformance import campaign
from repro.conformance.campaign import run_campaign
from repro.harness.runlog import RunLog, read_runlog
from repro.harness.supervisor import SweepCheckpoint

ROOT = Path(__file__).resolve().parents[2]
CONFIGS = ("4p-baseline", "4p-cgct")
OPS = 24


def tiny_campaign(**kwargs):
    kwargs.setdefault("config_names", CONFIGS)
    kwargs.setdefault("ops", OPS)
    return run_campaign(**kwargs)


def summary(result):
    return (result.iterations, result.cells,
            sorted(f.describe() for f in result.failures))


@pytest.fixture
def raise_on_iteration_1(monkeypatch):
    real = campaign._execute_task

    def execute(task):
        if task.index == 1:
            raise RuntimeError("injected harness fault")
        return real(task)

    monkeypatch.setattr(campaign, "_execute_task", execute)


def test_serial_and_pooled_campaigns_agree(tmp_path):
    serial_log = tmp_path / "serial.jsonl"
    pooled_log = tmp_path / "pooled.jsonl"
    with RunLog(serial_log) as runlog:
        serial = tiny_campaign(iterations=4, workers=0, runlog=runlog)
    with RunLog(pooled_log) as runlog:
        pooled = tiny_campaign(iterations=4, workers=2, runlog=runlog)
    assert serial.ok and pooled.ok
    assert summary(serial) == summary(pooled) == (4, 8, [])

    def records(path):
        return sorted((r["trace_id"], r["status"], r["cells"])
                      for r in read_runlog(path))

    assert records(serial_log) == records(pooled_log)
    assert len(records(serial_log)) == 4


@pytest.mark.parametrize("workers", [0, 2])
def test_raising_iteration_is_one_harness_error(raise_on_iteration_1,
                                                workers):
    result = tiny_campaign(iterations=3, workers=workers)
    assert result.iterations == 3
    assert result.cells == 4  # the two healthy iterations' cells
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.workload == "fuzz-1"
    assert failure.mismatches == [
        "harness error: RuntimeError: injected harness fault"]


_CRASH_SCRIPT = """
import json, os, sys
from repro.conformance import campaign

real = campaign._execute_task

def execute(task):
    if {crashes}:
        os._exit(9)
    return real(task)

campaign._execute_task = execute
result = campaign.run_campaign(iterations=3, ops={ops}, workers=2,
                               config_names={configs!r})
print(json.dumps({{
    "iterations": result.iterations,
    "cells": result.cells,
    "failures": [f.describe() for f in result.failures],
    "mismatches": [m for f in result.failures for m in f.mismatches],
}}))
"""


def crash_campaign(crashes: str) -> dict:
    """Run a 3-iteration, 2-worker campaign in a fresh interpreter whose
    iterations call ``os._exit(9)`` where *crashes* holds; its report."""
    script = _CRASH_SCRIPT.format(ops=OPS, configs=CONFIGS, crashes=crashes)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_worker_killing_iteration_is_reported_and_campaign_returns():
    """An iteration that kills every worker it runs in spends its retry
    budget and becomes one reported failure; the coordinator never runs
    it itself, so the campaign survives to report."""
    report = crash_campaign("task.index == 1")
    assert report["iterations"] == 3
    assert report["cells"] == 4
    assert len(report["failures"]) == 1
    assert report["mismatches"][0].startswith("harness error: WorkerCrash")


def test_tripped_breaker_gives_up_worker_killing_iterations():
    """When every iteration kills its worker the circuit breaker trips
    with retries still queued; the coordinator gives each of those up as
    one failure instead of running it (which would kill it too)."""
    report = crash_campaign("True")
    assert report["iterations"] == 3
    assert report["cells"] == 0
    assert len(report["failures"]) == 3
    assert all(m.startswith("harness error: WorkerCrash")
               for m in report["mismatches"])


def test_checkpoint_resume_skips_completed_iterations(tmp_path,
                                                     monkeypatch):
    real = campaign._execute_task
    ran = []
    broken = {1}

    def execute(task):
        ran.append(task.index)
        if task.index in broken:
            raise RuntimeError("injected harness fault")
        return real(task)

    monkeypatch.setattr(campaign, "_execute_task", execute)
    path = tmp_path / "campaign.ckpt"
    first = tiny_campaign(iterations=3, checkpoint=SweepCheckpoint(path))
    assert len(first.failures) == 1  # iteration 1 is not marked done
    assert ran == [0, 1, 1, 2]       # one retry, then it gives up

    ran.clear()
    broken.clear()
    second = tiny_campaign(iterations=3, checkpoint=SweepCheckpoint(path))
    assert ran == [1]
    assert second.ok
    assert (second.iterations, second.cells) == (3, 2)


def _slow_empty_iteration(task):
    time.sleep(0.2)
    return []


@pytest.mark.parametrize("workers,started", [(0, 1), (2, 8)])
def test_time_budget_stops_new_iterations(monkeypatch, workers, started):
    """The budget is checked before each batch: one iteration in this
    process, ``4 × workers`` in a pool."""
    monkeypatch.setattr(campaign, "_execute_task", _slow_empty_iteration)
    result = tiny_campaign(iterations=12, workers=workers, time_budget=0.1)
    assert result.stopped_by_budget
    assert result.iterations == started
