"""Wall-clock spans: derived from a sweep's run log on read."""

import json
import os
import socket
from functools import partial
from pathlib import Path

from repro.harness.parallel import ExperimentTask, ParallelRunner, \
    execute_envelope
from repro.harness.runlog import RunLog
from repro.obs.export import read_spans, runlog_spans
from repro.obs.span import CLOCK_WALL, validate_span
from repro.system.config import SystemConfig


def run(ts, index, wall_s, cache="miss", worker=7, **stamps):
    return {"event": "run", "ts": ts, "index": index, "status": "ok",
            "task": {"benchmark": "barnes"}, "cache": cache,
            "wall_s": wall_s, "worker": worker, "attempt": 1, **stamps}


def sweep_start(ts, tasks=2, **stamps):
    return {"event": "sweep-start", "ts": ts, "tasks": tasks, "workers": 2,
            "resumed": 0, **stamps}


def sweep_end(ts, completed=2, **stamps):
    return {"event": "sweep-end", "ts": ts, "wall_s": 9.0,
            "completed": completed, "failures": 0, "quarantined": 0,
            **stamps}


#: A sweep killed after its first cell: no sweep-end record.
UNFINISHED_SWEEP = [
    sweep_start(100.0),
    run(103.5, 0, 2.5),
    {"event": "circuit-break", "ts": 104.0, "remaining": 1},
]


class TestRecorder:
    """The run log is the recorder: hand-written logs, derived spans."""

    def test_start_finish_nest_and_validate(self):
        spans = runlog_spans([
            sweep_start(100.0), run(104.0, 0, 3.0), run(108.0, 1, 2.0),
            sweep_end(109.0),
            {"event": "workload-cache", "ts": 110.0, "entries": 1},
        ])
        assert [s["name"] for s in spans] == ["sweep", "task", "task"]
        for span in spans:
            validate_span(span)
            assert span["clock"] == CLOCK_WALL
            assert span["trace_id"] == "runlog"
        sweep, *tasks = spans
        assert sweep["parent_id"] is None
        assert (sweep["start"], sweep["end"]) == (100.0, 109.0)
        assert sweep["attrs"] == {"tasks": 2, "workers": 2, "resumed": 0,
                                  "completed": 2, "failures": 0,
                                  "quarantined": 0}
        for task in tasks:
            assert task["parent_id"] == sweep["span_id"]
            assert sweep["start"] <= task["start"] <= task["end"] \
                <= sweep["end"]

    def test_task_spans_are_placed_retroactively(self):
        error = {"event": "run", "ts": 102.0, "index": 1, "status": "error",
                 "task": {"benchmark": "ocean"}, "error": "boom",
                 "attempt": 1, "will_retry": True, "kind": "crash",
                 "failure_class": "transient"}
        sweep, retry, task = runlog_spans([
            sweep_start(100.0), error, run(108.5, 0, 8.0, cache="hit",
                                           worker=42),
            sweep_end(109.0, completed=1),
        ])
        # A task ends when its record was written and lasted its wall_s.
        assert (task["start"], task["end"]) == (100.5, 108.5)
        assert task["attrs"] == {"index": 0, "benchmark": "barnes",
                                 "cache": "hit", "worker_pid": 42,
                                 "attempt": 1}
        assert retry["start"] == retry["end"] == 102.0
        assert retry["attrs"] == {"index": 1, "benchmark": "ocean",
                                  "attempt": 1, "kind": "crash",
                                  "failure_class": "transient",
                                  "will_retry": True}
        assert task["parent_id"] == retry["parent_id"] == sweep["span_id"]

    def test_unfinished_sweep_ends_at_its_last_record(self, tmp_path):
        path = tmp_path / "killed.jsonl"
        path.write_text("".join(json.dumps(r) + "\n"
                                for r in UNFINISHED_SWEEP)
                        + '{"event": "run", "ts": 10')   # torn tail
        sweep, task = read_spans(path)
        assert (sweep["start"], sweep["end"]) == (100.0, 104.0)
        assert sweep["attrs"] == {"tasks": 2, "workers": 2, "resumed": 0}
        assert task["parent_id"] == sweep["span_id"]
        assert (task["start"], task["end"]) == (101.0, 103.5)

    def test_span_ids_are_unique_per_recorder(self):
        records = [sweep_start(1.0)] + [run(2.0 + i, i, 0.5)
                                        for i in range(5)]
        records += [sweep_start(10.0, tasks=1), run(11.0, 0, 0.5)]
        spans = runlog_spans(records)
        assert len(spans) == 8
        assert len({s["span_id"] for s in spans}) == 8
        # Each sweep-start opens a new root; its tasks hang beneath it.
        assert spans[-1]["parent_id"] == spans[-2]["span_id"]

    def test_default_trace_id_includes_pid(self):
        a = {"hostname": "node-a", "pid": 11}
        b = {"hostname": "node-b", "pid": 22}
        # Two coordinators' sweeps concatenated into one log, interleaved.
        spans = runlog_spans([
            sweep_start(1.0, **a), sweep_start(1.5, **b),
            run(2.0, 0, 0.5, **b), run(2.5, 0, 0.5, **a),
            sweep_end(3.0, completed=1, **a), sweep_end(3.5, completed=1,
                                                        **b),
        ])
        by_trace = {}
        for span in spans:
            by_trace.setdefault(span["trace_id"], []).append(span)
        assert set(by_trace) == {"node-a-11", "node-b-22"}
        for trace_id, (sweep, task) in by_trace.items():
            assert task["parent_id"] == sweep["span_id"]
            assert sweep["span_id"].startswith(f"{trace_id}:")


# ----------------------------------------------------------------------
# ParallelRunner integration
# ----------------------------------------------------------------------
def tiny_tasks(count=2):
    return [
        ExperimentTask("barnes", SystemConfig.paper_baseline(), 300,
                       seed=seed, warmup_fraction=0.0)
        for seed in range(count)
    ]


def test_runner_records_sweep_and_task_spans(tmp_path):
    log_path = tmp_path / "run.jsonl"
    with RunLog(log_path) as log:
        results = ParallelRunner(workers=0, runlog=log).run(tiny_tasks())
    assert all(result is not None for result in results)
    spans = read_spans(log_path)
    by_name = [s["name"] for s in spans]
    assert by_name.count("task") == 2
    assert by_name.count("sweep") == 1
    sweep = next(s for s in spans if s["name"] == "sweep")
    assert sweep["parent_id"] is None
    assert sweep["trace_id"] == f"{socket.gethostname()}-{os.getpid()}"
    assert sweep["attrs"] == {"tasks": 2, "workers": 1, "resumed": 0,
                              "completed": 2, "failures": 0,
                              "quarantined": 0}
    tasks = [s for s in spans if s["name"] == "task"]
    for span in tasks:
        validate_span(span)
        assert span["parent_id"] == sweep["span_id"]
        assert span["attrs"]["benchmark"] == "barnes"
        assert span["attrs"]["cache"] == "off"  # no DiskCache configured
        assert span["attrs"]["worker_pid"] > 0
        # Retroactive placement: the task ran inside the sweep window.
        assert sweep["start"] <= span["start"] <= span["end"] <= sweep["end"]
    assert {s["attrs"]["index"] for s in tasks} == {0, 1}


def _poisoned_execute(envelope, marker, fail_times):
    path = Path(marker)
    if envelope.index == 0:
        count = int(path.read_text()) if path.exists() else 0
        if count < fail_times:
            path.write_text(str(count + 1))
            raise RuntimeError("injected transient fault")
    return execute_envelope(envelope)


def test_runner_records_an_instant_retry_span(tmp_path):
    log_path = tmp_path / "run.jsonl"
    execute = partial(_poisoned_execute, marker=str(tmp_path / "marker"),
                      fail_times=1)
    with RunLog(log_path) as log:
        runner = ParallelRunner(workers=0, execute=execute, runlog=log)
        results = runner.run(tiny_tasks())
    assert all(result is not None for result in results)
    spans = read_spans(log_path)
    retries = [s for s in spans if s["name"] == "retry"]
    assert len(retries) == 1
    retry = retries[0]
    assert retry["start"] == retry["end"]
    assert retry["attrs"]["index"] == 0
    assert retry["attrs"]["attempt"] == 1
    assert retry["attrs"]["will_retry"] is True
    sweep = next(s for s in spans if s["name"] == "sweep")
    assert retry["parent_id"] == sweep["span_id"]
    assert sweep["attrs"]["failures"] == 0  # the retry succeeded
