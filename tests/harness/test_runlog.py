"""JSON-lines run log: writing, reading back, summarising."""

import json
import os
import socket

import pytest

from repro.harness.runlog import RUNLOG_SCHEMA, RunLog, read_runlog, summarize


def test_records_append_and_read_back(tmp_path):
    path = tmp_path / "runs.jsonl"
    with RunLog(path) as log:
        log.record("sweep-start", tasks=2, workers=1, cache="off")
        log.record("run", index=0, status="ok", cache="miss", wall_s=0.5)
    # Appending across instances (successive invocations share a log).
    with RunLog(path) as log:
        log.record("run", index=1, status="ok", cache="hit", wall_s=0.0)
    records = read_runlog(path)
    assert [r["event"] for r in records] == ["sweep-start", "run", "run"]
    assert all("ts" in r for r in records)


def test_lines_are_plain_json(tmp_path):
    path = tmp_path / "runs.jsonl"
    with RunLog(path) as log:
        log.record("run", status="ok", task={"benchmark": "barnes"})
    line = path.read_text().strip()
    assert json.loads(line)["task"]["benchmark"] == "barnes"


def test_missing_log_reads_empty(tmp_path):
    assert read_runlog(tmp_path / "absent.jsonl") == []


def test_parent_directories_created(tmp_path):
    path = tmp_path / "deep" / "nested" / "runs.jsonl"
    with RunLog(path) as log:
        log.record("sweep-start", tasks=0)
    assert path.exists()


def test_records_are_stamped_with_schema_host_and_pid(tmp_path):
    path = tmp_path / "runs.jsonl"
    with RunLog(path) as log:
        log.record("sweep-start", tasks=1)
        log.record("run", status="ok")
    for record in read_runlog(path):
        assert record["schema"] == RUNLOG_SCHEMA == "runlog/v1"
        assert record["hostname"] == socket.gethostname()
        assert record["pid"] == os.getpid()


def test_caller_fields_cannot_be_shadowed_by_stamps(tmp_path):
    # A caller passing its own hostname (say, relaying a worker's)
    # wins over the coordinator's stamp.
    path = tmp_path / "runs.jsonl"
    with RunLog(path) as log:
        log.record("run", status="ok", hostname="worker-7", pid=1234)
    record = read_runlog(path)[0]
    assert record["hostname"] == "worker-7"
    assert record["pid"] == 1234


def test_old_unstamped_records_still_read_and_summarize(tmp_path):
    # Logs written before runlog/v1 carry no schema/hostname/pid; they
    # must keep reading back and summarising unchanged.
    path = tmp_path / "runs.jsonl"
    old = [
        {"event": "sweep-start", "ts": 1.0, "tasks": 1},
        {"event": "run", "ts": 2.0, "status": "ok", "cache": "miss",
         "wall_s": 0.5, "peak_rss_kb": 100},
        {"event": "sweep-end", "ts": 3.0},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in old))
    with RunLog(path) as log:  # a new writer appends stamped records
        log.record("run", status="ok", cache="hit", wall_s=0.0,
                   peak_rss_kb=50)
    records = read_runlog(path)
    assert len(records) == 4
    assert "schema" not in records[0]
    assert records[-1]["schema"] == RUNLOG_SCHEMA
    summary = summarize(records)
    assert summary["runs"] == 2
    assert summary["simulated"] == 1
    assert summary["cache_hits"] == 1


def test_summarize_counts_every_bucket():
    records = [
        {"event": "sweep-start", "tasks": 3},
        {"event": "run", "status": "error", "will_retry": True,
         "error": "boom"},
        {"event": "run", "status": "ok", "cache": "miss", "wall_s": 1.5,
         "peak_rss_kb": 2000},
        {"event": "run", "status": "ok", "cache": "hit", "wall_s": 0.1,
         "peak_rss_kb": 1000},
        {"event": "run", "status": "error", "will_retry": False,
         "error": "boom"},
        {"event": "sweep-end"},
    ]
    summary = summarize(records)
    assert summary["runs"] == 4
    assert summary["completed"] == 2
    assert summary["simulated"] == 1
    assert summary["cache_hits"] == 1
    assert summary["retries"] == 1
    assert summary["failures"] == 1
    assert summary["wall_seconds"] == 1.6
    assert summary["peak_rss_kb"] == 2000


def test_summarize_empty_stream():
    summary = summarize([])
    assert summary["runs"] == 0
    assert summary["simulated"] == 0
    assert summary["peak_rss_kb"] == 0


def test_double_close_is_safe(tmp_path):
    log = RunLog(tmp_path / "runs.jsonl")
    log.record("sweep-start", tasks=0)
    log.close()
    log.close()


# ----------------------------------------------------------------------
# Durability: fsync-on-append, torn-trailing tolerance, crash points
# ----------------------------------------------------------------------
def test_torn_trailing_record_is_dropped(tmp_path):
    path = tmp_path / "run.jsonl"
    log = RunLog(path)
    log.record("run", index=0, status="ok")
    log.record("run", index=1, status="ok")
    log.close()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"event": "run", "index": 2, "stat')  # no newline
    records = read_runlog(path)
    assert [r["index"] for r in records] == [0, 1]


def test_corruption_before_the_tail_still_raises(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text('{"event": "a"}\nGARBAGE\n{"event": "b"}\n')
    with pytest.raises(json.JSONDecodeError):
        read_runlog(path)


def test_crash_at_every_byte_boundary_keeps_the_prefix(tmp_path):
    """Crash-point sweep: truncating the log anywhere mid-final-record
    yields exactly the records fully written before it."""
    path = tmp_path / "run.jsonl"
    log = RunLog(path)
    for i in range(3):
        log.record("run", index=i)
    log.close()
    full = path.read_bytes()
    newlines = [i for i, b in enumerate(full) if b == 0x0A]
    torn = tmp_path / "torn.jsonl"
    for cut in range(newlines[0] + 1, len(full)):
        torn.write_bytes(full[:cut])
        records = read_runlog(torn)
        complete = sum(1 for n in newlines if n < cut)
        got = [r["index"] for r in records]
        # Every fully terminated record survives; the torn tail either
        # vanishes or (cut exactly before its newline, so its JSON is
        # whole) parses — never anything corrupt, never a lost prefix.
        assert got in (list(range(complete)), list(range(complete + 1)))


def test_append_is_fsynced_by_default(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: (synced.append(fd), real_fsync(fd))[1])
    log = RunLog(tmp_path / "run.jsonl")
    log.record("run", index=0)
    log.record("run", index=1)
    log.close()
    assert len(synced) == 2
