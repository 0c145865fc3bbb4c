"""JSON-lines run observability.

Every experiment cell the parallel (or serial) runner executes appends
one record to the run log: what ran, where, how long it took, whether it
came from the result cache, how much memory the worker peaked at, and —
on failure — the full traceback plus whether a retry follows. The format
is one JSON object per line so logs can be tailed, grepped, appended to
by successive invocations, and summarised without loading everything.
It is also the harness's only host-time record: ``trace summary``,
``critical-path`` and ``export`` read a run log as the sweep's
wall-clock timeline (:func:`repro.obs.export.runlog_spans` derives one
``sweep`` span per runner invocation, one ``task`` span per completed
cell and one ``retry`` span per failed attempt).

Every record carries ``schema: "runlog/v1"``, the writing ``hostname``
and ``pid``, ``event`` and a Unix ``ts`` to the microsecond — the
provenance stamps let logs from several machines or coordinator
processes be concatenated and still attributed. Readers must tolerate
records without the stamps: logs written before the ``runlog/v1`` tag
(and hand-rolled test fixtures) simply lack them, and
:func:`read_runlog` / :func:`summarize` treat them identically.

Record shapes (beyond the common stamps):

``{"event": "sweep-start", "tasks": N, "workers": W, "cache": "on|off",
"resumed": n, "check_invariants": "off|sampled|deep"}``
    Written once per runner invocation, before any task. ``resumed``
    counts cells restored from a sweep checkpoint.
``{"event": "run", "index": i, "task": {...}, "status": "ok",
"cache": "hit|miss|off", "wall_s": f, "worker": pid,
"peak_rss_kb": n, "attempt": k}``
    One successful cell, logged when its outcome reaches the
    coordinator: ``ts - wall_s`` is when it started. Checkpoint-resumed
    cells carry ``"cache": "hit"`` plus ``"resumed": true``; their
    ``attempt`` is 1, like every cell's first.
``{"event": "run", "index": i, "task": {...}, "status": "error",
"error": traceback, "attempt": k, "will_retry": bool,
"kind": "exception|timeout|crash", "failure_class":
"transient|deterministic"}``
    One failed attempt; ``will_retry: false`` marks a surfaced failure
    (retry budget exhausted, or a deterministic failure quarantined on
    first sight — see :mod:`repro.common.errors`).
``{"event": "circuit-break", "remaining": n, "crashes": n,
"timeouts": n, "consecutive_faults": n}``
    The supervised pool tripped its circuit breaker and ran the
    ``remaining`` cells in the coordinator process; written after their
    ``run`` records.
``{"event": "sweep-end", "wall_s": f, "completed": n, "simulated": n,
"cache_hits": n, "failures": n, "quarantined": n}``
    Written once per runner invocation, after the last task.
"""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path
from typing import Dict, Iterable, List, Union

#: Schema tag stamped on every record this writer produces.
RUNLOG_SCHEMA = "runlog/v1"


class RunLog:
    """Append-only JSON-lines writer (flushes + fsyncs every record)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        # Resolved once: the stamps are per-writer, not per-record.
        self._hostname = socket.gethostname()
        self._pid = os.getpid()

    def record(self, event: str, **fields) -> Dict:
        """Append one record; returns the dictionary written."""
        entry: Dict = {
            "schema": RUNLOG_SCHEMA,
            "event": event,
            "ts": round(time.time(), 6),
            "hostname": self._hostname,
            "pid": self._pid,
        }
        entry.update(fields)
        self._handle.write(json.dumps(entry, sort_keys=True, default=str))
        self._handle.write("\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        return entry

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "RunLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_runlog(path: Union[str, Path]) -> List[Dict]:
    """All records in *path*, in order (empty list if it doesn't exist).

    A torn trailing record — the writer died mid-append — is dropped
    rather than raised: everything before it is intact (records are
    flushed and fsynced whole). A record that fails to parse *before*
    the last line still raises, since that indicates real corruption,
    not an interrupted append.
    """
    log_path = Path(path)
    if not log_path.exists():
        return []
    records = []
    lines = [
        line.strip()
        for line in log_path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    for position, line in enumerate(lines):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if position == len(lines) - 1:
                break
            raise
    return records


def summarize(records: Iterable[Dict]) -> Dict:
    """Roll a record stream up into headline counts.

    ``simulated`` counts completed cells that actually ran the simulator
    (cache miss or cache off); ``cache_hits`` counts replays. A fully
    cached re-invocation therefore shows ``simulated == 0``.
    """
    runs = [r for r in records if r.get("event") == "run"]
    completed = [r for r in runs if r.get("status") == "ok"]
    errors = [r for r in runs if r.get("status") == "error"]
    return {
        "runs": len(runs),
        "completed": len(completed),
        "simulated": sum(1 for r in completed if r.get("cache") != "hit"),
        "cache_hits": sum(1 for r in completed if r.get("cache") == "hit"),
        "retries": sum(1 for r in errors if r.get("will_retry")),
        "failures": sum(1 for r in errors if not r.get("will_retry")),
        "quarantined": sum(
            1 for r in errors
            if not r.get("will_retry")
            and r.get("failure_class") == "deterministic"),
        "wall_seconds": round(
            sum(float(r.get("wall_s", 0.0)) for r in completed), 3),
        "peak_rss_kb": max(
            (int(r.get("peak_rss_kb", 0)) for r in completed), default=0),
    }
