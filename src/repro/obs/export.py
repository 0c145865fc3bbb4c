"""Span persistence and Chrome trace-event (Perfetto) export.

Span traces are stored as JSONL — one ``cgct-span/v1`` record per line
(:func:`write_spans` / :func:`read_spans`) — so they stream, tail and
concatenate. The harness layer writes no span file of its own: a
sweep's ``--runlog`` already holds every fact its timeline needs, and
:func:`read_spans` derives the wall-clock spans from it on read
(:func:`runlog_spans`). :func:`to_chrome_trace` converts a list of
spans from *either* layer into the Chrome trace-event JSON object
format (the "JSON Object Format" of the trace-event spec), which both
``chrome://tracing`` and https://ui.perfetto.dev load directly:

* **cycles** spans map one simulated cycle to one microsecond of trace
  time, one track (pid) per processor, so a transaction's children
  nest visually inside it on the issuing CPU's track;
* **wall** spans map epoch seconds to microseconds relative to the
  earliest span, one track per worker pid (the coordinator's spans —
  sweep, retries — on their own track), so a Perfetto view of a sweep
  shows the fleet's occupancy directly.

A trace file must be single-clock: mixing simulated cycles with wall
seconds on one timeline is meaningless, so :func:`to_chrome_trace`
refuses it rather than guessing a conversion.

:func:`validate_chrome_trace` is the schema check CI runs on exported
files: object shape, required event keys, non-negative durations.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from repro.obs.span import (
    CLOCK_CYCLES,
    CLOCK_WALL,
    make_span,
    validate_span,
)


# ----------------------------------------------------------------------
# JSONL span files
# ----------------------------------------------------------------------
def write_spans(spans: Iterable[Dict], path) -> int:
    """Write spans to *path* as JSONL; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            validate_span(span)
            fh.write(json.dumps(span, sort_keys=True))
            fh.write("\n")
            count += 1
    return count


def read_spans(path) -> List[Dict]:
    """Read a JSONL span file, validating every record.

    A run log (records with an ``event`` key) is read with
    :func:`~repro.harness.runlog.read_runlog`, which drops a torn tail,
    and yields its :func:`runlog_spans`.
    """
    spans = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            if "event" in record:
                from repro.harness.runlog import read_runlog

                return runlog_spans(read_runlog(path))
            try:
                validate_span(record)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            spans.append(record)
    return spans


def runlog_spans(records: Iterable[Dict]) -> List[Dict]:
    """The wall-clock spans of a run log's sweeps.

    Each writer (trace id ``"<hostname>-<pid>"``, or ``"runlog"`` for
    records without the ``runlog/v1`` stamps) contributes one ``sweep``
    span per ``sweep-start``…``sweep-end`` pair — ending at its last
    record if the sweep was killed before its end — with a ``task`` span
    ``[ts - wall_s, ts]`` per completed cell and an instant ``retry``
    span per failed attempt beneath it. Other events are ignored.
    """
    spans: List[Dict] = []
    sweeps: Dict[str, Dict] = {}        # trace id -> its open sweep span

    def add(trace_id, name, start, end, parent, attrs) -> Dict:
        span = make_span(trace_id, f"{trace_id}:{len(spans)}",
                         parent["span_id"] if parent else None, name,
                         CLOCK_WALL, start, end, attrs)
        spans.append(span)
        return span

    def pick(record, keys) -> Dict:
        return {key: record[key] for key in keys}

    for record in records:
        trace_id = (f"{record['hostname']}-{record['pid']}"
                    if "pid" in record else "runlog")
        event, ts = record.get("event"), record.get("ts")
        if event == "sweep-start":
            sweeps[trace_id] = add(trace_id, "sweep", ts, ts, None, pick(
                record, ("tasks", "workers", "resumed")))
            continue
        sweep = sweeps.get(trace_id)
        if sweep is not None:
            sweep["end"] = max(sweep["end"], ts)
        if event == "sweep-end" and sweep is not None:
            sweep["attrs"].update(pick(
                record, ("completed", "failures", "quarantined")))
            del sweeps[trace_id]
        elif event == "run" and record["status"] == "ok":
            add(trace_id, "task", ts - record["wall_s"], ts, sweep, {
                "benchmark": record["task"]["benchmark"],
                "worker_pid": record["worker"],
                **pick(record, ("index", "cache", "attempt")),
            })
        elif event == "run":
            add(trace_id, "retry", ts, ts, sweep, {
                "benchmark": record["task"]["benchmark"],
                **pick(record, ("index", "attempt", "kind",
                                "failure_class", "will_retry")),
            })
    return spans


def trace_clock(spans: List[Dict]) -> str:
    """The single clock of *spans*; raises on empty or mixed traces."""
    clocks = {span["clock"] for span in spans}
    if not clocks:
        raise ValueError("empty span list: no clock to export")
    if len(clocks) > 1:
        raise ValueError(
            f"mixed clocks in one trace ({sorted(clocks)}): simulated "
            "cycles and wall seconds cannot share a timeline — export "
            "the two layers to separate files"
        )
    return clocks.pop()


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------
def to_chrome_trace(spans: List[Dict]) -> Dict:
    """Spans as a Chrome trace-event JSON object (Perfetto-loadable).

    Every span becomes one complete ("ph": "X") event; process/thread
    name metadata events label the tracks. See the module docstring for
    the two clock mappings.
    """
    spans = list(spans)
    for span in spans:
        validate_span(span)
    clock = trace_clock(spans)
    events = []
    if clock == CLOCK_CYCLES:
        # Track = issuing processor. Children carry no proc attr of
        # their own; they inherit their transaction's via trace_id.
        proc_of = {
            span["trace_id"]: span["attrs"]["proc"]
            for span in spans
            if span["parent_id"] is None and "proc" in span["attrs"]
        }
        def place(span):
            return (proc_of.get(span["trace_id"], 0), 0)
        def label(pid):
            return f"cpu{pid} (simulated)"
        def scale(instant):
            return float(instant)          # 1 cycle -> 1 us of trace time
    else:
        # Track = the pid that did the work: task spans carry the worker
        # pid in attrs; coordinator spans (sweep, retry) don't and land
        # on track 0.
        origin = min(span["start"] for span in spans)
        def place(span):
            return (int(span["attrs"].get("worker_pid", 0)), 0)
        def label(pid):
            return f"worker {pid}" if pid else "coordinator"
        def scale(instant):
            return (instant - origin) * 1e6    # epoch seconds -> us
    seen_tracks = set()
    for span in spans:
        pid, tid = place(span)
        if pid not in seen_tracks:
            seen_tracks.add(pid)
            events.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": tid,
                "args": {"name": label(pid)},
            })
        args = dict(span["attrs"])
        args["trace_id"] = span["trace_id"]
        args["span_id"] = span["span_id"]
        if span["parent_id"] is not None:
            args["parent_id"] = span["parent_id"]
        events.append({
            "ph": "X",
            "name": span["name"],
            "cat": clock,
            "ts": scale(span["start"]),
            "dur": max(0.0, scale(span["end"]) - scale(span["start"])),
            "pid": pid,
            "tid": tid,
            "args": args,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": clock, "schema": "cgct-span/v1"},
    }


def write_chrome_trace(spans: List[Dict], path) -> Dict:
    """Write :func:`to_chrome_trace` output to *path*; returns it."""
    trace = to_chrome_trace(spans)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return trace


def validate_chrome_trace(obj: Dict) -> int:
    """Raise ``ValueError`` unless *obj* is a loadable trace-event
    object; returns the number of "X" (complete) events."""
    if not isinstance(obj, dict):
        raise ValueError(f"chrome trace must be a JSON object, "
                         f"got {type(obj).__name__}")
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("chrome trace missing 'traceEvents' array")
    complete = 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        ph = event.get("ph")
        if ph not in ("X", "M", "B", "E", "i", "C"):
            raise ValueError(f"traceEvents[{i}]: unsupported ph {ph!r}")
        for key in ("name", "pid", "tid"):
            if key not in event:
                raise ValueError(f"traceEvents[{i}]: missing {key!r}")
        if ph == "X":
            complete += 1
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)):
                    raise ValueError(
                        f"traceEvents[{i}]: {key!r} must be a number, "
                        f"got {value!r}"
                    )
            if event["dur"] < 0:
                raise ValueError(f"traceEvents[{i}]: negative duration")
    return complete
