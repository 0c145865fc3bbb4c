"""Real-trace ingestion, profiling, and spatial sampling.

The paper evaluates CGCT on traces of real commercial and scientific
workloads; this package turns the simulator from "nine calibrated
generators" into an instrument that answers CGCT questions about *any*
captured workload:

* :mod:`repro.traces.reader` — streamed CSV / packed-binary access-trace
  readers and writers (chunked, gzip-transparent, schema-validated)
  that materialize into the existing
  :class:`~repro.workloads.trace.MultiTrace`; ``trace:<path>`` workload
  names resolve through
  :func:`~repro.workloads.benchmarks.build_benchmark`, so trace-driven
  runs flow through the simulator, harness, workload cache, and
  conformance machinery unchanged.
* :mod:`repro.traces.profiler` — one streaming pass, batched in numpy,
  computing the reuse-distance histogram (exact LRU stack distances),
  per-region sharing footprints, and the oracle Figure-2
  broadcast-needed/unnecessary profile straight from the trace (golden
  may-hold model, no simulation).
* :mod:`repro.traces.sample` — a region-aligned spatial sampler
  (hash-of-region-id mod rate) that shrinks large traces to
  simulator-sized ones while preserving those profiles, emitting a
  machine-readable sample-vs-full error report.
* :mod:`repro.traces.cli` — the ``traces`` subcommand
  (``convert | profile | sample | run``) of ``python -m repro.harness``.

See ``docs/traces.md`` for formats, metric definitions, and the
sampler's error-bound methodology.
"""

from repro.traces.profiler import (
    TraceProfile,
    TraceProfiler,
    profile_events,
    profile_file,
    profile_workload,
)
from repro.traces.reader import (
    EventChunk,
    TraceInfo,
    detect_format,
    events_to_workload,
    load_workload,
    read_events,
    save_workload,
    trace_file_digest,
    workload_to_events,
    write_binary,
    write_csv,
)
from repro.traces.sample import (
    DEFAULT_BOUNDS,
    SpatialSampler,
    build_error_report,
    load_report,
    sample_file,
    save_report,
    validate_report,
)

__all__ = [
    "DEFAULT_BOUNDS",
    "EventChunk",
    "SpatialSampler",
    "TraceInfo",
    "TraceProfile",
    "TraceProfiler",
    "build_error_report",
    "detect_format",
    "events_to_workload",
    "load_report",
    "load_workload",
    "profile_events",
    "profile_file",
    "profile_workload",
    "read_events",
    "sample_file",
    "save_report",
    "save_workload",
    "trace_file_digest",
    "validate_report",
    "workload_to_events",
    "write_binary",
    "write_csv",
]
