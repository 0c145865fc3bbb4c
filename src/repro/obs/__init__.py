"""Causal span tracing across the simulated machine and the harness.

Two layers share one span schema (``cgct-span/v1``, see
:mod:`repro.obs.span`):

* **Simulation layer** (:mod:`repro.obs.simtrace`): every memory access
  opens a transaction span with a monotonically assigned trace id;
  child spans cover the L1/L2 lookups, the RCA lookup and its
  region-state routing decision, the phase-1 line snoop, the phase-2
  region snoop, the DRAM access and the fill — each stamped with cycle
  timestamps and the CGCT verdict (broadcast avoided vs required vs
  mispredicted). The tracer attaches to a
  :class:`~repro.system.machine.Machine` through the same
  zero-overhead-when-disabled hook pattern as the telemetry event
  funnel, and never changes simulated results (equivalence-tested).
  A bounded ring configuration turns the same tracer into the *flight
  recorder* that diagnostics bundles embed.
* **Harness layer**: wall-clock sweep → task / retry spans, derived on
  read from a sweep's run log (:func:`repro.obs.export.runlog_spans`),
  so every real sweep — cache hits and resumed cells included — has a
  timeline without a second recorder.

:mod:`repro.obs.export` writes/reads span JSONL (and run logs) and
converts either layer to Chrome trace-event JSON (loadable in Perfetto);
:mod:`repro.obs.analyze` summarises traces and reconciles the
critical-path latency decomposition against telemetry histograms;
:mod:`repro.obs.cli` is the ``trace`` subcommand. See docs/tracing.md.
"""

from repro.obs.simtrace import SimTracer
from repro.obs.span import SPAN_SCHEMA, make_span

__all__ = ["SPAN_SCHEMA", "SimTracer", "make_span"]
