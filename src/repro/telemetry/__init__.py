"""Simulator-wide metrics and tracing.

See :mod:`repro.telemetry.registry` for the primitives and the
registry, :mod:`repro.telemetry.export` for the JSON/CSV/Prometheus
exporters, and :mod:`repro.telemetry.tracedump` for the merged
event/interval trace.
``docs/telemetry.md`` has the metric catalogue.
"""

from repro.telemetry.registry import (
    DEFAULT_BUCKET_BOUNDS,
    DEFAULT_INTERVAL,
    Counter,
    Gauge,
    Histogram,
    IntervalSeries,
    TelemetryRegistry,
    TransitionMatrix,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "IntervalSeries",
    "TransitionMatrix",
    "TelemetryRegistry",
    "DEFAULT_BUCKET_BOUNDS",
    "DEFAULT_INTERVAL",
]
