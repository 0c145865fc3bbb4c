"""Metric primitives and the telemetry registry.

Four cheap primitives cover everything the simulator measures:

* :class:`Counter` — monotonically increasing event count;
* :class:`Gauge` — a point-in-time value set at sampling/finalise time;
* :class:`Histogram` — bucketed distribution plus streaming moments
  (backed by :class:`~repro.common.stats.RunningStat`, which also
  provides the percentile estimates);
* :class:`IntervalSeries` — a value per fixed-width window of simulated
  cycles, so Figure 2/7/10-style quantities can be plotted over time
  rather than only as run totals.

A :class:`TransitionMatrix` rounds the set out for BedRock-style
per-transition protocol coverage (from-state × event × to-state counts).

All primitives hang off a :class:`TelemetryRegistry`, addressed by
hierarchical dotted names (``machine.requests.read.broadcast``). The
registry also owns:

* **probes** — callables read at every interval boundary; the delta since
  the previous sample is recorded into an :class:`IntervalSeries`, which
  makes interval totals reconcile *exactly* with the cumulative counter
  they sample (``sum(series) == final - baseline``);
* **finalizers** — callbacks run once at end of run with the final
  simulated time, used to set end-of-run gauges such as bus utilisation.

Resolved external requests reach the registry through the machine's
request funnel, which ``Machine.attach_telemetry`` subscribes the
per-path metrics to; an :class:`~repro.system.eventlog.EventLog` is
attached to the machine beside it, not to the registry.

Cost discipline: a machine without telemetry attached pays exactly one
``is None`` check per instrumented site — the same contract as the event
log. A registry constructed with ``enabled=False`` hands out shared
no-op singletons so instrumented code can hold metric references
unconditionally and still pay (almost) nothing.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.common.stats import RunningStat

#: Default histogram bucket upper bounds: powers of two up to ~1 M cycles,
#: a good fit for latencies that span L2 hits to queued DRAM round trips.
DEFAULT_BUCKET_BOUNDS: Tuple[int, ...] = tuple(1 << i for i in range(21))

#: Default interval width in simulated cycles (matches the paper's
#: 100 K-cycle traffic window of Figure 10).
DEFAULT_INTERVAL = 100_000


class Counter:
    """Monotonic event counter."""

    kind = "counter"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be non-negative) to the counter."""
        self.value += amount

    def reset(self) -> None:
        """Zero the counter."""
        self.value = 0

    def merge_from(self, other: "Counter") -> None:
        """Fold another counter's total into this one."""
        self.value += other.value

    def to_dict(self) -> Dict:
        return {"value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """Point-in-time value (set, not accumulated)."""

    kind = "gauge"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with *value*."""
        self.value = value

    def reset(self) -> None:
        """Zero the gauge."""
        self.value = 0.0

    def merge_from(self, other: "Gauge") -> None:
        """Keep the latest non-default value (gauges do not accumulate)."""
        if other.value:
            self.value = other.value

    def to_dict(self) -> Dict:
        return {"value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """Bucketed distribution with streaming moments and percentiles.

    Buckets are cumulative-upper-bound style (Prometheus ``le``
    semantics): ``counts[i]`` is the number of observations ``<=
    bounds[i]``, with one overflow bucket for values above the last
    bound. Moments (mean/min/max/stddev) and percentile estimates come
    from the embedded :class:`~repro.common.stats.RunningStat`, which
    retains a bounded deterministic subsample.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "bounds", "counts", "stat", "total")

    def __init__(
        self,
        name: str,
        help: str = "",
        bounds: Optional[Iterable[float]] = None,
        sample_limit: int = 1024,
    ) -> None:
        self.name = name
        self.help = help
        self.bounds: Tuple[float, ...] = tuple(
            sorted(bounds) if bounds is not None else DEFAULT_BUCKET_BOUNDS
        )
        if not self.bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.stat = RunningStat(sample_limit=sample_limit)
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.stat.add(value)
        self.total += value

    @property
    def count(self) -> int:
        """Number of observations."""
        return self.stat.count

    def percentile(self, p: float) -> float:
        """Approximate percentile from the retained subsample."""
        return self.stat.percentile(p)

    def cumulative_counts(self) -> List[int]:
        """Prometheus-style cumulative bucket counts (incl. +Inf)."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def reset(self) -> None:
        """Forget all observations (bucket layout is preserved)."""
        self.counts = [0] * (len(self.bounds) + 1)
        self.stat = RunningStat(sample_limit=self.stat.sample_limit)
        self.total = 0.0

    def merge_from(self, other: "Histogram") -> None:
        """Fold another histogram into this one.

        The bounds must be equal, or one a prefix of the other with the
        shorter layout's overflow bucket empty: then every observation
        of the shorter one falls in the same bucket of the longer
        layout, and both merge exactly into it (the RCA eviction
        histogram has one bound per line of a region, so region sizes
        differ this way). Any other mismatch raises.
        """
        counts, other_counts = self.counts, other.counts
        if other.bounds != self.bounds:
            mine_shorter = len(self.bounds) < len(other.bounds)
            shorter, longer = (self.bounds, other.bounds) if mine_shorter \
                else (other.bounds, self.bounds)
            overflow = (counts if mine_shorter else other_counts)[-1]
            if longer[:len(shorter)] != shorter or overflow:
                raise ValueError(
                    f"cannot merge histograms with different bounds: "
                    f"{self.name} vs {other.name}"
                )
            padding = [0] * (len(longer) - len(shorter) + 1)
            if mine_shorter:
                counts = counts[:-1] + padding
                self.bounds = longer
            else:
                other_counts = other_counts[:-1] + padding
        self.counts = [a + b for a, b in zip(counts, other_counts)]
        self.stat = self.stat.merge(other.stat)
        self.total += other.total

    def to_dict(self) -> Dict:
        stat = self.stat
        out = {
            "count": stat.count,
            "sum": self.total,
            "mean": stat.mean,
            "min": stat.minimum,
            "max": stat.maximum,
            "stddev": stat.stddev,
            "bounds": list(self.bounds),
            "bucket_counts": list(self.counts),
        }
        if stat.count:
            for p in (50, 90, 99):
                out[f"p{p}"] = stat.percentile(p)
        return out

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"Histogram({self.name!r}, count={self.count})"


class IntervalSeries:
    """A value per fixed-width window of simulated time.

    The bucket for a record at cycle *t* is ``t // window``; totals are
    maintained so series always reconcile with their source counters.
    """

    kind = "series"
    __slots__ = ("name", "help", "window", "buckets", "total")

    def __init__(self, name: str, window: int, help: str = "") -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.name = name
        self.help = help
        self.window = window
        self.buckets: Dict[int, float] = {}
        self.total = 0.0

    def record(self, time: int, value: float = 1.0) -> None:
        """Add *value* into the window containing cycle *time*."""
        bucket = time // self.window
        self.buckets[bucket] = self.buckets.get(bucket, 0.0) + value
        self.total += value

    def series(self) -> List[float]:
        """Dense per-window values from window 0 to the last non-empty."""
        if not self.buckets:
            return []
        last = max(self.buckets)
        return [self.buckets.get(i, 0.0) for i in range(last + 1)]

    def reset(self) -> None:
        """Forget all recorded windows."""
        self.buckets = {}
        self.total = 0.0

    def merge_from(self, other: "IntervalSeries") -> None:
        """Fold another series (same window width) into this one."""
        if other.window != self.window:
            raise ValueError(
                f"cannot merge series with windows {self.window} and {other.window}"
            )
        for bucket, value in other.buckets.items():
            self.buckets[bucket] = self.buckets.get(bucket, 0.0) + value
        self.total += other.total

    def to_dict(self) -> Dict:
        return {
            "window": self.window,
            "total": self.total,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"IntervalSeries({self.name!r}, total={self.total})"


class TransitionMatrix:
    """(from-state × event × to-state) counts — protocol coverage.

    BedRock validates its coherence engine by counting every exercised
    protocol transition; this is the same shape for the region protocol:
    all seven :class:`~repro.rca.states.RegionState` values crossed with
    the events that can move them (local requests, external requests,
    self-invalidation, eviction).
    """

    kind = "transitions"
    __slots__ = ("name", "help", "counts")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.counts: Dict[Tuple[str, str, str], int] = {}

    def record(self, source, event: str, target, count: int = 1) -> None:
        """Count *count* identical transitions (enum states: ``.value``)."""
        key = (
            getattr(source, "value", source),
            event,
            getattr(target, "value", target),
        )
        self.counts[key] = self.counts.get(key, 0) + count

    @property
    def total(self) -> int:
        """All recorded transitions."""
        return sum(self.counts.values())

    def coverage(self) -> int:
        """Number of distinct (from, event, to) cells exercised."""
        return len(self.counts)

    def reset(self) -> None:
        """Forget all recorded transitions."""
        self.counts = {}

    def merge_from(self, other: "TransitionMatrix") -> None:
        """Fold another matrix's counts into this one."""
        for key, count in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + count

    def to_dict(self) -> Dict:
        return {
            "coverage": self.coverage(),
            "total": self.total,
            "cells": [
                [frm, event, to, count]
                for (frm, event, to), count in sorted(self.counts.items())
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"TransitionMatrix({self.name!r}, coverage={self.coverage()})"


# ----------------------------------------------------------------------
# Disabled-mode no-op singletons
# ----------------------------------------------------------------------
class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class _NullSeries(IntervalSeries):
    __slots__ = ()

    def record(self, time: int, value: float = 1.0) -> None:
        pass


class _NullTransitionMatrix(TransitionMatrix):
    __slots__ = ()

    def record(self, source, event: str, target, count: int = 1) -> None:
        pass


NULL_COUNTER = _NullCounter("null")
NULL_GAUGE = _NullGauge("null")
NULL_HISTOGRAM = _NullHistogram("null")
NULL_SERIES = _NullSeries("null", window=1)
NULL_TRANSITIONS = _NullTransitionMatrix("null")


class _Probe:
    """One sampled cumulative source feeding an IntervalSeries."""

    __slots__ = ("series", "fn", "baseline")

    def __init__(self, series: IntervalSeries, fn: Callable[[], float]) -> None:
        self.series = series
        self.fn = fn
        self.baseline = float(fn())

    def sample(self, bucket_time: int) -> None:
        current = float(self.fn())
        delta = current - self.baseline
        if delta < 0:
            # The source was reset behind our back (e.g. a bare
            # Machine.reset_stats); treat the current value as fresh.
            delta = current
        if delta:
            self.series.record(bucket_time, delta)
        self.baseline = current

    def rebaseline(self) -> None:
        self.baseline = float(self.fn())


class TelemetryRegistry:
    """Hierarchical metric store with interval sampling and finalizers.

    Parameters
    ----------
    interval:
        Sampling period in simulated cycles for probe-driven interval
        series (Figure 10's window, 100 000, by default).
    enabled:
        ``False`` hands out shared no-op metric singletons and records
        nothing — instrumented code can keep its references and the run
        behaves as if telemetry were absent.
    """

    def __init__(self, interval: int = DEFAULT_INTERVAL, enabled: bool = True) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.enabled = enabled
        self._metrics: Dict[str, object] = {}
        self._probes: List[_Probe] = []
        self._finalizers: List[Callable[[int], None]] = []
        self._next_sample = interval
        self.finalized_at: Optional[int] = None

    # ------------------------------------------------------------------
    # Metric factories (create-or-return by name)
    # ------------------------------------------------------------------
    def _get(self, name: str, cls, factory):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Create (or fetch) the counter called *name*."""
        if not self.enabled:
            return NULL_COUNTER
        return self._get(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Create (or fetch) the gauge called *name*."""
        if not self.enabled:
            return NULL_GAUGE
        return self._get(name, Gauge, lambda: Gauge(name, help))

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: Optional[Iterable[float]] = None,
        sample_limit: int = 1024,
    ) -> Histogram:
        """Create (or fetch) the histogram called *name*."""
        if not self.enabled:
            return NULL_HISTOGRAM
        return self._get(
            name, Histogram, lambda: Histogram(name, help, bounds, sample_limit)
        )

    def interval_series(
        self, name: str, help: str = "", window: Optional[int] = None
    ) -> IntervalSeries:
        """Create (or fetch) a free-standing interval series."""
        if not self.enabled:
            return NULL_SERIES
        return self._get(
            name,
            IntervalSeries,
            lambda: IntervalSeries(name, window or self.interval, help),
        )

    def transition_matrix(self, name: str, help: str = "") -> TransitionMatrix:
        """Create (or fetch) the transition matrix called *name*."""
        if not self.enabled:
            return NULL_TRANSITIONS
        return self._get(name, TransitionMatrix, lambda: TransitionMatrix(name, help))

    # ------------------------------------------------------------------
    # Probes: cumulative sources sampled every interval
    # ------------------------------------------------------------------
    def add_probe(
        self, name: str, fn: Callable[[], float], help: str = ""
    ) -> IntervalSeries:
        """Sample ``fn()`` at every interval boundary into a series.

        The series records the *delta* since the previous sample, so its
        total always equals the source's cumulative growth — interval
        totals reconcile exactly with end-of-run aggregates.
        """
        series = self.interval_series(name, help=help, window=self.interval)
        if not self.enabled:
            return series
        self._probes.append(_Probe(series, fn))
        return series

    def add_finalizer(self, fn: Callable[[int], None]) -> None:
        """Run ``fn(end_time)`` once when the run finalises."""
        if self.enabled:
            self._finalizers.append(fn)

    # ------------------------------------------------------------------
    # Sampling (driven by the simulator loop)
    # ------------------------------------------------------------------
    @property
    def next_sample_time(self) -> float:
        """Cycle at which the next interval sample is due."""
        return self._next_sample

    def maybe_sample(self, now: int) -> None:
        """Take every interval sample due at or before cycle *now*."""
        if not self.enabled:
            return
        while self._next_sample <= now:
            boundary = self._next_sample
            self._sample(max(boundary - 1, 0))
            self._next_sample += self.interval

    def _sample(self, bucket_time: int) -> None:
        for probe in self._probes:
            probe.sample(bucket_time)

    def finalize(self, end_time: int) -> None:
        """Flush the trailing partial interval and run finalizers."""
        if not self.enabled:
            return
        self.maybe_sample(end_time)
        self._sample(max(end_time - 1, 0))
        for fn in self._finalizers:
            fn(end_time)
        self.finalized_at = end_time
        # Probes and finalizers close over the instrumented machine:
        # dropped, a finished registry neither keeps its machine alive
        # nor fails to pickle back from a worker process.
        self._probes = []
        self._finalizers = []

    def restart_sampling(self, now: int) -> None:
        """Align the next sample to the first boundary after *now*."""
        self._next_sample = (now // self.interval + 1) * self.interval

    def reset(self) -> None:
        """Zero every metric and rebaseline every probe (layout kept)."""
        for metric in self._metrics.values():
            metric.reset()
        for probe in self._probes:
            probe.rebaseline()
        self.finalized_at = None

    # ------------------------------------------------------------------
    # Introspection / export support
    # ------------------------------------------------------------------
    def metrics(self):
        """Yield every registered metric, in registration order."""
        return iter(self._metrics.values())

    def get(self, name: str):
        """The metric called *name*, or ``None``."""
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def to_dict(self) -> Dict:
        """Plain-dict snapshot of every metric (JSON-serialisable)."""
        out: Dict = {
            "interval": self.interval,
            "finalized_at": self.finalized_at,
            "counters": {},
            "gauges": {},
            "histograms": {},
            "series": {},
            "transitions": {},
        }
        section = {
            "counter": "counters",
            "gauge": "gauges",
            "histogram": "histograms",
            "series": "series",
            "transitions": "transitions",
        }
        for metric in self._metrics.values():
            out[section[metric.kind]][metric.name] = metric.to_dict()
        return out

    def merge_from(self, other: "TelemetryRegistry") -> None:
        """Fold another registry's metrics into this one, name-wise.

        Metrics absent here are deep-copied in by reconstructing the same
        primitive; metrics present in both are merged per-kind (counters
        add, histograms combine, series add bucket-wise, matrices add).
        """
        for metric in other.metrics():
            kind = metric.kind
            if kind == "counter":
                mine = self.counter(metric.name, metric.help)
            elif kind == "gauge":
                mine = self.gauge(metric.name, metric.help)
            elif kind == "histogram":
                mine = self.histogram(
                    metric.name, metric.help, bounds=metric.bounds,
                    sample_limit=metric.stat.sample_limit,
                )
            elif kind == "series":
                mine = self.interval_series(
                    metric.name, metric.help, window=metric.window
                )
            elif kind == "transitions":
                mine = self.transition_matrix(metric.name, metric.help)
            else:  # pragma: no cover - new kinds must extend this map
                raise TypeError(f"unknown metric kind {kind!r}")
            if mine is not metric:
                mine.merge_from(metric)
