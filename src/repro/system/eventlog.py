"""Optional coherence event log.

Attach an :class:`EventLog` to a machine to record every external
request as it resolves — who asked, for what, which path it took, what
it cost. Intended for debugging protocol behaviour and for teaching
(``examples/protocol_walkthrough.py`` uses region-state dumps; the event
log gives the request-by-request view).

``machine.attach_event_log(log)`` adds :meth:`EventLog.record` to the
machine's request funnel, the one stream every request observer (the
log, telemetry's per-path metrics, the span tracer, the conformance
probe) reads. ``record`` only appends the raw arguments; the
:class:`CoherenceEvent` views, with ``path`` as its plain string value,
are built when the log is read. A machine with nothing attached pays one
emptiness check per funnel site.
:func:`repro.telemetry.tracedump.merged_records` interleaves the log's
events with a registry's interval series.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, Iterator, List, Optional, Tuple

from repro.coherence.requests import RequestType
from repro.common.render import render_table


@dataclass(frozen=True)
class CoherenceEvent:
    """One resolved external request."""

    time: int
    processor: int
    request: RequestType
    address: int
    path: str
    latency: int

    def describe(self) -> str:
        """One-line human-readable rendering."""
        return (
            f"@{self.time:<10d} P{self.processor} "
            f"{self.request.value:<12s} {self.address:#012x} "
            f"{self.path:<10s} {self.latency} cycles"
        )


def _event(raw: Tuple) -> CoherenceEvent:
    time, processor, request, address, path, latency = raw
    return CoherenceEvent(time, processor, request, address, path.value,
                          latency)


class EventLog:
    """Bounded ring buffer of resolved requests, read as
    :class:`CoherenceEvent`.

    Parameters
    ----------
    capacity:
        Events retained; older events are discarded silently.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._events: Deque[Tuple] = deque(maxlen=capacity)
        self.recorded = 0

    def record(self, time: int, processor: int, request: RequestType,
               address: int, path, latency: int) -> None:
        """Append one event (the request-funnel sink; ``path`` is a
        :class:`~repro.system.machine.RequestPath`). The oldest events
        fall off at capacity."""
        self._events.append((time, processor, request, address, path, latency))
        self.recorded += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[CoherenceEvent]:
        return map(_event, self._events)

    def tail(self, n: int = 20) -> List[CoherenceEvent]:
        """The most recent *n* events, oldest first."""
        return [_event(raw) for raw in list(self._events)[-n:]]

    def for_processor(self, processor: int) -> List[CoherenceEvent]:
        """Events issued by the given processor."""
        return [e for e in self if e.processor == processor]

    def for_region(self, region: int, region_offset_bits: int = 9) -> List[CoherenceEvent]:
        """Events whose address falls in region number *region*."""
        return [
            e for e in self
            if (e.address >> region_offset_bits) == region
        ]

    def by_path(self, path: str) -> List[CoherenceEvent]:
        """Events taking the given path (its string value)."""
        return [e for e in self if e.path == path]

    def render(self, events: Optional[Iterable[CoherenceEvent]] = None) -> str:
        """Plain-text table of *events* (defaults to the whole buffer)."""
        rows = [
            [e.time, f"P{e.processor}", e.request.value,
             f"{e.address:#x}", e.path, e.latency]
            for e in (self if events is None else events)
        ]
        return render_table(
            ["cycle", "proc", "request", "address", "path", "latency"], rows
        )
