"""Optional coherence event log.

Attach an :class:`EventLog` to a machine to record every external
request as it resolves — who asked, for what, which path it took, what
it cost. Intended for debugging protocol behaviour and for teaching
(``examples/protocol_walkthrough.py`` uses region-state dumps; the event
log gives the request-by-request view). Logging is off unless attached,
so the simulator's hot path pays one ``is None`` check.

The log is an ordinary **telemetry event sink**: its :meth:`~EventLog.record`
signature is the sink protocol the
:class:`~repro.telemetry.registry.TelemetryRegistry` fans events out to,
so ``log.register(registry)`` wires it into a telemetry-enabled run and
:func:`repro.telemetry.tracedump.merged_records` interleaves its events
with the registry's interval series. The legacy
``machine.attach_event_log(log)`` attachment keeps working and the two
paths deduplicate — a log attached both ways sees each event once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, List, Optional

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


class EventLog:
    """Bounded ring buffer of :class:`CoherenceEvent`.

    Parameters
    ----------
    capacity:
        Events retained; older events are discarded silently.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._events: Deque[CoherenceEvent] = deque(maxlen=capacity)
        self.recorded = 0

    # ------------------------------------------------------------------
    # Recording (called by the machine / telemetry registry)
    # ------------------------------------------------------------------
    def register(self, registry) -> "EventLog":
        """Register this log as an event sink on a telemetry registry.

        Returns the log so attachment chains:
        ``log = EventLog().register(registry)``.
        """
        registry.add_event_sink(self)
        return self

    def record(
        self,
        time: int,
        processor: int,
        request: RequestType,
        address: int,
        path: str,
        latency: int,
    ) -> None:
        """Append one event (oldest events fall off at capacity)."""
        self._events.append(
            CoherenceEvent(time, processor, request, address, path, latency)
        )
        self.recorded += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def tail(self, n: int = 20) -> List[CoherenceEvent]:
        """The most recent *n* events, oldest first."""
        events = list(self._events)
        return events[-n:]

    def for_processor(self, processor: int) -> List[CoherenceEvent]:
        """Events issued by the given processor."""
        return [e for e in self._events if e.processor == processor]

    def for_region(self, region: int, region_offset_bits: int = 9) -> List[CoherenceEvent]:
        """Events whose address falls in region number *region*."""
        return [
            e for e in self._events
            if (e.address >> region_offset_bits) == region
        ]

    def by_path(self, path: str) -> List[CoherenceEvent]:
        """Rows (or events) taking the given path."""
        return [e for e in self._events if e.path == path]

    def render(self, events: Optional[Iterable[CoherenceEvent]] = None) -> str:
        """Plain-text table of *events* (defaults to the whole buffer)."""
        chosen = list(self._events) if events is None else list(events)
        rows = [
            [e.time, f"P{e.processor}", e.request.value,
             f"{e.address:#x}", e.path, e.latency]
            for e in chosen
        ]
        return render_table(
            ["cycle", "proc", "request", "address", "path", "latency"], rows
        )
