"""Busy-resource timing primitive.

The simulator models contention (the broadcast address bus, each memory
controller's DRAM channel) with the classic *next-free-time* abstraction:
a resource serves one request at a time for a fixed occupancy, and a
request arriving while the resource is busy queues until it frees. This
captures the queuing delays the paper attributes to broadcast traffic
without simulating individual bus phases.
"""

from __future__ import annotations


class OccupiedResource:
    """A serially-reusable resource with fixed per-service occupancy.

    Parameters
    ----------
    occupancy:
        Cycles the resource stays busy per accepted request.
    name:
        Diagnostic label used in error messages and stats dumps.
    """

    __slots__ = ("occupancy", "name", "next_free", "services",
                 "queued_cycles")

    def __init__(self, occupancy: int, name: str = "resource") -> None:
        if occupancy < 0:
            raise ValueError(f"occupancy must be >= 0, got {occupancy}")
        self.occupancy = occupancy
        self.name = name
        self.next_free = 0
        self.services = 0
        self.queued_cycles = 0

    @property
    def busy_cycles(self) -> int:
        """Cycles busy so far: every service occupies the resource for
        the same fixed ``occupancy``."""
        return self.services * self.occupancy

    def acquire(self, now: int) -> int:
        """Claim the resource at cycle *now*; return the start-of-service time.

        The returned time is ``max(now, next_free)``; the caller's request
        begins service then and the resource stays busy for ``occupancy``
        cycles afterwards.
        """
        next_free = self.next_free
        start = now if now >= next_free else next_free
        self.queued_cycles += start - now
        self.next_free = start + self.occupancy
        self.services += 1
        return start

    def wait_time(self, now: int) -> int:
        """Queuing delay a request arriving at *now* would currently see."""
        return max(0, self.next_free - now)

    def utilization(self, horizon: int) -> float:
        """Fraction of cycles busy over a run of *horizon* cycles."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / horizon)

    def reset(self) -> None:
        """Forget all history (used between perturbed runs)."""
        self.next_free = 0
        self.services = 0
        self.queued_cycles = 0

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"OccupiedResource(name={self.name!r}, occupancy={self.occupancy}, "
            f"next_free={self.next_free}, services={self.services})"
        )
