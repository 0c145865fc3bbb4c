"""The reference global step order: a linear ``min()`` scan, one step per pick.

``Simulator._run_until`` orders steps with a heap keyed ``(next_time,
proc_id)`` and runs streaks (``TraceProcessor.build_run_ahead``) while
the popped processor provably stays the next to run. This module keeps
the original scheduler those optimisations replaced, as an oracle for
the stepping-equivalence tests: every pick scans the active processors
for the earliest next issue time (``min`` keeps the first, i.e. the
lowest processor id, on a tie) and takes exactly one ``step()``. It has
the same telemetry, sanitizer and step-observer hooks as the production
loop, at the same step boundaries, so every observable of a run must be
identical under either.
"""

from __future__ import annotations

from typing import List

from repro.system.processor import TraceProcessor
from repro.system.simulator import Simulator


class ReferenceSimulator(Simulator):
    """:class:`Simulator` with the O(P)-per-step reference scheduler."""

    def _run_until(
        self, processors: List[TraceProcessor], targets: List[int]
    ) -> None:
        telemetry = self.telemetry
        sanitizer = self.sanitizer
        observe = self.step_observer
        budget = sanitizer.every if sanitizer is not None else 0
        active = [p for p in processors if p.index < targets[p.proc_id]]
        while active:
            soonest = min(active, key=lambda p: p.next_time)
            issue_time = soonest.next_time
            if telemetry is not None and issue_time >= telemetry.next_sample_time:
                telemetry.maybe_sample(issue_time)
            if observe is not None:
                observe(soonest.proc_id)
            soonest.step()
            if sanitizer is not None:
                budget -= 1
                if budget <= 0:
                    sanitizer.check(soonest.clock)
                    budget = sanitizer.every
            if soonest.index >= targets[soonest.proc_id]:
                active.remove(soonest)
