"""The reference snoop walks: every peer in phase 1, every tracker in phase 2.

``Machine`` runs each snoop phase of a broadcast one way. Phase 1 visits
only the line's holders (the holder bitmask, with skipped tag probes
reconstructed as probe debt) on filter-free machines; phase 2 batches
the region snoops by state class (``Machine._snoop_regions``). This
module keeps the naive paths those replaced, as an oracle for the
snoop-equivalence tests:

* phase 1 probes every peer's L2 in ascending processor id — the
  machine's own per-peer loop, which RegionScout/Jetty machines run in
  production and which on a filter-free machine is exactly the walk;
* phase 2 runs ``ProcessorNode.snoop_region`` on every remote tracker in
  ascending processor id, with each observer's exclusivity hint derived
  from the two helpers below (Section 3.1), and combines the responses.

Build a simulator on the reference inside ``snoop_path("walk")``, which
patches the ``Machine`` the simulator module constructs; production code
has no hook for it.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Optional
from unittest import mock

from repro.coherence.requests import RequestType
from repro.coherence.snoop import SnoopResult
from repro.rca.response import RegionSnoopResponse, combine_region_responses
from repro.system.machine import Machine


def requestor_fills_exclusive(
    request: RequestType, combined: SnoopResult
) -> Optional[bool]:
    """Whether a read-like request ends with an exclusive copy."""
    if request in (RequestType.READ, RequestType.PREFETCH):
        return not combined.shared
    if request is RequestType.IFETCH:
        return False  # ifetches fill SHARED
    return None  # irrelevant for invalidating requests


def exclusivity_hint(
    line_response_visible: bool,
    fills_exclusive: Optional[bool],
    observer_cached_line: bool,
) -> Optional[bool]:
    """What one observer knows about the requestor's fill state.

    Section 3.1: known when the combined line response is visible to
    the region protocol, or when the observer itself caches the line
    (in which case the requestor cannot be exclusive).
    """
    if line_response_visible:
        return fills_exclusive
    if observer_cached_line:
        return False if fills_exclusive is not None else None
    return None


class ReferenceSnoopMachine(Machine):
    """:class:`Machine` with both snoop phases walked observer by observer."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Phase 1 takes the per-peer loop; the probe-debt closures stay
        # installed but owe nothing, since no broadcast counts as a
        # fast one.
        self._bitmask_snoop = False
        #: Phase-2 walks run so far (tests check the oracle was used).
        self.region_walks = 0

    def _snoop_regions(
        self,
        proc: int,
        request: RequestType,
        region: int,
        remote_trackers: int,
        holders_before: int,
        combined: SnoopResult,
    ) -> RegionSnoopResponse:
        """Phase 2 as a walk: each remote tracker, in processor order."""
        self.region_walks += 1
        fills_exclusive = requestor_fills_exclusive(request, combined)
        visible = self.config.line_response_visible
        collected = []
        for pid in range(len(self.nodes)):
            if (remote_trackers >> pid) & 1:
                hint = exclusivity_hint(
                    visible, fills_exclusive, bool((holders_before >> pid) & 1)
                )
                collected.append(self._snoop_region_of(
                    self.nodes[pid], region, request, hint, requestor=proc
                ))
        return combine_region_responses(collected)


def snoop_path(snoop: str):
    """Context manager: simulators built inside it run the reference
    walks (``"walk"``) or the production paths (``"bitmask"``)."""
    if snoop == "walk":
        return mock.patch(
            "repro.system.simulator.Machine", ReferenceSnoopMachine
        )
    if snoop == "bitmask":
        return nullcontext()
    raise ValueError(f"snoop must be 'walk' or 'bitmask', got {snoop!r}")
