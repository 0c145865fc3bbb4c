"""One processor node: L1 I/D + L2 + Region Coherence Array + prefetcher.

The node wires the L2's line-allocation/removal callbacks into the RCA's
per-region line counts (the inclusion bookkeeping of Section 3.2) and
implements the node's *responder* role: line snoops against the L2
(MOESI) and region snoops against the RCA (region protocol), including
self-invalidation. Request *routing* — deciding broadcast vs direct and
composing latencies — lives in :mod:`repro.system.machine`; the node only
knows its own state.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from repro.cache.l1 import L1Cache
from repro.cache.l2 import L2Cache
from repro.coherence.line_states import LineState
from repro.coherence.moesi import snoop_transition
from repro.coherence.requests import RequestType
from repro.coherence.snoop import (
    CACHED_LINE_RESPONSES,
    EMPTY_LINE_RESPONSE,
    LineSnoopResponse,
)
from repro.prefetch.stream import StreamPrefetcher
from repro.rca.array import RegionCoherenceArray, RegionEntry
from repro.rca.jetty import JettySnoopFilter
from repro.rca.regionscout import RegionScout


#: Line snoops flattened to one table lookup: for every (holder state,
#: request) the next state, the holder's interned response, and whether
#: the snoop forces a write-back. Indexed ``[state.index][request.index]``.
_SNOOP_OUTCOMES = [
    [
        (
            _action.next_state,
            CACHED_LINE_RESPONSES[_state.is_dirty, _action.supplies_data],
            _action.writes_back,
        )
        for _request in RequestType
        for _action in (snoop_transition(_state, _request),)
    ]
    for _state in LineState
]


def _fan_out(hooks):
    """Compose zero or more line-event hooks into one callable (or None)."""
    if not hooks:
        return None
    if len(hooks) == 1:
        return hooks[0]

    def fan_out(line: int) -> None:
        for hook in hooks:
            hook(line)

    return fan_out
from repro.rca.protocol import RegionProtocol
from repro.rca.response import NO_COPIES, RegionSnoopResponse
from repro.rca.states import RegionState
from repro.system.config import SystemConfig


class PendingWriteback(NamedTuple):
    """A dirty line leaving this node that must reach memory.

    ``home_mc`` is the memory controller recorded in the line's region
    entry when known (CGCT can route the write-back directly); ``None``
    means the node has no routing information and the write-back must be
    broadcast, as in the conventional system (Section 5.1).
    """

    line: int
    home_mc: Optional[int]


class ProcessorNode:
    """Caches + RCA + prefetcher for one processor."""

    def __init__(self, proc_id: int, config: SystemConfig) -> None:
        self.proc_id = proc_id
        self.config = config
        geometry = config.geometry
        self.l1i = L1Cache(geometry, config.l1i_bytes, config.l1i_ways, name=f"l1i{proc_id}")
        self.l1d = L1Cache(geometry, config.l1d_bytes, config.l1d_ways, name=f"l1d{proc_id}")
        self.rca: Optional[RegionCoherenceArray] = None
        self.protocol = RegionProtocol(
            two_bit=config.two_bit_response,
            self_invalidation=config.self_invalidation,
        )
        self.regionscout: Optional[RegionScout] = None
        self.jetty: Optional[JettySnoopFilter] = None
        allocate_hooks = []
        remove_hooks = []
        if config.cgct_enabled:
            self.rca = RegionCoherenceArray(
                geometry, config.rca_sets, config.rca_ways,
                name=f"rca{proc_id}",
                prefer_empty_victims=config.prefer_empty_victims,
            )
            allocate_hooks.append(self.rca.line_allocated)
            remove_hooks.append(self.rca.line_removed)
        elif config.regionscout_enabled:
            self.regionscout = RegionScout(
                geometry,
                crh_entries=config.regionscout_crh_entries,
                nsrt_entries=config.regionscout_nsrt_entries,
            )
            allocate_hooks.append(self.regionscout.crh.line_allocated)
            remove_hooks.append(self.regionscout.crh.line_removed)
        if config.jetty_enabled:
            self.jetty = JettySnoopFilter(config.jetty_entries)
            allocate_hooks.append(self.jetty.line_allocated)
            remove_hooks.append(self.jetty.line_removed)
        on_alloc = _fan_out(allocate_hooks)
        on_remove = _fan_out(remove_hooks)
        self.l2 = L2Cache(
            geometry,
            config.l2_bytes,
            config.l2_ways,
            name=f"l2_{proc_id}",
            on_line_allocated=on_alloc,
            on_line_removed=on_remove,
        )
        self.prefetcher: Optional[StreamPrefetcher] = None
        if config.prefetch_enabled:
            self.prefetcher = StreamPrefetcher(
                config.prefetch_streams, config.prefetch_runahead
            )

    # ------------------------------------------------------------------
    # Castout routing (requestor side)
    # ------------------------------------------------------------------
    def route_writeback_for_line(self, line: int) -> PendingWriteback:
        """Route a castout of *line* using the region's recorded home MC.

        Falls back to an unrouted (broadcast) write-back when no region
        entry exists — the conventional system's behaviour (Section 5.1).
        """
        home_mc: Optional[int] = None
        if self.rca is not None:
            entry = self.rca.probe(self.config.geometry.region_of_line(line))
            if entry is not None:
                home_mc = entry.home_mc
        return PendingWriteback(line=line, home_mc=home_mc)

    def _drop_from_l1s(self, line: int) -> None:
        self.l1d.back_invalidate(line)
        self.l1i.back_invalidate(line)

    # ------------------------------------------------------------------
    # Region allocation with inclusion-preserving eviction
    # ------------------------------------------------------------------
    def allocate_region(
        self, region: int, state: RegionState, home_mc: int
    ) -> Tuple[RegionEntry, List[PendingWriteback]]:
        """Install a region entry, evicting a victim region if needed.

        Evicting a victim first forces its resident lines out of the
        cache (Section 3.2); dirty ones become write-backs that can still
        be routed directly, because the victim's entry — with its
        memory-controller ID — is consulted before it is removed.
        """
        assert self.rca is not None, "allocate_region requires CGCT"
        writebacks: List[PendingWriteback] = []
        victim = self.rca.victim_for(region)
        if victim is not None:
            transitions = self.protocol.transitions
            if transitions is not None:
                transitions.record(victim.state, "evict", RegionState.INVALID)
            self.rca.note_eviction_line_count(victim.line_count)
            for evicted in self.l2.evict_region(victim.region):
                self._drop_from_l1s(evicted.line)
                if evicted.needs_writeback:
                    writebacks.append(
                        PendingWriteback(line=evicted.line, home_mc=victim.home_mc)
                    )
            self.rca.evict(victim.region)
        entry = self.rca.insert(region, state, home_mc)
        return entry, writebacks

    # ------------------------------------------------------------------
    # Responder side: line snoops
    # ------------------------------------------------------------------
    def snoop_line(
        self, line: int, request: RequestType
    ) -> Tuple[LineSnoopResponse, bool]:
        """Apply an external request's line snoop to this node.

        Returns the node's line snoop response and whether the snoop
        caused this node to write dirty data back to memory (a DCBF, or
        an invalidation whose data the requestor does not take).
        """
        entry = self.l2.snoop_probe(line)
        if entry is None:
            return EMPTY_LINE_RESPONSE, False
        state_before = entry.state
        next_state, response, writes_back = (
            _SNOOP_OUTCOMES[state_before.index][request.index]
        )
        if next_state is LineState.INVALID:
            self.l2.invalidate(line)
            self._drop_from_l1s(line)
        elif next_state is not state_before:
            self.l2.set_state(line, next_state)
            if state_before.can_silently_modify:  # held M or E: L1D demotes
                self.l1d.downgrade(line)
        return response, writes_back

    def caches_line(self, line: int) -> bool:
        """Whether the L2 currently holds *line* (no stats side effects)."""
        return self.l2.peek(line) is not None

    # ------------------------------------------------------------------
    # Responder side: region snoops
    # ------------------------------------------------------------------
    def snoop_region(
        self,
        region: int,
        request: RequestType,
        requestor_fills_exclusive: Optional[bool],
        requestor: Optional[int] = None,
    ) -> RegionSnoopResponse:
        """Apply an external request's region snoop to this node's RCA.

        Performs self-invalidation when the region's line count is zero
        (Section 3.1) and downgrades the region state per Figure 5.
        Returns this node's contribution to the combined region response.
        ``requestor`` (when known) refreshes the region's owner hint: a
        processor taking modifiable copies is the likely future owner of
        the region's dirty data.
        """
        if self.rca is None:
            return NO_COPIES
        entry = self.rca.probe(region)
        if entry is None:
            return NO_COPIES
        outcome = self.protocol.response_for(entry.state, entry.line_count)
        if outcome.self_invalidate:
            transitions = self.protocol.transitions
            if transitions is not None:
                transitions.record(
                    entry.state, "self_invalidate", RegionState.INVALID
                )
            self.rca.invalidate(region)
            return outcome.response
        entry.state = self.protocol.after_external_request(
            entry.state, request, requestor_fills_exclusive
        )
        if requestor is not None and request.wants_modifiable:
            entry.owner_hint = requestor
        return outcome.response

    def probe_region_response(self, region: int) -> RegionSnoopResponse:
        """Non-mutating region summary (region-state prefetch probes).

        Unlike :meth:`snoop_region`, this neither self-invalidates nor
        downgrades: it only reports what a snoop *would* answer.
        """
        if self.rca is None:
            return NO_COPIES
        entry = self.rca.probe(region)
        if entry is None or entry.line_count == 0:
            return NO_COPIES
        return self.protocol.response_for(entry.state, entry.line_count).response

    # ------------------------------------------------------------------
    # Introspection / invariants
    # ------------------------------------------------------------------
    def region_entry(self, region: int) -> Optional[RegionEntry]:
        """The node's RCA entry for *region* (None if untracked/no RCA)."""
        if self.rca is None:
            return None
        return self.rca.probe(region)

    def check_inclusion(self) -> None:
        """Assert L1 ⊆ L2 and (with CGCT) cache ⊆ tracked regions.

        Meant for tests and debugging; raises AssertionError on violation.
        """
        l2_lines = {line for line, _state in self.l2.resident_items()}
        for line in self.l1d.resident_lines():
            assert line in l2_lines, f"L1D line {line:#x} not in L2"
        for line in self.l1i.resident_lines():
            assert line in l2_lines, f"L1I line {line:#x} not in L2"
        if self.rca is None:
            return
        geometry = self.config.geometry
        counted = {}
        for line in l2_lines:
            region = geometry.region_of_line(line)
            counted[region] = counted.get(region, 0) + 1
        for region, expected in counted.items():
            entry = self.rca.probe(region)
            assert entry is not None, f"region {region:#x} cached but untracked"
            assert entry.line_count == expected, (
                f"region {region:#x} line count {entry.line_count} != "
                f"{expected} resident lines"
            )
        for entry in self.rca.entries():
            assert entry.line_count == counted.get(entry.region, 0), (
                f"region {entry.region:#x} counts {entry.line_count} but "
                f"{counted.get(entry.region, 0)} lines resident"
            )
