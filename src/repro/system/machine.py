"""The memory system: request routing, snooping, latencies, accounting.

This module implements the paper's Figure 1 datapath. Every processor
access flows:

1. **L1** (1 cycle on a hit);
2. **L2 ∥ RCA** (12 cycles on an L2 hit with sufficient permission; the
   region state is read in parallel);
3. an **external request**, which CGCT routes three ways:

   * *no request at all* — upgrades and DCB operations in an exclusive
     region complete immediately (Section 1.2);
   * *direct* — the request goes straight to the home memory controller
     over the data network, paying the Figure 6 direct latencies;
   * *broadcast* — the conventional path: arbitrate for the address bus,
     snoop every other processor's L2 tags **and RCA**, combine the line
     and region responses, and source data from the owning cache or from
     memory (DRAM overlapped with the snoop, Fireplane-style).

The baseline system is the same machine with ``cgct_enabled=False``:
every external request broadcasts, including write-backs.

Every broadcast is also classified by the **oracle** (Figure 2): would it
have been necessary given perfect knowledge of other caches? The
categories follow the paper — data reads/writes (including prefetches),
write-backs, instruction fetches, and DCB operations.
"""

from __future__ import annotations

import dataclasses
import enum
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.coherence.line_states import LineState
from repro.coherence.moesi import fill_state_for
from repro.coherence.requests import RequestType
from repro.coherence.snoop import (
    EMPTY_LINE_RESPONSE,
    SNOOP_NOT_SHARED,
    SNOOP_SHARED,
    SnoopResult,
    combine_line_responses,
)
from repro.common.errors import ProtocolError
from repro.common.intervals import IntervalCounter
from repro.common.rng import derive_seed
from repro.common.stats import RunningStat
from repro.common.units import system_cycles
from repro.interconnect.bus import BroadcastBus
from repro.interconnect.network import DataNetwork
from repro.memory.address_map import AddressMap
from repro.memory.dram import MemoryController
from repro.rca.response import (
    CLEAN_AND_DIRTY_COPIES,
    CLEAN_COPIES,
    DIRTY_COPIES,
    NO_COPIES,
    RegionSnoopResponse,
    combine_region_responses,
)
from repro.rca.array import RegionEntry
from repro.rca.states import LocalPart, RegionState
from repro.system.config import SystemConfig
from repro.system.node import PendingWriteback, ProcessorNode


class RequestPath(enum.Enum):
    """How an access was satisfied."""

    L1_HIT = "l1_hit"
    L2_HIT = "l2_hit"
    NO_REQUEST = "no_request"
    DIRECT = "direct"
    #: Owner-prediction extension: point-to-point probe of the predicted
    #: owner succeeded; no broadcast was needed.
    TARGETED = "targeted"
    BROADCAST = "broadcast"


class OracleCategory(enum.Enum):
    """Figure 2's stacked-bar categories."""

    DATA = "data_read_write"
    WRITEBACK = "writeback"
    IFETCH = "ifetch"
    DCB = "dcb"


_CATEGORY_OF: Dict[RequestType, OracleCategory] = {
    RequestType.READ: OracleCategory.DATA,
    RequestType.RFO: OracleCategory.DATA,
    RequestType.UPGRADE: OracleCategory.DATA,
    RequestType.PREFETCH: OracleCategory.DATA,
    RequestType.PREFETCH_EX: OracleCategory.DATA,
    RequestType.IFETCH: OracleCategory.IFETCH,
    RequestType.WRITEBACK: OracleCategory.WRITEBACK,
    RequestType.DCBZ: OracleCategory.DCB,
    RequestType.DCBF: OracleCategory.DCB,
    RequestType.DCBI: OracleCategory.DCB,
}

# ----------------------------------------------------------------------
# Dense integer indices for the accounting hot paths. Enum members accept
# new attributes (their *properties* are data descriptors and cannot be
# shadowed, hence the fresh names); with them, per-access bookkeeping
# indexes flat lists instead of hashing enums and tuples.
# ----------------------------------------------------------------------
for _i, _path in enumerate(RequestPath):
    _path.index = _i
for _i, _category in enumerate(OracleCategory):
    _category.index = _i
for _i, _request in enumerate(RequestType):
    _request.index = _i
_NUM_PATHS = len(RequestPath)
_NUM_CATEGORIES = len(OracleCategory)
_NUM_REQUEST_PATHS = len(RequestType) * _NUM_PATHS
for _request in RequestType:
    #: Base offset of this request's row in (request, path)-flattened arrays.
    _request.rp_base = _request.index * _NUM_PATHS
    #: Flat index of the request's Figure 2 oracle category.
    _request.category_index = _CATEGORY_OF[_request].index
    #: Fill states after a snoop that found no other copy / another
    #: copy (``fill_states[combined.shared]``), for every routing path.
    _request.fill_states = (
        fill_state_for(_request, SNOOP_NOT_SHARED),
        fill_state_for(_request, SNOOP_SHARED),
    )

_NO_REQUEST_I = RequestPath.NO_REQUEST.index
_DIRECT_I = RequestPath.DIRECT.index
_TARGETED_I = RequestPath.TARGETED.index
_BROADCAST_I = RequestPath.BROADCAST.index
_WRITEBACK_C = OracleCategory.WRITEBACK.index
#: Region states by ``state.index``: a snoop class ``c`` is state
#: ``_REGION_STATES[c >> 1]``.
_REGION_STATES = tuple(RegionState)


#: Latency samples buffered per list before they are folded into their
#: RunningStat: reads fold whatever is pending, so the chunk only bounds
#: the buffers' memory.
_FOLD_CHUNK = 1024


class CategoryCounts:
    """Per-:class:`OracleCategory` counters backed by a flat list.

    Drop-in replacement for the ``Dict[OracleCategory, int]`` fields of
    :class:`ExternalRequestStats`: indexing, iteration, ``items()`` and
    equality (against another instance or a plain dict) all behave like
    the dict did. The machine's per-access paths bypass the mapping
    protocol and increment ``_counts`` slots by category index directly.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts = [0] * _NUM_CATEGORIES

    def __getitem__(self, category: OracleCategory) -> int:
        return self._counts[category.index]

    def __setitem__(self, category: OracleCategory, value: int) -> None:
        self._counts[category.index] = value

    def get(self, category: OracleCategory, default: int = 0) -> int:
        if isinstance(category, OracleCategory):
            return self._counts[category.index]
        return default

    def __iter__(self):
        return iter(OracleCategory)

    def __len__(self) -> int:
        return _NUM_CATEGORIES

    def __contains__(self, category) -> bool:
        return isinstance(category, OracleCategory)

    def keys(self):
        return list(OracleCategory)

    def values(self):
        return list(self._counts)

    def items(self):
        return [(c, self._counts[c.index]) for c in OracleCategory]

    def __eq__(self, other) -> bool:
        if isinstance(other, CategoryCounts):
            return self._counts == other._counts
        if isinstance(other, dict):
            return dict(self.items()) == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"CategoryCounts({dict(self.items())!r})"


@dataclass
class ExternalRequestStats:
    """Counts of external requests by routing and by oracle category."""

    broadcasts: CategoryCounts = field(default_factory=CategoryCounts)
    directs: CategoryCounts = field(default_factory=CategoryCounts)
    no_requests: CategoryCounts = field(default_factory=CategoryCounts)
    unnecessary_broadcasts: CategoryCounts = field(
        default_factory=CategoryCounts
    )

    @property
    def total_broadcasts(self) -> int:
        """External requests that went over the address bus."""
        return sum(self.broadcasts._counts)

    @property
    def total_directs(self) -> int:
        """External requests sent point-to-point."""
        return sum(self.directs._counts)

    @property
    def total_no_requests(self) -> int:
        """Requests completed with no external message."""
        return sum(self.no_requests._counts)

    @property
    def total_external(self) -> int:
        """All external requests, however routed."""
        return self.total_broadcasts + self.total_directs + self.total_no_requests

    @property
    def total_unnecessary(self) -> int:
        """Broadcasts the oracle says were avoidable."""
        return sum(self.unnecessary_broadcasts._counts)

    def avoided(self, category: OracleCategory) -> int:
        """Requests in *category* that skipped the broadcast."""
        return self.directs[category] + self.no_requests[category]

    @property
    def total_avoided(self) -> int:
        """Directs plus no-request completions."""
        return self.total_directs + self.total_no_requests


class Machine:
    """The multiprocessor memory system (baseline or CGCT).

    Each snoop phase of a broadcast has one implementation per machine,
    fixed by the config. Phase 1 (line snoops) visits only the caches
    whose maintained holder bit is set — O(holders) per broadcast
    instead of O(P) — with skipped tag probes reconstructed exactly from
    per-processor broadcast totals; machines with RegionScout/Jetty
    filters run the per-peer loop instead, because those filters must
    observe every broadcast. Phase 2 (region snoops, CGCT only) runs
    over the per-region class masks (:meth:`_snoop_regions`), with or
    without telemetry attached.
    """

    def __init__(self, config: SystemConfig, seed: int = 0) -> None:
        self.config = config
        self.geometry = config.geometry
        self.topology = config.topology
        self.latency = config.latency
        self.address_map = AddressMap(
            self.geometry,
            num_controllers=self.topology.num_memory_controllers,
            interleave_bytes=config.interleave_bytes,
        )
        self.nodes = [
            ProcessorNode(p, config) for p in range(self.topology.num_processors)
        ]
        self.bus = BroadcastBus(
            occupancy_cycles=system_cycles(config.timing.bus_occupancy_system_cycles),
            window=config.traffic_window,
        )
        self.controllers = [
            MemoryController(
                mc,
                dram_cycles=self.latency.dram_cycles,
                dram_overlapped_cycles=self.latency.dram_overlapped_cycles,
                occupancy_cycles=config.timing.mc_occupancy_cpu_cycles,
            )
            for mc in range(self.topology.num_memory_controllers)
        ]
        self.network = DataNetwork(
            num_processors=self.topology.num_processors,
            num_controllers=self.topology.num_memory_controllers,
            line_bytes=self.geometry.line_bytes,
        )
        self._perturb = random.Random(derive_seed(seed, "perturbation"))
        self._perturb_magnitude = config.timing.perturbation_cycles
        # randint(0, m) reduces to _randbelow(m + 1) in CPython; binding
        # the bound method skips the randint→randrange wrapper layers on
        # every jittered request while drawing the identical stream.
        self._randbelow = getattr(self._perturb, "_randbelow", None)
        # Hoisted geometry/latency constants for the per-access paths:
        # plain instance slots instead of two-level attribute chains.
        self._line_shift = self.geometry._line_bits
        self._region_shift = self.geometry._region_bits
        self._l1_hit_cycles = self.latency.l1_hit_cycles
        self._l2_hit_cycles = self.latency.l2_hit_cycles
        self._snoop_cycles = self.latency.snoop_cycles
        self._cache_access_cycles = self.latency.cache_access_cycles
        self._store_stall_fraction = config.timing.store_stall_fraction
        # Pairwise latency tables: the topology's distance classes and the
        # Distance-keyed latency dicts collapse into plain integer lookups
        # (requestor × controller chip, and requestor × responder).
        transfer = self.latency.transfer_cycles
        direct = self.latency.direct_request_cycles
        procs = range(self.topology.num_processors)
        chips = range(self.topology.num_chips)
        self._transfer_to_mc = [
            [transfer[self.topology.distance(p, c)] for c in chips]
            for p in procs
        ]
        self._direct_to_mc = [
            [direct[self.topology.distance(p, c)] for c in chips]
            for p in procs
        ]
        self._transfer_to_proc = [
            [transfer[self.topology.processor_distance(p, r)] for r in procs]
            for p in procs
        ]
        self._direct_to_proc = [
            [direct[self.topology.processor_distance(p, r)] for r in procs]
            for p in procs
        ]
        # Presence bitmasks, maintained from the residency callbacks:
        # line → bitmask of processors whose L2 holds it, and region →
        # bitmask of processors whose RCA tracks it. They let a broadcast
        # touch only the nodes that can answer, instead of probing every
        # L2 and RCA in the system.
        self._line_holders: Dict[int, int] = {}
        self._region_trackers: Dict[int, int] = {}
        # Per-region class masks: region → {class: pid bitmask}, where a
        # class packs (region state, line count == 0) as
        # ``(state.index << 1) | empty`` — exactly the pair a region
        # snoop's outcome depends on. Phase 2 of a broadcast iterates
        # the one-to-three classes present in a region with integer
        # operations instead of probing every tracker's RCA entry;
        # observer entries are only materialised when their state
        # actually changes (or they self-invalidate). Maintained by the
        # residency callbacks and every state-writing site. Mutated in
        # place, never rebound: the residency closures capture the dict
        # once.
        self._region_classes: Dict[int, Dict[int, int]] = {}
        #: Owner hints are advisory and only ever read by the Section 6
        #: owner-prediction extension; with the extension off they are
        #: dead stores, and the class-mask snoop paths skip writing them.
        self._owner_hints_on = config.owner_prediction
        # Per-broadcast config flags, hoisted off the config dataclass.
        self._line_resp_visible = config.line_response_visible
        self._two_bit = config.two_bit_response
        #: The telemetry transition matrix while one is attached (see
        #: attach_telemetry); the class-mask paths record into it.
        self._transitions = None
        for node in self.nodes:
            self._track_presence(node)
        #: Bitmask snoop mode: phase-1 broadcasts iterate the set bits of
        #: the holder mask instead of walking every peer. Non-holders are
        #: never visited, so their tag-probe counts are carried as
        #: per-processor debt — broadcasts a processor neither issued nor
        #: answered as a holder are exactly its skipped probes — and
        #: reconstructed on every ``L2Cache.snoop_probes`` read. Any
        #: RegionScout/Jetty filter rules it out: those filters keep
        #: per-snoop state that must observe every broadcast, so they
        #: take the per-peer loop.
        self._bitmask_snoop = all(
            n.regionscout is None and n.jetty is None for n in self.nodes
        )
        self._fast_issued = [0] * self.topology.num_processors
        self._fast_holder_visits = [0] * self.topology.num_processors
        if self._bitmask_snoop:
            for node in self.nodes:
                self._install_probe_debt(node)
        # Hoisted prefetch-filter constants (line → region shift, filter
        # switch).
        self._line_region_shift = (
            self.geometry._region_bits - self.geometry._line_bits
        )
        self._prefetch_region_filter = config.prefetch_region_filter
        self._region_state_prefetch = config.region_state_prefetch
        self._dram_speculation_filter = config.dram_speculation_filter
        self._build_region_snoop_tables()
        #: Bound L1 lookup methods, indexed by processor: every access
        #: starts here, so the common L1-hit path is one list index and
        #: one call (the L1 objects live as long as the machine, so the
        #: bindings never go stale).
        self._l1d_lookups = [n.l1d.lookup for n in self.nodes]
        self._l1i_lookups = [n.l1i.lookup for n in self.nodes]
        # Accounting
        self.stats = ExternalRequestStats()
        self.l1_hits = 0
        self.l2_hits = 0
        self.queue_cycles = 0
        # Flat (request × path) arrays behind the request_paths /
        # path_latency property views. Latencies are appended to plain
        # sample lists on the request paths and folded into their
        # RunningStats when read (_fold_latencies): RunningStat.extend
        # is bit-identical to one add per sample.
        self._request_path_counts: List[int] = [0] * _NUM_REQUEST_PATHS
        self._demand_latency = RunningStat()
        self._demand_samples: List[int] = []
        self._path_latency_stats: List[Optional[RunningStat]] = (
            [None] * _NUM_REQUEST_PATHS
        )
        self._path_samples: List[List[int]] = [
            [] for _ in range(_NUM_REQUEST_PATHS)
        ]
        # Section 6 extension counters
        self.prefetches_filtered = 0
        self.dram_speculative_started = 0
        self.dram_speculative_wasted = 0
        self.dram_speculation_avoided = 0
        self.dram_speculation_late = 0
        self.region_prefetches = 0
        self.targeted_hits = 0
        self.targeted_misses = 0
        #: Cache-to-cache transfers (owner supplied the data).
        self.c2c_transfers = 0
        #: Optional coherence event log (see attach_event_log).
        self.event_log = None
        #: Optional telemetry registry (see attach_telemetry).
        self.telemetry = None
        self._tel_event_metrics: Dict = {}
        self._tel_demand_hist = None
        self._tel_wb_direct = None
        self._tel_wb_broadcast = None
        #: True when an event log or telemetry is attached; lets the
        #: request funnel skip the _log_event call entirely otherwise.
        self._log_enabled = False
        #: Optional causal span tracer (see attach_tracer). A detached
        #: machine pays one ``is None`` check per instrumented site.
        self._tracer = None

    def _track_presence(self, node: ProcessorNode) -> None:
        """Wrap *node*'s residency callbacks to maintain the bitmasks.

        The L2 callbacks are composed around whatever the node installed
        (the RCA line counters for CGCT nodes, no-ops otherwise); the RCA
        region callbacks are the array's defaults and are simply
        replaced. Every content change flows through these hooks — fills
        that only overwrite the state of a resident line fire nothing,
        and need not: the holder bit is already set.
        """
        bit = 1 << node.proc_id
        holders = self._line_holders
        inner_allocated = node.l2.on_line_allocated
        inner_removed = node.l2.on_line_removed
        rca = node.rca
        fuse_rca = (
            rca is not None
            and getattr(inner_allocated, "__func__", None)
            is type(rca).line_allocated
            and getattr(inner_allocated, "__self__", None) is rca
            and getattr(inner_removed, "__func__", None)
            is type(rca).line_removed
            and getattr(inner_removed, "__self__", None) is rca
        )

        region_classes = self._region_classes
        if fuse_rca:
            # The node's only line hooks are the RCA counters: fold them
            # into the holder-bit closures so every L2 fill/eviction runs
            # one callback instead of two. Count discipline, error
            # wording and the inclusion guards match
            # RegionCoherenceArray.line_allocated / line_removed exactly.
            # Empty↔non-empty crossings change the region's snoop class,
            # so they move this processor's bit between the empty and
            # non-empty variants of its state's class mask.
            rsets = rca._sets
            rshift = rca._region_shift
            rmask = rca._set_mask
            rbits = rca._set_bits
            lines_per_region = rca._lines_per_region

            def line_allocated(line: int) -> None:
                holders[line] = holders.get(line, 0) | bit
                region = line >> rshift
                entry = rsets[region & rmask].get(region >> rbits)
                if entry is None:
                    raise ProtocolError(
                        f"L2 allocated line {line:#x} with no region entry; "
                        "region⊇cache inclusion violated"
                    )
                count = entry.line_count + 1
                entry.line_count = count
                if count == 1:
                    cls = region_classes[region]
                    c = (entry.state.index << 1) | 1
                    left = cls[c] & ~bit
                    if left:
                        cls[c] = left
                    else:
                        del cls[c]
                    nc = c ^ 1
                    cls[nc] = cls.get(nc, 0) | bit
                elif count > lines_per_region:
                    raise ProtocolError(
                        f"region {entry.region:#x} line count {count} exceeds "
                        f"{lines_per_region} lines per region"
                    )

            def line_removed(line: int) -> None:
                remaining = holders.get(line, 0) & ~bit
                if remaining:
                    holders[line] = remaining
                else:
                    holders.pop(line, None)
                region = line >> rshift
                entry = rsets[region & rmask].get(region >> rbits)
                if entry is None:
                    raise ProtocolError(
                        f"L2 removed line {line:#x} with no region entry; "
                        "line counts are out of sync"
                    )
                count = entry.line_count
                if count == 0:
                    raise ProtocolError(
                        f"region {entry.region:#x} line count would go negative"
                    )
                if count == 1:
                    cls = region_classes[region]
                    c = entry.state.index << 1
                    left = cls[c] & ~bit
                    if left:
                        cls[c] = left
                    else:
                        del cls[c]
                    nc = c | 1
                    cls[nc] = cls.get(nc, 0) | bit
                entry.line_count = count - 1
        elif rca is not None:
            # Stacked line filters (Jetty/RegionScout) kept the node's
            # composed hooks: run them, then detect empty↔non-empty
            # crossings by re-probing the entry the inner RCA counter
            # just updated.
            rsets = rca._sets
            rshift = rca._region_shift
            rmask = rca._set_mask
            rbits = rca._set_bits

            def line_allocated(line: int) -> None:
                holders[line] = holders.get(line, 0) | bit
                inner_allocated(line)
                region = line >> rshift
                entry = rsets[region & rmask].get(region >> rbits)
                if entry is not None and entry.line_count == 1:
                    cls = region_classes[region]
                    c = (entry.state.index << 1) | 1
                    left = cls[c] & ~bit
                    if left:
                        cls[c] = left
                    else:
                        del cls[c]
                    nc = c ^ 1
                    cls[nc] = cls.get(nc, 0) | bit

            def line_removed(line: int) -> None:
                remaining = holders.get(line, 0) & ~bit
                if remaining:
                    holders[line] = remaining
                else:
                    holders.pop(line, None)
                inner_removed(line)
                region = line >> rshift
                entry = rsets[region & rmask].get(region >> rbits)
                if entry is not None and entry.line_count == 0:
                    cls = region_classes[region]
                    c = entry.state.index << 1
                    left = cls[c] & ~bit
                    if left:
                        cls[c] = left
                    else:
                        del cls[c]
                    nc = c | 1
                    cls[nc] = cls.get(nc, 0) | bit
        else:
            def line_allocated(line: int) -> None:
                holders[line] = holders.get(line, 0) | bit
                inner_allocated(line)

            def line_removed(line: int) -> None:
                remaining = holders.get(line, 0) & ~bit
                if remaining:
                    holders[line] = remaining
                else:
                    holders.pop(line, None)
                inner_removed(line)

        node.l2.on_line_allocated = line_allocated
        node.l2.on_line_removed = line_removed

        if node.rca is not None:
            trackers = self._region_trackers
            rsets2 = node.rca._sets
            rmask2 = node.rca._set_mask
            rbits2 = node.rca._set_bits

            def region_tracked(region: int) -> None:
                trackers[region] = trackers.get(region, 0) | bit
                entry = rsets2[region & rmask2].get(region >> rbits2)
                c = (entry.state.index << 1) | (
                    1 if entry.line_count == 0 else 0
                )
                cls = region_classes.get(region)
                if cls is None:
                    cls = region_classes[region] = {}
                cls[c] = cls.get(c, 0) | bit

            def region_untracked(region: int) -> None:
                remaining = trackers.get(region, 0) & ~bit
                if remaining:
                    trackers[region] = remaining
                else:
                    trackers.pop(region, None)
                cls = region_classes.get(region)
                if cls:
                    for c, m in cls.items():
                        if m & bit:
                            m &= ~bit
                            if m:
                                cls[c] = m
                            else:
                                del cls[c]
                            break
                    if not cls:
                        del region_classes[region]

            node.rca.on_region_tracked = region_tracked
            node.rca.on_region_untracked = region_untracked

    def _install_probe_debt(self, node: ProcessorNode) -> None:
        """Give *node*'s L2 its deferred snoop-probe reconstruction.

        In bitmask mode a processor's skipped tag probes are exactly the
        fast-path broadcasts (every processor's issues summed) it neither
        issued nor was visited for as a holder; the closure computes that
        from the machine's live counter lists, so ``l2.snoop_probes``
        reads are exact at any time. It holds the lists, not the
        machine, so the L2 does not keep the machine alive.
        """
        pid = node.proc_id
        issued = self._fast_issued
        visits = self._fast_holder_visits

        def probe_debt() -> int:
            return sum(issued) - issued[pid] - visits[pid]

        node.l2._probe_debt = probe_debt

    def _build_region_snoop_tables(self) -> None:
        """Derive the tables behind the class-mask region snoops.

        The protocol's response and external-transition tables are
        reshaped to *class* indexing — a class packs (state, line count
        == 0) as ``(state.index << 1) | empty``, the exact pair one
        observer's snoop outcome depends on — and hoisted machine-wide
        alongside the local-transition table and per-pid RCA set lists.
        Runs once, at construction, while every RCA is still empty (so
        the class masks start empty too).
        """
        cgct_nodes = [n for n in self.nodes if n.rca is not None]
        # Region → home controller in closed form (the interleave unit
        # is >= the region size, so the shift never goes negative); the
        # allocation path uses this instead of two method calls and a
        # bounds check that valid regions pass by construction.
        self._region_home_shift = (
            self.address_map._shift
            - self.address_map.geometry.region_offset_bits
        )
        self._region_home_mod = self.address_map.num_controllers
        self._rcas_by_pid = [n.rca for n in self.nodes]
        self._rca_sets_by_pid = [
            n.rca._sets if n.rca is not None else None for n in self.nodes
        ]
        self._rca_set_mask = 0
        self._rca_set_bits = 0
        self._rca_ways = 0
        self._class_info = None
        self._region_local_table = None
        if not cgct_nodes:
            return
        # All RCAs share one organisation; the loop hoists the set
        # index / tag split out of the per-observer visits.
        rca = cgct_nodes[0].rca
        self._rca_set_mask = rca._set_mask
        self._rca_set_bits = rca._set_bits
        self._rca_ways = rca._array.ways
        # One config builds every node's protocol, so their tables are
        # interchangeable and hoisted machine-wide (attaching telemetry
        # swaps in value-equal recording protocols with the same tables).
        protocol = cgct_nodes[0].protocol
        resp_rows = [
            (
                (o1.self_invalidate, o1.response.clean, o1.response.dirty),
                (o0.self_invalidate, o0.response.clean, o0.response.dirty),
            )
            for o1, o0 in protocol._response_table
        ]
        # One class × request table carrying everything the snoop loop
        # needs in a single subscript: the response triple
        # (self_invalidate, clean, dirty) plus the hint-indexed external
        # targets. An external transition never changes the line count,
        # so a class's target keeps its empty bit; targets carry
        # ``(new_class, new_state)`` so the loop can update both the
        # masks and the moved entries. ``None`` marks the tabulated
        # error combinations (re-dispatched to the raising reference
        # implementation).
        ext = protocol._external_table
        self._class_info = [
            [
                (
                    resp_rows[c >> 1][c & 1][0],
                    resp_rows[c >> 1][c & 1][1],
                    resp_rows[c >> 1][c & 1][2],
                    [
                        None if ns is None
                        else ((ns.index << 1) | (c & 1), ns)
                        for ns in req_row
                    ],
                )
                for req_row in ext[c >> 1]
            ]
            for c in range(len(ext) * 2)
        ]
        self._region_local_table = protocol._local_table

    # ------------------------------------------------------------------
    # Accounting views over the flat arrays
    # ------------------------------------------------------------------
    @property
    def request_paths(self) -> Counter:
        """(RequestType, RequestPath) → count; fine-grained diagnostics.

        Built on demand from the flat per-index counters the request
        funnel increments; only pairs that occurred appear, matching the
        key-presence semantics of the Counter the machine used to
        maintain directly (and absent pairs still read as 0).
        """
        counts: Counter = Counter()
        flat = self._request_path_counts
        for request in RequestType:
            base = request.rp_base
            for path in RequestPath:
                n = flat[base + path.index]
                if n:
                    counts[request, path] = n
        return counts

    @property
    def demand_latency(self) -> RunningStat:
        """Demand load/store/ifetch latency beyond the L1."""
        self._fold_latencies()
        return self._demand_latency

    @property
    def path_latency(self) -> Dict[Tuple[RequestType, RequestPath], RunningStat]:
        """(RequestType, RequestPath) → RunningStat of external latency.

        A view over the preallocated per-index table; pairs appear once
        their first latency sample lands, as before.
        """
        self._fold_latencies()
        out: Dict[Tuple[RequestType, RequestPath], RunningStat] = {}
        flat = self._path_latency_stats
        for request in RequestType:
            base = request.rp_base
            for path in RequestPath:
                stat = flat[base + path.index]
                if stat is not None:
                    out[request, path] = stat
        return out

    def _fold_latencies(self) -> None:
        """Fold every buffered latency sample into its RunningStat."""
        samples = self._demand_samples
        if samples:
            self._demand_latency.extend(samples)
            samples.clear()
        stats = self._path_latency_stats
        for index, samples in enumerate(self._path_samples):
            if samples:
                stat = stats[index]
                if stat is None:
                    stat = stats[index] = RunningStat()
                stat.extend(samples)
                samples.clear()

    # ------------------------------------------------------------------
    # Processor-facing operations
    # ------------------------------------------------------------------
    def load(self, proc: int, address: int, now: int) -> int:
        """Demand data load; returns processor stall cycles."""
        if self._l1d_lookups[proc](address):
            self.l1_hits += 1
            if self._tracer is not None:
                self._tracer.l1_hit(proc, "load", address, now)
            return self._l1_hit_cycles
        return self.load_miss(proc, address, now)

    def load_miss(self, proc: int, address: int, now: int) -> int:
        """Load continuation once the L1-D lookup has already missed.

        The run-ahead streak (:meth:`TraceProcessor.run_ahead`) probes the
        L1 inline and calls this directly, so the lookup — with its miss
        counter and LRU touch — happens exactly once either way.
        """
        if self._tracer is not None:
            self._tracer.begin(proc, "load", address, now)
        latency = self._l2_data_access(proc, address, now, False)
        if self._tracer is not None:
            self._tracer.commit(latency)
        return latency

    def store(self, proc: int, address: int, now: int) -> int:
        """Demand store; returns processor stall cycles (partial overlap)."""
        if self._l1d_lookups[proc](address, True):
            self.l1_hits += 1
            if self._tracer is not None:
                self._tracer.l1_hit(proc, "store", address, now)
            return self._l1_hit_cycles
        return self.store_miss(proc, address, now)

    def store_miss(self, proc: int, address: int, now: int) -> int:
        """Store continuation once the L1-D write-lookup has missed
        (absent line, or a SHARED copy that cannot take the write)."""
        if self._tracer is not None:
            self._tracer.begin(proc, "store", address, now)
        latency = self._l2_data_access(proc, address, now, True)
        if self._tracer is not None:
            self._tracer.commit(latency)
        return max(
            self._l1_hit_cycles,
            int(latency * self._store_stall_fraction),
        )

    def ifetch(self, proc: int, address: int, now: int) -> int:
        """Instruction fetch; returns processor stall cycles."""
        if self._l1i_lookups[proc](address):
            self.l1_hits += 1
            if self._tracer is not None:
                self._tracer.l1_hit(proc, "ifetch", address, now)
            return self._l1_hit_cycles
        return self.ifetch_miss(proc, address, now)

    def ifetch_miss(self, proc: int, address: int, now: int) -> int:
        """Instruction-fetch continuation once the L1-I lookup has missed."""
        if self._tracer is not None:
            self._tracer.begin(proc, "ifetch", address, now)
        node = self.nodes[proc]
        entry = node.l2.lookup(address)
        if self._tracer is not None:
            self._tracer.l2(entry is not None, now)
        if entry is not None:
            self.l2_hits += 1
            node.l1i.fill(address, writable=False)
            latency = self._l2_hit_cycles
        else:
            latency = self._l2_hit_cycles + self._external_request(
                proc, RequestType.IFETCH, address, now, fill_l1i=True
            )
        samples = self._demand_samples
        samples.append(latency)
        if len(samples) >= _FOLD_CHUNK:
            self._fold_latencies()
        if self._tel_demand_hist is not None:
            self._tel_demand_hist.observe(latency)
        if self._tracer is not None:
            self._tracer.commit(latency)
        return latency

    def dcbz(self, proc: int, address: int, now: int) -> int:
        """Data Cache Block Zero: allocate a zeroed, modifiable line."""
        if self._tracer is not None:
            self._tracer.begin(proc, "dcbz", address, now, l1=False)
        node = self.nodes[proc]
        entry = node.l2.lookup(address)
        if self._tracer is not None:
            self._tracer.l2(entry is not None, now)
        external = 0
        if entry is not None and entry.state.can_silently_modify:
            node.l2.set_state(address >> self._line_shift, LineState.MODIFIED)
            node.l1d.fill(address, writable=True)
            self.l2_hits += 1
        else:
            external = self._external_request(
                proc, RequestType.DCBZ, address, now, fill_l1d=True, l1_writable=True
            )
        latency = self._l2_hit_cycles + external
        if self._tracer is not None:
            self._tracer.commit(latency)
        return max(
            self._l1_hit_cycles,
            int(latency * self._store_stall_fraction),
        )

    def dcbf(self, proc: int, address: int, now: int) -> int:
        """Data Cache Block Flush: push dirty data to memory everywhere."""
        return self._dcb_kill(proc, RequestType.DCBF, address, now)

    def dcbi(self, proc: int, address: int, now: int) -> int:
        """Data Cache Block Invalidate: discard all cached copies."""
        return self._dcb_kill(proc, RequestType.DCBI, address, now)

    def _dcb_kill(
        self, proc: int, request: RequestType, address: int, now: int
    ) -> int:
        if self._tracer is not None:
            self._tracer.begin(proc, request.value, address, now, l1=False)
        node = self.nodes[proc]
        line = address >> self._line_shift
        local = node.l2.peek(line)
        if local is not None:
            dirty = local.state.is_dirty
            node.l2.invalidate(line)
            node.l1d.back_invalidate(line)
            node.l1i.back_invalidate(line)
            if dirty and request is RequestType.DCBF:
                self._emit_writeback(
                    proc, node.route_writeback_for_line(line), now
                )
        latency = self._l2_hit_cycles + self._external_request(
            proc, request, address, now)
        if self._tracer is not None:
            self._tracer.commit(latency)
        return max(
            self._l1_hit_cycles,
            int(latency * self._store_stall_fraction),
        )

    # ------------------------------------------------------------------
    # L2 ∥ RCA data path
    # ------------------------------------------------------------------
    def _l2_data_access(
        self, proc: int, address: int, now: int, is_store: bool
    ) -> int:
        """Data access below the L1; records and returns the full demand
        latency."""
        node = self.nodes[proc]
        line = address >> self._line_shift
        entry = node.l2.lookup(address)
        if self._tracer is not None:
            self._tracer.l2(entry is not None, now)
        was_miss = entry is None
        external = 0
        if entry is not None:
            self.l2_hits += 1
            if not is_store:
                node.l1d.fill(address, writable=False)
            elif entry.state.can_silently_modify:
                node.l2.set_state(line, LineState.MODIFIED)
                node.l1d.fill(address, writable=True)
            else:
                # SHARED/OWNED copy: upgrade (invalidate other copies).
                external = self._external_request(
                    proc, RequestType.UPGRADE, address, now
                )
                node.l1d.fill(address, writable=True)
        else:
            external = self._external_request(
                proc,
                RequestType.RFO if is_store else RequestType.READ,
                address,
                now,
                fill_l1d=True,
                l1_writable=is_store,
            )
        self._run_prefetcher(proc, line, is_store, was_miss, now)
        latency = self._l2_hit_cycles + external
        samples = self._demand_samples
        samples.append(latency)
        if len(samples) >= _FOLD_CHUNK:
            self._fold_latencies()
        if self._tel_demand_hist is not None:
            self._tel_demand_hist.observe(latency)
        return latency

    def _run_prefetcher(
        self, proc: int, line: int, is_store: bool, was_miss: bool, now: int
    ) -> None:
        node = self.nodes[proc]
        if node.prefetcher is None:
            return
        candidates = node.prefetcher.observe_access(line, is_store, was_miss)
        if not candidates:
            return
        holders = self._line_holders
        offset_bits = self._line_shift
        max_address = self.geometry._max_address  # Geometry.contains
        rca = node.rca
        filtered = self._prefetch_region_filter and rca is not None
        for cline, exclusive in candidates:
            if (holders.get(cline, 0) >> proc) & 1:
                continue  # already resident in this node's L2
            address = cline << offset_bits
            if not 0 <= address < max_address:
                continue
            if filtered:
                # Section 6: externally-dirty regions make poor prefetch
                # targets — the data is probably in another cache and
                # would be stolen back.
                cregion = cline >> self._line_region_shift
                entry = rca._sets[cregion & rca._set_mask].get(
                    cregion >> rca._set_bits)
                if entry is not None and entry.state.is_externally_dirty:
                    self.prefetches_filtered += 1
                    continue
            request = (
                RequestType.PREFETCH_EX if exclusive else RequestType.PREFETCH
            )
            # Prefetches are non-blocking: effects and resource occupancy
            # are applied, the latency is not charged to the processor.
            self._external_request(proc, request, address, now)

    # ------------------------------------------------------------------
    # External requests
    # ------------------------------------------------------------------
    def _external_request(
        self,
        proc: int,
        request: RequestType,
        address: int,
        now: int,
        fill_l1d: bool = False,
        fill_l1i: bool = False,
        l1_writable: bool = False,
    ) -> int:
        """Route one external request; apply all coherence effects.

        Returns the external latency (beyond the L2 access the caller
        already charged). A small uniform jitter is added to external
        requests (Alameldeen-style perturbation) so repeated runs with
        different seeds explore different timing interleavings; the
        jitter is charged as latency.
        """
        jitter = 0
        magnitude = self._perturb_magnitude
        if magnitude:
            # Same stream as self._perturb.randint(0, magnitude): CPython
            # randint(0, m) bottoms out in _randbelow(m + 1).
            randbelow = self._randbelow
            jitter = (
                randbelow(magnitude + 1)
                if randbelow is not None
                else self._perturb.randint(0, magnitude)
            )
            now += jitter
        node = self.nodes[proc]
        category = request.category_index
        region = address >> self._region_shift

        entry = None
        state = RegionState.INVALID
        sets = self._rca_sets_by_pid[proc]
        if sets is not None:
            # Inlined RegionCoherenceArray.lookup — one pop/reinsert pair
            # on the set dict plus the hit/miss counters, without the
            # method call. Per-op on the routing path.
            entries = sets[region & self._rca_set_mask]
            tag = region >> self._rca_set_bits
            entry = entries.pop(tag, None)
            if entry is None:
                self._rcas_by_pid[proc].misses += 1
            else:
                entries[tag] = entry  # reinsertion makes it MRU
                self._rcas_by_pid[proc].hits += 1
                state = entry.state
        if self._tracer is not None and sets is not None:
            self._tracer.rca(request, region, entry is not None, state, now)

        if state.completes_without[request.index]:
            return self._no_request(proc, request, address, now, fill_l1d,
                                    fill_l1i, l1_writable, entry)

        if sets is not None and not state.broadcast_needed[request.index]:
            latency = self._direct_request(proc, request, address, entry, now)
            self.stats.directs._counts[category] += 1
            path = RequestPath.DIRECT
            self._apply_local_fill(
                proc, request, address,
                request.fill_states[not state.is_exclusive],
                None, fill_l1d, fill_l1i, l1_writable, now, entry,
            )
        elif (
            # RegionScout alternative (Section 2): an NSRT hit proves no
            # other node caches lines of the region — route like a CGCT
            # exclusive.
            node.regionscout is not None
            and request is not RequestType.WRITEBACK
            and node.regionscout.nsrt.contains(region)
        ):
            if request in (RequestType.UPGRADE, RequestType.DCBZ,
                           RequestType.DCBF, RequestType.DCBI):
                return self._no_request(proc, request, address, now,
                                        fill_l1d, fill_l1i, l1_writable, None)
            latency = self._direct_request(proc, request, address, None, now)
            self.stats.directs._counts[category] += 1
            path = RequestPath.DIRECT
            self._apply_local_fill(
                proc, request, address,
                request.fill_states[0],
                None, fill_l1d, fill_l1i, l1_writable, now,
            )
        else:
            # Owner-prediction extension (Section 6): a read into an
            # externally-dirty region first probes the predicted owner
            # point-to-point; on a hit the broadcast is skipped entirely.
            latency = None
            probe_penalty = 0
            if (
                self._owner_hints_on
                and entry is not None
                and state.is_externally_dirty
                and entry.owner_hint is not None
                and entry.owner_hint != proc
                and request in (RequestType.READ, RequestType.IFETCH,
                                RequestType.PREFETCH)
            ):
                predicted_owner = entry.owner_hint
                latency = self._targeted_request(
                    proc, request, address, entry, now,
                    fill_l1d=fill_l1d, fill_l1i=fill_l1i,
                    l1_writable=l1_writable,
                )
                path = RequestPath.TARGETED
                if latency is None:
                    # Wrong prediction: pay the probe's round trip, then
                    # broadcast.
                    probe_penalty = 2 * self._direct_to_proc[proc][
                        predicted_owner]
            if latency is None:
                latency = self._broadcast_request(
                    proc, request, address, now + probe_penalty,
                    fill_l1d, fill_l1i, l1_writable, state, entry,
                ) + probe_penalty
                path = RequestPath.BROADCAST

        index = request.rp_base + path.index
        self._request_path_counts[index] += 1
        samples = self._path_samples[index]
        samples.append(latency)
        if len(samples) >= _FOLD_CHUNK:
            self._fold_latencies()
        if self._log_enabled:
            self._log_event(now, proc, request, path, address, latency)
        if self._tracer is not None:
            self._tracer.route(request, path, address, latency, now)
        return latency + jitter

    def _no_request(
        self,
        proc: int,
        request: RequestType,
        address: int,
        now: int,
        fill_l1d: bool,
        fill_l1i: bool,
        l1_writable: bool,
        entry,
    ) -> int:
        """Complete a request that needs no external message (latency 0)."""
        self.stats.no_requests._counts[request.category_index] += 1
        self._request_path_counts[request.rp_base + _NO_REQUEST_I] += 1
        self._apply_local_fill(
            proc, request, address,
            request.fill_states[0],
            None, fill_l1d, fill_l1i, l1_writable, now, entry,
        )
        if self._log_enabled:
            self._log_event(now, proc, request, RequestPath.NO_REQUEST,
                            address, 0)
        if self._tracer is not None:
            self._tracer.route(request, RequestPath.NO_REQUEST, address,
                               0, now)
        return 0

    def _direct_request(
        self,
        proc: int,
        request: RequestType,
        address: int,
        entry,
        now: int,
    ) -> int:
        """Send a request straight to the home memory controller."""
        home = entry.home_mc if entry is not None else self.address_map.home_of(address)
        controller = self.controllers[home]
        arrive = now + self._direct_to_mc[proc][home]
        if request is RequestType.WRITEBACK:
            controller.write_back(self.network.acquire_controller_link(home, arrive))
            return 0  # castouts never stall the processor
        if not request.wants_data:
            return 0
        ready = controller.access_direct(arrive)
        start = self.network.acquire_processor_link(proc, ready)
        done = start + self._transfer_to_mc[proc][home]
        if self._tracer is not None:
            self._tracer.data("dram", arrive, ready, start, done, home, False)
        return done - now

    def _broadcast_request(
        self,
        proc: int,
        request: RequestType,
        address: int,
        now: int,
        fill_l1d: bool = False,
        fill_l1i: bool = False,
        l1_writable: bool = False,
        requestor_region_state: RegionState = RegionState.INVALID,
        requestor_region_entry=None,
    ) -> int:
        """The conventional snooping path, plus region-response handling.

        ``requestor_region_state`` / ``requestor_region_entry`` are the
        requestor's own RCA state and entry for the address's region,
        already looked up by the caller (nothing between that lookup and
        this call can touch the requestor's RCA, so re-probing would read
        the same entry).
        """
        node = self.nodes[proc]
        line = address >> self._line_shift
        region = address >> self._region_shift
        category = request.category_index

        grant = self.bus.broadcast(now)
        self.queue_cycles += grant - now
        snoop_done = grant + self._snoop_cycles

        # Who cached the line *before* any snoop mutates L2 state. The
        # maintained holder bitmask answers in O(1) what used to be a
        # dict comprehension probing every remote L2 per broadcast.
        holders_before = self._line_holders.get(line, 0)

        responses = []
        remote_region_free = True
        if self._bitmask_snoop:
            # Visit only the actual holders, in ascending processor
            # order (the per-peer loop's combine order). A non-holder
            # contributes nothing to the combine and its tag probe is
            # reconstructed later from these two counters, so results
            # and statistics stay bit-identical to probing every peer.
            self._fast_issued[proc] += 1
            visits = self._fast_holder_visits
            nodes = self.nodes
            mask = holders_before & ~(1 << proc)
            while mask:
                low = mask & -mask
                mask ^= low
                pid = low.bit_length() - 1
                visits[pid] += 1
                response, wrote_back = nodes[pid].snoop_line(line, request)
                responses.append((pid, response))
                if wrote_back:
                    home = self.address_map.home_of(address)
                    self.controllers[home].write_back(snoop_done)
        else:
            # RegionScout/Jetty machines probe every peer. RegionScout
            # nodes first consult their CRH — a zero count proves
            # non-residence, skipping the tag probe entirely (the
            # Jetty-style filtering benefit) — and drop any NSRT claim
            # on the region another node is touching.
            for other in self.nodes:
                if other.proc_id == proc:
                    continue
                if other.regionscout is not None:
                    other.regionscout.nsrt.invalidate(region)
                    if not other.regionscout.crh.may_cache_region(region):
                        other.regionscout.tag_probes_filtered += 1
                        responses.append((other.proc_id, EMPTY_LINE_RESPONSE))
                        continue
                    remote_region_free = False
                # Jetty (Section 2): a counting-Bloom proof of absence
                # lets the node answer the snoop without touching its tags.
                if other.jetty is not None and not other.jetty.may_cache_line(line):
                    responses.append((other.proc_id, EMPTY_LINE_RESPONSE))
                    continue
                response, wrote_back = other.snoop_line(line, request)
                responses.append((other.proc_id, response))
                if wrote_back:
                    home = self.address_map.home_of(address)
                    self.controllers[home].write_back(snoop_done)
        combined = combine_line_responses(responses)

        # RegionScout: a broadcast that found the region in no remote CRH
        # records it as globally non-shared.
        if (
            node.regionscout is not None
            and remote_region_free
            and request is not RequestType.WRITEBACK
        ):
            node.regionscout.nsrt.record(region)

        # Oracle classification (Figure 2): could this broadcast have been
        # skipped? Write-backs never need other processors; instruction
        # fetches need a broadcast only when a remote cache owns a dirty
        # copy (otherwise memory's copy is good); everything else (data
        # reads/writes, prefetches, upgrades, DCB ops) is unnecessary
        # exactly when no remote cache holds a copy.
        if request is RequestType.WRITEBACK:
            unnecessary = True
        elif request is RequestType.IFETCH:
            unnecessary = not combined.owned
        else:
            unnecessary = not combined.shared
        if unnecessary:
            self.stats.unnecessary_broadcasts._counts[category] += 1
        self.stats.broadcasts._counts[category] += 1
        if self._tracer is not None:
            self._tracer.snoop1(now, grant, snoop_done, holders_before,
                                combined, unnecessary)

        # Phase 2: region snoops (CGCT only). Only nodes whose RCA
        # tracks the region are visited: an untracked observer's
        # snoop_region is side-effect-free and returns the all-zeros
        # response — the OR identity — so skipping it is exact.
        region_response: Optional[RegionSnoopResponse] = None
        if node.rca is not None:
            remote_trackers = self._region_trackers.get(region, 0) & ~(1 << proc)
            if remote_trackers:
                region_response = self._snoop_regions(
                    proc, request, region, remote_trackers, holders_before,
                    combined,
                )
                if not self._two_bit:
                    region_response = region_response.collapsed()
            else:
                # No remote RCA tracks the region: the combine of zero
                # responses, collapsed or not, is the all-zeros response.
                region_response = NO_COPIES
            if self._tracer is not None:
                self._tracer.snoop2(grant, snoop_done, region,
                                    remote_trackers, region_response)

        # Latency: supplier cache, memory, or address-only.
        latency = self._broadcast_latency(
            proc, request, address, now, grant, snoop_done, combined,
            requestor_region_state,
        )

        # Section 6: piggyback a region-state prefetch for the adjacent
        # region onto this broadcast.
        if node.rca is not None and self._region_state_prefetch:
            self._prefetch_region_state(node, region + 1)

        # Local effects.
        self._apply_local_fill(
            proc, request, address, request.fill_states[combined.shared],
            region_response, fill_l1d, fill_l1i, l1_writable, now,
            requestor_region_entry,
        )
        # Remember who owned the region's dirty data (owner prediction).
        # Advisory and unread unless the Section 6 extension is on.
        if (
            self._owner_hints_on
            and node.rca is not None
            and combined.owned
            and combined.supplier is not None
        ):
            updated = node.rca.probe(region)
            if updated is not None:
                updated.owner_hint = combined.supplier
        return latency

    def _snoop_regions(
        self,
        proc: int,
        request: RequestType,
        region: int,
        remote_trackers: int,
        holders_before: int,
        combined: SnoopResult,
    ) -> RegionSnoopResponse:
        """Phase 2 of a broadcast: snoop every remote tracker's RCA.

        Iterates the region's *state classes*, not its observers. The
        class masks partition the trackers by (state, empty) —
        everything one observer's snoop outcome depends on — so the
        response bits, the self-invalidation set and every state
        transition fall out of integer operations on the handful of
        present classes. Entry objects are touched only for observers
        whose state actually changes (or that self-invalidate, which
        runs the real invalidate path and its hooks); skipping an
        identity observer is exact because it has no effects at all.
        The effects are :meth:`ProcessorNode.snoop_region`'s for every
        tracker, batched by class — including, with telemetry attached,
        the recorded transitions, counted once per class group. Returns
        the combined response, not yet collapsed to one bit.
        """
        # Exclusivity hints as dense ints (None→0, True→1, False→2) for
        # holders / non-holders of the line: whether a read-like
        # requestor fills exclusive, as far as each observer can know
        # (Section 3.1: known when the combined line response is
        # visible, or when the observer itself caches the line).
        if request is RequestType.READ or request is RequestType.PREFETCH:
            if self._line_resp_visible:
                hint_h = hint_n = 2 if combined.shared else 1
            else:
                hint_h = 2
                hint_n = 0
        elif request is RequestType.IFETCH:
            hint_h = 2
            hint_n = 2 if self._line_resp_visible else 0
        else:
            hint_h = hint_n = 0
        req_i = request.index
        wants_mod_hints = request.wants_modifiable and self._owner_hints_on
        record = self._transitions
        if record is not None:
            record = record.record
            event = f"external.{request.value}"
        cls = self._region_classes[region]
        info = self._class_info
        any_clean = any_dirty = False
        moves = None
        inv = 0
        hint_pids = 0
        # Self-invalidations are deferred into ``inv``: each observer's
        # invalidate is independent of every other observer's effect, so
        # running them after the scan is exact — and lets the scan
        # iterate the class dict without copying it (the invalidate
        # hooks mutate it).
        for c, full in cls.items():
            m = full & remote_trackers
            if not m:
                continue
            self_inv, clean, dirty, row = info[c][req_i]
            if clean:
                any_clean = True
            if dirty:
                any_dirty = True
            if self_inv:
                inv |= m
                if record is not None:
                    record(_REGION_STATES[c >> 1], "self_invalidate",
                           RegionState.INVALID, m.bit_count())
                continue
            if hint_h == hint_n:
                tgt = row[hint_h]
                if tgt is None:  # tabulated error path: raises
                    self._region_snoop_errors(
                        m, region, request, (None, True, False)[hint_h])
                elif tgt[0] != c:
                    if moves is None:
                        moves = []
                    moves.append((c, m, tgt))
                if record is not None:
                    record(_REGION_STATES[c >> 1], event, tgt[1],
                           m.bit_count())
            else:
                mh = m & holders_before
                mn = m ^ mh
                if mh:
                    tgt = row[hint_h]
                    if tgt is None:
                        self._region_snoop_errors(
                            mh, region, request, (None, True, False)[hint_h])
                    elif tgt[0] != c:
                        if moves is None:
                            moves = []
                        moves.append((c, mh, tgt))
                    if record is not None:
                        record(_REGION_STATES[c >> 1], event, tgt[1],
                               mh.bit_count())
                if mn:
                    tgt = row[hint_n]
                    if tgt is None:
                        self._region_snoop_errors(
                            mn, region, request, (None, True, False)[hint_n])
                    elif tgt[0] != c:
                        if moves is None:
                            moves = []
                        moves.append((c, mn, tgt))
                    if record is not None:
                        record(_REGION_STATES[c >> 1], event, tgt[1],
                               mn.bit_count())
            if wants_mod_hints:
                hint_pids |= m
        if inv:
            rcas = self._rcas_by_pid
            while inv:
                low = inv & -inv
                inv ^= low
                rcas[low.bit_length() - 1].invalidate(region)
        if moves is not None or hint_pids:
            sets_by_pid = self._rca_sets_by_pid
            set_i = region & self._rca_set_mask
            tag = region >> self._rca_set_bits
            if moves is not None:
                for c, bits, (tc, new_state) in moves:
                    left = cls[c] & ~bits
                    if left:
                        cls[c] = left
                    else:
                        del cls[c]
                    cls[tc] = cls.get(tc, 0) | bits
                    while bits:
                        low = bits & -bits
                        bits ^= low
                        sets_by_pid[low.bit_length() - 1][
                            set_i][tag].state = new_state
            while hint_pids:
                low = hint_pids & -hint_pids
                hint_pids ^= low
                sets_by_pid[low.bit_length() - 1][
                    set_i][tag].owner_hint = proc
        if any_dirty:
            return CLEAN_AND_DIRTY_COPIES if any_clean else DIRTY_COPIES
        return CLEAN_COPIES if any_clean else NO_COPIES

    def _region_snoop_errors(
        self, bits: int, region: int, request: RequestType, hint
    ) -> None:
        """Re-run tabulated-error observers through the raising reference.

        The class-indexed external table stores ``None`` where the
        protocol's reference implementation raises; dispatching the
        affected observers back through it reproduces the exact
        :class:`ProtocolError` a per-entry walk would have raised.
        """
        set_i = region & self._rca_set_mask
        tag = region >> self._rca_set_bits
        while bits:
            low = bits & -bits
            bits ^= low
            pid = low.bit_length() - 1
            entry = self._rca_sets_by_pid[pid][set_i][tag]
            self.nodes[pid].protocol.after_external_request(
                entry.state, request, hint
            )

    def _move_region_class(
        self, region: int, bit: int, old: int, new: int
    ) -> None:
        """Move one processor's bit between two of a region's class masks."""
        cls = self._region_classes[region]
        left = cls[old] & ~bit
        if left:
            cls[old] = left
        else:
            del cls[old]
        cls[new] = cls.get(new, 0) | bit

    def _snoop_region_of(
        self,
        node: ProcessorNode,
        region: int,
        request: RequestType,
        hint: Optional[bool],
        requestor: Optional[int] = None,
    ) -> RegionSnoopResponse:
        """One observer's region snoop, outside the class-mask loop.

        Runs :meth:`ProcessorNode.snoop_region` and mirrors a state
        change into the region's class masks (a self-invalidation cleans
        up through the untracked hook on its own; the line count, and so
        the empty bit, never changes on a snoop).
        """
        rca = node.rca
        entry = rca.probe(region) if rca is not None else None
        if entry is None:
            return NO_COPIES  # untracked: no effects, the OR identity
        before = (entry.state.index << 1) | (1 if entry.line_count == 0 else 0)
        response = node.snoop_region(region, request, hint, requestor=requestor)
        if rca.probe(region) is entry:
            after = (entry.state.index << 1) | (before & 1)
            if after != before:
                self._move_region_class(
                    region, 1 << node.proc_id, before, after
                )
        return response

    def _targeted_request(
        self,
        proc: int,
        request: RequestType,
        address: int,
        entry,
        now: int,
        fill_l1d: bool = False,
        fill_l1i: bool = False,
        l1_writable: bool = False,
    ) -> Optional[int]:
        """Probe the predicted owner point-to-point (Section 6 extension).

        Only non-invalidating reads are eligible (invalidating requests
        must reach every cache). A hit sources the data cache-to-cache
        without a broadcast and returns its latency (the caller records
        the TARGETED path); a miss clears the hint and returns ``None``
        so the caller falls back to the conventional path. Either way the
        probe's line snoop is an ordinary coherent snoop — a wrong probe
        may demote the target's copy, which is conservative, not wrong.
        """
        owner = entry.owner_hint
        target = self.nodes[owner]
        line = address >> self._line_shift
        region = address >> self._region_shift
        response, _wrote_back = target.snoop_line(line, request)
        if not response.supplied:
            self.targeted_misses += 1
            entry.owner_hint = None
            return None
        self.targeted_hits += 1
        self.c2c_transfers += 1
        self._snoop_region_of(target, region, request, False, requestor=proc)
        latency = (
            self._direct_to_proc[proc][owner]
            + self._cache_access_cycles
            + self._transfer_to_proc[proc][owner]
        )
        self.stats.directs._counts[request.category_index] += 1
        self._apply_local_fill(
            proc, request, address,
            request.fill_states[1],
            None, fill_l1d, fill_l1i, l1_writable, now, entry,
        )
        return latency

    def _broadcast_latency(
        self,
        proc: int,
        request: RequestType,
        address: int,
        now: int,
        grant: int,
        snoop_done: int,
        combined: SnoopResult,
        requestor_region_state: RegionState = RegionState.INVALID,
    ) -> int:
        if request is RequestType.WRITEBACK:
            home = self.address_map.home_of(address)
            self.controllers[home].write_back(snoop_done)
            return 0
        if not request.wants_data:
            return snoop_done - now

        # The Fireplane baseline launches DRAM speculatively, overlapped
        # with the snoop. The Section 6 extension consults the region
        # state first: an externally-dirty region predicts a cache will
        # supply, so DRAM is not started (saving the access), at the cost
        # of a full serial DRAM latency when the prediction is wrong.
        speculate = True
        if (
            self._dram_speculation_filter
            and requestor_region_state.is_externally_dirty
        ):
            speculate = False
        if speculate:
            self.dram_speculative_started += 1

        if combined.supplier is not None:
            self.c2c_transfers += 1
            if speculate:
                self.dram_speculative_wasted += 1
            else:
                self.dram_speculation_avoided += 1
            ready = snoop_done + self._cache_access_cycles
            start = self.network.acquire_processor_link(proc, ready)
            done = start + self._transfer_to_proc[proc][combined.supplier]
            if self._tracer is not None:
                self._tracer.data("cache", snoop_done, ready, start, done,
                                  combined.supplier, speculate)
            return done - now
        home = self.address_map.home_of(address)
        if speculate:
            ready = self.controllers[home].access_snooped(snoop_done)
        else:
            self.dram_speculation_late += 1
            ready = self.controllers[home].access_direct(snoop_done)
        start = self.network.acquire_processor_link(proc, ready)
        done = start + self._transfer_to_mc[proc][home]
        if self._tracer is not None:
            self._tracer.data("dram", snoop_done, ready, start, done, home,
                              speculate)
        return done - now

    def _prefetch_region_state(self, node, region: int) -> None:
        """Allocate a free-way region entry from a piggybacked snoop.

        The piggybacked snoop is a *real* region acquisition: every other
        node downgrades (a future reader may appear) or self-invalidates
        an empty entry, exactly as for a demand broadcast. A non-mutating
        probe would let two processors prefetch the same region as
        CLEAN_INVALID simultaneously and later both take silently
        modifiable copies — a single-owner violation.
        """
        base = region << self.geometry.region_offset_bits
        if not self.geometry.contains(base):
            return
        if node.rca.probe(region) is not None:
            return
        if node.rca.victim_for(region) is not None:
            return  # never evict real state for a prefetch
        combined = combine_region_responses([
            self._snoop_region_of(other, region, RequestType.PREFETCH, False)
            for other in self.nodes
            if other.proc_id != node.proc_id
        ])
        if not self.config.two_bit_response:
            combined = combined.collapsed()
        state = RegionState.from_parts(LocalPart.CLEAN, combined.external_part)
        if node.protocol.transitions is not None:
            node.protocol.transitions.record(
                RegionState.INVALID, "region_prefetch", state
            )
        node.rca.insert(region, state, self.address_map.home_of_region(region))
        self.region_prefetches += 1

    # ------------------------------------------------------------------
    # Local fills and region-state maintenance
    # ------------------------------------------------------------------
    def _apply_local_fill(
        self,
        proc: int,
        request: RequestType,
        address: int,
        fill_state: LineState,
        region_response: Optional[RegionSnoopResponse],
        fill_l1d: bool,
        fill_l1i: bool,
        l1_writable: bool,
        now: int,
        region_entry=None,
    ) -> None:
        """Install the line locally and update the requestor's region state.

        ``region_entry`` is the requestor's RCA entry for the address's
        region as looked up at routing time (``None`` when untracked);
        nothing on any routing path touches the requestor's RCA between
        that lookup and this call, so it is used as-is instead of
        re-probing.
        """
        node = self.nodes[proc]
        line = address >> self._line_shift
        region = address >> self._region_shift

        # Region state first: inclusion requires the entry to exist before
        # the L2 fill's allocation callback fires.
        rca = node.rca
        if rca is not None and request is not RequestType.WRITEBACK:
            entry = region_entry
            current = entry.state if entry is not None else RegionState.INVALID
            # Flat-table twin of protocol.after_local_request, which
            # still runs for the tabulated error path (it raises) and
            # while telemetry is attached (it records the transition).
            new_state = self._region_local_table[current.index][
                request.index][fill_state.index][
                0 if region_response is None
                else 1 + region_response.clean + 2 * region_response.dirty]
            if new_state is None or self._transitions is not None:
                new_state = node.protocol.after_local_request(
                    current, request, fill_state, region_response
                )
            if entry is not None:
                if new_state is not current:
                    empty = 1 if entry.line_count == 0 else 0
                    self._move_region_class(
                        region, 1 << proc,
                        (current.index << 1) | empty,
                        (new_state.index << 1) | empty,
                    )
                    entry.state = new_state
            elif new_state.is_valid and request.allocates_line:
                home = (region >> self._region_home_shift) % self._region_home_mod
                # Fused allocation: with a free way (the common case by
                # far — region evictions are rare) the insert is one dict
                # store, with the stats bump and the on_region_tracked
                # effects (tracker bit + class mask, for a fresh entry:
                # line_count 0, so the empty variant of the state's
                # class) applied inline. A full set takes the canonical
                # two-step eviction conversation.
                entries = self._rca_sets_by_pid[proc][
                    region & self._rca_set_mask]
                if len(entries) < self._rca_ways:
                    entries[region >> self._rca_set_bits] = RegionEntry(
                        region, new_state, home
                    )
                    rca.allocations += 1
                    pid_bit = 1 << proc
                    trackers = self._region_trackers
                    trackers[region] = trackers.get(region, 0) | pid_bit
                    classes = self._region_classes
                    cls = classes.get(region)
                    if cls is None:
                        cls = classes[region] = {}
                    c = (new_state.index << 1) | 1
                    cls[c] = cls.get(c, 0) | pid_bit
                else:
                    _entry, writebacks = node.allocate_region(
                        region, new_state, home
                    )
                    for writeback in writebacks:
                        self._emit_writeback(proc, writeback, now)

        if request is RequestType.UPGRADE:
            node.l2.set_state(line, LineState.MODIFIED)
            if fill_l1d or node.l1d.state_of(address).is_valid:
                node.l1d.upgrade(address)
            return
        if not request.allocates_line:
            return
        # Install the line: the L2 fill (whose removal/allocation hooks
        # keep the RCA counts and presence masks), the victim's L1
        # back-invalidations (inclusion) and castout routing, then the
        # L1 fills; the castout leaves last. The caller allocated the
        # region entry above, so the allocation hook finds it.
        castout = None
        victim = node.l2.fill(address, fill_state)
        if victim is not None:
            victim_line = victim.line
            node.l1d.back_invalidate(victim_line)
            node.l1i.back_invalidate(victim_line)
            if victim.state.is_dirty:
                castout = node.route_writeback_for_line(victim_line)
        if fill_l1d:
            node.l1d.fill(address, l1_writable)
        if fill_l1i:
            node.l1i.fill(address, False)
        if self._tracer is not None:
            self._tracer.fill(now, fill_state.name,
                              0 if castout is None else 1)
        if castout is not None:
            self._emit_writeback(proc, castout, now)

    def _emit_writeback(
        self, proc: int, writeback: PendingWriteback, now: int
    ) -> None:
        """Send a castout to memory: direct when routable, else broadcast."""
        address = writeback.line << self.geometry.line_offset_bits
        if writeback.home_mc is not None:
            arrive = now + self._direct_to_mc[proc][writeback.home_mc]
            start = self.network.acquire_controller_link(writeback.home_mc, arrive)
            self.controllers[writeback.home_mc].write_back(start)
            self.stats.directs._counts[_WRITEBACK_C] += 1
            if self._tel_wb_direct is not None:
                self._tel_wb_direct.inc()
            if self._tracer is not None:
                self._tracer.writeback(True, now)
            return
        grant = self.bus.broadcast(now)
        snoop_done = grant + self._snoop_cycles
        home = self.address_map.home_of(address)
        start = self.network.acquire_controller_link(home, snoop_done)
        self.controllers[home].write_back(start)
        self.stats.broadcasts._counts[_WRITEBACK_C] += 1
        self.stats.unnecessary_broadcasts._counts[_WRITEBACK_C] += 1
        if self._tel_wb_broadcast is not None:
            self._tel_wb_broadcast.inc()
        if self._tracer is not None:
            self._tracer.writeback(False, now)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer) -> None:
        """Attach a causal span tracer (pass ``None`` to detach).

        *tracer* is a :class:`repro.obs.simtrace.SimTracer` (or anything
        with the same hook methods). The machine calls it at each stage
        of every memory access — lookups, RCA routing decision, bus
        grant, phase-1/phase-2 snoops, DRAM, data transfer, fill,
        castouts — with the cycle timestamps it already computed; the
        tracer only observes, so simulated results are bit-identical
        with or without it (the equivalence tests assert this). A
        detached machine pays one ``is None`` check per site, like the
        event funnel and telemetry.
        """
        self._tracer = tracer
        if tracer is not None:
            tracer.bind(self)

    def attach_event_log(self, log) -> None:
        """Record every resolved external request into *log*.

        Pass an :class:`repro.system.eventlog.EventLog`; pass ``None``
        to detach. With telemetry attached, the same stream also reaches
        every registered event sink (``registry.add_event_sink``); a log
        registered both ways receives each event once.
        """
        self.event_log = log
        self._log_enabled = log is not None or self.telemetry is not None
        self._refresh_log_funnel()

    def _refresh_log_funnel(self) -> None:
        """Install or clear the fast per-instance event funnel.

        A sink exposing a ``funnel(now, proc, request, path, address,
        latency)`` callable (the call-site argument order) gets wired
        straight into the request funnel as an instance-level
        ``_log_event`` shadow — one bound call per event instead of the
        generic method's log/telemetry dispatch. Only possible while no
        telemetry registry needs the same stream.
        """
        fast = getattr(self.event_log, "funnel", None)
        if fast is not None and self.telemetry is None:
            self._log_event = fast
        else:
            self.__dict__.pop("_log_event", None)

    def attach_telemetry(self, registry) -> None:
        """Instrument the whole machine with a telemetry registry.

        Wires up, across every layer:

        * per-processor request-mix and per-path counters plus per-path
          latency histograms, fed from the external-request funnel
          (:meth:`_log_event`);
        * the RCA region-state transition matrix (``rca.transitions``),
          recorded by the region protocol, region snoops, evictions and
          region-state prefetches;
        * region eviction churn (``rca.eviction_line_count`` histogram
          and per-array probes);
        * bus and data-network occupancy (probes + queue-delay
          histogram);
        * per-cache hit/miss/eviction probes;
        * interval probes over the Figure 2/7/10 aggregate counters, so
          their interval series reconcile exactly with end-of-run stats;
        * end-of-run gauges (bus utilisation, RCA mean line count,
          demand latency mean), set when the registry finalises.

        Pass ``None`` to detach. A machine without telemetry pays one
        ``is None`` check per instrumented site, like the event log.
        """
        self.telemetry = registry
        self._log_enabled = registry is not None or self.event_log is not None
        self._refresh_log_funnel()
        self._tel_event_metrics = {}
        if registry is None:
            self._tel_demand_hist = None
            self._tel_wb_direct = None
            self._tel_wb_broadcast = None
            self.bus._telemetry_queue_delay = None
            for node in self.nodes:
                node.protocol = dataclasses.replace(
                    node.protocol, transitions=None
                )
                if node.rca is not None:
                    node.rca._telemetry_eviction_hist = None
            self._transitions = None
            return

        self._tel_demand_hist = registry.histogram(
            "machine.latency.demand",
            help="demand load/store/ifetch latency beyond the L1",
        )
        self._tel_wb_direct = registry.counter(
            "machine.writebacks.direct",
            help="castouts routed point-to-point via the region's home MC",
        )
        self._tel_wb_broadcast = registry.counter(
            "machine.writebacks.broadcast",
            help="castouts broadcast for lack of routing information",
        )
        self.bus.attach_telemetry(registry)
        self.network.attach_telemetry(registry)
        transitions = registry.transition_matrix(
            "rca.transitions",
            help="region-state transitions: (from, event, to) coverage",
        )
        for node in self.nodes:
            node.protocol = dataclasses.replace(
                node.protocol, transitions=transitions
            )
            node.l1i.attach_telemetry(registry)
            node.l1d.attach_telemetry(registry)
            node.l2.attach_telemetry(registry)
            if node.rca is not None:
                node.rca.attach_telemetry(registry)
        self._transitions = transitions

        # Figure 2/7/10 aggregates as interval probes: each series records
        # the per-window delta of its cumulative source, so series totals
        # reconcile exactly with the end-of-run statistics.
        registry.add_probe(
            "stats.external_requests", lambda: self.stats.total_external,
            help="external requests per interval, however routed",
        )
        registry.add_probe(
            "stats.broadcasts", lambda: self.stats.total_broadcasts,
            help="external requests that went over the address bus",
        )
        registry.add_probe(
            "stats.directs", lambda: self.stats.total_directs,
            help="external requests sent point-to-point",
        )
        registry.add_probe(
            "stats.no_requests", lambda: self.stats.total_no_requests,
            help="requests completed with no external message",
        )
        registry.add_probe(
            "stats.unnecessary_broadcasts",
            lambda: self.stats.total_unnecessary,
            help="broadcasts the Figure 2 oracle says were avoidable",
        )
        registry.add_probe(
            "stats.avoided", lambda: self.stats.total_avoided,
            help="broadcasts avoided (Figure 7 numerator)",
        )
        registry.add_probe("machine.l1_hits", lambda: self.l1_hits)
        registry.add_probe("machine.l2_hits", lambda: self.l2_hits)
        registry.add_probe("machine.c2c_transfers",
                           lambda: self.c2c_transfers)
        if self.config.cgct_enabled:
            for counter in ("allocations", "evictions",
                            "self_invalidations"):
                registry.add_probe(
                    f"rca.{counter}",
                    lambda c=counter: sum(
                        getattr(n.rca, c) for n in self.nodes
                    ),
                    help=f"RCA {counter} per interval, summed over nodes",
                )

        bus_utilization = registry.gauge(
            "bus.utilization", help="address-bus busy fraction over the run"
        )
        demand_mean = registry.gauge(
            "machine.demand_latency_mean",
            help="mean demand latency beyond the L1",
        )
        rca_mean = None
        if self.config.cgct_enabled:
            rca_mean = registry.gauge(
                "rca.mean_line_count",
                help="mean cached lines per tracked region (Section 5.2)",
            )

        def set_final_gauges(end_time: int) -> None:
            if end_time > 0:
                bus_utilization.set(self.bus.utilization(end_time))
            demand_mean.set(self.demand_latency.mean)
            if rca_mean is not None:
                counts = [n.rca.mean_line_count() for n in self.nodes]
                rca_mean.set(sum(counts) / len(counts))

        registry.add_finalizer(set_final_gauges)

    def _log_event(self, now, proc, request, path, address, latency) -> None:
        log = self.event_log
        if log is not None:
            log.record(now, proc, request, address, path.value, latency)
        tel = self.telemetry
        if tel is None:
            return
        key = (proc, request, path)
        metrics = self._tel_event_metrics.get(key)
        if metrics is None:
            metrics = self._tel_event_metrics[key] = (
                tel.counter(
                    f"machine.p{proc}.requests.{request.value}.{path.value}",
                    help="per-processor request mix by routing path",
                ),
                tel.counter(
                    f"machine.paths.{path.value}",
                    help="external requests resolved via this path",
                ),
                tel.histogram(
                    f"machine.latency.{path.value}",
                    help="external latency of requests taking this path",
                ),
            )
        mix_counter, path_counter, latency_hist = metrics
        mix_counter.inc()
        path_counter.inc()
        latency_hist.observe(latency)
        for sink in tel.event_sinks:
            if sink is not log:
                sink.record(now, proc, request, address, path.value, latency)

    # ------------------------------------------------------------------
    # Run-level metrics
    # ------------------------------------------------------------------
    def broadcasts_performed(self) -> int:
        """Broadcasts issued on the address bus so far."""
        return self.bus.broadcasts

    def reset_stats(self) -> None:
        """Zero every counter while preserving all architectural state.

        Used at the end of the warm-up phase (Section 4: "cache
        checkpoints were included to warm the caches prior to
        simulation"): caches, RCAs and resource queues keep their state,
        only the measurements restart.
        """
        self.stats = ExternalRequestStats()
        self.l1_hits = 0
        self.l2_hits = 0
        self.queue_cycles = 0
        self._request_path_counts = [0] * _NUM_REQUEST_PATHS
        self._demand_latency = RunningStat()
        self._demand_samples.clear()
        self._path_latency_stats = [None] * _NUM_REQUEST_PATHS
        for samples in self._path_samples:
            samples.clear()
        self.prefetches_filtered = 0
        self.dram_speculative_started = 0
        self.dram_speculative_wasted = 0
        self.dram_speculation_avoided = 0
        self.dram_speculation_late = 0
        self.region_prefetches = 0
        self.targeted_hits = 0
        self.targeted_misses = 0
        self.c2c_transfers = 0
        self.network.transfers = 0
        self.bus.broadcasts = 0
        self.bus.traffic = IntervalCounter(self.bus.traffic.window)
        # Zero the fast-path broadcast totals *before* the per-node
        # resets: each L2's snoop_probes setter bakes the current debt
        # into its private counter, so the debts must already be zero.
        for counts in (self._fast_issued, self._fast_holder_visits):
            counts[:] = [0] * len(counts)
        for node in self.nodes:
            node.l1i.reset_stats()
            node.l1d.reset_stats()
            node.l2.reset_stats()
            if node.rca is not None:
                node.rca.reset_stats()
        if self.telemetry is not None:
            # Zero every metric and rebaseline every probe against the
            # freshly-zeroed sources, so post-warmup interval series
            # reconcile with the measured-portion aggregates.
            self.telemetry.reset()
        if self._tracer is not None:
            # Drop warm-up transactions so captured traces cover the
            # measured portion, like every other statistic (trace ids
            # keep advancing: they are global access ordinals).
            self._tracer.reset()

    def check_coherence_invariants(self) -> None:
        """Exhaustive coherence audit (tests/debugging).

        Delegates to :func:`repro.validate.invariants.check_machine`:
        single-writer/multiple-reader line states, Table 1 region-state
        consistency, presence-bitmask agreement and per-node inclusion.
        Raises :class:`AssertionError` (the historical contract) with
        every violation joined into the message.
        """
        from repro.validate.invariants import check_machine

        violations = check_machine(self, deep=True)
        if violations:
            raise AssertionError("; ".join(violations))
