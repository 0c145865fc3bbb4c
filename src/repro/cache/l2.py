"""Unified L2 cache (MOESI, write-back) — the level the RCA sits beside.

The L2 is the lowest level of the hierarchy and the coherence point:
snoops probe its tags, and the Region Coherence Array's per-region line
counts track exactly the lines resident here (Section 3.2's inclusion
requirement). Two callbacks, ``on_line_allocated`` and
``on_line_removed``, let the owning node keep those counts in sync
without the cache knowing anything about regions.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, List, Optional, Tuple

from repro.cache.setassoc import SetAssociativeArray
from repro.coherence.line_states import LineState
from repro.memory.geometry import Geometry


class L2Line:
    """One resident L2 line.

    An evicted line is the same object, popped from its set: nothing
    changes its state after the eviction, so it reports the state the
    line left the cache in.
    """

    __slots__ = ("line", "state")

    def __init__(self, line: int, state: LineState) -> None:
        self.line = line
        self.state = state

    @property
    def needs_writeback(self) -> bool:
        """Whether the line is dirty (M/O): evicting it writes memory."""
        return self.state.is_dirty

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"L2Line(line={self.line:#x}, state={self.state.value})"


class L2Cache:
    """Set-associative MOESI L2 (Table 3: 1 MB, 2-way, 64 B lines)."""

    #: Machine-installed deferred snoop-probe accounting (bitmask snoop
    #: mode). The fast broadcast path never visits non-holders, so their
    #: tag-probe counts are reconstructed on read from the machine's
    #: broadcast totals; ``None`` means every probe was counted live.
    _probe_debt: Optional[Callable[[], int]] = None

    def __init__(
        self,
        geometry: Geometry,
        size_bytes: int = 1 << 20,
        ways: int = 2,
        name: str = "l2",
        on_line_allocated: Optional[Callable[[int], None]] = None,
        on_line_removed: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.geometry = geometry
        num_sets = size_bytes // (geometry.line_bytes * ways)
        self._array: SetAssociativeArray[L2Line] = SetAssociativeArray(
            num_sets, ways, name=name
        )
        self._set_bits = num_sets.bit_length() - 1
        self._set_mask = num_sets - 1
        self._line_shift = geometry._line_bits
        # The per-set dicts, referenced directly: lookup/peek/snoop_probe
        # run one dict operation instead of a call into the array.
        self._sets = self._array._sets
        self._ways = ways
        self.name = name
        self.on_line_allocated = on_line_allocated or (lambda line: None)
        self.on_line_removed = on_line_removed or (lambda line: None)
        # Statistics
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.writebacks = 0
        self.region_forced_evictions = 0
        self._snoop_probes = 0
        self.snoop_hits = 0

    @property
    def snoop_probes(self) -> int:
        """External tag probes, exact in either snoop mode.

        In bitmask snoop mode the machine's fast broadcast path skips
        non-holding caches entirely; the probes those broadcasts *would*
        have charged (the snoop still occupies the tag port in hardware)
        are reconstructed here from the machine-installed debt closure.
        Every read is therefore exact without any flush points.
        """
        debt = self._probe_debt
        if debt is None:
            return self._snoop_probes
        return self._snoop_probes + debt()

    @snoop_probes.setter
    def snoop_probes(self, value: int) -> None:
        # Value-exact assignment: a later read returns *value* plus any
        # debt accrued after this point (reset_stats relies on this).
        debt = self._probe_debt
        self._snoop_probes = value if debt is None else value - debt()

    @property
    def num_sets(self) -> int:
        """Number of sets in the array."""
        return self._array.num_sets

    @property
    def ways(self) -> int:
        """Associativity."""
        return self._array.ways

    # ------------------------------------------------------------------
    # Processor side
    # ------------------------------------------------------------------
    def lookup(self, address: int, touch: bool = True) -> Optional[L2Line]:
        """Find the resident line containing *address*; counts hit/miss."""
        line = address >> self._line_shift
        entries = self._sets[line & self._set_mask]
        tag = line >> self._set_bits
        if touch:
            entry = entries.pop(tag, None)
            if entry is not None:
                entries[tag] = entry  # reinsertion makes it MRU
        else:
            entry = entries.get(tag)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def peek(self, line: int) -> Optional[L2Line]:
        """Look up line number *line* without touching LRU or stats."""
        return self._sets[line & self._set_mask].get(line >> self._set_bits)

    def fill(self, address: int, state: LineState) -> Optional[L2Line]:
        """Install the line containing *address* in *state*.

        Returns the victim's popped entry (if any). The victim's removal callback fires
        before the new line's allocation callback, so a region line count
        can never double-count a way.
        """
        if not state.is_valid:
            raise ValueError("cannot fill a line in the INVALID state")
        line = address >> self._line_shift
        entries = self._sets[line & self._set_mask]
        tag = line >> self._set_bits
        existing = entries.pop(tag, None)
        if existing is not None:
            entries[tag] = existing  # MRU promotion, as on any hit
            existing.state = state
            return None
        victim = None
        if len(entries) >= self._ways:
            victim = entries.pop(next(iter(entries)))  # LRU-first
            self.evictions += 1
            if victim.state.is_dirty:
                self.writebacks += 1
            self.on_line_removed(victim.line)
        entries[tag] = L2Line(line, state)
        self.fills += 1
        self.on_line_allocated(line)
        return victim

    def set_state(self, line: int, state: LineState) -> None:
        """Change a resident line's state (upgrade completion, etc.)."""
        entry = self._sets[line & self._set_mask].get(line >> self._set_bits)
        if entry is None:
            raise KeyError(f"{self.name}: line {line:#x} not resident")
        if not state.is_valid:
            raise ValueError("use invalidate() to drop a line")
        entry.state = state

    def invalidate(self, line: int) -> Optional[LineState]:
        """Drop line *line* if resident; returns its prior state."""
        entry = self._sets[line & self._set_mask].pop(
            line >> self._set_bits, None)
        if entry is None:
            return None
        self.on_line_removed(line)
        return entry.state

    # ------------------------------------------------------------------
    # Snoop side
    # ------------------------------------------------------------------
    def snoop_probe(self, line: int) -> Optional[L2Line]:
        """Tag probe on behalf of an external request (counts lookups)."""
        self._snoop_probes += 1
        entry = self._sets[line & self._set_mask].get(line >> self._set_bits)
        if entry is not None:
            self.snoop_hits += 1
        return entry

    # ------------------------------------------------------------------
    # Region inclusion support
    # ------------------------------------------------------------------
    def resident_lines_of_region(self, region: int) -> List[L2Line]:
        """All resident lines belonging to region number *region*.

        Regions are contiguous, so their lines map to a short run of
        consecutive sets — the scan touches ``lines_per_region`` sets at
        most (8 for 512 B regions), mirroring how cheap this operation is
        in hardware.
        """
        found = []
        for line in self.geometry.lines_in_region(region):
            entry = self.peek(line)
            if entry is not None:
                found.append(entry)
        return found

    def evict_region(self, region: int) -> List[L2Line]:
        """Force out every resident line of *region* (RCA inclusion).

        Section 3.2: "lines must sometimes be evicted from the cache
        before a region can be evicted from the RCA." Each dirty victim
        needs a write-back. The count of lines evicted this way is kept in
        ``region_forced_evictions`` to support the paper's claim that the
        resulting miss-ratio increase is ≈1.2 %. Returns the popped
        entries.
        """
        evicted = self.resident_lines_of_region(region)
        for entry in evicted:
            line = entry.line
            del self._sets[line & self._set_mask][line >> self._set_bits]
            self.evictions += 1
            self.region_forced_evictions += 1
            if entry.state.is_dirty:
                self.writebacks += 1
            self.on_line_removed(line)
        return evicted

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def resident_lines(self):
        """Yield ``(line, state)`` for every resident line."""
        for _set_index, _tag, entry in self._array:
            yield entry.line, entry.state

    def resident_items(self) -> List[Tuple[int, LineState]]:
        """Every resident ``(line, state)`` as a list, in one pass.

        The bulk form of :meth:`resident_lines` — exhaustive auditors
        walk every L2 every trigger. ``map``/``chain`` keep the sweep
        over the (mostly empty) backing sets in C; only actual entries
        reach the Python-level comprehension.
        """
        return [(entry.line, entry.state) for entry in self.iter_entries()]

    def iter_entries(self):
        """Iterate every resident :class:`L2Line`, C-speed over the sets.

        ``filter(None, ...)`` drops the empty sets before ``values()``
        view objects are even created — with thousands of sets and a few
        hundred resident lines, the empty-set sweep is the real cost.
        """
        return chain.from_iterable(
            map(dict.values, filter(None, self._sets))
        )

    def attach_telemetry(self, registry) -> None:
        """Register interval probes over this cache's counters.

        Probe-based only: lookup/fill/snoop hot paths are untouched; the
        registry samples the cumulative counters every interval.
        """
        for counter in ("hits", "misses", "fills", "evictions", "writebacks",
                        "region_forced_evictions", "snoop_probes",
                        "snoop_hits"):
            registry.add_probe(
                f"cache.{self.name}.{counter}",
                lambda c=counter: getattr(self, c),
            )

    def __len__(self) -> int:
        return len(self._array)

    def reset_stats(self) -> None:
        """Zero the statistics counters (state is preserved)."""
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.writebacks = 0
        self.region_forced_evictions = 0
        self.snoop_probes = 0
        self.snoop_hits = 0
