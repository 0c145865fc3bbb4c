"""L1 instruction/data caches (MSI, write-back).

The L1s exist to (a) filter the request stream seen by the L2 + RCA and
(b) provide the 1-cycle hit latency of Table 3. They are kept inclusive in
the L2 by back-invalidation, so all external coherence is resolved at the
L2: a store that completes sets the line MODIFIED in *both* levels (the
modification is reflected in the L2's coherence state immediately, which
is equivalent to an L2 that tracks "modified above" and keeps the snoop
path single-level).
"""

from __future__ import annotations

from typing import Optional

from repro.cache.setassoc import SetAssociativeArray
from repro.coherence.line_states import L1State
from repro.memory.geometry import Geometry

# Enum members bound once for the per-access methods (a member read
# through the enum class is a slow attribute hook before 3.12).
_INVALID = L1State.INVALID
_SHARED = L1State.SHARED
_MODIFIED = L1State.MODIFIED


class _L1Line:
    __slots__ = ("line", "state")

    def __init__(self, line: int, state: L1State) -> None:
        self.line = line
        self.state = state

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"_L1Line(line={self.line:#x}, state={self.state.value})"


class L1Cache:
    """One first-level cache (instruction or data).

    Parameters
    ----------
    geometry:
        Shared address geometry (line size).
    size_bytes / ways:
        Capacity and associativity; Table 3 uses a 32 KB 4-way I-cache and
        a 64 KB 4-way D-cache with 64 B lines.
    name:
        Diagnostic label ("l1i"/"l1d").
    """

    def __init__(
        self,
        geometry: Geometry,
        size_bytes: int,
        ways: int,
        name: str = "l1",
    ) -> None:
        self.geometry = geometry
        num_sets = size_bytes // (geometry.line_bytes * ways)
        self._array: SetAssociativeArray[_L1Line] = SetAssociativeArray(
            num_sets, ways, name=name
        )
        self.name = name
        # Hoisted shift/mask constants: the per-access path decodes
        # addresses with two integer operations and no attribute chains.
        self._line_shift = geometry._line_bits
        self._set_mask = num_sets - 1
        self._tag_shift = num_sets.bit_length() - 1
        # The per-set dicts, referenced directly: the 1-cycle hit path is
        # one dict pop/reinsert with no call into the array.
        self._sets = self._array._sets
        self._ways = ways
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.back_invalidations = 0

    # ------------------------------------------------------------------
    # Processor side
    # ------------------------------------------------------------------
    def lookup(self, address: int, write: bool = False) -> bool:
        """Try to satisfy an access; returns True on a hit.

        A write hit requires the MODIFIED state; a SHARED copy counts as a
        miss for writes (the node escalates to the L2/upgrade path).
        """
        line = address >> self._line_shift
        entries = self._sets[line & self._set_mask]
        tag = line >> self._tag_shift
        entry = entries.pop(tag, None)
        if entry is None:
            self.misses += 1
            return False
        entries[tag] = entry  # reinsertion makes it MRU
        if write and not entry.state.is_writable:
            # The LRU touch already happened — a write miss on a SHARED
            # copy still promotes the line, matching real replacement.
            self.misses += 1
            return False
        self.hits += 1
        return True

    def state_of(self, address: int) -> L1State:
        """Current MSI state of the line containing *address*."""
        line = address >> self._line_shift
        entry = self._sets[line & self._set_mask].get(line >> self._tag_shift)
        return entry.state if entry is not None else _INVALID

    def fill(self, address: int, writable: bool) -> Optional[int]:
        """Install the line containing *address*.

        Returns the line number of an evicted line (so the node can tell
        the L2 the L1 copy is gone), or ``None``. L1 victims never need a
        data write-back of their own: the modification is already
        reflected in the inclusive L2's state.
        """
        line = address >> self._line_shift
        entries = self._sets[line & self._set_mask]
        tag = line >> self._tag_shift
        state = _MODIFIED if writable else _SHARED
        existing = entries.pop(tag, None)
        if existing is not None:
            entries[tag] = existing  # MRU promotion, as on any hit
            existing.state = state
            return None
        if len(entries) >= self._ways:
            # The LRU-first victim's entry object is reused for the new
            # line: L1 victims leave nothing behind but their line number.
            entry = entries.pop(next(iter(entries)))
            evicted_line = entry.line
            self.evictions += 1
            entry.line = line
            entry.state = state
            entries[tag] = entry
            return evicted_line
        entries[tag] = _L1Line(line, state)
        return None

    def upgrade(self, address: int) -> None:
        """Promote a SHARED copy to MODIFIED after an upgrade completes."""
        line = address >> self._line_shift
        entries = self._sets[line & self._set_mask]
        tag = line >> self._tag_shift
        entry = entries.pop(tag, None)
        if entry is not None:
            entries[tag] = entry  # MRU promotion, as on any hit
            entry.state = _MODIFIED

    # ------------------------------------------------------------------
    # L2 side (inclusion)
    # ------------------------------------------------------------------
    def back_invalidate(self, line: int) -> bool:
        """Drop the copy of *line* (L2 eviction or external invalidation).

        Returns True if a copy was present.
        """
        if self._sets[line & self._set_mask].pop(
                line >> self._tag_shift, None) is None:
            return False
        self.back_invalidations += 1
        return True

    def downgrade(self, line: int) -> None:
        """Demote a MODIFIED copy to SHARED (external read snoop)."""
        entry = self._sets[line & self._set_mask].get(line >> self._tag_shift)
        if entry is not None:
            entry.state = _SHARED

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_sets(self) -> int:
        """Number of sets in the array."""
        return self._array.num_sets

    @property
    def ways(self) -> int:
        """Associativity."""
        return self._array.ways

    def resident_lines(self):
        """Yield the line numbers currently cached (for invariant checks)."""
        for _set_index, _tag, entry in self._array:
            yield entry.line

    def attach_telemetry(self, registry) -> None:
        """Register interval probes over this cache's counters.

        Probe-based only: lookup/fill hot paths are untouched; the
        registry samples the cumulative counters every interval.
        """
        for counter in ("hits", "misses", "evictions", "back_invalidations"):
            registry.add_probe(
                f"cache.{self.name}.{counter}",
                lambda c=counter: getattr(self, c),
            )

    def reset_stats(self) -> None:
        """Zero the statistics counters (state is preserved)."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.back_invalidations = 0
