"""Generic set-associative array with true-LRU replacement.

Shared by the L1 caches, the L2 cache, and the Region Coherence Array.
The array stores opaque entries keyed by ``(set_index, tag)``; the caller
owns the address → (set, tag) decomposition, so the same structure serves
line-grain and region-grain indexing.

Each set is a plain insertion-ordered ``dict`` in LRU → MRU order:
promotion is a ``pop`` + reinsert, eviction takes the first key. A plain
dict beats ``OrderedDict`` on every operation this array performs on the
simulator's per-access path (lookups — especially misses — inserts and
removals), which is why it replaced the original ``OrderedDict``.

Replacement is true LRU per set, with an optional *preference predicate*:
:meth:`victim` first looks for the least-recently-used entry satisfying
the predicate, falling back to plain LRU. The RCA uses this to prefer
evicting regions with no cached lines (Section 3.2: "The replacement
policy for the RCA can favor regions that contain no cached lines").
"""

from __future__ import annotations

import gc
from typing import Callable, Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.common.errors import ConfigurationError

E = TypeVar("E")


class SetAssociativeArray(Generic[E]):
    """A ``num_sets`` × ``ways`` associative array of entries of type ``E``.

    Within each set, entries are kept in recency order: the first entry is
    the least recently used, the last the most recently used.
    """

    def __init__(self, num_sets: int, ways: int, name: str = "array") -> None:
        if num_sets <= 0 or num_sets & (num_sets - 1):
            raise ConfigurationError(
                f"{name}: num_sets must be a positive power of two, got {num_sets}"
            )
        if ways <= 0:
            raise ConfigurationError(f"{name}: ways must be positive, got {ways}")
        self.num_sets = num_sets
        self.ways = ways
        self.name = name
        # A machine allocates tens of thousands of these empty dicts at
        # once. Empty dicts are not tracked by the cyclic garbage
        # collector, but each allocation still counts toward its
        # threshold, so the burst would set off collections that walk
        # the rest of the heap (in a sweep worker, its traces) and free
        # nothing: the collector is off while they are made.
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._sets: List[Dict[int, E]] = [{} for _ in range(num_sets)]
        finally:
            if enabled:
                gc.enable()

    # ------------------------------------------------------------------
    # Basic operations
    # ------------------------------------------------------------------
    def lookup(self, set_index: int, tag: int, touch: bool = True) -> Optional[E]:
        """Return the entry at ``(set_index, tag)``, or ``None``.

        ``touch=True`` (the default) promotes the entry to most recently
        used; pass ``touch=False`` for snoops, which traditionally do not
        perturb replacement state.
        """
        entries = self._sets[set_index]
        if not touch:
            return entries.get(tag)
        entry = entries.pop(tag, None)
        if entry is not None:
            entries[tag] = entry  # reinsertion makes it most recently used
        return entry

    def insert(self, set_index: int, tag: int, entry: E) -> None:
        """Install *entry* as most recently used.

        The caller must have made room first (see :meth:`victim`); a full
        set or duplicate tag raises, as either indicates a caller bug.
        """
        entries = self._sets[set_index]
        if tag in entries:
            raise ValueError(f"{self.name}: duplicate insert of tag {tag:#x}")
        if len(entries) >= self.ways:
            raise ValueError(
                f"{self.name}: set {set_index} full ({self.ways} ways); "
                "evict a victim before inserting"
            )
        entries[tag] = entry

    def remove(self, set_index: int, tag: int) -> E:
        """Remove and return the entry at ``(set_index, tag)``."""
        entries = self._sets[set_index]
        entry = entries.pop(tag, None)
        if entry is None:
            raise KeyError(f"{self.name}: no entry with tag {tag:#x} in set {set_index}")
        return entry

    def touch(self, set_index: int, tag: int) -> None:
        """Promote an existing entry to most recently used."""
        entries = self._sets[set_index]
        entries[tag] = entries.pop(tag)

    # ------------------------------------------------------------------
    # Replacement
    # ------------------------------------------------------------------
    def needs_victim(self, set_index: int) -> bool:
        """Whether inserting into *set_index* requires an eviction first."""
        return len(self._sets[set_index]) >= self.ways

    def victim(
        self,
        set_index: int,
        prefer: Optional[Callable[[E], bool]] = None,
    ) -> Optional[Tuple[int, E]]:
        """Choose a ``(tag, entry)`` victim from *set_index*.

        Returns ``None`` when the set still has a free way. With a
        *prefer* predicate, the least-recently-used entry satisfying it is
        chosen; if none satisfies it, plain LRU applies.
        """
        entries = self._sets[set_index]
        if len(entries) < self.ways:
            return None
        if prefer is not None:
            for tag, entry in entries.items():  # LRU-first order
                if prefer(entry):
                    return tag, entry
        tag, entry = next(iter(entries.items()))
        return tag, entry

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def set_contents(self, set_index: int) -> List[Tuple[int, E]]:
        """Entries of one set in LRU → MRU order (copies of the pairs)."""
        return list(self._sets[set_index].items())

    def occupancy(self, set_index: int) -> int:
        """Resident entries in the given set."""
        return len(self._sets[set_index])

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def __iter__(self) -> Iterator[Tuple[int, int, E]]:
        """Yield ``(set_index, tag, entry)`` for every resident entry."""
        for set_index, entries in enumerate(self._sets):
            for tag, entry in entries.items():
                yield set_index, tag, entry

    def clear(self) -> None:
        """Drop every entry."""
        for entries in self._sets:
            entries.clear()
