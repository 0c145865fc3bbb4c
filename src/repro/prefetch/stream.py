"""Power4-style stream prefetcher with R10000-style exclusive prefetch.

The prefetcher watches L2 accesses at line granularity. A miss at line
*L* allocates tentative ascending and descending stream heads; a second
miss at *L±1* confirms the matching direction. A confirmed stream keeps
``runahead`` lines prefetched ahead of the demand point and advances as
the demand stream walks forward — including on demand *hits* to the lines
it prefetched, which is what keeps the window rolling (Power4 behaviour).

A stream whose accesses include stores issues *exclusive* prefetches
(PREFETCH_EX), staging modifiable copies the way the MIPS R10000's
store prefetch does, so the later stores need no second transaction.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple


class PrefetchCandidate(NamedTuple):
    """A prefetch the engine wants issued (a plain tuple underneath).

    Attributes
    ----------
    line:
        Target line number.
    exclusive:
        True to request a modifiable copy (store stream).
    """

    line: int
    exclusive: bool


class _Stream:
    __slots__ = ("direction", "expected", "frontier", "exclusive", "depth",
                 "low", "high")

    def __init__(self, direction: int, start: int, exclusive: bool) -> None:
        self.direction = direction
        #: Next demand line the stream expects.
        self.expected = start
        #: Last line prefetched (demand side of it is covered).
        self.frontier = start - direction
        self.exclusive = exclusive
        #: Current runahead depth; ramps up as the stream proves itself
        #: (Power4 ramping), limiting overshoot on short runs.
        self.depth = 2
        self.set_window()

    def set_window(self) -> None:
        """Cache the covered window ``low <= line <= high``: from the
        expected line through one past the frontier, in the stream's
        direction. Called whenever ``expected`` or ``frontier`` moves."""
        if self.direction > 0:
            self.low = self.expected
            self.high = self.frontier + 1
        else:
            self.low = self.frontier - 1
            self.high = self.expected


class StreamPrefetcher:
    """Detects sequential line streams and issues runahead prefetches.

    Parameters
    ----------
    num_streams:
        Concurrent confirmed streams tracked (Table 3: 8). LRU replaced.
    runahead:
        Lines kept prefetched ahead of the demand point (Table 3: 5).
    """

    def __init__(self, num_streams: int = 8, runahead: int = 5) -> None:
        if num_streams <= 0:
            raise ValueError(f"num_streams must be positive, got {num_streams}")
        if runahead < 0:
            raise ValueError(f"runahead must be >= 0, got {runahead}")
        self.num_streams = num_streams
        self.runahead = runahead
        #: Confirmed streams, LRU-ordered by key (arbitrary unique int).
        #: Plain insertion-ordered dicts: promotion is pop + reinsert,
        #: eviction takes the first key (cheaper than OrderedDict on this
        #: per-L2-access path).
        self._streams: Dict[int, _Stream] = {}
        #: Miss line → was_store, for pairing into new streams.
        self._pending: Dict[int, bool] = {}
        self._next_key = 0
        self.issued = 0
        self.streams_confirmed = 0

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def observe_access(
        self, line: int, is_store: bool, was_miss: bool
    ) -> List[PrefetchCandidate]:
        """Feed one L2 access; returns the prefetches to issue now.

        An access inside a confirmed stream's covered window advances
        that stream (and promotes it to MRU). Otherwise a miss at *line*
        confirms a pending head at line∓1 into a new stream, or is
        remembered as a pending head itself. The caller filters
        candidates that are already cached.
        """
        streams = self._streams
        for key, stream in streams.items():
            if stream.low <= line <= stream.high:
                # MRU promotion; returning at once makes mutating the
                # dict mid-iteration safe.
                streams[key] = streams.pop(key)
                stream.exclusive = stream.exclusive or is_store
                stream.expected = line + stream.direction
                stream.depth = min(stream.depth + 1, self.runahead)
                return self._top_up(stream, line)
        if not was_miss:
            return []
        pending = self._pending
        for direction in (+1, -1):
            head = line - direction
            if head in pending:
                head_was_store = pending.pop(head)
                stream = _Stream(direction, line + direction,
                                 is_store or head_was_store)
                self._install(stream)
                self.streams_confirmed += 1
                return self._top_up(stream, line)
        pending[line] = is_store
        while len(pending) > 2 * self.num_streams:
            del pending[next(iter(pending))]  # oldest-first
        return []

    # ------------------------------------------------------------------
    # Stream management
    # ------------------------------------------------------------------
    def _install(self, stream: _Stream) -> None:
        while len(self._streams) >= self.num_streams:
            del self._streams[next(iter(self._streams))]  # LRU-first
        self._streams[self._next_key] = stream
        self._next_key += 1

    def _top_up(self, stream: _Stream, demand_line: int) -> List[PrefetchCandidate]:
        """Prefetch enough lines to restore the (ramped) runahead distance."""
        candidates: List[PrefetchCandidate] = []
        direction = stream.direction
        exclusive = stream.exclusive
        target_frontier = demand_line + direction * stream.depth
        next_line = stream.frontier + direction
        if direction > 0:
            if next_line <= demand_line:
                next_line = demand_line + 1
            while next_line <= target_frontier:
                candidates.append(PrefetchCandidate(next_line, exclusive))
                next_line += 1
        else:
            if next_line >= demand_line:
                next_line = demand_line - 1
            while next_line >= target_frontier and next_line >= 0:
                candidates.append(PrefetchCandidate(next_line, exclusive))
                next_line -= 1
        if candidates:
            stream.frontier = next_line - direction
        stream.set_window()
        self.issued += len(candidates)
        return candidates

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active_streams(self) -> int:
        """Number of confirmed streams currently tracked."""
        return len(self._streams)

    def reset(self) -> None:
        """Forget all state and counters."""
        self._streams.clear()
        self._pending.clear()
        self.issued = 0
        self.streams_confirmed = 0
