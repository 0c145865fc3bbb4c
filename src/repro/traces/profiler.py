"""Single-pass trace profiling: reuse distance, sharing, Figure-2 oracle.

One streaming pass over an event stream (see :mod:`repro.traces.reader`)
computes three profiles at once, without running the simulator:

* **Reuse-distance histogram** — for every access, the number of
  *distinct* cache lines touched since the previous access to the same
  line (the LRU stack distance). First touches count as *cold*. Finite
  distances land in power-of-two buckets (``0``, ``1``, ``2-3``,
  ``4-7``, …).
* **Per-region sharing footprint** — per region: the processors that
  read or wrote it and *upgrades* (the first write by a processor that
  had previously only read the region). Aggregated into the
  sharer-count histogram and shared/write-shared fractions.
* **Oracle Figure-2 profile** — every access is judged by the
  conformance suite's golden may-hold model
  (:mod:`repro.conformance.golden`): would a broadcast have been
  *needed* (some remote processor may hold the line — or, for
  instruction fetches, may hold it dirty), or would it have been
  unnecessary? This is the paper's Figure 2 upper bound computed
  directly from the trace. Note the denominator: the profile judges
  **every access**, while the live machine's Figure 2 counters classify
  only *external requests* (cache misses); ``docs/traces.md`` spells
  out the exact reconciliation the differential tests pin.

The pass runs in numpy over fixed-size batches of :data:`BATCH`
records, carrying state between batches; each part is exact:

* **Reuse distance.** With ``p`` the previous access to the line at
  ``t`` and ``c0`` the batch start, the distinct lines touched in
  ``(p, t)`` are those last touched in ``(p, c0)`` — one vectorised
  prefix query on a Fenwick tree that marks every line's latest
  position — plus the accesses ``j`` in ``[max(p + 1, c0), t)`` that
  are their line's first since ``p`` (``previous(j) <= p``): an offline
  dominance count inside the batch, done by a bottom-up merge sort.
* **Figure-2 verdicts** come in closed form from
  :func:`repro.conformance.golden.must_broadcast_batch`, with up to two
  holders and the dirty owner carried per line.
* **Footprints** keep the first read and first write position per
  (region, processor); the sharer counts are a ``bincount`` of those
  pairs, and an upgrade is a pair whose first read precedes its first
  write.

Memory grows with the trace: the Fenwick tree takes 4 bytes per access
(rounded up to a power of two); per-line state takes 20 bytes for each
line slot of every region touched, plus 24 bytes per (region,
processor) pair and one batch of work arrays.

All three profiles are pure functions of the event stream *order*, so
they are invariant to reader chunking; for in-memory workloads the
canonical round-robin interleaving is used. ``distance_scale`` supports
the spatial sampler's region-aware SHARDS correction: a sampled reuse
distance splits into an intra-region part (lines in the reused line's
own region — preserved *exactly* by region-aligned sampling) and an
inter-region part (thinned by the sampling rate); only the latter is
multiplied back up before bucketing, which makes the sampled histogram
directly comparable to the full trace's even when reuse is dominated by
short spatial-locality distances. The intra-region part is the same two
counts restricted to the region: region-mates' carried positions, and
the dominance count in region-sorted order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Union

import numpy as np

from repro.common.errors import WorkloadError
from repro.conformance.golden import must_broadcast_batch
from repro.traces.reader import EventChunk, read_events, workload_to_events
from repro.workloads.trace import MultiTrace, TraceOp

#: Profile JSON schema identifier.
PROFILE_SCHEMA = "cgct-trace-profile/v1"

#: Trace operations that write the line (mirror of the golden model).
_WRITE_OPS = (int(TraceOp.STORE), int(TraceOp.DCBZ))

#: Records per kernel batch. Per-batch cost is O(BATCH log BATCH) in
#: numpy plus O(log N) Fenwick levels. Larger batches amortise numpy's
#: per-call overhead but grow the work arrays; at 8,192 the committed
#: midsize fixture stays inside its memory budget
#: (``tests/traces/test_memory_budget.py``).
BATCH = 8192

#: "Never" position for pairs that did not read (or write) a region.
_NEVER = np.iinfo(np.int64).max


@dataclass
class ReuseDistanceHistogram:
    """Exact LRU stack distances in power-of-two buckets."""

    cold: int = 0
    finite: int = 0
    total_distance: int = 0
    max_distance: int = 0
    #: bucket index -> count; bucket 0 is distance 0, bucket k>=1 holds
    #: distances in [2^(k-1), 2^k).
    buckets: Dict[int, int] = field(default_factory=dict)

    @property
    def mean(self) -> float:
        return self.total_distance / self.finite if self.finite else 0.0

    def shares(self) -> Dict[int, float]:
        """Normalized bucket shares over finite accesses."""
        if not self.finite:
            return {}
        return {b: c / self.finite for b, c in self.buckets.items()}

    def to_dict(self) -> Dict:
        rows = []
        for bucket in sorted(self.buckets):
            lo = 0 if bucket == 0 else 1 << (bucket - 1)
            hi = 0 if bucket == 0 else (1 << bucket) - 1
            rows.append([lo, hi, self.buckets[bucket]])
        return {
            "cold": self.cold,
            "finite": self.finite,
            "mean": self.mean,
            "max": self.max_distance,
            "buckets": rows,
        }


@dataclass
class OracleProfile:
    """Golden-model Figure 2 verdict counts (per access)."""

    needed: int = 0
    unnecessary: int = 0
    #: op name -> [needed, unnecessary]
    per_op: Dict[str, List[int]] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.needed + self.unnecessary

    @property
    def fraction_unnecessary(self) -> float:
        return self.unnecessary / self.total if self.total else 0.0

    def to_dict(self) -> Dict:
        return {
            "needed": self.needed,
            "unnecessary": self.unnecessary,
            "fraction_unnecessary": self.fraction_unnecessary,
            "per_op": {k: list(v) for k, v in sorted(self.per_op.items())},
        }


@dataclass
class TraceProfile:
    """Everything one profiling pass produced."""

    accesses: int
    num_processors: int
    line_bytes: int
    region_bytes: int
    distance_scale: int
    op_counts: Dict[str, int]
    reuse: ReuseDistanceHistogram
    oracle: OracleProfile
    regions_touched: int
    regions_shared: int
    regions_write_shared: int
    upgrades: int
    sharer_histogram: Dict[int, int]
    lines_touched: int

    # -- headline ratios the sampler's error report compares ----------
    @property
    def shared_region_fraction(self) -> float:
        if not self.regions_touched:
            return 0.0
        return self.regions_shared / self.regions_touched

    @property
    def store_fraction(self) -> float:
        if not self.accesses:
            return 0.0
        stores = sum(
            self.op_counts.get(TraceOp(code).name, 0)
            for code in _WRITE_OPS
        )
        return stores / self.accesses

    def to_dict(self) -> Dict:
        return {
            "schema": PROFILE_SCHEMA,
            "accesses": self.accesses,
            "num_processors": self.num_processors,
            "line_bytes": self.line_bytes,
            "region_bytes": self.region_bytes,
            "distance_scale": self.distance_scale,
            "op_counts": dict(sorted(self.op_counts.items())),
            "reuse_distance": self.reuse.to_dict(),
            "oracle": self.oracle.to_dict(),
            "regions": {
                "touched": self.regions_touched,
                "shared": self.regions_shared,
                "write_shared": self.regions_write_shared,
                "upgrades": self.upgrades,
                "shared_fraction": self.shared_region_fraction,
                "sharer_histogram": {
                    str(k): v
                    for k, v in sorted(self.sharer_histogram.items())
                },
            },
            "lines_touched": self.lines_touched,
            "store_fraction": self.store_fraction,
        }

    def save_json(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )


class _PositionMarks:
    """Fenwick tree over access positions, queried a batch at a time.

    Position ``t`` is marked iff it is some line's latest access, so
    ``prefix(p)`` counts the lines whose latest access is at or before
    ``p``. The tree doubles when the clock outgrows it, rebuilt in place
    from the live marks one level at a time.
    """

    __slots__ = ("tree",)

    def __init__(self) -> None:
        self.tree = np.zeros(1025, dtype=np.int32)

    def reserve(self, clock: int, latest: np.ndarray) -> None:
        """Make room for positions up to *clock*; *latest* holds every
        line's mark (0 for slots never touched)."""
        size = len(self.tree) - 1
        if clock <= size:
            return
        while size < clock:
            size *= 2
        tree = np.zeros(size + 1, dtype=np.int32)
        tree[latest] = 1
        tree[0] = 0
        step = 1
        while step < size:   # node i adds into its parent i + (i & -i)
            tree[2 * step::2 * step] += tree[step::2 * step]
            step *= 2
        self.tree = tree

    def prefix(self, index: np.ndarray) -> np.ndarray:
        tree = self.tree
        total = np.zeros(len(index), dtype=np.int64)
        index = index.copy()
        while index.any():
            total += tree[index]   # tree[0] is always 0
            index &= index - 1
        return total

    def add(self, index: np.ndarray, delta: np.ndarray) -> None:
        tree = self.tree
        size = len(tree) - 1
        while len(index):
            np.add.at(tree, index, delta)
            index = index + (index & -index)
            keep = index <= size
            index, delta = index[keep], delta[keep]


def _earlier_at_most(order: np.ndarray) -> np.ndarray:
    """``#{j < i : v[j] <= v[i]}`` for every ``i``, given the stable sort
    *order* of the values ``v``.

    Bottom-up merge sort over the ranks: merging two sibling blocks puts
    a right-block element behind exactly the left-block elements of
    smaller rank, so its position gain over the merge is that count.
    Ties rank by index, which makes ``v[j] <= v[i]`` for ``j < i`` the
    same as ``rank[j] < rank[i]``.
    """
    n = len(order)
    shift = max(n - 1, 1).bit_length()
    mask = (1 << shift) - 1
    index = np.arange(n)
    elements = index                  # current order, sorted per block
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = index
    position = np.zeros(n, dtype=np.int64)   # within the element's block
    merged = np.empty(n, dtype=np.int64)
    counts = np.zeros(n, dtype=np.int64)
    level = 0
    while (1 << level) < n:
        start = (elements >> (level + 1)) << (level + 1)
        keys = np.sort((start << shift) | ranks[elements])
        elements = order[keys & mask]
        merged[elements] = index - (keys >> shift)
        counts += (merged - position) * ((index >> level) & 1)
        position, merged = merged, position
        level += 1
    return counts


class TraceProfiler:
    """Single-pass streaming profiler; feed chunks, then ``finish()``.

    ``num_processors`` may be None: it is learned from the stream (the
    golden model only needs processor ids, not the machine width, until
    the final report).
    """

    def __init__(
        self,
        line_bytes: int = 64,
        region_bytes: int = 512,
        num_processors: Optional[int] = None,
        distance_scale: int = 1,
    ) -> None:
        if line_bytes & (line_bytes - 1) or line_bytes <= 0:
            raise WorkloadError(
                f"line_bytes must be a power of two, got {line_bytes}"
            )
        if region_bytes & (region_bytes - 1) or region_bytes < line_bytes:
            raise WorkloadError(
                f"region_bytes must be a power-of-two multiple of "
                f"line_bytes, got {region_bytes}"
            )
        if distance_scale < 1:
            raise WorkloadError(
                f"distance_scale must be >= 1, got {distance_scale}"
            )
        self.line_shift = np.uint64(line_bytes.bit_length() - 1)
        self.region_shift = np.uint64(region_bytes.bit_length() - 1)
        self.line_bytes = line_bytes
        self.region_bytes = region_bytes
        self.distance_scale = distance_scale
        self.declared_processors = num_processors
        self.top_proc = -1
        self.accesses = 0
        self.op_counts = np.zeros(len(TraceOp), dtype=np.int64)
        # Regions get dense ids in first-touch order; line slot
        # ``region_id << mate_shift | offset`` indexes the per-line state.
        self._region_ids: Dict[int, int] = {}
        self._mate_shift = (region_bytes // line_bytes).bit_length() - 1
        self._last_pos = np.zeros(0, dtype=np.int64)   # 0: never touched
        self._holders = np.full((0, 2), -1, dtype=np.int32)
        self._owner = np.full(0, -1, dtype=np.int32)
        self._marks = _PositionMarks()
        self._clock = 0
        self._lines = 0
        # Reuse histogram: bucket k>=1 holds distances in [2^(k-1), 2^k).
        self._cold = 0
        self._total_distance = 0
        self._max_distance = 0
        self._buckets = np.zeros(65, dtype=np.int64)
        # Oracle verdict counts per op code: [needed, unnecessary].
        self._verdicts = np.zeros((len(TraceOp), 2), dtype=np.int64)
        # First read / first write position per (region id, processor).
        # Batches queue their pairs; the queue merges into the sorted
        # ``_pairs`` once it holds more records than ``_pairs``, so each
        # merge costs at most about twice the records it absorbs.
        self._pairs = _Pairs.empty()
        self._pending: List[_Pairs] = []
        self._pending_size = 0

    # ------------------------------------------------------------------
    def feed(self, chunk: EventChunk) -> None:
        """Consume one event chunk (stream order is the interleaving)."""
        n = len(chunk)
        if not n:
            return
        self.top_proc = max(self.top_proc, int(chunk.procs.max()))
        self.op_counts += np.bincount(chunk.ops, minlength=len(TraceOp))
        self.accesses += n
        for start in range(0, n, BATCH):
            stop = start + BATCH
            self._batch(
                chunk.procs[start:stop].astype(np.int64, copy=False),
                chunk.ops[start:stop],
                chunk.addresses[start:stop].astype(np.uint64, copy=False),
            )

    def _slots(self, addresses: np.ndarray) -> np.ndarray:
        """Dense per-line slot of every address, registering new regions."""
        regions, inverse = np.unique(
            addresses >> self.region_shift, return_inverse=True,
        )
        known = self._region_ids
        ids = np.fromiter(
            (known.get(region, -1) for region in regions.tolist()),
            dtype=np.int64, count=len(regions),
        )
        new = np.flatnonzero(ids < 0)
        if len(new):
            ids[new] = np.arange(len(known), len(known) + len(new))
            known.update(zip(regions[new].tolist(), ids[new].tolist()))
            self._grow(len(known) << self._mate_shift)
        offsets = (addresses >> self.line_shift).astype(np.int64) \
            & ((1 << self._mate_shift) - 1)
        return (ids[inverse] << self._mate_shift) | offsets

    def _grow(self, slots: int) -> None:
        have = len(self._last_pos)
        if slots <= have:
            return
        size = max(slots, 2 * have, 1024)
        pad = size - have
        self._last_pos = np.concatenate(
            [self._last_pos, np.zeros(pad, dtype=np.int64)])
        self._holders = np.concatenate(
            [self._holders, np.full((pad, 2), -1, dtype=np.int32)])
        self._owner = np.concatenate(
            [self._owner, np.full(pad, -1, dtype=np.int32)])

    def _batch(
        self, procs: np.ndarray, ops: np.ndarray, addresses: np.ndarray,
    ) -> None:
        n = len(procs)
        slots = self._slots(addresses)
        first_pos = self._clock + 1
        positions = np.arange(first_pos, first_pos + n)
        self._reuse(slots, positions)
        self._clock += n

        must = must_broadcast_batch(
            procs, ops, slots, self._holders, self._owner,
        )
        self._verdicts += np.stack([
            np.bincount(ops[must], minlength=len(TraceOp)),
            np.bincount(ops[~must], minlength=len(TraceOp)),
        ], axis=1)

        # Purges share nothing; every other op reads or writes.
        uses = (ops != TraceOp.DCBF) & (ops != TraceOp.DCBI)
        if uses.any():
            keys = ((slots[uses] >> self._mate_shift) << 16) | procs[uses]
            write = (ops[uses] == TraceOp.STORE) | (ops[uses] == TraceOp.DCBZ)
            at = positions[uses]
            self._add_pairs(_Pairs.reduce(
                keys, np.where(write, _NEVER, at), np.where(write, at, _NEVER),
            ))

    def _reuse(self, slots: np.ndarray, positions: np.ndarray) -> None:
        """Reuse distances of one batch; advances the carried marks."""
        n = len(slots)
        first_pos = int(positions[0])
        last_pos = self._last_pos
        order = np.argsort(slots, kind="stable")
        sorted_slots = slots[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(sorted_slots[1:], sorted_slots[:-1], out=first[1:])
        last = np.append(first[1:], True)
        previous_sorted = np.empty(n, dtype=np.int64)
        previous_sorted[1:] = positions[order[:-1]]
        carried = last_pos[sorted_slots[first]]
        previous_sorted[first] = carried
        previous = np.empty(n, dtype=np.int64)
        previous[order] = previous_sorted

        warm = np.flatnonzero(previous)
        self._cold += n - len(warm)
        if len(warm):
            distance = self._distinct_since(previous, warm, first_pos)
            if self.distance_scale != 1:
                same = self._same_region_since(
                    slots, previous, warm, first_pos,
                )
                distance = same + (distance - same) * self.distance_scale
            self._record(distance)

        # Move each touched line's mark to its latest position.
        latest = positions[order[last]]
        seen = carried[carried > 0]
        self._lines += len(carried) - len(seen)
        self._marks.reserve(int(positions[-1]), last_pos)
        last_pos[sorted_slots[last]] = latest
        self._marks.add(
            np.concatenate([seen, latest]),
            np.concatenate([
                np.full(len(seen), -1, dtype=np.int32),
                np.ones(len(latest), dtype=np.int32),
            ]),
        )

    def _distinct_since(
        self, previous: np.ndarray, warm: np.ndarray, first_pos: int,
    ) -> np.ndarray:
        """Distinct other lines touched since each warm access's previous.

        With ``p`` the previous access and ``c0`` the batch start, lines
        last touched in ``(p, c0)`` are counted on the carried marks.
        Lines first touched since then inside the batch are the accesses
        ``j`` in ``[a, t)``, ``a = max(p + 1, c0)``, whose own previous
        access is at most ``p``. Every ``j < a`` in the batch satisfies
        that trivially (``previous(j) < j <= p``), so the in-batch count
        is the dominance count over ``[c0, t)`` minus ``a - c0``.
        """
        p = previous[warm]
        distance = _earlier_at_most(np.argsort(previous, kind="stable"))[warm] \
            - np.maximum(p - first_pos + 1, 0)
        before = np.flatnonzero(p < first_pos)
        distance[before] += self._lines - self._marks.prefix(p[before])
        return distance

    def _same_region_since(
        self,
        slots: np.ndarray,
        previous: np.ndarray,
        warm: np.ndarray,
        first_pos: int,
    ) -> np.ndarray:
        """The part of :meth:`_distinct_since` within the line's region.

        The same two counts in region-sorted order: region-mates' carried
        latest positions, then the dominance count with values ranked
        region-major, so the accesses to earlier regions always count
        and are subtracted, with the region's accesses before ``a``, as
        the offset ``lo``.
        """
        n = len(slots)
        regions = slots >> self._mate_shift
        order = np.argsort(regions, kind="stable")
        at = np.empty(n, dtype=np.int64)
        at[order] = np.arange(n)
        p = previous[warm]
        # Where the region's accesses from the in-batch start a begin.
        lo = np.searchsorted(
            regions[order] * n + order,
            regions[warm] * n + np.maximum(p - first_pos + 1, 0),
        )
        same = _earlier_at_most(
            np.lexsort((previous[order], regions[order])),
        )[at[warm]] - lo
        before = np.flatnonzero(p < first_pos)
        mates = (regions[warm[before], None] << self._mate_shift) \
            + np.arange(1 << self._mate_shift)
        same[before] += (
            self._last_pos[mates] > p[before, None]
        ).sum(axis=1)
        return same

    def _record(self, distance: np.ndarray) -> None:
        self._total_distance += int(distance.sum())
        self._max_distance = max(self._max_distance, int(distance.max()))
        # frexp's exponent is the bit length (exact below 2**53).
        self._buckets += np.bincount(
            np.frexp(distance.astype(np.float64))[1],
            minlength=len(self._buckets),
        )

    def _add_pairs(self, pairs: "_Pairs") -> None:
        self._pending.append(pairs)
        self._pending_size += len(pairs.keys)
        if self._pending_size > max(len(self._pairs.keys), 4096):
            self._merge_pairs()

    def _merge_pairs(self) -> "_Pairs":
        if self._pending:
            self._pairs = _Pairs.reduce(*(
                np.concatenate(column)
                for column in zip(self._pairs, *self._pending)
            ))
            self._pending = []
            self._pending_size = 0
        return self._pairs

    # ------------------------------------------------------------------
    def finish(self) -> TraceProfile:
        """Freeze the pass into a :class:`TraceProfile`."""
        width = self.declared_processors
        if width is None:
            width = self.top_proc + 1
        elif self.top_proc >= width:
            raise WorkloadError(
                f"trace events name processor {self.top_proc} but only "
                f"{width} processors were declared"
            )
        pairs = self._merge_pairs()
        touched = len(self._region_ids)
        region = pairs.keys >> 16
        sharers = np.bincount(region, minlength=touched)
        written = np.bincount(
            region[pairs.first_write != _NEVER], minlength=touched,
        ) > 0
        shared = sharers >= 2
        upgrades = (pairs.first_write != _NEVER) \
            & (pairs.first_read < pairs.first_write)
        histogram = np.bincount(sharers)
        names = [op.name for op in TraceOp]
        return TraceProfile(
            accesses=self.accesses,
            num_processors=width,
            line_bytes=self.line_bytes,
            region_bytes=self.region_bytes,
            distance_scale=self.distance_scale,
            op_counts={
                names[code]: int(count)
                for code, count in enumerate(self.op_counts)
                if count
            },
            reuse=ReuseDistanceHistogram(
                cold=self._cold,
                finite=int(self._buckets.sum()),
                total_distance=self._total_distance,
                max_distance=self._max_distance,
                buckets={
                    int(bucket): int(self._buckets[bucket])
                    for bucket in np.flatnonzero(self._buckets)
                },
            ),
            oracle=OracleProfile(
                needed=int(self._verdicts[:, 0].sum()),
                unnecessary=int(self._verdicts[:, 1].sum()),
                per_op={
                    names[code]: [int(c) for c in self._verdicts[code]]
                    for code in np.flatnonzero(self._verdicts.sum(axis=1))
                },
            ),
            regions_touched=touched,
            regions_shared=int(shared.sum()),
            regions_write_shared=int((shared & written).sum()),
            upgrades=int(upgrades.sum()),
            sharer_histogram={
                int(k): int(histogram[k]) for k in np.flatnonzero(histogram)
            },
            lines_touched=self._lines,
        )


class _Pairs(NamedTuple):
    """First read and first write position per (region id, processor)."""

    keys: np.ndarray          # region id << 16 | processor, sorted
    first_read: np.ndarray    # _NEVER when the pair never read
    first_write: np.ndarray   # _NEVER when the pair never wrote

    @classmethod
    def empty(cls) -> "_Pairs":
        return cls(*(np.zeros(0, dtype=np.int64) for _ in range(3)))

    @classmethod
    def reduce(
        cls, keys: np.ndarray, first_read: np.ndarray,
        first_write: np.ndarray,
    ) -> "_Pairs":
        """Group by key, keeping the earliest read and write."""
        order = np.argsort(keys)
        keys = keys[order]
        starts = np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))
        return cls(
            keys[starts],
            np.minimum.reduceat(first_read[order], starts),
            np.minimum.reduceat(first_write[order], starts),
        )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def profile_events(
    chunks: Iterable[EventChunk],
    line_bytes: int = 64,
    region_bytes: int = 512,
    num_processors: Optional[int] = None,
    distance_scale: int = 1,
) -> TraceProfile:
    """Profile an event stream (chunking-invariant)."""
    profiler = TraceProfiler(
        line_bytes=line_bytes, region_bytes=region_bytes,
        num_processors=num_processors, distance_scale=distance_scale,
    )
    for chunk in chunks:
        profiler.feed(chunk)
    return profiler.finish()


def profile_file(
    path: Union[str, Path],
    line_bytes: int = 64,
    region_bytes: int = 512,
    chunk_records: int = 65_536,
    distance_scale: int = 1,
) -> TraceProfile:
    """Profile a CSV/binary trace file in its own event order."""
    from repro.traces.reader import detect_format

    info = detect_format(path)
    if info.format == "npz":
        return profile_workload(
            MultiTrace.load(path), line_bytes=line_bytes,
            region_bytes=region_bytes, distance_scale=distance_scale,
        )
    return profile_events(
        read_events(path, chunk_records=chunk_records),
        line_bytes=line_bytes, region_bytes=region_bytes,
        num_processors=info.num_processors,
        distance_scale=distance_scale,
    )


def profile_workload(
    workload: MultiTrace,
    line_bytes: int = 64,
    region_bytes: int = 512,
    distance_scale: int = 1,
) -> TraceProfile:
    """Profile an in-memory workload in round-robin interleaving."""
    return profile_events(
        workload_to_events(workload),
        line_bytes=line_bytes, region_bytes=region_bytes,
        num_processors=workload.num_processors,
        distance_scale=distance_scale,
    )
