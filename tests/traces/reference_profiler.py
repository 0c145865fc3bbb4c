"""The per-access trace profiler, kept as the slow oracle for the tests.

This is the straightforward one-access-at-a-time profiler the batched
kernel in :mod:`repro.traces.profiler` replaced: a pure-Python Fenwick
tree for reuse distances, a :class:`GoldenModel` step per access for the
Figure-2 verdicts, and per-region bitmasks for the sharing footprint.
It is easy to check by eye and slow (~100 k records/s); the
differential tests require ``to_dict()`` of both to be equal.

Run as a script to profile a trace file the same way
``traces profile --json`` does::

    PYTHONPATH=src python tests/traces/reference_profiler.py TRACE OUT.json
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.common.errors import WorkloadError
from repro.conformance.golden import GoldenModel
from repro.traces.profiler import (
    OracleProfile,
    ReuseDistanceHistogram,
    TraceProfile,
)
from repro.traces.reader import EventChunk, detect_format, read_events
from repro.workloads.trace import TraceOp

#: Trace operations that write the line (mirror of the golden model).
_WRITE_OPS = (int(TraceOp.STORE), int(TraceOp.DCBZ))

#: Trace operations that read (install a clean copy).
_READ_OPS = (int(TraceOp.LOAD), int(TraceOp.IFETCH))


class _Fenwick:
    """Binary indexed tree over access positions (1-based).

    The profiler marks the most recent position of every live line;
    when the clock outgrows the capacity, it rebuilds a doubled tree
    from those marks (O(lines · log N), amortized away by the
    doubling).
    """

    __slots__ = ("tree", "size")

    def __init__(self, size: int = 1024, marks: Iterable[int] = ()) -> None:
        self.size = size
        self.tree = [0] * (size + 1)
        for mark in marks:
            self.add(mark, 1)

    def add(self, index: int, delta: int) -> None:
        tree = self.tree
        while index <= self.size:
            tree[index] += delta
            index += index & -index

    def prefix(self, index: int) -> int:
        total = 0
        tree = self.tree
        while index > 0:
            total += tree[index]
            index -= index & -index
        return total


class _Histogram(ReuseDistanceHistogram):
    """The histogram with the per-access ``record`` the loop feeds."""

    def record(self, distance: int) -> None:
        self.finite += 1
        self.total_distance += distance
        if distance > self.max_distance:
            self.max_distance = distance
        bucket = distance.bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1


@dataclass
class RegionFootprint:
    """One region's sharing summary."""

    readers: int = 0   # processor bitmask
    writers: int = 0   # processor bitmask
    reads: int = 0
    writes: int = 0
    flushes: int = 0
    upgrades: int = 0

    @property
    def sharers(self) -> int:
        return bin(self.readers | self.writers).count("1")


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
        self.line_shift = line_bytes.bit_length() - 1
        self.region_shift = region_bytes.bit_length() - 1
        self.line_bytes = line_bytes
        self.region_bytes = region_bytes
        self.distance_scale = distance_scale
        self.declared_processors = num_processors
        self.top_proc = -1
        self.accesses = 0
        self.op_counts = [0] * (max(TraceOp) + 1)
        self.reuse = _Histogram()
        self.oracle = OracleProfile()
        self.regions: Dict[int, RegionFootprint] = {}
        # Reuse-distance state: most recent position per line + Fenwick
        # marks over positions (position t marked iff it is some line's
        # most recent access).
        self._last_pos: Dict[int, int] = {}
        self._fenwick = _Fenwick()
        self._clock = 0
        # Golden model: processor count finalized at finish(); 64 covers
        # every machine the repo builds and the model only masks bits.
        self._golden = GoldenModel(64)
        self._op_names = [op.name for op in TraceOp]

    # ------------------------------------------------------------------
    def feed(self, chunk: EventChunk) -> None:
        """Consume one event chunk (stream order is the interleaving)."""
        procs = chunk.procs.tolist()
        ops = chunk.ops.tolist()
        addresses = chunk.addresses.tolist()
        line_shift = self.line_shift
        region_shift = self.region_shift
        scale = self.distance_scale
        region_line_shift = region_shift - line_shift
        lines_per_region = 1 << region_line_shift
        last_pos = self._last_pos
        fenwick = self._fenwick
        reuse = self.reuse
        regions = self.regions
        golden = self._golden
        oracle = self.oracle
        per_op = oracle.per_op
        op_names = self._op_names
        op_counts = self.op_counts
        clock = self._clock
        for proc, op, address in zip(procs, ops, addresses):
            if proc > self.top_proc:
                self.top_proc = proc
            op_counts[op] += 1
            line = address >> line_shift
            region = address >> region_shift

            # Reuse distance (Olken/Fenwick).
            clock += 1
            if clock > fenwick.size:
                fenwick = self._fenwick = _Fenwick(
                    fenwick.size * 2, marks=last_pos.values(),
                )
            previous = last_pos.get(line)
            if previous is None:
                reuse.cold += 1
            else:
                distance = fenwick.prefix(clock - 1) \
                    - fenwick.prefix(previous)
                if scale != 1 and distance:
                    # Region-aware SHARDS correction: region-aligned
                    # sampling keeps a line's region-mates, so the
                    # intra-region part of the distance is *exact* and
                    # only inter-region lines were thinned by `rate`.
                    # The region holds <= region/line lines; scan them.
                    base = (line >> region_line_shift) << region_line_shift
                    same = 0
                    for mate in range(base, base + lines_per_region):
                        if mate != line:
                            pos = last_pos.get(mate)
                            if pos is not None and pos > previous:
                                same += 1
                    distance = same + (distance - same) * scale
                reuse.record(distance)
                fenwick.add(previous, -1)
            fenwick.add(clock, 1)
            last_pos[line] = clock

            # Region sharing footprint.
            footprint = regions.get(region)
            if footprint is None:
                footprint = regions[region] = RegionFootprint()
            bit = 1 << proc
            if op in _WRITE_OPS:
                if (footprint.readers & bit) \
                        and not (footprint.writers & bit):
                    footprint.upgrades += 1
                footprint.writers |= bit
                footprint.writes += 1
            elif op in _READ_OPS:
                footprint.readers |= bit
                footprint.reads += 1
            else:  # DCBF / DCBI purge; count them, they share nothing
                footprint.flushes += 1

            # Oracle Figure 2 verdict (golden may-hold model).
            verdict = golden.access(proc, TraceOp(op), line)
            name = op_names[op]
            cell = per_op.get(name)
            if cell is None:
                cell = per_op[name] = [0, 0]
            if verdict.must_broadcast:
                oracle.needed += 1
                cell[0] += 1
            else:
                oracle.unnecessary += 1
                cell[1] += 1
        self._clock = clock
        self.accesses += len(procs)

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
        shared = write_shared = upgrades = 0
        sharer_histogram: Dict[int, int] = {}
        for footprint in self.regions.values():
            sharers = footprint.sharers
            sharer_histogram[sharers] = \
                sharer_histogram.get(sharers, 0) + 1
            if sharers >= 2:
                shared += 1
                if footprint.writers:
                    write_shared += 1
            upgrades += footprint.upgrades
        return TraceProfile(
            accesses=self.accesses,
            num_processors=width,
            line_bytes=self.line_bytes,
            region_bytes=self.region_bytes,
            distance_scale=self.distance_scale,
            op_counts={
                self._op_names[code]: count
                for code, count in enumerate(self.op_counts)
                if count
            },
            reuse=self.reuse,
            oracle=self.oracle,
            regions_touched=len(self.regions),
            regions_shared=shared,
            regions_write_shared=write_shared,
            upgrades=upgrades,
            sharer_histogram=sharer_histogram,
            lines_touched=len(self._last_pos),
        )


def profile_events(
    chunks: Iterable[EventChunk],
    line_bytes: int = 64,
    region_bytes: int = 512,
    num_processors: Optional[int] = None,
    distance_scale: int = 1,
) -> TraceProfile:
    """Profile an event stream one access at a time."""
    profiler = TraceProfiler(
        line_bytes=line_bytes, region_bytes=region_bytes,
        num_processors=num_processors, distance_scale=distance_scale,
    )
    for chunk in chunks:
        profiler.feed(chunk)
    return profiler.finish()


def main(argv: Optional[list] = None) -> int:
    src, dst = (sys.argv[1:] if argv is None else argv)
    profile = profile_events(
        read_events(src), num_processors=detect_format(src).num_processors,
    )
    profile.save_json(dst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
