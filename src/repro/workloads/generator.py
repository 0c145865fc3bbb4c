"""Synthetic workload generator.

The generator models a workload as a stream of *episodes* per processor.
Each episode picks a memory pool, a locality chunk inside it, and emits a
spatial run of line-grain operations. Five pool kinds reproduce the
sharing behaviours that drive the paper's results:

* **private** — per-processor data nobody else touches; broadcasts for it
  are unnecessary and CGCT converts them to direct requests.
* **shared read-only** — data every processor may read (code-like data,
  buffer pools). A per-processor *bias* interpolates between disjoint
  working sets (raytrace-style partitioning: remote copies rare) and
  fully overlapped scans (TPC-H-style: remote copies everywhere, so
  broadcasts are genuinely necessary).
* **shared read-write** — migratory records. Chunks have an owner that
  rotates every *epoch*; the owner mostly stores, others mostly load.
  This produces the cache-to-cache transfers and the
  externally-dirty-then-empty regions that the RCA's self-invalidation
  rescues.
* **code** — instruction fetches, always clean-shared.
* **page zeroing** — AIX's DCBZ initialisation of freshly allocated
  pages (the paper's dominant DCB source), followed by stores that use
  the new page.

A profile also controls spatial run lengths (how much of a region an
episode touches — the paper's locality lever), the compute gap between
operations (bandwidth intensity), streaming turnover (cold misses), and
a phase schedule (TPC-H's parallel-scan-then-merge shape).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_seed
from repro.workloads.trace import MultiTrace, Trace, TraceOp

if TYPE_CHECKING:
    import numpy as np

#: Address-space layout (well inside the 40-bit physical space).
CODE_BASE = 0x01_0000_0000
SHARED_RO_BASE = 0x02_0000_0000
SHARED_RW_BASE = 0x03_0000_0000
HEAP_BASE = 0x05_0000_0000
PRIVATE_BASE = 0x10_0000_0000
PRIVATE_STRIDE = 0x01_0000_0000
FRESH_BASE = 0x40_0000_0000
FRESH_STRIDE = 0x01_0000_0000

LINE = 64
PAGE = 4096
LINES_PER_PAGE = PAGE // LINE

#: Record opcodes as plain ints, and the op sequences one access emits.
_LOAD = int(TraceOp.LOAD)
_STORE = int(TraceOp.STORE)
_DCBZ = int(TraceOp.DCBZ)
_LOAD_ONLY = (_LOAD,)
_STORE_ONLY = (_STORE,)
_LOAD_STORE = (_LOAD, _STORE)
_IFETCH_ONLY = (int(TraceOp.IFETCH),)

#: Fibonacci-hash multiplier for virtual→physical page placement.
_PAGE_HASH_MULTIPLIER = 0x9E3779B97F4A7C15
_U64 = (1 << 64) - 1
#: Physical pages: 28 bits of page number + 12 bits of offset = 40-bit space.
_PHYS_PAGE_BITS = 28


def physical_address(virtual: int) -> int:
    """Translate a generator-space address to a scattered physical address.

    Real operating systems hand out physical pages with no particular
    contiguity, which is what spreads a workload's footprint across cache
    and RCA sets (and across memory controllers). The generator's neat
    per-pool virtual layout would instead alias every pool into the same
    few sets, so each 4 KB page is placed pseudo-randomly — but
    deterministically, and identically for every processor — via a
    Fibonacci hash of its virtual page number. Locality *within* a page
    (spatial runs, regions, DCBZ bursts) is preserved exactly.
    """
    vpage = virtual >> 12
    phys_page = ((vpage * _PAGE_HASH_MULTIPLIER) & _U64) >> (64 - _PHYS_PAGE_BITS)
    return (phys_page << 12) | (virtual & (PAGE - 1))


def physical_addresses(virtual: np.ndarray) -> np.ndarray:
    """:func:`physical_address` over a ``uint64`` array, in one pass.

    uint64 multiplication wraps modulo 2**64, which is exactly the
    scalar version's ``& _U64``.
    """
    import numpy as np

    vpage = virtual >> np.uint64(12)
    phys_page = (vpage * np.uint64(_PAGE_HASH_MULTIPLIER)) \
        >> np.uint64(64 - _PHYS_PAGE_BITS)
    return (phys_page << np.uint64(12)) | (virtual & np.uint64(PAGE - 1))


@dataclass(frozen=True)
class PhaseSpec:
    """Episode-type probabilities for one phase of a workload.

    ``fraction`` is the share of the processor's operations spent in the
    phase; the remaining fields are episode-type probabilities (they
    must sum to 1) plus per-phase overrides. ``p_heap`` selects the
    allocator-interleaved pool: data private to each processor but
    adjacent to other processors' data at sub-kilobyte granularity —
    the pattern that makes very large regions lose to 512 B ones.
    """

    fraction: float
    p_private: float
    p_shared_ro: float
    p_shared_rw: float
    p_code: float
    p_page_zero: float = 0.0
    p_heap: float = 0.0
    mean_gap: Optional[float] = None

    def __post_init__(self) -> None:
        total = (
            self.p_private
            + self.p_shared_ro
            + self.p_shared_rw
            + self.p_code
            + self.p_page_zero
            + self.p_heap
        )
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                f"phase episode probabilities must sum to 1, got {total}"
            )
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError(
                f"phase fraction must be in (0, 1], got {self.fraction}"
            )


@dataclass(frozen=True)
class WorkloadProfile:
    """Everything that characterises one synthetic benchmark."""

    name: str
    description: str
    category: str
    ops_per_processor: int = 120_000
    mean_gap: float = 6.0

    # Pool sizes (bytes)
    private_bytes: int = 4 << 20
    shared_ro_bytes: int = 2 << 20
    shared_rw_bytes: int = 1 << 20
    code_bytes: int = 512 << 10
    #: Allocator-interleaved heap: thread-private 512 B parcels laid out
    #: round-robin, so neighbours belong to other processors.
    heap_bytes: int = 2 << 20
    heap_chunk_bytes: int = 512

    # Locality
    chunk_bytes: int = 2048
    #: Ownership granule of the read-write pool. Migratory records
    #: (OLTP rows, particles) are small: with 512 B ownership units,
    #: 1 KB regions span data owned by different processors — the
    #: region-grain false sharing that makes 512 B the paper's best
    #: region size.
    rw_chunk_bytes: int = 512
    mean_run_lines: float = 4.0
    code_run_lines: float = 8.0
    #: Mean processor accesses per touched data line (word-granular reuse;
    #: this is what gives the L1 D-cache a realistic hit rate).
    line_repeat_mean: float = 2.5
    #: Mean fetches per touched instruction line (loops re-fetch bodies).
    code_repeat_mean: float = 3.0

    # Behaviour
    store_fraction: float = 0.3
    ro_store_fraction: float = 0.02
    rw_owner_store_fraction: float = 0.6
    rw_other_store_fraction: float = 0.1
    #: Preference for a processor's own slice of the shared-RO pool:
    #: 1.0 = fully partitioned (disjoint), 0.0 = fully overlapped.
    ro_bias: float = 0.5
    #: Probability that a private episode streams through a brand-new
    #: chunk instead of revisiting the pool (cold misses, RCA turnover).
    stream_fraction: float = 0.05
    #: Fraction of pool accesses steered to a small hot subset.
    hot_fraction: float = 0.3
    hot_pool_fraction: float = 0.1
    #: Ownership-rotation period for the read-write pool (migratory data).
    epoch_ops: int = 12_000
    #: Multiprogrammed workloads (SPECint-rate) run separate binaries:
    #: each processor fetches from its own code range instead of shared
    #: code pages.
    code_private: bool = False

    phases: Tuple[PhaseSpec, ...] = (
        PhaseSpec(
            fraction=1.0,
            p_private=0.55,
            p_shared_ro=0.15,
            p_shared_rw=0.10,
            p_code=0.18,
            p_page_zero=0.02,
        ),
    )

    def __post_init__(self) -> None:
        if abs(sum(p.fraction for p in self.phases) - 1.0) > 1e-9:
            raise ConfigurationError(
                f"{self.name}: phase fractions must sum to 1"
            )
        for label, value in (
            ("private_bytes", self.private_bytes),
            ("shared_ro_bytes", self.shared_ro_bytes),
            ("shared_rw_bytes", self.shared_rw_bytes),
            ("code_bytes", self.code_bytes),
            ("chunk_bytes", self.chunk_bytes),
        ):
            if value < self.chunk_bytes and label != "chunk_bytes":
                raise ConfigurationError(
                    f"{self.name}: {label} ({value}) smaller than one chunk"
                )
        if self.chunk_bytes % LINE:
            raise ConfigurationError(
                f"{self.name}: chunk_bytes must be a line multiple"
            )
        if self.rw_chunk_bytes % LINE or self.rw_chunk_bytes <= 0:
            raise ConfigurationError(
                f"{self.name}: rw_chunk_bytes must be a positive line multiple"
            )
        if self.heap_chunk_bytes % LINE or self.heap_chunk_bytes <= 0:
            raise ConfigurationError(
                f"{self.name}: heap_chunk_bytes must be a positive line multiple"
            )


def profile_digest(profile: WorkloadProfile) -> str:
    """Stable digest of every profile field (16 hex chars).

    Part of the materialized workload cache's content address
    (:mod:`repro.workloads.store`): two profiles that generate
    different traces must never share a key, including profiles built
    programmatically rather than drawn from the registry.
    """
    payload = json.dumps(asdict(profile), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class SyntheticWorkload:
    """Generates :class:`MultiTrace` instances from a profile."""

    def __init__(self, profile: WorkloadProfile, num_processors: int = 4) -> None:
        if num_processors <= 0:
            raise ConfigurationError("num_processors must be positive")
        self.profile = profile
        self.num_processors = num_processors

    def build(
        self, seed: int = 0, ops_per_processor: Optional[int] = None
    ) -> MultiTrace:
        """Generate the full multiprocessor trace, deterministically."""
        n = ops_per_processor or self.profile.ops_per_processor
        traces = [
            _ProcessorStream(self.profile, proc, self.num_processors, seed).generate(n)
            for proc in range(self.num_processors)
        ]
        return MultiTrace(per_processor=traces, name=self.profile.name)


class _ProcessorStream:
    """Episode machinery for one processor's trace."""

    def __init__(
        self, profile: WorkloadProfile, proc: int, nprocs: int, seed: int
    ) -> None:
        self.profile = profile
        self.proc = proc
        self.nprocs = nprocs
        # The stream scope includes the machine size: a processor's
        # episode choices depend on nprocs (owner rotation, heap
        # interleaving), so a 4p and an 8p build sharing P0's stream
        # would produce correlated-but-diverging traces. Distinct
        # machine sizes must draw fully independent streams.
        self.rng = random.Random(
            derive_seed(seed, profile.name, "nprocs", nprocs, "proc", proc)
        )
        chunk = profile.chunk_bytes
        self.private_chunks = max(1, profile.private_bytes // chunk)
        self.ro_chunks = max(1, profile.shared_ro_bytes // chunk)
        self.rw_chunks = max(1, profile.shared_rw_bytes // profile.rw_chunk_bytes)
        self.code_chunks = max(1, profile.code_bytes // chunk)
        self.rw_lines_per_chunk = profile.rw_chunk_bytes // LINE
        self.heap_lines_per_chunk = profile.heap_chunk_bytes // LINE
        #: Heap parcels this processor owns (round-robin interleaved).
        self.heap_own_chunks = max(
            1, profile.heap_bytes // profile.heap_chunk_bytes // max(1, nprocs)
        )
        self.private_base = PRIVATE_BASE + proc * PRIVATE_STRIDE
        # The fresh pools must sit above *every* private pool: past 48
        # processors a fixed FRESH_BASE would place the upper private
        # pools (PRIVATE_BASE + 48·PRIVATE_STRIDE = FRESH_BASE) on top
        # of the low processors' fresh pools, silently sharing pages
        # that are supposed to be private. max() lifts the floor only
        # then, so every ≤48-processor trace stays bit-identical.
        fresh_floor = max(FRESH_BASE, PRIVATE_BASE + nprocs * PRIVATE_STRIDE)
        self.fresh_base = fresh_floor + proc * FRESH_STRIDE
        self.fresh_cursor = 0
        self.lines_per_chunk = chunk // LINE
        # Output accumulators
        self.ops: List[int] = []
        self.addresses: List[int] = []
        self.gaps: List[int] = []

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def generate(self, n_ops: int) -> Trace:
        """Emit this processor's trace of exactly n_ops records."""
        import numpy as np

        phases = self._phase_boundaries(n_ops)
        for phase, start, end in phases:
            mean_gap = (
                phase.mean_gap if phase.mean_gap is not None else self.profile.mean_gap
            )
            while len(self.ops) < end:
                self._episode(phase, mean_gap)
        self._truncate(n_ops)
        return Trace(
            ops=np.array(self.ops, dtype=np.uint8),
            addresses=physical_addresses(
                np.array(self.addresses, dtype=np.uint64)),
            gaps=np.array(self.gaps, dtype=np.uint32),
            name=f"{self.profile.name}.p{self.proc}",
        )

    def _phase_boundaries(self, n_ops: int):
        out = []
        start = 0
        for phase in self.profile.phases:
            end = min(n_ops, start + int(round(phase.fraction * n_ops)))
            out.append((phase, start, end))
            start = end
        if start < n_ops:  # rounding slack goes to the last phase
            phase, s, _e = out[-1]
            out[-1] = (phase, s, n_ops)
        return out

    def _truncate(self, n_ops: int) -> None:
        del self.ops[n_ops:]
        del self.addresses[n_ops:]
        del self.gaps[n_ops:]

    # ------------------------------------------------------------------
    # Episodes
    # ------------------------------------------------------------------
    def _episode(self, phase: PhaseSpec, mean_gap: float) -> None:
        roll = self.rng.random()
        if roll < phase.p_private:
            self._private_episode(mean_gap)
            return
        roll -= phase.p_private
        if roll < phase.p_shared_ro:
            self._shared_ro_episode(mean_gap)
            return
        roll -= phase.p_shared_ro
        if roll < phase.p_shared_rw:
            self._shared_rw_episode(mean_gap)
            return
        roll -= phase.p_shared_rw
        if roll < phase.p_code:
            self._code_episode(mean_gap)
            return
        roll -= phase.p_code
        if roll < phase.p_heap:
            self._heap_episode(mean_gap)
            return
        self._page_zero_episode(mean_gap)

    def _private_episode(self, mean_gap: float) -> None:
        profile = self.profile
        if self.rng.random() < profile.stream_fraction:
            base = self.fresh_base + self.fresh_cursor * profile.chunk_bytes
            self.fresh_cursor += 1
        else:
            index = self._pool_index(self.private_chunks)
            base = self.private_base + index * profile.chunk_bytes
        self._data_run(base, profile.store_fraction, mean_gap)

    def _shared_ro_episode(self, mean_gap: float) -> None:
        profile = self.profile
        if self.rng.random() < profile.ro_bias:
            # My slice of the pool.
            slice_size = max(1, self.ro_chunks // self.nprocs)
            index = self.proc * slice_size + self._pool_index(slice_size)
            index %= self.ro_chunks
        else:
            index = self._pool_index(self.ro_chunks)
        base = SHARED_RO_BASE + index * profile.chunk_bytes
        self._data_run(base, profile.ro_store_fraction, mean_gap)

    def _shared_rw_episode(self, mean_gap: float) -> None:
        profile = self.profile
        index = self._pool_index(self.rw_chunks)
        epoch = len(self.ops) // profile.epoch_ops
        owner = (index + epoch) % self.nprocs
        store_fraction = (
            profile.rw_owner_store_fraction
            if owner == self.proc
            else profile.rw_other_store_fraction
        )
        base = SHARED_RW_BASE + index * profile.rw_chunk_bytes
        self._data_run(base, store_fraction, mean_gap,
                       lines_per_chunk=self.rw_lines_per_chunk)

    def _heap_episode(self, mean_gap: float) -> None:
        """Touch one of this processor's own allocator parcels.

        The data is genuinely private — no other processor ever touches
        it — but parcels interleave round-robin across processors, so a
        region larger than one parcel inevitably covers other
        processors' parcels too (region-grain false sharing).
        """
        profile = self.profile
        # Uniform over the processor's parcels: allocators spread live
        # objects, so there is no hot subset here.
        own = self.rng.randrange(self.heap_own_chunks)
        index = own * self.nprocs + self.proc
        base = HEAP_BASE + index * profile.heap_chunk_bytes
        self._data_run(base, profile.store_fraction, mean_gap,
                       lines_per_chunk=self.heap_lines_per_chunk)

    def _code_episode(self, mean_gap: float) -> None:
        profile = self.profile
        index = self._pool_index(self.code_chunks)
        code_base = CODE_BASE
        if profile.code_private:
            code_base += (self.proc + 1) * 0x1000_0000
        base = code_base + index * profile.chunk_bytes
        self._line_run(base, self.lines_per_chunk, profile.code_run_lines,
                       profile.code_repeat_mean, None, mean_gap)

    def _page_zero_episode(self, mean_gap: float) -> None:
        """AIX-style allocation: DCBZ a fresh page, then store into it."""
        page_base = self.fresh_base + 0x2000_0000 + self.fresh_cursor * PAGE
        self.fresh_cursor += 1
        rng = self.rng
        random = rng.random
        emit = self._emit
        for i in range(LINES_PER_PAGE):
            emit(_DCBZ, page_base + i * LINE, 1.0)
        uses = rng.randrange(4, 12)
        for _ in range(uses):
            offset = rng.randrange(LINES_PER_PAGE) * LINE
            op = _STORE if random() < 0.7 else _LOAD
            emit(op, page_base + offset, mean_gap)

    # ------------------------------------------------------------------
    # Low-level emission
    # ------------------------------------------------------------------
    def _data_run(
        self,
        chunk_base: int,
        store_fraction: float,
        mean_gap: float,
        lines_per_chunk: int = 0,
    ) -> None:
        profile = self.profile
        self._line_run(chunk_base, lines_per_chunk or self.lines_per_chunk,
                       profile.mean_run_lines, profile.line_repeat_mean,
                       store_fraction, mean_gap)

    def _line_run(
        self,
        chunk_base: int,
        lines_per_chunk: int,
        run_mean: float,
        repeat_mean: float,
        store_fraction: Optional[float],
        mean_gap: float,
    ) -> None:
        """A spatial run of lines, each accessed a geometric number of times.

        ``store_fraction`` ``None`` makes every access an instruction
        fetch; otherwise each access is a store with that probability,
        and the first access of a line that stores is preceded by a load
        60 % of the time (read-modify-write realism). This is the hot
        loop of generation, so the geometric draws of the run length,
        the per-line repeat count and every gap are written out inline,
        in the exact draw order of :meth:`_run_length` and :meth:`_gap`.
        """
        random = self.rng.random
        append_op = self.ops.append
        append_address = self.addresses.append
        append_gap = self.gaps.append
        run = self._run_length(run_mean)
        start = self.rng.randrange(lines_per_chunk)
        repeat_p = 1.0 / repeat_mean if repeat_mean > 1.0 else 0.0
        repeat_cap = 4 * repeat_mean
        gap_p = 1.0 / (mean_gap + 1.0) if mean_gap > 0 else 0.0
        gap_cap = 10 * mean_gap
        for i in range(run):
            address = chunk_base + ((start + i) % lines_per_chunk) * LINE
            accesses = 1
            if repeat_p:
                while random() > repeat_p:
                    accesses += 1
                    if accesses >= repeat_cap:
                        break
            for access in range(accesses):
                if store_fraction is None:
                    ops = _IFETCH_ONLY
                elif random() < store_fraction:
                    ops = (_LOAD_STORE if access == 0 and random() < 0.6
                           else _STORE_ONLY)
                else:
                    ops = _LOAD_ONLY
                for op in ops:
                    append_op(op)
                    append_address(address)
                    gap = 0
                    if gap_p:
                        while random() > gap_p and gap < gap_cap:
                            gap += 1
                    append_gap(gap)

    def _pool_index(self, pool_size: int) -> int:
        """Pick a chunk index, steering ``hot_fraction`` to a hot subset."""
        profile = self.profile
        hot = max(1, int(pool_size * profile.hot_pool_fraction))
        if self.rng.random() < profile.hot_fraction:
            return self.rng.randrange(hot)
        return self.rng.randrange(pool_size)

    def _run_length(self, mean: float) -> int:
        """Geometric run length with the given mean, at least one line.

        :meth:`_line_run` draws each line's repeat count with an inline
        copy of this loop: a change here must be made there too.
        """
        if mean <= 1.0:
            return 1
        p = 1.0 / mean
        length = 1
        while self.rng.random() > p:
            length += 1
            if length >= 4 * mean:
                break
        return length

    def _emit(self, op: int, address: int, mean_gap: float) -> None:
        """Append one record; ``address`` is virtual until :meth:`generate`."""
        self.ops.append(op)
        self.addresses.append(address)
        self.gaps.append(self._gap(mean_gap))

    def _gap(self, mean_gap: float) -> int:
        # :meth:`_line_run` draws each record's gap with an inline copy
        # of this loop: a change here must be made there too.
        if mean_gap <= 0:
            return 0
        # Geometric with the requested mean: bursty like real code.
        p = 1.0 / (mean_gap + 1.0)
        gap = 0
        while self.rng.random() > p and gap < 10 * mean_gap:
            gap += 1
        return gap
