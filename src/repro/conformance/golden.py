"""Golden reference model: flat per-line ownership, no RCA, no timing.

The model is the conformance suite's ground truth, so it is built to be
*obviously* correct rather than precise. It tracks three maps over line
numbers and nothing else:

* ``holders`` — a bitmask of processors that **may** hold a copy. A
  processor joins on any access that can install a copy and leaves only
  when an operation *guarantees* invalidation everywhere (a store by
  another processor, a cache-block flush/invalidate). Capacity and
  region-forced evictions are invisible to the model, so ``holders`` is
  a sound overapproximation: the real machine's resident copies must
  always be a subset.
* ``dirty_owner`` — the single processor whose copy may be dirty (the
  last writer), or absent when the line is clean everywhere. A write
  makes the writer the owner; a flush/invalidate or an exclusive
  prefetch by another processor clears it. Loads never move it (the
  MOESI M→O demotion keeps the dirty data at the old owner).
* ``version`` — how many writes the line has absorbed; the model's
  stand-in for memory contents.

These three maps support exactly the checks the differential harness
needs (see :mod:`repro.conformance.differential`):

* every processor the real machine shows holding a line must appear in
  ``holders`` (superset check);
* every dirty (M/O) copy in the real machine must belong to
  ``dirty_owner`` (last-writer check);
* a request may skip the broadcast only if no *other* processor may
  hold the line (``remote_may_hold``), or — for instruction fetches,
  which tolerate remote clean copies — only if no remote copy may be
  dirty (``remote_may_dirty``).

Because ``holders`` never over-forgets, ``remote_may_hold(p) == 0``
really does prove that no remote copy exists, which is what makes the
must-broadcast verdict trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.coherence.requests import RequestType
from repro.workloads.trace import MultiTrace, TraceOp

#: Trace operations that write the line (install a dirty copy).
_WRITES = (TraceOp.STORE, TraceOp.DCBZ)

#: Trace operations that purge the line from every cache.
_PURGES = (TraceOp.DCBF, TraceOp.DCBI)


@dataclass(frozen=True)
class AccessVerdict:
    """Ground truth about one access, captured *before* it applied.

    ``remote_mask`` is the bitmask of other processors that may hold the
    line, ``remote_dirty`` whether any of them may hold it dirty, and
    ``must_broadcast`` whether a conforming implementation is allowed to
    resolve the access without a broadcast only if this is ``False``.
    """

    proc: int
    op: TraceOp
    line: int
    remote_mask: int
    remote_dirty: bool
    must_broadcast: bool


class GoldenModel:
    """The reference simulator (see module docstring)."""

    def __init__(self, num_processors: int) -> None:
        self.num_processors = num_processors
        self.holders: Dict[int, int] = {}
        self.dirty_owner: Dict[int, int] = {}
        self.version: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Pre-access queries
    # ------------------------------------------------------------------
    def remote_may_hold(self, proc: int, line: int) -> int:
        """Bitmask of *other* processors that may hold *line*."""
        return self.holders.get(line, 0) & ~(1 << proc)

    def remote_may_dirty(self, proc: int, line: int) -> bool:
        """Whether another processor's copy of *line* may be dirty."""
        owner = self.dirty_owner.get(line)
        return owner is not None and owner != proc

    def must_broadcast(self, proc: int, op: TraceOp, line: int) -> bool:
        """Whether *op* by *proc* is obliged to reach the other caches.

        Instruction fetches coexist with remote clean copies, so only a
        possibly-dirty remote copy forces them out; everything else must
        broadcast whenever any remote copy may exist (loads might need
        dirty data, writes and DCB ops must invalidate).
        """
        if op is TraceOp.IFETCH:
            return self.remote_may_dirty(proc, line)
        return self.remote_may_hold(proc, line) != 0

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------
    def access(self, proc: int, op: TraceOp, line: int) -> AccessVerdict:
        """Apply one trace operation; returns the pre-access verdict."""
        verdict = AccessVerdict(
            proc=proc,
            op=op,
            line=line,
            remote_mask=self.remote_may_hold(proc, line),
            remote_dirty=self.remote_may_dirty(proc, line),
            must_broadcast=self.must_broadcast(proc, op, line),
        )
        bit = 1 << proc
        if op in _WRITES:
            self.holders[line] = bit
            self.dirty_owner[line] = proc
            self.version[line] = self.version.get(line, 0) + 1
        elif op in _PURGES:
            self.holders.pop(line, None)
            self.dirty_owner.pop(line, None)
        else:  # LOAD / IFETCH — a copy joins, nothing is invalidated
            self.holders[line] = self.holders.get(line, 0) | bit
        return verdict

    def apply_request(self, proc: int, request: RequestType, line: int) -> None:
        """Apply a coherence request the machine issued on its own.

        The simulator's hardware prefetcher is the only source of
        external requests that do not correspond to a trace operation
        (evictions never reach the event log). A shared prefetch adds a
        may-holder; an exclusive prefetch invalidates every other copy
        and installs a *clean* modifiable copy, so the dirty owner — who
        supplied the data — is cleared.
        """
        bit = 1 << proc
        if request is RequestType.PREFETCH:
            self.holders[line] = self.holders.get(line, 0) | bit
        elif request is RequestType.PREFETCH_EX:
            self.holders[line] = bit
            self.dirty_owner.pop(line, None)
        # Demand requests (READ/RFO/UPGRADE/...) are driven through
        # access() from the trace itself and are deliberately ignored
        # here; WRITEBACKs only shrink the real machine's state and
        # cannot falsify a may-hold model.

    # ------------------------------------------------------------------
    # Invariants and replay (used by the property tests)
    # ------------------------------------------------------------------
    def check_self(self) -> List[str]:
        """The model's own sanity invariants; empty when healthy."""
        problems = []
        all_procs = (1 << self.num_processors) - 1
        for line, mask in self.holders.items():
            if mask == 0:
                problems.append(f"line {line:#x}: empty holder set retained")
            if mask & ~all_procs:
                problems.append(f"line {line:#x}: holder bit out of range")
        for line, owner in self.dirty_owner.items():
            if not (self.holders.get(line, 0) >> owner) & 1:
                problems.append(
                    f"line {line:#x}: dirty owner P{owner} is not a holder"
                )
        return problems

    def final_state(self) -> Dict[int, Tuple[int, Optional[int], int]]:
        """``{line: (holder_mask, dirty_owner, version)}`` snapshot."""
        lines = set(self.holders) | set(self.version)
        return {
            line: (
                self.holders.get(line, 0),
                self.dirty_owner.get(line),
                self.version.get(line, 0),
            )
            for line in lines
        }


def must_broadcast_batch(
    procs: np.ndarray,
    ops: np.ndarray,
    lines: np.ndarray,
    holders: np.ndarray,
    owner: np.ndarray,
) -> np.ndarray:
    """:meth:`GoldenModel.must_broadcast` for a batch, in closed form.

    ``procs``, ``ops`` and ``lines`` are parallel arrays in stream order;
    ``lines`` are dense ids into the carried per-line state, which the
    call updates in place to the state after the batch:

    * ``holders`` — ``(n, 2)`` ints, up to two distinct processors that
      may hold the line, ``-1`` for none. Two suffice: the rule only asks
      whether *another* processor may hold it.
    * ``owner`` — ``(n,)`` ints, the dirty owner or ``-1``.

    Returns the verdicts, in stream order, that applying the batch to a
    :class:`GoldenModel` one access at a time would produce. Within the
    batch, stably sorted by line, the state before access ``t`` by ``q``
    follows from the last *kill* (write or purge) ``k`` before ``t``:
    the holders are the processors of ``[k, t)`` (of ``(k, t)`` when
    ``k`` purged), and the dirty owner is ``k``'s writer. So a non-IFETCH
    access must broadcast iff the run of ``q``'s accesses ending at ``t``
    starts after that range begins — or, with no kill in the batch, also
    iff a carried holder is not ``q``. An IFETCH must broadcast iff the
    last kill is another processor's write, or, with no kill in the
    batch, iff the carried owner is another processor.
    """
    n = len(lines)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.argsort(lines, kind="stable")
    line = lines[order]
    proc = procs[order].astype(np.int64, copy=False)
    op = ops[order]
    index = np.arange(n)
    line_break = np.empty(n, dtype=bool)
    line_break[0] = True
    np.not_equal(line[1:], line[:-1], out=line_break[1:])
    run_break = line_break.copy()
    run_break[1:] |= proc[1:] != proc[:-1]
    line_start = np.maximum.accumulate(np.where(line_break, index, 0))
    run_start = np.maximum.accumulate(np.where(run_break, index, 0))
    write = (op == TraceOp.STORE) | (op == TraceOp.DCBZ)
    purge = (op == TraceOp.DCBF) | (op == TraceOp.DCBI)
    # Last kill at or before each position, if it lies within the line.
    kill_upto = np.maximum.accumulate(np.where(write | purge, index, -1))
    kill_upto[kill_upto < line_start] = -1
    kill_before = np.empty(n, dtype=np.int64)
    kill_before[0] = -1
    kill_before[1:] = kill_upto[:-1]
    kill_before[line_break] = -1

    def holders_from(kill: np.ndarray, at: np.ndarray) -> np.ndarray:
        """First position of the range whose processors may hold the
        line at *at*, given the last kill there (-1: none this batch)."""
        k = np.maximum(kill, 0)
        return np.where(kill >= 0, k + purge[k], line_start[at])

    def owner_after(kill: np.ndarray, carried: np.ndarray) -> np.ndarray:
        k = np.maximum(kill, 0)
        return np.where(
            kill >= 0, np.where(write[k], proc[k], -1), carried,
        )

    carried = holders[line]
    must = run_start > holders_from(kill_before, index)
    carried_other = ((carried != -1) & (carried != proc[:, None])).any(axis=1)
    must |= (kill_before < 0) & carried_other
    ifetch = op == TraceOp.IFETCH
    dirty = owner_after(kill_before[ifetch], owner[line[ifetch]])
    must[ifetch] = (dirty >= 0) & (dirty != proc[ifetch])

    # Carry the state after each line's last access in the batch: its
    # processor, and another that may hold the line, if any.
    last = np.flatnonzero(np.append(line_break[1:], True))
    kill = kill_upto[last]
    first = holders_from(kill, last)
    q = proc[last]
    seen = carried[last]
    carried_other = np.where(
        (seen[:, 0] != -1) & (seen[:, 0] != q), seen[:, 0],
        np.where(seen[:, 1] != q, seen[:, 1], -1),
    )
    start = run_start[last]
    other = np.where(
        start > first, proc[np.maximum(start - 1, 0)],
        np.where(kill < 0, carried_other, -1),
    )
    empty = first > last   # the last access purged the line
    ids = line[last]
    owner[ids] = owner_after(kill, owner[ids])
    holders[ids, 0] = np.where(empty, -1, q)
    holders[ids, 1] = np.where(empty, -1, other)

    verdicts = np.empty(n, dtype=bool)
    verdicts[order] = must
    return verdicts


def replay(
    workload: MultiTrace,
    line_shift: int,
    order: Optional[Sequence[int]] = None,
) -> Tuple[GoldenModel, List[AccessVerdict]]:
    """Run *workload* through a fresh model in the given global order.

    ``order`` lists the processor id of each successive access (as the
    simulator's step observer reports it); when omitted the accesses are
    interleaved round-robin. Returns the final model and the per-access
    verdicts in application order.
    """
    nprocs = workload.num_processors
    ops = [trace.ops.tolist() for trace in workload.per_processor]
    addresses = [trace.addresses.tolist() for trace in workload.per_processor]
    if order is None:
        order = _round_robin([len(t) for t in ops])
    model = GoldenModel(nprocs)
    cursors = [0] * nprocs
    verdicts: List[AccessVerdict] = []
    for proc in order:
        k = cursors[proc]
        cursors[proc] = k + 1
        verdicts.append(
            model.access(
                proc, TraceOp(ops[proc][k]), int(addresses[proc][k]) >> line_shift
            )
        )
    return model, verdicts


def _round_robin(lengths: Iterable[int]) -> List[int]:
    lengths = list(lengths)
    order: List[int] = []
    for k in range(max(lengths, default=0)):
        for proc, n in enumerate(lengths):
            if k < n:
                order.append(proc)
    return order
