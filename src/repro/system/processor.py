"""Trace-driven processor timing model.

A :class:`TraceProcessor` replays one processor's memory-operation stream
against the shared :class:`~repro.system.machine.Machine`. Its clock
advances by each record's *gap* (non-memory work) plus the stall the
memory system reports for the operation. Loads and instruction fetches
stall fully; the machine internally charges stores, DCB operations and
prefetches only their partial-overlap share (see
:class:`~repro.system.config.TimingParameters`).

The stepping loop runs every pop through ``run_ahead``: the streak
primitive that steps this processor — L1 hits through a fully inlined
private path — for as long as the global event order provably wants
this processor next (see
:meth:`~repro.system.simulator.Simulator._run_until`). The
one-operation :meth:`TraceProcessor.step` serves the runs that must see
every step boundary (step observer, sanitizer, tracer).
"""

from __future__ import annotations

import sys
from typing import Callable, List

from repro.common.errors import SimulationError
from repro.system.machine import Machine
from repro.workloads.trace import Trace, TraceOp

#: "No bound" sentinel for ``run_ahead`` limits — larger than any
#: simulated clock can reach.
NO_BOUND = sys.maxsize


class TraceProcessor:
    """Replays one trace; owns one processor's clock.

    ``run_ahead(stop_time, stop_pid, target, sample_bound)`` is built
    per-instance as a closure (see :meth:`build_run_ahead`): most
    pops yield a streak of only one or two steps, so the per-call setup
    must be a handful of loads, not a re-binding of every hot reference.
    The caller keeps the closure: it refers to the processor, so stored
    on the processor it would form a reference cycle that only the
    cyclic collector frees — and with it the machine.
    """

    def __init__(self, proc_id: int, trace: Trace, machine: Machine) -> None:
        self.proc_id = proc_id
        self.trace = trace
        self.machine = machine
        self.clock = 0
        self.index = 0
        self.stall_cycles = 0
        self.gap_cycles = 0
        # Dispatch is a dense list indexed by the op code (TraceOp values
        # are contiguous 0..5): one list index instead of an int-keyed
        # dict hash per operation.
        handlers = {
            int(TraceOp.LOAD): machine.load,
            int(TraceOp.STORE): machine.store,
            int(TraceOp.IFETCH): machine.ifetch,
            int(TraceOp.DCBZ): machine.dcbz,
            int(TraceOp.DCBF): machine.dcbf,
            int(TraceOp.DCBI): machine.dcbi,
        }
        self._dispatch: List[Callable[[int, int, int], int]] = [
            handlers[code] for code in range(len(handlers))
        ]
        # Plain Python lists (scalar indexing into NumPy arrays inside
        # the hot loop costs ~3x a list index), built once per Trace
        # object and shared across runs/repeats of the same workload.
        self._ops, self._addresses, self._gaps = trace.replay_lists()
        self._length = len(self._ops)

    @property
    def done(self) -> bool:
        """Whether the trace is exhausted."""
        return self.index >= self._length

    @property
    def next_time(self) -> int:
        """Cycle at which the next operation will issue."""
        if self.done:
            raise SimulationError(f"processor {self.proc_id} trace exhausted")
        return self.clock + self._gaps[self.index]

    def step(self) -> None:
        """Issue the next operation and advance the clock past its stall."""
        i = self.index
        gap = self._gaps[i]
        issue_at = self.clock + gap
        stall = self._dispatch[self._ops[i]](self.proc_id, self._addresses[i], issue_at)
        if stall < 0:
            raise SimulationError(
                f"processor {self.proc_id}: negative stall {stall} at op {i}"
            )
        self.clock = issue_at + stall
        self.stall_cycles += stall
        self.gap_cycles += gap
        self.index = i + 1

    def build_run_ahead(self) -> Callable[..., None]:
        """Build this processor's streak stepper.

        The returned ``run_ahead(stop_time, stop_pid, target,
        sample_bound)`` is called by the stepping loop for every pop: it
        executes the popped operation unconditionally, then keeps going
        while the *next* issue key ``(next_time, proc_id)`` stays
        strictly below ``(stop_time, stop_pid)`` — the loop's current
        heap-top key — and ``next_time`` stays below
        ``sample_bound`` (the next telemetry interval boundary, or
        ``NO_BOUND``). Within that window every step is exactly the
        operation a one-step-per-pick loop would execute next, so the
        global event order — and with it every counter and timestamp —
        is bit-identical to single-stepping.

        Each step is :meth:`step` with the call chain flattened: the L1
        probe is inlined (replicating
        :meth:`~repro.cache.l1.L1Cache.lookup` exactly — MRU
        reinsertion, write-on-SHARED counted as a miss after the LRU
        touch), and misses fall into the machine's ``*_miss``
        continuations so the lookup happens once either way. Hit/miss
        counters accumulate in locals and flush when the streak ends,
        which is always before anything can read them: telemetry samples
        only at streak boundaries, and results are collected after the
        last streak ends. The loop never streaks with a step observer, a
        sanitizer or a tracer attached (the inlined probe skips the
        tracer's L1-hit hook); ``target`` bounds partial (warmup)
        replays. All invariant references live in the closure: a
        one-step streak (the common case at 32p/64p) costs only a few
        self loads on top of the step itself.
        """
        machine = self.machine
        pid = self.proc_id
        ops = self._ops
        addresses = self._addresses
        gaps = self._gaps
        dispatch = self._dispatch
        # Direct references into this processor's own L1 arrays, so a
        # streak's hit path is dict ops on closure cells with no call
        # into machine or cache. Line numbers are pre-decoded vectorized
        # (one numpy pass per trace, shared L1-I/L1-D since both use the
        # geometry's line size).
        node = machine.nodes[pid]
        l1d, l1i = node.l1d, node.l1i
        lines = self.trace.line_list(l1d._line_shift)
        d_sets = l1d._sets
        d_mask = l1d._set_mask
        d_tag_shift = l1d._tag_shift
        i_sets = l1i._sets
        i_mask = l1i._set_mask
        i_tag_shift = l1i._tag_shift
        hit_cycles = machine._l1_hit_cycles
        load_miss = machine.load_miss
        store_miss = machine.store_miss
        ifetch_miss = machine.ifetch_miss

        def run_ahead(
            stop_time: int,
            stop_pid: int,
            target: int,
            sample_bound: int,
        ) -> None:
            clock = self.clock
            i = self.index
            stall_total = 0
            gap_total = 0
            d_hits = 0
            i_hits = 0
            d_misses = 0
            i_misses = 0
            while True:
                gap = gaps[i]
                issue_at = clock + gap
                op = ops[i]
                if op == 0:  # LOAD
                    line = lines[i]
                    entries = d_sets[line & d_mask]
                    tag = line >> d_tag_shift
                    entry = entries.pop(tag, None)
                    if entry is not None:
                        entries[tag] = entry  # reinsertion makes it MRU
                        d_hits += 1
                        stall = hit_cycles
                    else:
                        d_misses += 1
                        stall = load_miss(pid, addresses[i], issue_at)
                elif op == 1:  # STORE
                    line = lines[i]
                    entries = d_sets[line & d_mask]
                    tag = line >> d_tag_shift
                    entry = entries.pop(tag, None)
                    if entry is not None:
                        entries[tag] = entry
                        if entry.state.is_writable:
                            d_hits += 1
                            stall = hit_cycles
                        else:
                            # The LRU touch already happened — a
                            # write miss on a SHARED copy still
                            # promotes the line, as in L1Cache.lookup.
                            d_misses += 1
                            stall = store_miss(pid, addresses[i], issue_at)
                    else:
                        d_misses += 1
                        stall = store_miss(pid, addresses[i], issue_at)
                elif op == 2:  # IFETCH
                    line = lines[i]
                    entries = i_sets[line & i_mask]
                    tag = line >> i_tag_shift
                    entry = entries.pop(tag, None)
                    if entry is not None:
                        entries[tag] = entry
                        i_hits += 1
                        stall = hit_cycles
                    else:
                        i_misses += 1
                        stall = ifetch_miss(pid, addresses[i], issue_at)
                else:  # DCBZ / DCBF / DCBI: no L1-hit path exists
                    stall = dispatch[op](pid, addresses[i], issue_at)
                if stall < 0:
                    raise SimulationError(
                        f"processor {pid}: negative stall {stall} at op {i}"
                    )
                clock = issue_at + stall
                stall_total += stall
                gap_total += gap
                i += 1
                if i >= target:
                    break
                next_time = clock + gaps[i]
                if (
                    next_time > stop_time
                    or next_time >= sample_bound
                    or (next_time == stop_time and pid > stop_pid)
                ):
                    break
            self.clock = clock
            self.index = i
            self.stall_cycles += stall_total
            self.gap_cycles += gap_total
            if d_hits or d_misses:
                l1d.hits += d_hits
                l1d.misses += d_misses
            if i_hits or i_misses:
                l1i.hits += i_hits
                l1i.misses += i_misses
            hits = d_hits + i_hits
            if hits:
                machine.l1_hits += hits

        return run_ahead

    def run_to_completion(self) -> int:
        """Drain the whole trace (single-processor use); returns the clock."""
        while not self.done:
            self.step()
        return self.clock
