"""Trace statistics: what a generated workload actually looks like.

Used by the test suite to validate the benchmark profiles and by anyone
authoring a new :class:`~repro.workloads.generator.WorkloadProfile`:
before burning simulation time, check that the op mix, footprint and
sharing degree of the generated trace are what you intended.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.workloads.trace import MultiTrace, Trace, TraceOp


@dataclass(frozen=True)
class TraceStats:
    """Summary of one processor's trace."""

    operations: int
    op_mix: Dict[TraceOp, float]
    mean_gap: float
    footprint_bytes: int
    lines_touched: int
    pages_touched: int
    line_reuse: float  # mean accesses per touched line


@dataclass(frozen=True)
class WorkloadStats:
    """Summary of a whole multiprocessor workload."""

    name: str
    per_processor: List[TraceStats]
    total_operations: int
    #: Lines touched by two or more processors, as a fraction of all
    #: touched lines — the sharing degree the profile was tuned for.
    shared_line_fraction: float
    #: Lines written by one processor and touched by another.
    communication_line_fraction: float

    @property
    def mean_op_mix(self) -> Dict[TraceOp, float]:
        """Per-op fractions averaged across processors."""
        mix: Dict[TraceOp, float] = {op: 0.0 for op in TraceOp}
        for stats in self.per_processor:
            for op, fraction in stats.op_mix.items():
                mix[op] += fraction / len(self.per_processor)
        return mix


def trace_stats(trace: Trace) -> TraceStats:
    """Summarise one trace."""
    import numpy as np

    n = len(trace)
    if n == 0:
        return TraceStats(0, {op: 0.0 for op in TraceOp}, 0.0, 0, 0, 0, 0.0)
    ops = trace.ops
    mix = {
        op: float(np.count_nonzero(ops == int(op))) / n for op in TraceOp
    }
    lines = trace.addresses >> np.uint64(6)
    unique_lines = np.unique(lines)
    pages = np.unique(trace.addresses >> np.uint64(12))
    return TraceStats(
        operations=n,
        op_mix=mix,
        mean_gap=float(np.mean(trace.gaps)),
        footprint_bytes=int(len(unique_lines)) * 64,
        lines_touched=int(len(unique_lines)),
        pages_touched=int(len(pages)),
        line_reuse=n / len(unique_lines),
    )


def workload_stats(workload: MultiTrace) -> WorkloadStats:
    """Summarise a multiprocessor workload, including sharing degree."""
    import numpy as np

    per_proc = [trace_stats(t) for t in workload.per_processor]
    touched: List[set] = []
    written: List[set] = []
    store_ops = (int(TraceOp.STORE), int(TraceOp.DCBZ))
    for trace in workload.per_processor:
        lines = (trace.addresses >> np.uint64(6)).tolist()
        touched.append(set(lines))
        mask = np.isin(trace.ops, store_ops)
        written.append(set((trace.addresses[mask] >> np.uint64(6)).tolist()))
    all_lines = set().union(*touched) if touched else set()
    shared = set()
    for i in range(len(touched)):
        for j in range(i + 1, len(touched)):
            shared |= touched[i] & touched[j]
    communicated = set()
    for i in range(len(touched)):
        for j in range(len(touched)):
            if i != j:
                communicated |= written[i] & touched[j]
    total_lines = max(1, len(all_lines))
    return WorkloadStats(
        name=workload.name,
        per_processor=per_proc,
        total_operations=len(workload),
        shared_line_fraction=len(shared) / total_lines,
        communication_line_fraction=len(communicated) / total_lines,
    )
