"""Span recording for the benchmark's traced runs.

The program has no spans of its own at the boundaries the benchmark
splits host time by, so this module adds them from outside: it replaces
public methods and functions of the ``repro`` package with timing
wrappers. The wrappers must be in place before any simulator object is
built, because ``Machine`` and ``TraceProcessor`` bind methods when they
are constructed and would keep calling the unwrapped ones.

A span has a name, a start, an end, a parent (the index of the
enclosing span, -1 for a root) and a process (0 for the recording
process, else the pid of the forked sweep worker that recorded it).
Spans are kept in flat typed arrays: a wrapper that allocated a tuple
per call would leave tens of thousands of objects for the garbage
collector to walk, and slow the traced run for a reason the untraced
run does not have. Spans stay in memory and are written out once, when
the run ends (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from functools import wraps
from typing import Callable, Dict, List, Optional

#: The external-request path: every ``Machine`` entry point that runs
#: below the L1 (L2, RCA, snoops, interconnect and DRAM).
MISS_METHODS = ("load_miss", "store_miss", "ifetch_miss",
                "dcbz", "dcbf", "dcbi")


class Tracer:
    """Spans and call counts of one traced run, all sharing ``run_id``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.pid = os.getpid()
        self.names: List[str] = []
        self.name_ids = array("i")
        self.parents = array("q")
        self.procs = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.name_ids)

    def name_of(self, index: int) -> str:
        return self.names[self.name_ids[index]]

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _open(self, name: str):
        """The per-span bookkeeping of a wrapper called *name*: returns
        ``(open_span, close_span)``. ``open_span`` appends to every
        array in lockstep, so the span's index is its array position."""
        name_id = self._name_id(name)
        ids, parents, procs = self.name_ids, self.parents, self.procs
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter

        def open_span() -> int:
            index = len(ids)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            procs.append(0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            return index

        def close_span(index: int) -> None:
            ends[index] = clock()
            stack.pop()

        return open_span, close_span

    def _timed(self, fn: Callable, name: str) -> Callable:
        open_span, close_span = self._open(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            index = open_span()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)

        return traced

    def _timed_iter(self, fn: Callable, name: str, counter: str) -> Callable:
        """Wrap a generator function: producing each chunk is one span,
        and ``counter`` adds up the chunks' lengths."""
        open_span, close_span = self._open(name)
        counts = self.counts
        counts.setdefault(counter, 0)

        def chunks(iterator):
            while True:
                index = open_span()
                try:
                    chunk = next(iterator)
                except StopIteration:
                    return
                finally:
                    close_span(index)
                counts[counter] += len(chunk)
                yield chunk

        @wraps(fn)
        def traced(*args, **kwargs):
            return chunks(iter(fn(*args, **kwargs)))

        return traced

    def _counted(self, fn: Callable, name: str) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        @wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def span(self, owner, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called *name*."""
        setattr(owner, attr, self._timed(getattr(owner, attr), name))

    def count(self, owner, attr: str, name: str) -> None:
        """Count every call of ``owner.attr`` under *name*."""
        setattr(owner, attr, self._counted(getattr(owner, attr), name))

    def span_function(self, fn: Callable, name: str,
                      counter: Optional[str] = None) -> None:
        """Replace module-level function *fn* in every loaded ``repro``
        module that holds it (``from ... import`` copies the reference
        into the importing module, so patching the defining module alone
        would miss those callers)."""
        wrapper = (self._timed_iter(fn, name, counter) if counter
                   else self._timed(fn, name))
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)

    # ------------------------------------------------------------------
    # Layer installs
    # ------------------------------------------------------------------
    def install_system(self) -> None:
        """Simulator, machine and the workload generator."""
        from repro.cache.l2 import L2Cache
        from repro.interconnect.bus import BroadcastBus
        from repro.memory.dram import MemoryController
        from repro.system.machine import Machine
        from repro.system.simulator import Simulator
        from repro.workloads.benchmarks import build_benchmark
        from repro.workloads.store import WorkloadStore

        self.span(Simulator, "__init__", "system.ctor")
        run = self._timed(Simulator.run, "system.run")
        counts = self.counts

        def run_and_count(simulator, *args, **kwargs):
            result = run(simulator, *args, **kwargs)
            for name, value in result_counts(simulator, result).items():
                counts[name] = counts.get(name, 0) + value
            return result

        Simulator.run = run_and_count
        for method in MISS_METHODS:
            self.span(Machine, method, "system.miss")
        self.count(L2Cache, "lookup", "cache.l2.lookup_calls")
        self.count(BroadcastBus, "broadcast",
                   "interconnect.bus.broadcast_calls")
        self.count(MemoryController, "access_direct",
                   "memory.dram.access_calls")
        self.count(MemoryController, "access_snooped",
                   "memory.dram.access_calls")
        self.span_function(build_benchmark, "workloads.build")
        self.span(WorkloadStore, "load", "workloads.store_load")
        self.span(WorkloadStore, "store", "workloads.store_write")

    def install_traces(self) -> None:
        """Trace reader, profiler, sampler and writers."""
        from repro.traces import reader, sample
        from repro.traces.profiler import TraceProfiler

        self.span_function(reader.read_events, "traces.read",
                           counter="traces.records_read")
        self.span(TraceProfiler, "feed", "traces.profiler.feed")
        self.span(TraceProfiler, "finish", "traces.profiler.finish")
        self.span_function(sample.sample_file, "traces.sample")
        self.span_function(reader.write_binary, "traces.write")
        self.span_function(reader.write_csv, "traces.write")

    def install_harness(self) -> None:
        """Sweep coordinator, worker pool, result cache and cell execution.

        Sweep workers are forked from this process, so they inherit every
        wrapper installed here. Their spans and counts travel back on the
        cell's outcome object and are merged when the coordinator records
        it.
        """
        from repro.harness import parallel
        from repro.harness.cache import DiskCache
        from repro.harness.supervisor import SupervisedPool

        self.span(parallel.ParallelRunner, "run", "harness.sweep")
        self.span(SupervisedPool, "run", "harness.dispatch_wait")
        self.span(DiskCache, "load", "harness.cache_load")
        self.span(DiskCache, "store", "harness.cache_store")
        execute = self._timed(parallel.execute_envelope,
                              "harness.task_execute")
        tracer = self

        def execute_envelope(envelope):
            first = len(tracer)
            before = dict(tracer.counts)
            outcome = execute(envelope)
            if os.getpid() != tracer.pid:
                outcome.bench_trace = tracer.export(first, before)
            return outcome

        parallel.execute_envelope = execute_envelope
        record = parallel.ParallelRunner._record_outcome

        def record_outcome(runner, envelope, outcome, attempt):
            shipped = outcome.__dict__.pop("bench_trace", None)
            if shipped is not None:
                tracer.merge(shipped)
            return record(runner, envelope, outcome, attempt)

        parallel.ParallelRunner._record_outcome = record_outcome

    def export(self, first: int, counts_before: Dict[str, int]) -> Dict:
        """Spans from index *first* on and the counts added since
        *counts_before*, for a forked worker to send back."""
        return {
            "pid": os.getpid(), "first": first,
            "names": [self.names[i] for i in self.name_ids[first:]],
            "parents": self.parents[first:], "starts": self.starts[first:],
            "ends": self.ends[first:],
            "counts": {k: v - counts_before.get(k, 0)
                       for k, v in self.counts.items()},
        }

    def merge(self, shipped: Dict) -> None:
        """Adopt what :meth:`export` sent from a forked worker.

        Indices are re-based onto this tracer; a parent recorded before
        the worker's slice began (a span the worker inherited open from
        the fork) becomes -1, since the worker ran concurrently with it.
        """
        first = shipped["first"]
        offset = len(self) - first
        for name, parent, start, end in zip(
                shipped["names"], shipped["parents"], shipped["starts"],
                shipped["ends"]):
            self.name_ids.append(self._name_id(name))
            self.parents.append(parent + offset if parent >= first else -1)
            self.procs.append(shipped["pid"])
            self.starts.append(start)
            self.ends.append(end)
        for name, value in shipped["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + value

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span, one JSON object a line, after a header."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"run_id": self.run_id,
                                  "counts": self.counts}) + "\n")
            for index in range(len(self)):
                out.write(json.dumps({
                    "run_id": self.run_id, "name": self.name_of(index),
                    "start": self.starts[index], "end": self.ends[index],
                    "parent": self.parents[index],
                    "proc": self.procs[index],
                }) + "\n")

    def _child_time(self, first: int = 0) -> List[float]:
        """Per span from *first* on: summed duration of its children."""
        child = [0.0] * (len(self) - first)
        for index in range(first, len(self)):
            parent = self.parents[index]
            if parent >= first:
                child[parent - first] += self.ends[index] - self.starts[index]
        return child

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total (inclusive) and self seconds.

        A span's self time is its duration minus the durations of its
        direct children; children nest inside their parent because both
        are recorded on one call stack.
        """
        child = self._child_time()
        out: Dict[str, Dict[str, float]] = {}
        for index in range(len(self)):
            duration = self.ends[index] - self.starts[index]
            cell = out.setdefault(self.name_of(index),
                                  {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            cell["calls"] += 1
            cell["total_s"] += duration
            cell["self_s"] += duration - child[index]
        return out

    def subtree_self_sum(self, root: int) -> float:
        """Self times summed over span *root* and every span below it.

        When spans nest correctly this equals the root's duration; the
        reconciliation check compares it with a wall time the program or
        the benchmark measured on its own.
        """
        child = self._child_time(root)
        below = {root}
        total = 0.0
        for index in range(root, len(self)):
            if index == root or self.parents[index] in below:
                below.add(index)
                total += (self.ends[index] - self.starts[index]
                          - child[index - root])
        return total

    def find(self, name: str, first: int) -> int:
        """Index of the first span of this process called *name* at or
        after *first*."""
        return next(i for i in range(first, len(self))
                    if self.name_of(i) == name and self.procs[i] == 0)


def result_counts(simulator, result) -> Dict[str, int]:
    """Counts one simulation reports, by per-layer metric name.

    ``RunResult`` counts cover the measured part of the run (after the
    warm-up); the L2 snoop-probe total is read off the machine, and so
    covers the whole replay, like the call counts of the wrappers.
    """
    stats = result.stats
    cgct = simulator.config.cgct_enabled
    return {
        "system.l1_hits": result.l1_hits,
        "system.l2_hits": result.l2_hits,
        "system.external_requests": stats.total_external,
        "system.broadcasts": stats.total_broadcasts,
        "system.directs": stats.total_directs,
        "rca.allocations": result.rca_allocations,
        "rca.self_invalidations": result.rca_self_invalidations,
        "rca.forced_evictions": result.l2_region_forced_evictions,
        # Opportunities taken and missed, of the CGCT machines only.
        "rca.avoided": stats.total_avoided if cgct else 0,
        "rca.unnecessary": stats.total_unnecessary if cgct else 0,
        "interconnect.bus.queue_cycles": result.bus_queue_cycles,
        "cache.l2.snoop_probes": sum(
            node.l2.snoop_probes for node in simulator.machine.nodes),
    }
