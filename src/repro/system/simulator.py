"""Event-ordered multiprocessor simulation and its results.

The :class:`Simulator` interleaves the per-processor trace replays by
timestamp: at every step the processor with the earliest next operation
issues it, so cross-processor coherence interactions happen in a single
global time order and runs are deterministic for a given seed. The
perturbation jitter (Section 4 / Alameldeen et al.) varies that order
between seeds; experiments average several seeds and report 95 %
confidence intervals.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import SimulationError
from repro.system.config import SystemConfig
from repro.system.machine import ExternalRequestStats, Machine, OracleCategory
from repro.system.processor import NO_BOUND, TraceProcessor
from repro.workloads.trace import MultiTrace


@dataclass(frozen=True)
class RunResult:
    """Everything the experiments need from one simulation run."""

    workload: str
    config: SystemConfig
    seed: int
    per_processor_cycles: List[int]
    per_processor_stalls: List[int]
    per_processor_gaps: List[int]
    stats: ExternalRequestStats
    broadcasts: int
    traffic_average_per_window: float
    traffic_peak_per_window: int
    l1_hits: int
    l2_hits: int
    l2_misses: int
    l2_region_forced_evictions: int
    demand_latency_mean: float
    bus_queue_cycles: int
    rca_mean_line_count: Optional[float] = None
    rca_eviction_fractions: Dict[int, float] = field(default_factory=dict)
    rca_self_invalidations: int = 0
    rca_allocations: int = 0

    # ------------------------------------------------------------------
    # Headline metrics
    # ------------------------------------------------------------------
    @property
    def cycles(self) -> int:
        """Run time: the last processor to finish defines it (0 when the
        workload had no processors)."""
        return max(self.per_processor_cycles, default=0)

    @property
    def total_external_requests(self) -> int:
        """All external requests, however routed."""
        return self.stats.total_external

    def fraction_unnecessary(self) -> float:
        """Figure 2: share of external requests whose broadcast was
        unnecessary (meaningful for baseline runs, where every external
        request broadcasts)."""
        total = self.stats.total_external
        if total == 0:
            return 0.0
        return self.stats.total_unnecessary / total

    def fraction_avoided(self) -> float:
        """Figure 7: share of external requests CGCT handled without a
        broadcast (sent direct, or completed with no request at all)."""
        total = self.stats.total_external
        if total == 0:
            return 0.0
        return self.stats.total_avoided / total

    def category_fraction(self, category: OracleCategory, *, of: str) -> float:
        """Per-category share of external requests.

        ``of`` selects the numerator: ``"unnecessary"`` (Figure 2 stack)
        or ``"avoided"`` (Figure 7 stack).
        """
        total = self.stats.total_external
        if total == 0:
            return 0.0
        if of == "unnecessary":
            return self.stats.unnecessary_broadcasts[category] / total
        if of == "avoided":
            return self.stats.avoided(category) / total
        raise ValueError(f"of must be 'unnecessary' or 'avoided', got {of!r}")

    def broadcasts_per_window(self) -> float:
        """Figure 10: average broadcasts per traffic window (100 K cycles)."""
        return self.traffic_average_per_window

    def speedup_over(self, baseline: "RunResult") -> float:
        """Baseline cycles / our cycles (>1 means we are faster)."""
        if self.cycles == 0:
            raise SimulationError("run completed in zero cycles")
        return baseline.cycles / self.cycles

    def runtime_reduction_over(self, baseline: "RunResult") -> float:
        """Figure 8/9's metric: fractional reduction in run time."""
        if baseline.cycles == 0:
            raise SimulationError("baseline completed in zero cycles")
        return 1.0 - self.cycles / baseline.cycles


class Simulator:
    """Builds a machine and replays a multiprocessor trace on it.

    ``telemetry`` (a
    :class:`~repro.telemetry.registry.TelemetryRegistry`) instruments the
    machine end-to-end and is sampled at every interval boundary as
    simulated time advances. Telemetry only records — the simulated
    machine's behaviour and results are bit-identical with or without it.

    ``scheduler`` selects the event-ordering implementation: ``"heap"``
    (the default, O(log P) per operation) or ``"linear"`` (the original
    O(P) ``min()`` scan). Both produce bit-identical results; the linear
    scheduler exists as the reference for the equivalence tests.

    ``snoop`` selects the machine's phase-1 snoop implementation:
    ``"bitmask"`` (the default holder-bitmask fast path) or ``"walk"``
    (the original per-peer loop, the reference for the snoop-equivalence
    tests). Both produce bit-identical results — see
    :class:`~repro.system.machine.Machine`.

    ``sanitizer`` (a
    :class:`~repro.validate.sanitizer.CoherenceSanitizer`) audits the
    machine's coherence state every N steps and once more at the end of
    the run. Like telemetry, it only observes — results are bit-identical
    with or without it — but it *raises*
    :class:`~repro.common.errors.InvariantViolation` when the MOESI/RCA
    state drifts from the paper's invariants.

    ``step_observer`` is a callable invoked as ``step_observer(proc_id)``
    immediately before each processor step issues, in global step order.
    The conformance harness (:mod:`repro.conformance`) uses it to learn
    the exact interleaving the scheduler chose, so the golden model can
    replay the same access order. Observed runs take a dedicated loop;
    the plain hot loops are untouched and pay nothing.

    ``tracer`` (a :class:`~repro.obs.simtrace.SimTracer`) records causal
    per-transaction spans — every memory access with its lookup, snoop,
    DRAM and fill phases. Like telemetry and the sanitizer it only
    observes: simulated cycles and fingerprints are bit-identical with
    or without it (equivalence-tested), and a machine without a tracer
    pays one ``is None`` check per instrumented site.

    ``runahead`` selects the heap scheduler's streak behaviour:
    ``"streak"`` (the default) lets a popped processor keep stepping —
    L1 hits through an inlined private path — for as long as its next
    issue key stays below the heap top, i.e. exactly as long as the
    reference order would pop it again anyway; ``"off"`` single-steps
    every pop (the reference path for the run-ahead equivalence
    battery). Both produce bit-identical results. Run-ahead applies to
    the plain and telemetry heap loops only: observed runs disable it
    (the observer must see every step boundary before it issues), the
    sanitizer loop keeps its own audit stride, and the linear scheduler
    is itself a reference path.
    """

    def __init__(
        self, config: SystemConfig, seed: int = 0, telemetry=None,
        scheduler: str = "heap", sanitizer=None, step_observer=None,
        snoop: str = "bitmask", tracer=None, runahead: str = "streak",
    ) -> None:
        if scheduler not in ("heap", "linear"):
            raise SimulationError(
                f"scheduler must be 'heap' or 'linear', got {scheduler!r}"
            )
        if snoop not in ("walk", "bitmask"):
            raise SimulationError(
                f"snoop must be 'walk' or 'bitmask', got {snoop!r}"
            )
        if runahead not in ("streak", "off"):
            raise SimulationError(
                f"runahead must be 'streak' or 'off', got {runahead!r}"
            )
        self.config = config
        self.seed = seed
        self.telemetry = telemetry
        self.scheduler = scheduler
        self.snoop = snoop
        self.runahead = runahead
        self.sanitizer = sanitizer
        self.step_observer = step_observer
        self.tracer = tracer
        self.machine = Machine(config, seed=seed, snoop=snoop)
        if telemetry is not None:
            self.machine.attach_telemetry(telemetry)
        if tracer is not None:
            self.machine.attach_tracer(tracer)

    def run(
        self,
        workload: MultiTrace,
        validate: bool = True,
        warmup_fraction: float = 0.0,
    ) -> RunResult:
        """Replay *workload* to completion and collect the results.

        ``warmup_fraction`` replays that prefix of every processor's
        trace to warm caches and RCAs (the paper starts from cache
        checkpoints, Section 4), then resets all statistics; cycles and
        counters in the result cover only the measured portion.
        """
        if workload.num_processors != self.config.num_processors:
            raise SimulationError(
                f"workload has {workload.num_processors} traces but the "
                f"machine has {self.config.num_processors} processors"
            )
        if not 0.0 <= warmup_fraction < 1.0:
            raise SimulationError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
            )
        if validate:
            workload.validate(self.config.geometry)
        processors = [
            TraceProcessor(p, trace, self.machine)
            for p, trace in enumerate(workload.per_processor)
        ]
        if self.sanitizer is not None:
            self.sanitizer.bind(
                self.machine, workload=workload.name, seed=self.seed
            )
        measure_from = 0
        if warmup_fraction > 0.0:
            targets = [int(len(p.trace) * warmup_fraction) for p in processors]
            self._run_until(processors, targets)
            self.machine.reset_stats()
            measure_from = max((p.clock for p in processors), default=0)
            if self.telemetry is not None:
                # reset_stats already zeroed/rebaselined the metrics;
                # align the next interval sample past the warmup clock so
                # the measured portion starts on a clean boundary.
                self.telemetry.restart_sampling(measure_from)
            for p in processors:
                p.stall_cycles = 0
                p.gap_cycles = 0
        start_clocks = [p.clock for p in processors]
        self._run_until(processors, [len(p.trace) for p in processors])
        return self._collect(workload.name, processors, start_clocks, measure_from)

    def _run_until(
        self, processors: List[TraceProcessor], targets: List[int]
    ) -> None:
        """Step processors in timestamp order until each reaches its target.

        A binary heap keyed ``(next_time, proc_id)`` yields the earliest
        next issue time, ties broken by lowest processor ID — exactly the
        order a linear ``min()`` scan over an ID-ordered list produces
        (and :meth:`_run_until_linear` still does, as the reference the
        equivalence tests check against). The heap is sound because a
        processor's ``next_time`` only changes when *that* processor
        steps: every entry's key is current when it is popped, so no
        re-keying or lazy invalidation is needed. O(log P) per operation
        instead of O(P).

        Same-timestamp events are drained as a batch: every entry due at
        the popped instant is removed first (pops yield ascending proc
        ids), then each processor is stepped — repeatedly, while its
        next issue time stays at that instant — before anything is
        pushed back. The stepping order is provably identical to
        pop/push-one-at-a-time (a stepped processor re-enters at the
        same instant only with its own, unchanged proc id, and lower ids
        are always drained past the instant before higher ids start), so
        the batch saves the sift-up/sift-down churn of P near-ties at
        32/64 processors without moving a single step.
        """
        if self.step_observer is not None:
            # Observed runs fold telemetry, the sanitizer and the
            # observer into one loop; stepping stays identical.
            self._run_until_observed(processors, targets)
            return
        if self.sanitizer is not None:
            # Both schedulers step identically, so the checked loop (a
            # heap loop with a sanitizer stride) serves either setting.
            self._run_until_checked(processors, targets)
            return
        if self.scheduler == "linear":
            self._run_until_linear(processors, targets)
            return
        telemetry = self.telemetry
        heap = [
            (p.next_time, p.proc_id, p)
            for p in processors if p.index < targets[p.proc_id]
        ]
        heapq.heapify(heap)
        heappush, heappop = heapq.heappush, heapq.heappop
        if self.runahead == "streak":
            run_ahead = [p.build_run_ahead() for p in processors]
        # The re-push key is next_time inlined (clock + gap of the next
        # op) and the continue check is ``index < target`` alone: targets
        # never exceed trace length, so the ``done`` test is subsumed.
        #
        # Run-ahead variants: after the popped processor's (mandatory)
        # step, if its next issue key still undercuts the heap top it
        # runs a *streak* (TraceProcessor.build_run_ahead) bounded by that
        # top key — the streak executes exactly the steps the reference
        # loop would pop next, so ordering (and every result bit) is
        # unchanged; only the heap traffic and per-step call chain
        # disappear. The streak check replaces _drain_same_time: at an
        # equal-time tie the popped processor keeps stepping while its
        # (time, pid) key undercuts the top, which is the batch order
        # the drain produces; remaining same-instant entries pop one at
        # a time. The streak is entered only when it will run at least
        # one step, so a pop with no streak (the common case at high
        # processor counts) costs the reference loop plus two integer
        # compares. With an empty heap (last active processor) the
        # streak runs to its target unbounded.
        if telemetry is None:
            if self.runahead == "streak":
                while heap:
                    issue_time, proc_id, soonest = heappop(heap)
                    soonest.step()
                    i = soonest.index
                    target = targets[proc_id]
                    if i >= target:
                        continue
                    next_time = soonest.clock + soonest._gaps[i]
                    if heap:
                        top = heap[0]
                        top_time = top[0]
                        if next_time < top_time or (
                            next_time == top_time and proc_id < top[1]
                        ):
                            run_ahead[proc_id](top_time, top[1], target)
                            i = soonest.index
                            if i >= target:
                                continue
                            next_time = soonest.clock + soonest._gaps[i]
                        heappush(heap, (next_time, proc_id, soonest))
                    else:
                        run_ahead[proc_id](NO_BOUND, -1, target)
                return
            while heap:
                issue_time, proc_id, soonest = heappop(heap)
                if heap and heap[0][0] == issue_time:
                    self._drain_same_time(
                        heap, heappop, heappush, issue_time, soonest, targets
                    )
                    continue
                soonest.step()
                i = soonest.index
                if i < targets[proc_id]:
                    heappush(
                        heap,
                        (soonest.clock + soonest._gaps[i], proc_id, soonest),
                    )
            return
        # Telemetry variant: identical stepping (telemetry must never
        # perturb the simulation), plus interval sampling. Issue times
        # are non-decreasing, so sampling when the next issue crosses a
        # boundary captures exactly the events of the closed window.
        # One boundary check covers a whole same-timestamp batch:
        # sampling advances the boundary past the instant, so the
        # per-entry checks it replaces would all be no-ops. Under
        # run-ahead the streak is additionally bounded by the next
        # sample boundary: the streak stops *before* the first issue at
        # or past it, the processor re-enters the heap as the minimum,
        # and the sample fires on its re-pop — the same step boundary,
        # with the same counter values, as the reference loop.
        next_sample = telemetry.next_sample_time
        if self.runahead == "streak":
            while heap:
                issue_time, proc_id, soonest = heappop(heap)
                if issue_time >= next_sample:
                    telemetry.maybe_sample(issue_time)
                    next_sample = telemetry.next_sample_time
                soonest.step()
                i = soonest.index
                target = targets[proc_id]
                if i >= target:
                    continue
                next_time = soonest.clock + soonest._gaps[i]
                if heap:
                    top = heap[0]
                    top_time = top[0]
                    if next_time < next_sample and (
                        next_time < top_time
                        or (next_time == top_time and proc_id < top[1])
                    ):
                        run_ahead[proc_id](
                            top_time, top[1], target, next_sample
                        )
                        i = soonest.index
                        if i >= target:
                            continue
                        next_time = soonest.clock + soonest._gaps[i]
                    heappush(heap, (next_time, proc_id, soonest))
                else:
                    if next_time < next_sample:
                        run_ahead[proc_id](NO_BOUND, -1, target, next_sample)
                        i = soonest.index
                        if i >= target:
                            continue
                        next_time = soonest.clock + soonest._gaps[i]
                    heappush(heap, (next_time, proc_id, soonest))
            return
        while heap:
            issue_time, proc_id, soonest = heappop(heap)
            if issue_time >= next_sample:
                telemetry.maybe_sample(issue_time)
                next_sample = telemetry.next_sample_time
            if heap and heap[0][0] == issue_time:
                self._drain_same_time(
                    heap, heappop, heappush, issue_time, soonest, targets
                )
                continue
            soonest.step()
            i = soonest.index
            if i < targets[proc_id]:
                heappush(
                    heap,
                    (soonest.clock + soonest._gaps[i], proc_id, soonest),
                )

    @staticmethod
    def _drain_same_time(heap, heappop, heappush, time_now, first, targets):
        """Step every processor due at *time_now*, then re-fill the heap.

        Pops every remaining entry keyed *time_now* (ascending proc id)
        and runs each member — repeatedly while its next issue time
        stays at *time_now*, which keeps the order exact even for
        zero-stall operations — before pushing its strictly-later next
        event. Heap churn drops from 2·k sifts against P entries to k
        pops plus k pushes done once per instant.
        """
        batch = [first]
        while heap and heap[0][0] == time_now:
            batch.append(heappop(heap)[2])
        for p in batch:
            target = targets[p.proc_id]
            while True:
                p.step()
                i = p.index
                if i >= target:
                    break
                next_time = p.clock + p._gaps[i]
                if next_time > time_now:
                    heappush(heap, (next_time, p.proc_id, p))
                    break

    def _run_until_checked(
        self, processors: List[TraceProcessor], targets: List[int]
    ) -> None:
        """Sanitizer variant: identical stepping plus a periodic audit.

        Kept separate from the plain/telemetry loops so the sanitizer
        costs nothing when disabled. The sanitizer only reads machine
        state, so the simulated results stay bit-identical.
        """
        telemetry = self.telemetry
        sanitizer = self.sanitizer
        stride = sanitizer.every
        budget = stride
        heap = [
            (p.next_time, p.proc_id, p)
            for p in processors if p.index < targets[p.proc_id]
        ]
        heapq.heapify(heap)
        heappush, heappop = heapq.heappush, heapq.heappop
        next_sample = telemetry.next_sample_time if telemetry is not None \
            else None
        while heap:
            issue_time, proc_id, soonest = heappop(heap)
            if next_sample is not None and issue_time >= next_sample:
                telemetry.maybe_sample(issue_time)
                next_sample = telemetry.next_sample_time
            soonest.step()
            budget -= 1
            if budget <= 0:
                sanitizer.check(soonest.clock)
                budget = stride
            i = soonest.index
            if i < targets[proc_id]:
                heappush(
                    heap,
                    (soonest.clock + soonest._gaps[i], proc_id, soonest),
                )

    def _run_until_observed(
        self, processors: List[TraceProcessor], targets: List[int]
    ) -> None:
        """Observer variant: the checked/telemetry loop plus a per-step
        ``step_observer(proc_id)`` callback fired *before* the step
        issues.

        Firing before the step means that while the machine processes
        access *k*, the observer has already seen exactly ``k + 1``
        notifications — an event sink attached to the machine can
        therefore attribute every coherence event to the access that
        produced it. Stepping order and machine behaviour are identical
        to the unobserved loops.
        """
        telemetry = self.telemetry
        sanitizer = self.sanitizer
        observe = self.step_observer
        stride = sanitizer.every if sanitizer is not None else 0
        budget = stride
        heap = [
            (p.next_time, p.proc_id, p)
            for p in processors if p.index < targets[p.proc_id]
        ]
        heapq.heapify(heap)
        heappush, heappop = heapq.heappush, heapq.heappop
        next_sample = telemetry.next_sample_time if telemetry is not None \
            else None
        while heap:
            issue_time, proc_id, soonest = heappop(heap)
            if next_sample is not None and issue_time >= next_sample:
                telemetry.maybe_sample(issue_time)
                next_sample = telemetry.next_sample_time
            observe(proc_id)
            soonest.step()
            if sanitizer is not None:
                budget -= 1
                if budget <= 0:
                    sanitizer.check(soonest.clock)
                    budget = stride
            i = soonest.index
            if i < targets[proc_id]:
                heappush(
                    heap,
                    (soonest.clock + soonest._gaps[i], proc_id, soonest),
                )

    def _run_until_linear(
        self, processors: List[TraceProcessor], targets: List[int]
    ) -> None:
        """The original O(P)-per-step scheduler, kept as the reference
        implementation for the heap-equivalence tests."""
        telemetry = self.telemetry
        active = [p for p in processors if p.index < targets[p.proc_id]]
        if telemetry is None:
            while active:
                # Earliest next issue time goes first; ties break by ID,
                # which keeps runs deterministic.
                soonest = min(active, key=lambda p: p.next_time)
                soonest.step()
                if soonest.done or soonest.index >= targets[soonest.proc_id]:
                    active.remove(soonest)
            return
        next_sample = telemetry.next_sample_time
        while active:
            soonest = min(active, key=lambda p: p.next_time)
            if soonest.next_time >= next_sample:
                telemetry.maybe_sample(soonest.next_time)
                next_sample = telemetry.next_sample_time
            soonest.step()
            if soonest.done or soonest.index >= targets[soonest.proc_id]:
                active.remove(soonest)

    def _collect(
        self,
        name: str,
        processors: List[TraceProcessor],
        start_clocks: List[int],
        measure_from: int,
    ) -> RunResult:
        machine = self.machine
        l2_misses = sum(n.l2.misses for n in machine.nodes)
        region_forced = sum(n.l2.region_forced_evictions for n in machine.nodes)
        rca_mean = None
        rca_fracs: Dict[int, float] = {}
        rca_self_inv = 0
        rca_allocs = 0
        if self.config.cgct_enabled:
            line_counts = [n.rca.mean_line_count() for n in machine.nodes]
            rca_mean = (
                sum(line_counts) / len(line_counts) if line_counts else 0.0
            )
            total_evictions = sum(
                sum(n.rca.eviction_line_counts.values()) for n in machine.nodes
            )
            if total_evictions:
                merged: Dict[int, int] = {}
                for node in machine.nodes:
                    for count, occurrences in node.rca.eviction_line_counts.items():
                        merged[count] = merged.get(count, 0) + occurrences
                rca_fracs = {
                    count: occurrences / total_evictions
                    for count, occurrences in sorted(merged.items())
                }
            rca_self_inv = sum(n.rca.self_invalidations for n in machine.nodes)
            rca_allocs = sum(n.rca.allocations for n in machine.nodes)
        end_time = max(p.clock for p in processors) if processors else 0
        if self.sanitizer is not None:
            # Exhaustive end-of-run audit in either mode: even a sampled
            # run ends with the whole machine swept once.
            self.sanitizer.final_check(end_time)
        if self.telemetry is not None:
            # Flush the trailing partial interval and set the end-of-run
            # gauges. The registry is NOT part of the (picklable,
            # cacheable) RunResult; callers keep their own reference.
            self.telemetry.finalize(end_time)
        return RunResult(
            workload=name,
            config=self.config,
            seed=self.seed,
            per_processor_cycles=[
                p.clock - start for p, start in zip(processors, start_clocks)
            ],
            per_processor_stalls=[p.stall_cycles for p in processors],
            per_processor_gaps=[p.gap_cycles for p in processors],
            stats=machine.stats,
            broadcasts=machine.bus.broadcasts,
            traffic_average_per_window=machine.bus.traffic.average_per_window(
                end_time, start_time=measure_from
            ),
            traffic_peak_per_window=machine.bus.traffic.peak(),
            l1_hits=machine.l1_hits,
            l2_hits=machine.l2_hits,
            l2_misses=l2_misses,
            l2_region_forced_evictions=region_forced,
            demand_latency_mean=machine.demand_latency.mean,
            bus_queue_cycles=machine.queue_cycles,
            rca_mean_line_count=rca_mean,
            rca_eviction_fractions=rca_fracs,
            rca_self_invalidations=rca_self_inv,
            rca_allocations=rca_allocs,
        )


def run_workload(
    config: SystemConfig,
    workload: MultiTrace,
    seed: int = 0,
    warmup_fraction: float = 0.0,
    telemetry=None,
    sanitizer=None,
    snoop: str = "bitmask",
    tracer=None,
    runahead: str = "streak",
) -> RunResult:
    """One-shot convenience: build a simulator, run, return the result."""
    return Simulator(
        config, seed=seed, telemetry=telemetry, sanitizer=sanitizer,
        snoop=snoop, tracer=tracer, runahead=runahead,
    ).run(workload, warmup_fraction=warmup_fraction)
