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
    """Builds a machine and replays a multiprocessor trace on it, once.

    ``telemetry`` (a
    :class:`~repro.telemetry.registry.TelemetryRegistry`) instruments the
    machine end-to-end and is sampled at every interval boundary as
    simulated time advances. Telemetry only records — the simulated
    machine's behaviour and results are bit-identical with or without it.

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
    replay the same access order.

    ``tracer`` (a :class:`~repro.obs.simtrace.SimTracer`) records causal
    per-transaction spans — every memory access with its lookup, snoop,
    DRAM and fill phases. Like telemetry and the sanitizer it only
    observes: simulated cycles and fingerprints are bit-identical with
    or without it (equivalence-tested), and a machine without a tracer
    pays one ``is None`` check per instrumented site.

    Every mode runs the one stepping loop, :meth:`_run_until`. A
    simulator runs one workload: its machine keeps the state and
    counters of that run, so :meth:`run` refuses a second call.
    """

    def __init__(
        self, config: SystemConfig, seed: int = 0, telemetry=None,
        sanitizer=None, step_observer=None, tracer=None,
    ) -> None:
        self.config = config
        self.seed = seed
        self.telemetry = telemetry
        self.sanitizer = sanitizer
        self.step_observer = step_observer
        self.tracer = tracer
        self.machine = Machine(config, seed=seed)
        self._ran = False
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

        Raises :class:`~repro.common.errors.SimulationError` when called
        a second time: the machine is not reset between runs, and the
        result's ``stats`` is the machine's live counter object.
        """
        if self._ran:
            raise SimulationError(
                "Simulator.run is one-shot; build a new Simulator per run"
            )
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
        self._ran = True
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
        (the reference the stepping-equivalence tests check against).
        The heap is sound because a processor's ``next_time`` only
        changes when *that* processor steps: every entry's key is
        current when it is popped, so no re-keying or lazy invalidation
        is needed.

        Each pop samples telemetry if the issue time crossed the next
        interval boundary (issue times are non-decreasing, so the sample
        captures exactly the events of the closed window; without
        telemetry the boundary is ``NO_BOUND``), then runs a *streak*
        (:meth:`TraceProcessor.build_run_ahead`): the popped operation
        unconditionally, then every further operation of the same
        processor while its key stays below the heap top and below the
        sample boundary. The streak executes exactly the steps this loop
        would pop next, so ordering — and every result bit — is
        unchanged; only the heap traffic and per-step call chain
        disappear. An equal-time tie streaks only while the popped
        processor's id is the lower one. A streak that stops at the
        sample boundary re-enters the heap as the minimum, and the
        sample fires on its re-pop, at the same step boundary and with
        the same counter values as a single-step loop. With an empty
        heap (the last active processor) the streak is bounded by the
        sample boundary and the target alone.

        A step observer, a sanitizer or a tracer needs to see every step
        boundary: with any of them attached each pop takes one plain
        :meth:`TraceProcessor.step` instead, with the observer called
        before it and the sanitizer's audit stride counted after it.
        """
        telemetry = self.telemetry
        observe = self.step_observer
        sanitizer = self.sanitizer
        stride = budget = sanitizer.every if sanitizer is not None else 0
        next_sample = (
            telemetry.next_sample_time if telemetry is not None else NO_BOUND
        )
        # The key an empty heap's top would have: streak to the target.
        empty_top = (NO_BOUND, -1, None)
        streaks = (
            observe is None and sanitizer is None
            and self.machine._tracer is None
        )
        run_ahead = (
            [p.build_run_ahead() for p in processors] if streaks else None
        )
        heap = [
            (p.next_time, p.proc_id, p)
            for p in processors if p.index < targets[p.proc_id]
        ]
        heapq.heapify(heap)
        heappush, heappop = heapq.heappush, heapq.heappop
        # The re-push key is next_time inlined (clock + gap of the next
        # op) and the continue check is ``index < target`` alone: targets
        # never exceed trace length, so the ``done`` test is subsumed.
        while heap:
            issue_time, proc_id, soonest = heappop(heap)
            if issue_time >= next_sample:
                telemetry.maybe_sample(issue_time)
                next_sample = telemetry.next_sample_time
            target = targets[proc_id]
            if streaks:
                top_time, top_pid, _ = heap[0] if heap else empty_top
                run_ahead[proc_id](top_time, top_pid, target, next_sample)
            else:
                if observe is not None:
                    observe(proc_id)
                soonest.step()
                if sanitizer is not None:
                    budget -= 1
                    if budget <= 0:
                        sanitizer.check(soonest.clock)
                        budget = stride
            i = soonest.index
            if i < target:
                heappush(heap, (soonest.clock + soonest._gaps[i], proc_id,
                                soonest))

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
    tracer=None,
) -> RunResult:
    """One-shot convenience: build a simulator, run, return the result."""
    return Simulator(
        config, seed=seed, telemetry=telemetry, sanitizer=sanitizer,
        tracer=tracer,
    ).run(workload, warmup_fraction=warmup_fraction)
