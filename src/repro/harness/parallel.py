"""Parallel experiment execution.

The paper's evaluation is a grid of (benchmark × region size × RCA size
× protocol variant) simulations, each independent of the others. This
module fans that grid out across worker processes:

* :class:`ExperimentTask` — one fully-specified simulation cell
  (benchmark, configuration, trace length, seeds, warm-up). Tasks are
  frozen and hashable, so grids de-duplicate naturally.
* :class:`ParallelRunner` — executes a task list through a
  :class:`~repro.harness.supervisor.SupervisedPool` (or serially with
  ``workers <= 1``, the determinism oracle), consulting an optional
  :class:`DiskCache` and appending per-cell records to an optional
  :class:`RunLog`.
* :func:`experiment_tasks` / :func:`warm_cache` — enumerate every
  simulation the registered paper experiments will request and run them
  up-front, preloading a :class:`RunCache` so the experiment functions
  themselves execute entirely from memory.

Fault tolerance
---------------
Failures route through the taxonomy in :mod:`repro.common.errors`:
*transient* failures (worker death, hang past the per-task timeout, OS
pressure) are retried up to ``retries`` times with the
:class:`~repro.harness.supervisor.RetryPolicy`'s exponential backoff,
while *deterministic* failures (simulation bugs — guaranteed to recur on
the bit-identical rerun) are quarantined immediately and never retried.
Repeated pool-level faults trip the circuit breaker, after which the
remaining cells degrade gracefully to serial in-process execution. An
optional :class:`~repro.harness.supervisor.SweepCheckpoint` records
per-cell completion so an interrupted sweep resumes from the result
cache, bit-identical to an uninterrupted run.

Determinism contract
--------------------
Every source of randomness in a cell is fixed *at task-creation time*:
the perturbation seed and trace seed ride in the task itself, and
replicate seeds are derived with :func:`repro.common.rng.derive_seed`
(see :func:`replicated_tasks`) rather than drawn from any shared RNG.
Workers share no state and results are returned in task order, so the
parallel runner is bit-identical to serial execution regardless of
worker count, scheduling, retries, or resume.

Worker processes are forked where the platform allows (inheriting the
already-imported library); on platforms without ``fork`` the default
start method is used, in which case a custom ``execute`` callable must
be importable by name.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

try:  # Unix-only; peak-RSS reporting degrades to 0 elsewhere.
    import resource
except ImportError:  # pragma: no cover
    resource = None

from repro.common.errors import FailureClass, SimulationError, classify_failure
from repro.common.rng import derive_seed
from repro.harness.cache import DiskCache, cache_key, code_version, \
    config_fingerprint
from repro.harness.runcache import RunCache
from repro.harness.runlog import RunLog
from repro.harness.supervisor import (
    CircuitBreaker,
    RetryPolicy,
    SupervisedPool,
    SweepCheckpoint,
    TaskFailure,
)
from repro.rca.protocol import RegionProtocol
from repro.system.config import SystemConfig
from repro.system.simulator import RunResult, run_workload
from repro.workloads.benchmarks import TRACE_PREFIX, build_benchmark
from repro.workloads.store import WorkloadStore, active_store, \
    set_workload_store
from repro.workloads.trace import MultiTrace


def _peak_rss_kb() -> int:
    if resource is None:  # pragma: no cover
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


# ----------------------------------------------------------------------
# Tasks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentTask:
    """One simulation cell of an experiment grid."""

    benchmark: str
    config: SystemConfig
    ops_per_processor: int
    seed: int = 0
    trace_seed: int = 0
    warmup_fraction: float = 0.4

    def __hash__(self) -> int:
        # SystemConfig nests dict-valued fields (latency tables), so the
        # generated field-tuple hash would fail; hash the fingerprint
        # instead. Equality stays the generated field-by-field compare.
        return hash((
            self.benchmark, config_fingerprint(self.config),
            self.ops_per_processor, self.seed, self.trace_seed,
            self.warmup_fraction,
        ))

    def cache_key(self, version: Optional[str] = None) -> str:
        """This cell's content address in the on-disk result cache."""
        return cache_key(
            self.config, self.benchmark, self.ops_per_processor,
            seed=self.seed, trace_seed=self.trace_seed,
            warmup_fraction=self.warmup_fraction, version=version,
        )

    def describe(self) -> Dict:
        """Compact, JSON-ready description for run logs and sidecars."""
        config = self.config
        return {
            "benchmark": self.benchmark,
            "ops": self.ops_per_processor,
            "seed": self.seed,
            "trace_seed": self.trace_seed,
            "warmup": self.warmup_fraction,
            "cgct": config.cgct_enabled,
            "region_bytes": config.geometry.region_bytes,
            "rca_sets": config.rca_sets,
            "processors": config.num_processors,
            "config": config_fingerprint(config),
        }

    def execute(self, sanitizer=None) -> RunResult:
        """Build the trace and run the simulation for this cell.

        ``sanitizer`` (a
        :class:`~repro.validate.sanitizer.CoherenceSanitizer`) audits
        the run; results are bit-identical with or without it.
        """
        workload = _recent_workload(
            self.benchmark, self.config.num_processors, self.trace_seed,
            self.ops_per_processor,
        )
        return run_workload(self.config, workload, seed=self.seed,
                            warmup_fraction=self.warmup_fraction,
                            sanitizer=sanitizer)


#: Workloads this process built most recently, least recent first,
#: keyed by ``(benchmark, processors, trace seed, ops)``. Every seed of
#: a harness cell replays trace seed 0, so a worker's cells mostly share
#: a few traces; reusing the trace object also reuses its replay-list
#: views. Three entries hold the quick sweep's three benchmarks, so each
#: worker builds each of them once. A full ``fig2 fig7 fig8`` sweep
#: (72 cells, 9 traces, 2 workers) still reuses 27 traces: more entries
#: reuse little more until nine, which reuse 54 but double a worker's
#: peak RSS (see docs/performance.md, "Cold cells").
_RECENT_WORKLOADS: Dict[Tuple[str, int, int, int], MultiTrace] = {}
_RECENT_LIMIT = 3


def _recent_workload(
    benchmark: str, processors: int, trace_seed: int, ops: int
) -> MultiTrace:
    """:func:`build_benchmark`, reusing the process's recent workloads.

    ``trace:`` workloads are always re-read: the file behind the name
    may change between cells.
    """
    if benchmark.startswith(TRACE_PREFIX):
        return build_benchmark(benchmark, num_processors=processors,
                               seed=trace_seed, ops_per_processor=ops)
    key = (benchmark, processors, trace_seed, ops)
    workload = _RECENT_WORKLOADS.pop(key, None)
    if workload is None:
        if len(_RECENT_WORKLOADS) >= _RECENT_LIMIT:
            del _RECENT_WORKLOADS[next(iter(_RECENT_WORKLOADS))]
        workload = build_benchmark(benchmark, num_processors=processors,
                                   seed=trace_seed, ops_per_processor=ops)
    _RECENT_WORKLOADS[key] = workload
    return workload


def replicated_tasks(
    benchmark: str,
    config: SystemConfig,
    ops_per_processor: int,
    replicates: int,
    root_seed: int = 0,
    warmup_fraction: float = 0.4,
) -> List[ExperimentTask]:
    """*replicates* perturbed copies of one cell with derived seeds.

    Seeds come from :func:`derive_seed` over (root seed, benchmark,
    configuration fingerprint, replicate index) — fixed before any
    worker starts, so scheduling can never shift them.
    """
    fingerprint = config_fingerprint(config)
    return [
        ExperimentTask(
            benchmark, config, ops_per_processor,
            seed=derive_seed(root_seed, "task", benchmark, fingerprint, r),
            warmup_fraction=warmup_fraction,
        )
        for r in range(replicates)
    ]


# ----------------------------------------------------------------------
# Worker entry point
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Envelope:
    """A task plus everything a worker needs to execute it.

    ``check_invariants`` ("" | "sampled" | "deep") rides on the envelope
    rather than the task: the sanitizer never changes results, so
    sanitized and unsanitized runs share cache keys — and, like
    telemetry, cache hits skip the audit. ``workload_cache_dir``
    likewise rides along so spawned (non-forked) workers install the
    same materialized workload store the coordinator uses.
    """

    index: int
    task: ExperimentTask
    cache_dir: Optional[str]
    code_version: Optional[str]
    check_invariants: str = ""
    workload_cache_dir: Optional[str] = None


@dataclass
class TaskOutcome:
    """What one completed cell reports back to the coordinator."""

    index: int
    result: RunResult
    cache: str  # "hit" | "miss" | "off"
    wall_seconds: float
    peak_rss_kb: int
    worker_pid: int


def execute_envelope(envelope: _Envelope) -> TaskOutcome:
    """Run one cell in the current process (the worker entry point).

    Consults the disk cache first; on a miss, simulates and stores the
    result. The store is atomic, so a worker dying mid-task never leaves
    a partial cache entry.
    """
    started = time.perf_counter()
    if envelope.workload_cache_dir is not None:
        current = active_store()
        if current is None or \
                str(current.cache_dir) != envelope.workload_cache_dir:
            set_workload_store(WorkloadStore(envelope.workload_cache_dir))
    task = envelope.task
    result = None
    status = "off"
    disk = key = None
    if envelope.cache_dir is not None:
        disk = DiskCache(envelope.cache_dir)
        key = task.cache_key(envelope.code_version)
        result = disk.load(key)
        status = "hit" if result is not None else "miss"
    if result is None:
        sanitizer = None
        if envelope.check_invariants:
            from repro.validate.sanitizer import CoherenceSanitizer

            sanitizer = CoherenceSanitizer(mode=envelope.check_invariants)
        result = task.execute(sanitizer=sanitizer)
        if disk is not None:
            disk.store(key, result, metadata=task.describe())
    return TaskOutcome(
        index=envelope.index,
        result=result,
        cache=status,
        wall_seconds=time.perf_counter() - started,
        peak_rss_kb=_peak_rss_kb(),
        worker_pid=os.getpid(),
    )


def _failure_from_exception(index: int, exc: BaseException) -> TaskFailure:
    return TaskFailure(
        index=index,
        kind="exception",
        exc_type=type(exc).__name__,
        message=str(exc),
        traceback="".join(traceback.format_exception(
            type(exc), exc, exc.__traceback__)),
        failure_class=classify_failure(exc),
    )


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
class ParallelRunner:
    """Executes experiment tasks across supervised processes.

    Parameters
    ----------
    workers:
        Process count; ``<= 1`` runs serially in this process (same
        code path per cell — the determinism oracle).
    cache:
        Optional :class:`DiskCache`; workers read and write it directly.
    runlog:
        Optional :class:`RunLog` receiving one record per attempt plus
        sweep-start/sweep-end bookends (written by the coordinator, so
        the log has a single writer).
    retries:
        Transient-failure retry budget per cell (default 1).
        Deterministic failures never consume it — they quarantine on
        first sight.
    strict:
        If True (default), raise :class:`SimulationError` after the
        sweep when any cell failed (retries exhausted or quarantined);
        if False, that cell's slot in the result list is None.
    execute:
        The per-cell callable, ``f(envelope) -> TaskOutcome``; override
        for failure injection in tests. Must be picklable.
    task_timeout:
        Per-cell wall-clock budget in seconds for pooled execution;
        a worker past it is SIGKILLed and the cell requeued (transient).
        ``None`` (default) disables the deadline.
    policy:
        :class:`~repro.harness.supervisor.RetryPolicy` controlling the
        backoff between retry attempts.
    checkpoint:
        Optional :class:`~repro.harness.supervisor.SweepCheckpoint`.
        Together with a disk cache this makes sweeps resumable: cells
        recorded complete are loaded from the cache instead of re-run,
        bit-identical either way.
    circuit_threshold:
        Consecutive pool faults (crashes/timeouts) before the pool is
        abandoned and the remaining cells run serially in-process.
    check_invariants:
        "" (off), "sampled" or "deep": run the coherence sanitizer
        inside every simulation this sweep actually executes.
    spans:
        Optional :class:`~repro.obs.wallclock.WallSpanRecorder`. Each
        :meth:`run` opens one ``sweep`` span and records one ``task``
        span per executed cell (worker pid, cache status, attempt) and
        one instant ``retry`` span per failed attempt, all parented so
        a Perfetto view of the sweep attributes wall time directly.
        Spans are recorded by the coordinator only — the single-writer
        contract the run log already relies on.
    span_parent:
        Parent span id for the sweep span (a campaign running several
        sweeps opens its own root span and passes its id here).
    """

    def __init__(
        self,
        workers: int = 0,
        cache: Optional[DiskCache] = None,
        runlog: Optional[RunLog] = None,
        retries: int = 1,
        strict: bool = True,
        execute: Optional[Callable[[_Envelope], TaskOutcome]] = None,
        task_timeout: Optional[float] = None,
        policy: Optional[RetryPolicy] = None,
        checkpoint: Optional[SweepCheckpoint] = None,
        circuit_threshold: int = 4,
        check_invariants: str = "",
        heartbeat_interval: float = 0.25,
        spans=None,
        span_parent: Optional[str] = None,
        workload_cache: Optional[WorkloadStore] = None,
    ) -> None:
        self.workers = max(0, int(workers))
        self.cache = cache
        self.runlog = runlog
        self.retries = max(0, int(retries))
        self.strict = strict
        self.execute = execute if execute is not None else execute_envelope
        self.task_timeout = task_timeout
        self.policy = policy if policy is not None else RetryPolicy()
        self.checkpoint = checkpoint
        self.circuit_threshold = max(1, int(circuit_threshold))
        self.check_invariants = check_invariants
        self.heartbeat_interval = heartbeat_interval
        self.spans = spans
        self.span_parent = span_parent
        #: Materialized workload store shared with the workers; defaults
        #: to the process-wide active store (env-activated or wired by
        #: the CLI), so sweeps reuse generated traces without plumbing.
        self.workload_cache = workload_cache if workload_cache is not None \
            else active_store()
        self.failures: List[Dict] = []
        self.quarantined: List[Dict] = []
        self._attempts: Dict[int, int] = {}
        self._version: Optional[str] = None
        self._sweep_span: Optional[str] = None

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[ExperimentTask]) -> List[Optional[RunResult]]:
        """Execute every task; results come back in task order."""
        tasks = list(tasks)
        self.failures = []
        self.quarantined = []
        cache_dir = None
        version = None
        if self.cache is not None and self.cache.enabled:
            cache_dir = str(self.cache.cache_dir)
            version = code_version()
        self._version = version
        workload_dir = None
        if self.workload_cache is not None and self.workload_cache.enabled:
            workload_dir = str(self.workload_cache.cache_dir)
            if active_store() is None:
                # The coordinator may run cells itself (serial path,
                # circuit-break fallback): give it the same store.
                set_workload_store(self.workload_cache)
        envelopes = [
            _Envelope(i, task, cache_dir, version, self.check_invariants,
                      workload_dir)
            for i, task in enumerate(tasks)
        ]
        self._attempts = {envelope.index: 1 for envelope in envelopes}
        pending, resumed = self._resume(envelopes)
        self._log("sweep-start", tasks=len(envelopes),
                  workers=self.workers or 1,
                  cache="on" if cache_dir else "off",
                  resumed=len(resumed),
                  check_invariants=self.check_invariants or "off")
        if self.spans is not None:
            self._sweep_span = self.spans.start(
                "sweep", parent_id=self.span_parent,
                tasks=len(envelopes), workers=self.workers or 1,
                resumed=len(resumed),
            )
        started = time.perf_counter()
        if self.workers > 1 and len(pending) > 1:
            outcomes = self._run_pool(pending)
        else:
            outcomes = self._run_serial(pending)
        outcomes = resumed + outcomes
        results: List[Optional[RunResult]] = [None] * len(envelopes)
        for outcome in outcomes:
            results[outcome.index] = outcome.result
        self._log(
            "sweep-end",
            wall_s=round(time.perf_counter() - started, 3),
            completed=len(outcomes),
            simulated=sum(1 for o in outcomes if o.cache != "hit"),
            cache_hits=sum(1 for o in outcomes if o.cache == "hit"),
            failures=len(self.failures),
            quarantined=len(self.quarantined),
        )
        store = self.workload_cache if self.workload_cache is not None \
            else active_store()
        if store is not None and store.enabled:
            # Coordinator-side counters: forked workers account their
            # own lookups, so under a pool this reports the cells the
            # coordinator itself built (serial path, fallback, resume).
            self._log("workload-cache", dir=str(store.cache_dir),
                      entries=len(store), **store.stats())
        if self.spans is not None:
            self.spans.finish(
                self._sweep_span, completed=len(outcomes),
                failures=len(self.failures),
                quarantined=len(self.quarantined),
            )
            self._sweep_span = None
        if self.checkpoint is not None and not self.failures:
            self.checkpoint.finish()
        if self.failures and self.strict:
            details = "; ".join(
                f"task {f['index']} ({f['task']['benchmark']}): "
                f"{f['error'].strip().splitlines()[-1]}"
                for f in self.failures
            )
            raise SimulationError(
                f"{len(self.failures)} task(s) failed after "
                f"{self.retries} retr{'y' if self.retries == 1 else 'ies'}: "
                f"{details}"
            )
        return results

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def _resume(
        self, envelopes: List[_Envelope]
    ) -> Tuple[List[_Envelope], List[TaskOutcome]]:
        """Split envelopes into (still to run, resumed-from-cache)."""
        if self.checkpoint is None:
            return envelopes, []
        keys = [e.task.cache_key(self._version) for e in envelopes]
        completed: Set[int] = self.checkpoint.begin(keys)
        if not completed:
            return envelopes, []
        disk = self.cache if self.cache is not None and self.cache.enabled \
            else None
        pending: List[_Envelope] = []
        resumed: List[TaskOutcome] = []
        for envelope in envelopes:
            result = None
            if envelope.index in completed and disk is not None:
                result = disk.load(keys[envelope.index])
            if result is None:
                # Not checkpointed — or checkpointed but the cache entry
                # is gone/corrupt, in which case the cell simply re-runs
                # (bit-identical by the determinism contract).
                pending.append(envelope)
                continue
            outcome = TaskOutcome(
                index=envelope.index, result=result, cache="hit",
                wall_seconds=0.0, peak_rss_kb=0, worker_pid=os.getpid(),
            )
            resumed.append(outcome)
            self._log("run", index=envelope.index,
                      task=envelope.task.describe(), status="ok",
                      cache="hit", resumed=True, wall_s=0.0,
                      worker=os.getpid(), peak_rss_kb=0, attempt=0)
        return pending, resumed

    def _mark_done(self, envelope: _Envelope, outcome: TaskOutcome) -> None:
        if self.checkpoint is not None:
            self.checkpoint.mark_done(
                envelope.index,
                envelope.task.cache_key(self._version),
                outcome.cache,
            )

    # ------------------------------------------------------------------
    # Execution paths
    # ------------------------------------------------------------------
    def _run_serial(self, envelopes: List[_Envelope]) -> List[TaskOutcome]:
        outcomes = []
        for envelope in envelopes:
            while True:
                attempt = self._attempts[envelope.index]
                try:
                    outcome = self.execute(envelope)
                except Exception as exc:  # noqa: BLE001 — surfaced via log
                    failure = _failure_from_exception(envelope.index, exc)
                    delay = self._decide_retry(envelope, failure)
                    if delay is None:
                        break
                    time.sleep(delay)
                else:
                    self._record_outcome(envelope, outcome, attempt)
                    self._mark_done(envelope, outcome)
                    outcomes.append(outcome)
                    break
        return outcomes

    def _run_pool(self, envelopes: List[_Envelope]) -> List[TaskOutcome]:
        # Forked workers share this process's memory: tabulating the
        # region protocols the cells use here saves each worker its own
        # tabulation in its first cell.
        for flags in {(e.task.config.two_bit_response,
                       e.task.config.self_invalidation) for e in envelopes}:
            RegionProtocol(*flags)
        breaker = CircuitBreaker(self.circuit_threshold)
        pool = SupervisedPool(
            self.workers, self.execute,
            task_timeout=self.task_timeout,
            heartbeat_interval=self.heartbeat_interval,
            breaker=breaker,
        )

        def on_outcome(envelope: _Envelope, outcome: TaskOutcome) -> None:
            self._record_outcome(envelope, outcome,
                                 self._attempts[envelope.index])
            self._mark_done(envelope, outcome)

        outcomes, unfinished = pool.run(envelopes, on_outcome,
                                        self._decide_retry)
        if unfinished:
            # The pool circuit-broke: finish the remaining cells
            # serially in this process. Determinism makes the fallback
            # transparent — the same cells produce the same results.
            self._log("circuit-break",
                      remaining=len(unfinished),
                      crashes=pool.crashes,
                      timeouts=pool.timeouts,
                      consecutive_faults=breaker.consecutive_faults)
            unfinished = sorted(unfinished, key=lambda e: e.index)
            outcomes = outcomes + self._run_serial(unfinished)
        return outcomes

    # ------------------------------------------------------------------
    # Failure handling (shared by both paths)
    # ------------------------------------------------------------------
    def _decide_retry(
        self, envelope: _Envelope, failure: TaskFailure
    ) -> Optional[float]:
        """Apply the taxonomy: delay seconds to retry, None to give up."""
        attempt = self._attempts[envelope.index]
        deterministic = failure.failure_class is FailureClass.DETERMINISTIC
        will_retry = not deterministic and attempt <= self.retries
        self._record_failure(envelope, failure, attempt, will_retry)
        if not will_retry:
            return None
        self._attempts[envelope.index] = attempt + 1
        return self.policy.delay(attempt, key=envelope.index)

    def _record_failure(self, envelope: _Envelope, failure: TaskFailure,
                        attempt: int, will_retry: bool) -> None:
        text = failure.traceback or failure.describe()
        self._log("run", index=envelope.index, task=envelope.task.describe(),
                  status="error", error=text, attempt=attempt,
                  will_retry=will_retry, kind=failure.kind,
                  failure_class=failure.failure_class.value)
        if self.spans is not None:
            instant = self.spans.now()
            self.spans.add(
                "retry", instant, instant, parent_id=self._sweep_span,
                index=envelope.index,
                benchmark=envelope.task.benchmark,
                attempt=attempt, kind=failure.kind,
                failure_class=failure.failure_class.value,
                will_retry=will_retry,
            )
        if will_retry:
            return
        entry = {
            "index": envelope.index,
            "task": envelope.task.describe(),
            "error": text,
            "kind": failure.kind,
            "class": failure.failure_class.value,
        }
        self.failures.append(entry)
        if failure.failure_class is FailureClass.DETERMINISTIC:
            self.quarantined.append(entry)
            if self.checkpoint is not None:
                self.checkpoint.mark_quarantined(
                    envelope.index, failure.describe()
                )

    # ------------------------------------------------------------------
    def _log(self, event: str, **fields) -> None:
        if self.runlog is not None:
            self.runlog.record(event, **fields)

    def _record_outcome(self, envelope: _Envelope, outcome: TaskOutcome,
                        attempt: int) -> None:
        self._log("run", index=envelope.index, task=envelope.task.describe(),
                  status="ok", cache=outcome.cache,
                  wall_s=round(outcome.wall_seconds, 4),
                  worker=outcome.worker_pid,
                  peak_rss_kb=outcome.peak_rss_kb, attempt=attempt)
        if self.spans is not None:
            # The worker measured its own wall time; the span is placed
            # retroactively, ending at the instant the outcome arrived.
            end = self.spans.now()
            self.spans.add(
                "task", end - outcome.wall_seconds, end,
                parent_id=self._sweep_span,
                index=envelope.index,
                benchmark=envelope.task.benchmark,
                cache=outcome.cache,
                worker_pid=outcome.worker_pid,
                attempt=attempt,
            )


# ----------------------------------------------------------------------
# Experiment-grid enumeration
# ----------------------------------------------------------------------
def experiment_tasks(
    experiment_ids: Sequence[str],
    options: "RunOptions",
) -> List[ExperimentTask]:
    """Every simulation the named experiments will request, de-duplicated.

    Mirrors the ``cache.run`` calls inside each experiment function;
    experiments with no cacheable simulations (the static tables,
    ``fig6``, and the ones that drive :class:`Simulator` directly)
    contribute nothing. The order is stable, so task lists — and hence
    parallel sweeps — are reproducible.
    """
    from repro.harness import extensions

    baseline = SystemConfig.paper_baseline()
    tasks: List[ExperimentTask] = []

    def add(benchmark: str, config: SystemConfig, seed: int = 0) -> None:
        tasks.append(ExperimentTask(
            benchmark, config, options.ops_per_processor, seed=seed,
            warmup_fraction=options.warmup_fraction,
        ))

    def ablation_workloads() -> List[str]:
        chosen = [w for w in extensions.ABLATION_WORKLOADS
                  if w in options.benchmarks]
        return chosen or list(options.benchmarks)[:2]

    for experiment_id in experiment_ids:
        if experiment_id == "fig2":
            for name in options.benchmarks:
                add(name, baseline)
        elif experiment_id == "fig7":
            for name in options.benchmarks:
                add(name, baseline)
                for region in options.region_sizes:
                    add(name, SystemConfig.paper_cgct(region))
        elif experiment_id == "fig8":
            for name in options.benchmarks:
                for seed in range(options.seeds):
                    add(name, baseline, seed=seed)
                for region in options.region_sizes:
                    for seed in range(options.seeds):
                        add(name, SystemConfig.paper_cgct(region), seed=seed)
        elif experiment_id == "fig9":
            for name in options.benchmarks:
                for seed in range(options.seeds):
                    add(name, baseline, seed=seed)
                    add(name, SystemConfig.paper_cgct(512, rca_sets=8192),
                        seed=seed)
                    add(name, SystemConfig.paper_cgct(512, rca_sets=4096),
                        seed=seed)
        elif experiment_id in ("fig10", "sec32"):
            for name in options.benchmarks:
                add(name, baseline)
                add(name, SystemConfig.paper_cgct(512))
        elif experiment_id == "ablations":
            for name in ablation_workloads():
                add(name, baseline)
                for config in extensions._ablation_configs().values():
                    add(name, config)
        elif experiment_id == "extensions":
            for name in ablation_workloads():
                add(name, baseline)
                for config in extensions._extension_configs().values():
                    add(name, config)
        elif experiment_id == "scaling":
            name = "tpc-w" if "tpc-w" in options.benchmarks \
                else options.benchmarks[0]
            for processors in (4, 8, 16):
                topology = extensions._topology_for(processors)
                add(name, replace(baseline, topology=topology))
                add(name, replace(SystemConfig.paper_cgct(512),
                                  topology=topology))
    return list(dict.fromkeys(tasks))


def warm_cache(
    experiment_ids: Sequence[str],
    options: "RunOptions",
    cache: RunCache,
    workers: int = 0,
    runlog: Optional[RunLog] = None,
    retries: int = 1,
    task_timeout: Optional[float] = None,
    checkpoint: Optional[SweepCheckpoint] = None,
    check_invariants: str = "",
    spans=None,
    span_parent: Optional[str] = None,
    workload_cache: Optional[WorkloadStore] = None,
) -> int:
    """Fan the experiments' simulation grid out, preloading *cache*.

    After this returns, running the named experiments against *cache*
    executes zero new simulations. Returns the number of grid cells.
    Uses the cache's own disk backing (if any), so warmed results also
    persist across invocations.
    """
    tasks = experiment_tasks(experiment_ids, options)
    if not tasks:
        return 0
    runner = ParallelRunner(workers=workers, cache=cache.disk,
                            runlog=runlog, retries=retries,
                            task_timeout=task_timeout,
                            checkpoint=checkpoint,
                            check_invariants=check_invariants,
                            spans=spans, span_parent=span_parent,
                            workload_cache=workload_cache)
    results = runner.run(tasks)
    for task, result in zip(tasks, results):
        if result is not None:
            cache.preload(
                task.benchmark, task.config, task.ops_per_processor, result,
                seed=task.seed, warmup_fraction=task.warmup_fraction,
                trace_seed=task.trace_seed,
            )
    return len(tasks)
