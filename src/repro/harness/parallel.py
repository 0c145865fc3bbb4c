"""Experiment cells and the runner that executes grids of them.

The paper's evaluation is a grid of (benchmark × region size × RCA size
× protocol variant) simulations, each independent of the others:

* :class:`ExperimentTask` — one fully-specified simulation cell
  (benchmark, configuration, trace length, seeds, warm-up). Tasks are
  frozen and hashable, so grids de-duplicate naturally, and they are
  the one cell identity: :class:`~repro.harness.runcache.RunCache`
  memoises by them and the on-disk result cache addresses them.
* :func:`load_or_simulate` — the one cell executor: the result store's
  entry, or a fresh simulation (with its telemetry registry when asked)
  that is then stored. Pool workers (via :func:`execute_envelope`) and
  cells a sweep runs in this process both use it.
* :class:`ParallelRunner` — executes a task list through a
  :class:`~repro.harness.supervisor.SupervisedPool` (in this process
  with ``workers <= 1``, the determinism oracle), serving the cells
  already in an optional :class:`DiskCache` in this process, and
  appending per-cell records to an optional :class:`RunLog`. The
  telemetry registries of the cells it simulated come back on their
  outcomes and are kept in task order (:attr:`ParallelRunner.registries`).

Which cells an experiment needs is declared by the experiment itself
(its ``cells`` in :mod:`repro.harness.experiments`);
:meth:`RunCache.warm <repro.harness.runcache.RunCache.warm>` runs a
grid through this runner and keeps the results for rendering.

Fault tolerance
---------------
Failures route through the taxonomy in :mod:`repro.common.errors` and
the pool's one retry rule
(:meth:`~repro.harness.supervisor.RetryPolicy.retry_delay`):
*transient* failures (worker death, hang past the per-task timeout, OS
pressure) are retried up to ``retries`` times with exponential
backoff, while *deterministic* failures (simulation bugs — guaranteed
to recur on the bit-identical rerun) are quarantined immediately and
never retried. Repeated pool-level faults trip the circuit breaker,
after which the pool drains the remaining cells in this process. An
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
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

try:  # Unix-only; peak-RSS reporting degrades to 0 elsewhere.
    import resource
except ImportError:  # pragma: no cover
    resource = None

from repro.common.errors import FailureClass, SimulationError
from repro.common.rng import derive_seed
from repro.harness.cache import DiskCache, cache_key, code_version, \
    config_fingerprint
from repro.harness.runlog import RunLog
from repro.harness.supervisor import (
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


#: Backoff between a failed cell's retry attempts.
_RETRY_POLICY = RetryPolicy()


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

    @cached_property
    def fingerprint(self) -> str:
        """:func:`config_fingerprint` of this cell's configuration.

        Looked up once per task: a :class:`RunCache` hashes a task on
        every lookup.
        """
        return config_fingerprint(self.config)

    def __hash__(self) -> int:
        # SystemConfig nests dict-valued fields (latency tables), so the
        # generated field-tuple hash would fail; hash the fingerprint
        # instead. Equality stays the generated field-by-field compare.
        return hash((
            self.benchmark, self.fingerprint,
            self.ops_per_processor, self.seed, self.trace_seed,
            self.warmup_fraction,
        ))

    def cache_key(self, version: Optional[str] = None) -> str:
        """This cell's content address in the on-disk result cache.

        Memoised per *version*: a sweep looks each cell's key up to tell
        hits from misses, to load or store it, and to checkpoint it. A
        ``trace:`` cell's key folds in the file's current digest, so it
        is computed afresh every time.
        """
        keys = self.__dict__.setdefault("_cache_keys", {})
        key = keys.get(version)
        if key is None:
            key = cache_key(
                self.config, self.benchmark, self.ops_per_processor,
                seed=self.seed, trace_seed=self.trace_seed,
                warmup_fraction=self.warmup_fraction, version=version,
            )
            if not self.benchmark.startswith(TRACE_PREFIX):
                keys[version] = key
        return key

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
            "config": self.fingerprint,
        }

    def trace_key(self) -> Tuple[str, int, int, int]:
        """The key of the workload this cell replays (see
        :func:`_recent_workload`)."""
        return (self.benchmark, self.config.num_processors, self.trace_seed,
                self.ops_per_processor)

    def execute(self, sanitizer=None, telemetry=None) -> RunResult:
        """Build the trace and run the simulation for this cell.

        ``sanitizer`` (a
        :class:`~repro.validate.sanitizer.CoherenceSanitizer`) audits
        the run and ``telemetry`` (a
        :class:`~repro.telemetry.registry.TelemetryRegistry`) records
        it; results are bit-identical with or without either.
        """
        workload = _recent_workload(*self.trace_key())
        return run_workload(self.config, workload, seed=self.seed,
                            warmup_fraction=self.warmup_fraction,
                            telemetry=telemetry, sanitizer=sanitizer)


#: Workloads this process built most recently, least recent first,
#: keyed by :meth:`ExperimentTask.trace_key`. Every seed of a harness
#: cell replays trace seed 0, and
#: :func:`~repro.harness.experiments.experiment_tasks` orders a
#: grid's cells by this key, so each process — a pool worker, or the
#: coordinator running cells itself — builds each trace of a sweep once:
#: the full ``fig2 fig7 fig8`` sweep (72 cells, 9 traces) reuses at
#: least 54 traces with 2 workers. Reusing the trace object also reuses
#: its replay-list views. Three entries cost about 50 MB per worker
#: (see docs/performance.md, "Cold cells").
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

    ``check_invariants`` ("" | "sampled" | "deep") and
    ``telemetry_interval`` (the sampling window of the cell's telemetry
    registry, or None for none) ride on the envelope rather than the
    task: neither changes results, so audited or instrumented runs
    share cache keys with plain ones — and cache hits skip both.
    ``workload_cache_dir`` likewise rides along so spawned (non-forked)
    workers install the same materialized workload store the
    coordinator uses.
    """

    index: int
    task: ExperimentTask
    cache_dir: Optional[str]
    code_version: Optional[str]
    check_invariants: str = ""
    workload_cache_dir: Optional[str] = None
    telemetry_interval: Optional[int] = None


@dataclass
class TaskOutcome:
    """What one completed cell reports back to the coordinator.

    ``telemetry`` is the finished registry of a cell that simulated with
    a telemetry interval, or None.
    """

    index: int
    result: RunResult
    cache: str  # "hit" | "miss" | "off"
    wall_seconds: float
    peak_rss_kb: int
    worker_pid: int
    telemetry: Optional["TelemetryRegistry"] = None


def load_or_simulate(
    task: ExperimentTask,
    disk: Optional[DiskCache] = None,
    version: Optional[str] = None,
    check_invariants: str = "",
    telemetry_interval: Optional[int] = None,
) -> Tuple[RunResult, str, Optional["TelemetryRegistry"]]:
    """One cell's result, its cache status (``hit|miss|off``) and its
    telemetry registry.

    Consults *disk* first; on a miss, simulates — audited by the
    coherence sanitizer in mode *check_invariants*, and recorded into a
    new :class:`~repro.telemetry.registry.TelemetryRegistry` sampling
    every *telemetry_interval* cycles when that is given — and stores
    the result. A hit, or a run without an interval, has no registry.
    The store is atomic, so a process dying mid-task never leaves a
    partial cache entry.
    """
    status = "off"
    key = None
    if disk is not None:
        key = task.cache_key(version)
        result = disk.load(key)
        if result is not None:
            return result, "hit", None
        status = "miss"
    sanitizer = None
    if check_invariants:
        from repro.validate.sanitizer import CoherenceSanitizer

        sanitizer = CoherenceSanitizer(mode=check_invariants)
    telemetry = None
    if telemetry_interval is not None:
        from repro.telemetry.registry import TelemetryRegistry

        telemetry = TelemetryRegistry(interval=telemetry_interval)
    result = task.execute(sanitizer=sanitizer, telemetry=telemetry)
    if disk is not None:
        disk.store(key, result, metadata=task.describe())
    return result, status, telemetry


def execute_envelope(envelope: _Envelope) -> TaskOutcome:
    """Run one cell in the current process (the pool's task callable)."""
    started = time.perf_counter()
    if envelope.workload_cache_dir is not None:
        current = active_store()
        if current is None or \
                str(current.cache_dir) != envelope.workload_cache_dir:
            set_workload_store(WorkloadStore(envelope.workload_cache_dir))
    disk = None
    if envelope.cache_dir is not None:
        disk = DiskCache(envelope.cache_dir)
    result, status, telemetry = load_or_simulate(
        envelope.task, disk, envelope.code_version,
        envelope.check_invariants, envelope.telemetry_interval,
    )
    return TaskOutcome(
        index=envelope.index,
        result=result,
        cache=status,
        wall_seconds=time.perf_counter() - started,
        peak_rss_kb=_peak_rss_kb(),
        worker_pid=os.getpid(),
        telemetry=telemetry,
    )


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
class ParallelRunner:
    """Executes experiment tasks across supervised processes.

    Parameters
    ----------
    workers:
        Process count; ``<= 1`` runs the cells in this process, in
        order (same code path per cell — the determinism oracle).
    cache:
        Optional :class:`DiskCache`. Cells already in it are loaded in
        this process, before any worker is forked; workers store the
        rest in it directly.
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
    checkpoint:
        Optional :class:`~repro.harness.supervisor.SweepCheckpoint`.
        Together with a disk cache this makes sweeps resumable: cells
        recorded complete are disk hits like any other, and their run
        records say ``resumed``; bit-identical either way.
    circuit_threshold:
        Consecutive pool faults (crashes/timeouts) before the pool
        stops forking and runs the remaining cells in this process.
    check_invariants:
        "" (off), "sampled" or "deep": run the coherence sanitizer
        inside every simulation this sweep actually executes.
    telemetry_interval:
        When set, every simulation this sweep executes records into its
        own telemetry registry sampling at this many cycles; after
        :meth:`run`, :attr:`registries` holds them in task order, so a
        merge of them is the same at any worker count. Hits have none.
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
        checkpoint: Optional[SweepCheckpoint] = None,
        circuit_threshold: int = 4,
        check_invariants: str = "",
        workload_cache: Optional[WorkloadStore] = None,
        telemetry_interval: Optional[int] = None,
    ) -> None:
        self.workers = max(0, int(workers))
        self.cache = cache
        self.runlog = runlog
        self.retries = max(0, int(retries))
        self.strict = strict
        self.execute = execute if execute is not None else execute_envelope
        self.task_timeout = task_timeout
        self.checkpoint = checkpoint
        self.circuit_threshold = max(1, int(circuit_threshold))
        self.check_invariants = check_invariants
        self.telemetry_interval = telemetry_interval
        #: Materialized workload store shared with the workers; defaults
        #: to the process-wide active store (env-activated or wired by
        #: the CLI), so sweeps reuse generated traces without plumbing.
        self.workload_cache = workload_cache if workload_cache is not None \
            else active_store()
        self.failures: List[Dict] = []
        self.quarantined: List[Dict] = []
        #: The simulated cells' telemetry registries, in task order.
        self.registries: List["TelemetryRegistry"] = []
        self._attempts: Dict[int, int] = {}
        #: Indices of this sweep's checkpoint-completed cells on disk.
        self._resumed: Set[int] = set()
        self._version: Optional[str] = None

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
                      workload_dir, self.telemetry_interval)
            for i, task in enumerate(tasks)
        ]
        self._attempts = {envelope.index: 1 for envelope in envelopes}
        hits, pending = self._split_hits(envelopes)
        self._log("sweep-start", tasks=len(envelopes),
                  workers=self.workers or 1,
                  cache="on" if cache_dir else "off",
                  resumed=len(self._resumed),
                  check_invariants=self.check_invariants or "off")
        started = time.perf_counter()
        # A cell on disk only needs loading: it runs here, through the
        # same executor and callbacks as every other cell, so only cells
        # that simulate reach the pool and a fully warm sweep forks
        # nothing. (An unreadable entry simulates here, bit-identically.)
        outcomes, _ = SupervisedPool(0, self.execute).run(
            hits, self._on_outcome, self._decide_retry)
        # Forked workers share this process's memory: tabulating the
        # region protocols the cells use here saves each worker its own
        # tabulation in its first cell.
        for flags in {(e.task.config.two_bit_response,
                       e.task.config.self_invalidation) for e in pending}:
            RegionProtocol(*flags)
        pool = SupervisedPool(
            self.workers, self.execute,
            task_timeout=self.task_timeout,
            circuit_threshold=self.circuit_threshold,
        )
        simulated, drained = pool.run(pending, self._on_outcome,
                                      self._decide_retry)
        if drained:
            self._log("circuit-break",
                      remaining=len(drained),
                      crashes=pool.crashes,
                      timeouts=pool.timeouts,
                      consecutive_faults=pool.breaker.consecutive_faults)
        outcomes += simulated
        outcomes.sort(key=lambda outcome: outcome.index)
        results: List[Optional[RunResult]] = [None] * len(envelopes)
        for outcome in outcomes:
            results[outcome.index] = outcome.result
        self.registries = [o.telemetry for o in outcomes
                           if o.telemetry is not None]
        self._log(
            "sweep-end",
            wall_s=round(time.perf_counter() - started, 4),
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
    # Cache hits and checkpoint resume
    # ------------------------------------------------------------------
    def _split_hits(
        self, envelopes: List[_Envelope]
    ) -> Tuple[List[_Envelope], List[_Envelope]]:
        """Split envelopes into (result on disk, still to simulate).

        A checkpoint-completed cell is just a disk hit; the checkpoint
        only marks which hits are resumed (:attr:`_resumed`). A
        completed cell whose entry is gone simulates again, and one
        whose entry is unreadable simulates where hits are served —
        bit-identical either way, by the determinism contract.
        """
        completed: Set[int] = set()
        if self.checkpoint is not None:
            completed = self.checkpoint.begin(
                [e.task.cache_key(self._version) for e in envelopes])
        hits: List[_Envelope] = []
        pending: List[_Envelope] = []
        for envelope in envelopes:
            # A version is set only when the disk cache is enabled.
            on_disk = self._version is not None and self.cache.contains(
                envelope.task.cache_key(self._version))
            (hits if on_disk else pending).append(envelope)
        self._resumed = {e.index for e in hits if e.index in completed}
        return hits, pending

    # ------------------------------------------------------------------
    # Pool callbacks (run in this process for every cell)
    # ------------------------------------------------------------------
    def _on_outcome(self, envelope: _Envelope, outcome: TaskOutcome) -> None:
        self._record_outcome(envelope, outcome,
                             self._attempts[envelope.index])
        if self.checkpoint is not None \
                and envelope.index not in self._resumed:
            self.checkpoint.mark_done(
                envelope.index,
                envelope.task.cache_key(self._version),
                outcome.cache,
            )

    def _decide_retry(
        self, envelope: _Envelope, failure: TaskFailure
    ) -> Optional[float]:
        """Log *failure*; the delay before its retry, or None to give up."""
        attempt = self._attempts[envelope.index]
        delay = _RETRY_POLICY.retry_delay(failure, attempt, self.retries,
                                        key=envelope.index)
        self._record_failure(envelope, failure, attempt, delay is not None)
        if delay is not None:
            self._attempts[envelope.index] = attempt + 1
        return delay

    def _record_failure(self, envelope: _Envelope, failure: TaskFailure,
                        attempt: int, will_retry: bool) -> None:
        text = failure.traceback or failure.describe()
        self._log("run", index=envelope.index, task=envelope.task.describe(),
                  status="error", error=text, attempt=attempt,
                  will_retry=will_retry, kind=failure.kind,
                  failure_class=failure.failure_class.value)
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
        resumed = {"resumed": True} if envelope.index in self._resumed \
            and outcome.cache == "hit" else {}
        self._log("run", index=envelope.index, task=envelope.task.describe(),
                  status="ok", cache=outcome.cache, **resumed,
                  wall_s=round(outcome.wall_seconds, 6),
                  worker=outcome.worker_pid,
                  peak_rss_kb=outcome.peak_rss_kb, attempt=attempt)
