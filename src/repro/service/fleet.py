"""The fleet process: claim cells under leases, execute, commit.

One :class:`Fleet` is one OS process (the service runs several per
host). Its loop:

1. **claim** up to a batch of pending cells from the
   :class:`~repro.service.queue.CampaignQueue` (lease = ``lease_s``);
2. **execute** them through a
   :class:`~repro.harness.supervisor.SupervisedPool` — forked workers
   at ``workers > 1``, this process otherwise — while a daemon
   heartbeat thread renews the batch's leases every ``heartbeat_s``;
3. **commit** each outcome (``done`` record + the content-addressed
   result already persisted by the worker), skipping cells whose lease
   was lost to a reclaim — the no-double-commit invariant;
4. repeat until every targeted campaign is drained or cancelled.

Failures are judged by the pool's one retry rule
(:meth:`~repro.harness.supervisor.RetryPolicy.retry_delay`), as in the
parallel runner: deterministic failures are quarantined immediately
(with a ``cgct-diagnostics/v1`` bundle), transient ones retry in-batch
with backoff, and a cell whose transient retries exhaust is simply
*left leased* — the lease expires, the queue re-admits it with
exponential backoff, and :meth:`~repro.service.queue.CampaignQueue
.reap` quarantines it if it keeps killing workers. Repeated pool-level
faults trip the pool's half-open circuit breaker; if the breaker
exhausts its probes the pool drains the batch's unfinished cells in
this process and the fleet degrades — subsequent batches use half the
workers (down to 1), the "fewer fleets then serial" ladder's bottom
rung.

A SIGKILL of the whole fleet needs no handling at all: its leases
expire and other fleets (or a resumed service) reclaim the cells; the
result store is content-addressed, so any half-finished work is either
invisible (no commit) or a cache hit for the reclaimer.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.common.errors import FailureClass
from repro.harness.cache import code_version
from repro.harness.parallel import (
    ExperimentTask,
    TaskOutcome,
    _Envelope,
    execute_envelope,
)
from repro.harness.runlog import RunLog
from repro.harness.supervisor import (
    CircuitBreaker,
    RetryPolicy,
    SupervisedPool,
    TaskFailure,
)
from repro.service.cells import campaign_cells
from repro.service.queue import CampaignQueue


class Fleet:
    """One fleet process's work loop (see module docstring).

    Parameters
    ----------
    service_dir:
        The service directory holding ``queue.wal``.
    fleet_id:
        This fleet's lease-owner identity; must be unique per process
        incarnation (the service appends the pid).
    campaign:
        Restrict claims to one campaign; ``None`` serves every
        campaign in the queue — the "many concurrent campaigns" shape.
    workers:
        Supervised worker processes (1 = serial in-process).
    lease_s / heartbeat_s:
        Lease length and renewal period (default ``lease_s / 3``).
    cache_dir:
        The shared content-addressed result store. ``None`` disables
        result persistence (tests only — resume needs the store).
    execute:
        Per-cell callable ``f(envelope) -> TaskOutcome`` (chaos tests
        inject faults here). Defaults to
        :func:`~repro.harness.parallel.execute_envelope`.
    retries:
        In-batch transient retry budget per cell.
    policy / max_attempts:
        Service-level retry configuration, threaded from
        :class:`~repro.service.campaign.CampaignService` so every
        queue view of one service directory judges re-admission
        backoff and the :meth:`~repro.service.queue.CampaignQueue
        .reap` quarantine threshold identically. *policy* (when
        given) also paces this fleet's in-batch transient retries.
    stall_heartbeats:
        Chaos switch: claim but never renew, so leases expire under
        live work and other fleets reclaim mid-flight.
    """

    def __init__(
        self,
        service_dir: Union[str, Path],
        fleet_id: str,
        campaign: Optional[str] = None,
        workers: int = 1,
        lease_s: float = 30.0,
        heartbeat_s: Optional[float] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        execute: Optional[Callable[[_Envelope], TaskOutcome]] = None,
        retries: int = 1,
        policy: Optional[RetryPolicy] = None,
        max_attempts: int = 5,
        bundle_dir: Optional[Union[str, Path]] = None,
        batch: Optional[int] = None,
        poll_s: float = 0.1,
        stall_heartbeats: bool = False,
        circuit_threshold: int = 4,
        breaker_cooldown: Optional[float] = 0.5,
        runlog: Optional[RunLog] = None,
    ) -> None:
        self.service_dir = Path(service_dir)
        # The fleet's queue view must judge quarantine (max_attempts)
        # and re-admission backoff (policy) exactly like the
        # coordinator's, so both come from the same service-level
        # configuration rather than CampaignQueue's defaults.
        self.queue = CampaignQueue(
            self.service_dir, policy=policy, max_attempts=max_attempts,
        )
        self.fleet_id = fleet_id
        self.campaign = campaign
        self.workers = max(1, int(workers))
        self.lease_s = lease_s
        self.heartbeat_s = heartbeat_s if heartbeat_s is not None \
            else lease_s / 3.0
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.execute = execute if execute is not None else execute_envelope
        self.retries = max(0, int(retries))
        self.policy = policy if policy is not None else RetryPolicy()
        self.bundle_dir = Path(bundle_dir) if bundle_dir is not None \
            else self.service_dir / "diagnostics"
        self.batch = batch
        self.poll_s = poll_s
        self.stall_heartbeats = stall_heartbeats
        self.circuit_threshold = circuit_threshold
        self.breaker_cooldown = breaker_cooldown
        self.runlog = runlog
        self._version = code_version() if self.cache_dir else None
        self._tasks: Dict[str, Dict[int, ExperimentTask]] = {}
        self._held: Set[Tuple[str, int]] = set()
        self._lost: Set[Tuple[str, int]] = set()
        self._attempts: Dict[Tuple[str, int], int] = {}
        #: Counters for the fleet-end record and tests.
        self.committed = 0
        self.rejected_commits = 0
        self.quarantined = 0
        self.abandoned = 0
        self.degradations = 0

    # ------------------------------------------------------------------
    def _log(self, event: str, **fields) -> None:
        if self.runlog is not None:
            self.runlog.record(event, fleet=self.fleet_id, **fields)

    def _task_for(self, campaign: str, index: int) -> ExperimentTask:
        if campaign not in self._tasks:
            cells = campaign_cells(self.queue.spec(campaign))
            self._tasks[campaign] = dict(enumerate(cells))
        return self._tasks[campaign][index]

    # ------------------------------------------------------------------
    def run(self) -> dict:
        """Drain the queue; returns this fleet's counters."""
        self._log("fleet-start", workers=self.workers,
                  campaign=self.campaign, lease_s=self.lease_s)
        idle_polls = 0
        while True:
            limit = self.batch if self.batch is not None \
                else max(1, self.workers) * 2
            picks = self.queue.claim(
                self.fleet_id, limit=limit, lease_s=self.lease_s,
                campaign=self.campaign,
            )
            if not picks:
                if self._drained():
                    break
                # Cells exist but are leased elsewhere or backing off:
                # wait for completions, expiries, or re-admissions —
                # and reap crash-loopers so a lone fleet still
                # converges on a cell that kills every claimant.
                idle_polls += 1
                if idle_polls % 10 == 0:
                    self.queue.reap(self.bundle_dir)
                time.sleep(self.poll_s)
                continue
            idle_polls = 0
            self._execute_batch(picks)
        counters = {
            "committed": self.committed,
            "rejected_commits": self.rejected_commits,
            "quarantined": self.quarantined,
            "abandoned": self.abandoned,
            "degradations": self.degradations,
        }
        self._log("fleet-end", **counters)
        return counters

    def _drained(self) -> bool:
        status = self.queue.status(self.campaign) \
            if self.campaign is not None else self.queue.status()
        statuses = [status] if self.campaign is not None \
            else list(status.values())
        if not statuses:
            return True
        return all(
            s["drained"] or s["cancelled"] for s in statuses
        )

    # ------------------------------------------------------------------
    # One batch
    # ------------------------------------------------------------------
    def _execute_batch(self, picks: List[Tuple[str, int, str]]) -> None:
        # Envelope indices are batch-local slots, NOT cell indices: a
        # multi-campaign batch (``campaign=None``) routinely holds the
        # same cell index from two campaigns, so the bare index cannot
        # key anything. ``batch`` maps each slot back to the envelope's
        # own (campaign, cell index, cache key).
        batch: Dict[int, Tuple[str, int, str]] = {}
        envelopes: List[_Envelope] = []
        for slot, (campaign, index, key) in enumerate(picks):
            batch[slot] = (campaign, index, key)
            self._held.add((campaign, index))
            self._attempts.setdefault((campaign, index), 1)
            envelopes.append(_Envelope(
                slot, self._task_for(campaign, index), self.cache_dir,
                self._version,
            ))
        pool = SupervisedPool(
            self.workers, self.execute,
            breaker=CircuitBreaker(self.circuit_threshold,
                                   cooldown=self.breaker_cooldown),
        )

        def on_outcome(envelope: _Envelope, outcome: TaskOutcome) -> None:
            self._commit(envelope, outcome, batch)

        def on_failure(envelope: _Envelope,
                       failure: TaskFailure) -> Optional[float]:
            return self._decide_retry(envelope, failure, batch)

        stop = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(stop,), daemon=True,
        )
        beat.start()
        try:
            _, drained = pool.run(envelopes, on_outcome, on_failure)
            if drained:
                # Breaker exhausted: the pool drained this batch
                # in-process; halve the crew for the next one.
                self.degradations += 1
                old_workers = self.workers
                self.workers = max(1, self.workers // 2)
                self._log("degrade", remaining=len(drained),
                          crashes=pool.crashes, timeouts=pool.timeouts,
                          workers_before=old_workers,
                          workers_after=self.workers)
        finally:
            stop.set()
            beat.join(timeout=2.0)
            self._held.clear()
            self._lost.clear()

    def _heartbeat_loop(self, stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_s):
            if self.stall_heartbeats:
                continue
            held = sorted(self._held - self._lost)
            if not held:
                continue
            try:
                lost = self.queue.renew(self.fleet_id, held,
                                        lease_s=self.lease_s)
            except OSError:  # pragma: no cover - queue disk trouble
                continue
            for cell in lost:
                self._lost.add(cell)

    # ------------------------------------------------------------------
    def _commit(self, envelope: _Envelope, outcome: TaskOutcome,
                batch: Dict[int, Tuple[str, int, str]]) -> None:
        campaign, index, key = batch[envelope.index]
        cell = (campaign, index)
        if cell in self._lost:
            # Reclaimed mid-flight (stalled heartbeat / expired lease):
            # the reclaimer owns the commit; our result is its cache hit.
            self.rejected_commits += 1
            self._log("run", campaign=campaign, index=index,
                      status="lost-lease", cache=outcome.cache)
            return
        accepted = self.queue.commit(
            self.fleet_id, campaign, index, key, outcome.cache,
        )
        if accepted:
            self.committed += 1
        else:
            self.rejected_commits += 1
        self._held.discard(cell)
        self._log("run", campaign=campaign, index=index,
                  status="ok" if accepted else "duplicate",
                  cache=outcome.cache,
                  wall_s=round(outcome.wall_seconds, 4),
                  worker=outcome.worker_pid,
                  attempt=self._attempts.get(cell, 1))

    def _decide_retry(self, envelope: _Envelope, failure: TaskFailure,
                      batch: Dict[int, Tuple[str, int, str]]
                      ) -> Optional[float]:
        campaign, index, key = batch[envelope.index]
        cell = (campaign, index)
        attempt = self._attempts.get(cell, 1)
        delay = None if cell in self._lost else self.policy.retry_delay(
            failure, attempt, self.retries, key=cell)
        will_retry = delay is not None
        self._log("run", campaign=campaign, index=index,
                  status="error", kind=failure.kind,
                  failure_class=failure.failure_class.value,
                  error=failure.describe(), attempt=attempt,
                  will_retry=will_retry)
        if will_retry:
            self._attempts[cell] = attempt + 1
            return delay
        if failure.failure_class is FailureClass.DETERMINISTIC:
            bundle = self._write_failure_bundle(
                campaign, index, envelope, failure,
            )
            if self.queue.quarantine(campaign, index,
                                     failure.describe(), bundle=bundle):
                self.quarantined += 1
        else:
            # Transient budget exhausted: leave the lease to expire so
            # the queue re-admits the cell (with backoff) to another
            # fleet — or reaps it if it keeps failing everywhere.
            self.abandoned += 1
        self._held.discard(cell)
        return None

    def _write_failure_bundle(self, campaign: str, index: int,
                              envelope: _Envelope,
                              failure: TaskFailure) -> str:
        self.bundle_dir.mkdir(parents=True, exist_ok=True)
        path = self.bundle_dir / \
            f"cell-{campaign}-{index}.json"
        suffix = 1
        while path.exists():
            path = self.bundle_dir / \
                f"cell-{campaign}-{index}-{suffix}.json"
            suffix += 1
        payload = {
            "schema": "cgct-diagnostics/v1",
            "kind": "cell-failure",
            "campaign": campaign,
            "index": index,
            "fleet": self.fleet_id,
            "task": envelope.task.describe(),
            "exc_type": failure.exc_type,
            "message": failure.message,
            "traceback": failure.traceback,
            "failure_class": failure.failure_class.value,
        }
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True, default=str)
            + "\n",
            encoding="utf-8",
        )
        return str(path)


def fleet_main(
    service_dir: Union[str, Path],
    fleet_id: str,
    campaign: Optional[str] = None,
    workers: int = 1,
    lease_s: float = 30.0,
    cache_dir: Optional[Union[str, Path]] = None,
    execute: Optional[Callable] = None,
    stall_heartbeats: bool = False,
    retries: int = 1,
    policy: Optional[RetryPolicy] = None,
    max_attempts: int = 5,
) -> int:
    """Process entry point for one fleet (forked by the service).

    Writes its own ``fleet-<id>.jsonl`` run log in the service
    directory — one writer per file, the contract every other log in
    the harness already keeps.
    """
    runlog = RunLog(Path(service_dir) / f"fleet-{fleet_id}.jsonl")
    try:
        fleet = Fleet(
            service_dir, f"{fleet_id}@{os.getpid()}", campaign=campaign,
            workers=workers, lease_s=lease_s, cache_dir=cache_dir,
            execute=execute, stall_heartbeats=stall_heartbeats,
            retries=retries, policy=policy, max_attempts=max_attempts,
            runlog=runlog,
        )
        fleet.run()
        return 0
    finally:
        runlog.close()
