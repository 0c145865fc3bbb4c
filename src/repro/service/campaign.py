"""The campaign service: submit, run, resume, cancel, report.

:class:`CampaignService` is the single front-end every entry point
(CLI, tests, chaos harness) drives. It owns a *service directory*::

    <service_dir>/
      queue.wal          durable campaign queue (cgct-queue/v1)
      queue.lock         flock serialising cross-process access
      runcache/          content-addressed result store (shared)
      diagnostics/       cgct-diagnostics/v1 bundles (reaps, failures)
      service.jsonl      coordinator run log (runlog/v1 + spans)
      fleet-*.jsonl      one run log per fleet process

The WAL plus the content-addressed cache *is* the campaign checkpoint:
every durable fact (cells, leases, completions, quarantines) lives in
one of the two, both are crash-safe (fsync'd appends / atomic store),
and both are keyed by content — so killing the whole service at any
instant and calling :meth:`resume` replays to the same results,
bit-identical, with finished cells served from the store.

Fleet supervision
-----------------
:meth:`run` forks ``fleets`` fleet processes and watches them. A fleet
that dies (crash, chaos SIGKILL) is re-admitted after an exponential
backoff; a fleet slot that keeps dying past its restart budget is
retired — the service *degrades* to fewer fleets, and when the last
slot retires it drains the remainder serially in-process. The queue's
lease protocol makes all of this safe: a dead fleet's cells simply
expire back to pending.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.common.errors import HarnessError
from repro.harness.cache import DiskCache, code_version
from repro.harness.runlog import RunLog
from repro.harness.supervisor import RetryPolicy, preload_numpy
from repro.obs.wallclock import WallSpanRecorder
from repro.service.cells import (
    campaign_cells,
    campaign_id_for,
    campaign_keys,
    campaign_result_fingerprint,
    result_fingerprint,
)
from repro.service.fleet import Fleet, fleet_main
from repro.service.queue import CampaignQueue

__all__ = [
    "CampaignReport",
    "CampaignService",
    "campaign_cells",
    "campaign_id_for",
    "result_fingerprint",
]


@dataclass
class CampaignReport:
    """Everything :meth:`CampaignService.results` knows about a campaign."""

    campaign: str
    spec: dict
    keys: List[str]
    results: List[object]          # RunResult | None, in cell order
    quarantined: Dict[int, dict]
    status: dict
    #: sha256[:32] over every cell's result fingerprint, in cell order —
    #: the kill-and-resume determinism check's single number.
    result_fingerprint: str = ""

    @property
    def complete(self) -> bool:
        return all(r is not None for r in self.results)

    def summary(self) -> dict:
        return {
            "campaign": self.campaign,
            "cells": len(self.keys),
            "done": sum(1 for r in self.results if r is not None),
            "quarantined": len(self.quarantined),
            "result_fingerprint": self.result_fingerprint,
            "complete": self.complete,
        }


@dataclass
class _FleetSlot:
    """One supervised fleet position (process + restart budget)."""

    label: str
    proc: Optional[multiprocessing.process.BaseProcess] = None
    restarts: int = 0
    next_start: float = 0.0
    retired: bool = False      # restart budget exhausted (degradation)
    finished: bool = False     # exited 0: saw the campaign drained
    incarnation: int = 0


def _fleet_entry(service_dir: str, fleet_id: str, campaign: Optional[str],
                 workers: int, lease_s: float, cache_dir: Optional[str],
                 retries: int, policy: Optional[RetryPolicy],
                 max_attempts: int) -> None:
    """Module-level fleet process target (fork- and spawn-safe).

    Chaos injection rides in via ``REPRO_SERVICE_CHAOS`` (see
    :mod:`repro.service.chaos`) so the service code has no test hooks.
    """
    from repro.service.chaos import ChaosPlan, chaos_execute

    plan = ChaosPlan.from_env()
    execute = chaos_execute(plan) if plan is not None else None
    stall = bool(plan.stall_heartbeats) if plan is not None else False
    sys.exit(fleet_main(
        service_dir, fleet_id, campaign=campaign, workers=workers,
        lease_s=lease_s, cache_dir=cache_dir, execute=execute,
        stall_heartbeats=stall, retries=retries, policy=policy,
        max_attempts=max_attempts,
    ))


class CampaignService:
    """Front-end over the durable queue + fleet supervision.

    Parameters
    ----------
    service_dir:
        Root of the durable state (created if missing).
    cache_dir:
        Content-addressed result store; defaults to
        ``<service_dir>/runcache`` so concurrent campaigns share it.
    lease_s:
        Cell lease length handed to fleets. Short leases recover from
        SIGKILLs fast but demand fast heartbeats; tests use sub-second
        values, production seconds-to-minutes.
    fleet_restart_limit:
        Deaths one fleet slot may accumulate before it is retired
        (degradation step). Restarts back off exponentially via
        *policy*.
    """

    def __init__(
        self,
        service_dir: Union[str, Path],
        cache_dir: Optional[Union[str, Path]] = None,
        lease_s: float = 30.0,
        policy: Optional[RetryPolicy] = None,
        max_attempts: int = 5,
        fleet_restart_limit: int = 3,
        poll_s: float = 0.1,
        clock=time.time,
    ) -> None:
        self.dir = Path(service_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cache_dir = Path(cache_dir) if cache_dir is not None \
            else self.dir / "runcache"
        self.bundle_dir = self.dir / "diagnostics"
        self.lease_s = lease_s
        self.policy = policy if policy is not None else RetryPolicy(
            backoff_base=0.2, backoff_cap=5.0, max_delay=5.0,
        )
        self.max_attempts = max(1, int(max_attempts))
        self.fleet_restart_limit = max(0, int(fleet_restart_limit))
        self.poll_s = poll_s
        self._clock = clock
        # One retry configuration per service directory: the
        # coordinator's queue, every fleet's queue, and the serial
        # fallback all share *policy*/*max_attempts* so re-admission
        # backoff and quarantine thresholds agree.
        self.queue = CampaignQueue(
            self.dir, policy=self.policy, max_attempts=self.max_attempts,
            clock=clock,
        )
        self._version = code_version()
        self._runlog: Optional[RunLog] = None

    # ------------------------------------------------------------------
    def _log(self, event: str, **fields) -> None:
        if self._runlog is None:
            self._runlog = RunLog(self.dir / "service.jsonl")
        self._runlog.record(event, **fields)

    def close(self) -> None:
        if self._runlog is not None:
            self._runlog.close()
            self._runlog = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def submit(self, spec: dict, campaign: Optional[str] = None) -> dict:
        """Enqueue *spec*'s cells; idempotent per content-addressed id.

        Returns ``{"campaign", "cells", "resumed"}``. Re-submitting an
        identical spec is a resume (finished cells stay finished);
        submitting a *different* spec under an explicit existing name
        is refused by the queue.
        """
        keys = campaign_keys(spec, self._version)
        if campaign is None:
            campaign = campaign_id_for(spec, self._version)
        receipt = self.queue.submit(campaign, spec, keys)
        self._log("campaign-submit", campaign=campaign,
                  cells=receipt["cells"], resumed=receipt["resumed"],
                  spec=spec)
        return receipt

    def cancel(self, campaign: str) -> None:
        self.queue.cancel(campaign)
        self._log("campaign-cancel", campaign=campaign)

    def status(self, campaign: Optional[str] = None) -> dict:
        return self.queue.status(campaign)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        campaign: str,
        fleets: int = 2,
        workers_per_fleet: int = 1,
        retries: int = 1,
        timeout_s: Optional[float] = None,
        serial_fallback: bool = True,
    ) -> CampaignReport:
        """Drive *campaign* to drained (or cancelled) and report.

        Safe to call on a partially finished campaign (that is what
        :meth:`resume` does); finished cells are not re-run.
        """
        spans = WallSpanRecorder(runlog=self._ensure_runlog())
        root = spans.start("campaign", campaign=campaign, fleets=fleets,
                           workers_per_fleet=workers_per_fleet)
        started = time.monotonic()
        slots = [
            _FleetSlot(label=f"fleet{i}") for i in range(max(0, fleets))
        ]
        degradations = 0
        try:
            ctx = _mp_context()
            preload_numpy()  # shared by every fleet this run forks
            while True:
                self.queue.refresh()
                status = self.queue.status(campaign)
                if status["drained"] or status["cancelled"]:
                    break
                if timeout_s is not None and \
                        time.monotonic() - started > timeout_s:
                    raise HarnessError(
                        f"campaign {campaign!r} exceeded its "
                        f"{timeout_s:g}s budget "
                        f"({status['done']}/{status['cells']} done)"
                    )
                self.queue.reap(self.bundle_dir)
                degradations += self._tend_fleets(
                    ctx, slots, campaign, workers_per_fleet, retries,
                )
                if all(slot.retired or slot.finished for slot in slots):
                    # No fleet left to restart (budgets exhausted, or
                    # every fleet already saw the queue drained): last
                    # rung of the degradation ladder — drain whatever
                    # remains serially, in this process.
                    self.queue.refresh()
                    status = self.queue.status(campaign)
                    if status["drained"] or status["cancelled"]:
                        break
                    if not serial_fallback:
                        raise HarnessError(
                            f"campaign {campaign!r}: all {len(slots)} "
                            f"fleet slots retired and serial fallback "
                            f"is disabled"
                        )
                    self._log("campaign-degrade-serial", campaign=campaign,
                              fleets=len(slots))
                    self._serial_drain(campaign, retries)
                time.sleep(self.poll_s)
        finally:
            self._reap_fleets(slots)
        status = self.queue.status(campaign)
        if status["drained"] and not status["cancelled"]:
            self.queue.mark_complete(campaign)
        report = self.results(campaign)
        self._log("campaign-end", campaign=campaign,
                  done=status["done"], quarantined=status["quarantined"],
                  cancelled=status["cancelled"],
                  degradations=degradations,
                  result_fingerprint=report.result_fingerprint)
        spans.finish(root, done=status["done"],
                     quarantined=status["quarantined"],
                     degradations=degradations)
        return report

    def resume(self, campaign: str, **run_kwargs) -> CampaignReport:
        """Re-submit (repairing the cell list) and drive to completion.

        The resume path after killing the entire service: leases from
        dead fleets expire, finished cells are cache hits, and the
        resulting report's ``result_fingerprint`` matches an
        uninterrupted run's bit-for-bit.
        """
        spec = self.queue.spec(campaign)
        self.submit(spec, campaign=campaign)
        return self.run(campaign, **run_kwargs)

    # ------------------------------------------------------------------
    def _ensure_runlog(self) -> RunLog:
        if self._runlog is None:
            self._runlog = RunLog(self.dir / "service.jsonl")
        return self._runlog

    def _tend_fleets(self, ctx, slots: List[_FleetSlot], campaign: str,
                     workers: int, retries: int) -> int:
        """Start/restart/retire fleet processes; returns retirements."""
        now = self._clock()
        retired = 0
        for slot in slots:
            if slot.retired or slot.finished:
                continue
            if slot.proc is not None:
                if slot.proc.is_alive():
                    continue
                exitcode = slot.proc.exitcode
                slot.proc.join(timeout=1.0)
                slot.proc = None
                if exitcode == 0:
                    # Drained its loop cleanly; don't restart — the
                    # outer loop decides whether the campaign is done
                    # (another fleet may still hold cells).
                    slot.finished = True
                    continue
                slot.restarts += 1
                if slot.restarts > self.fleet_restart_limit:
                    slot.retired = True
                    retired += 1
                    self._log("fleet-retire", fleet=slot.label,
                              campaign=campaign, deaths=slot.restarts,
                              exitcode=exitcode)
                    continue
                delay = self.policy.delay(slot.restarts, key=slot.label)
                slot.next_start = now + delay
                self._log("fleet-death", fleet=slot.label,
                          campaign=campaign, exitcode=exitcode,
                          restarts=slot.restarts,
                          readmit_in_s=round(delay, 3))
            if slot.proc is None and now >= slot.next_start:
                slot.incarnation += 1
                fleet_id = f"{slot.label}.{slot.incarnation}"
                slot.proc = ctx.Process(
                    target=_fleet_entry,
                    args=(str(self.dir), fleet_id, campaign, workers,
                          self.lease_s, str(self.cache_dir), retries,
                          self.policy, self.max_attempts),
                    daemon=False,
                )
                slot.proc.start()
                self._log("fleet-start", fleet=fleet_id,
                          campaign=campaign, pid=slot.proc.pid,
                          workers=workers)
        return retired

    def _reap_fleets(self, slots: List[_FleetSlot]) -> None:
        for slot in slots:
            if slot.proc is None:
                continue
            slot.proc.join(timeout=self.lease_s + 5.0)
            if slot.proc.is_alive():  # pragma: no cover - wedged fleet
                slot.proc.kill()
                slot.proc.join(timeout=5.0)
            slot.proc = None

    def _serial_drain(self, campaign: str, retries: int) -> None:
        fleet = Fleet(
            str(self.dir), f"serial@{os.getpid()}", campaign=campaign,
            workers=1, lease_s=self.lease_s, cache_dir=str(self.cache_dir),
            retries=retries, policy=self.policy,
            max_attempts=self.max_attempts, bundle_dir=self.bundle_dir,
            runlog=self._ensure_runlog(), poll_s=self.poll_s,
        )
        fleet.run()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def results(self, campaign: str) -> CampaignReport:
        """Assemble the report from the content-addressed store.

        Results are loaded by cache key, never from fleet memory — the
        report after a kill-and-resume is computed exactly the way an
        uninterrupted run's is.
        """
        spec = self.queue.spec(campaign)
        cells = self.queue.keys(campaign)
        keys = [cells[i] for i in sorted(cells)]
        store = DiskCache(self.cache_dir)
        results = [store.load(key) for key in keys]
        return CampaignReport(
            campaign=campaign,
            spec=spec,
            keys=keys,
            results=results,
            quarantined=self.queue.quarantined(campaign),
            status=self.queue.status(campaign),
            result_fingerprint=campaign_result_fingerprint(keys, results),
        )


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()
