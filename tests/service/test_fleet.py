"""Fleet behavior: claim → execute → commit, failure taxonomy, leases.

Runs fleets in-process (``workers=1`` executes cells in the fleet's
own process) against real — tiny — simulations, so every assertion is
about the actual contract: committed results land in the shared
content-addressed store, deterministic failures quarantine with a
bundle, transient ones retry, and a lost lease never double-commits.
"""

import json
import os
import threading
import time
from functools import partial
from pathlib import Path

from repro.harness.cache import DiskCache
from repro.harness.parallel import execute_envelope
from repro.harness.runlog import RunLog, read_runlog
from repro.harness.supervisor import RetryPolicy
from repro.service.campaign import CampaignService
from repro.service.fleet import Fleet
from repro.service.queue import CampaignQueue

SPEC = {"kind": "matrix", "benchmarks": ["barnes"],
        "configs": ["4p-cgct"], "ops": 400, "seeds": 2}


def submit(tmp_path, spec=SPEC):
    service = CampaignService(tmp_path / "svc")
    campaign = service.submit(spec)["campaign"]
    service.close()
    return service, campaign


# ----------------------------------------------------------------------
# Injected execute hooks
# ----------------------------------------------------------------------
def _fail_index0_deterministic(envelope):
    if envelope.index == 0:
        raise ValueError("impossible region transition (injected)")
    return execute_envelope(envelope)


def _fail_twice_transient(envelope, marker):
    path = Path(marker)
    seen = len(path.read_text()) if path.exists() else 0
    if seen < 2:
        path.write_text("x" * (seen + 1))
        raise TimeoutError("injected transient fault")
    return execute_envelope(envelope)


def _slow_execute(envelope):
    time.sleep(0.8)
    return execute_envelope(envelope)


# ----------------------------------------------------------------------
def test_fleet_drains_and_results_land_in_shared_store(tmp_path):
    service, campaign = submit(tmp_path)
    fleet = Fleet(tmp_path / "svc", "f1", campaign=campaign,
                  cache_dir=service.cache_dir)
    counters = fleet.run()
    assert counters["committed"] == 2
    assert counters["quarantined"] == 0
    status = fleet.queue.status(campaign)
    assert status["drained"] and status["done"] == 2
    store = DiskCache(service.cache_dir)
    for key in fleet.queue.keys(campaign).values():
        assert store.load(key) is not None


def test_multi_campaign_batch_keys_commits_by_cell_identity(tmp_path):
    """A fleet serving every campaign (``campaign=None``) claims
    batches that span campaigns sharing cell indices (both have cell
    0); every commit must resolve its envelope's own
    (campaign, index, key) — a ``done`` for the *other* campaign's
    cell would durably mark it finished before it ever ran."""
    service = CampaignService(tmp_path / "svc")
    campaign_a = service.submit(SPEC)["campaign"]
    campaign_b = service.submit(dict(SPEC, ops=500))["campaign"]
    service.close()
    assert campaign_a != campaign_b
    fleet = Fleet(tmp_path / "svc", "f1", campaign=None,
                  cache_dir=service.cache_dir, batch=4)
    counters = fleet.run()
    assert counters["committed"] == 4
    assert counters["rejected_commits"] == 0
    store = DiskCache(service.cache_dir)
    for campaign in (campaign_a, campaign_b):
        status = fleet.queue.status(campaign)
        assert status["drained"] and status["done"] == 2
        for key in fleet.queue.keys(campaign).values():
            assert store.load(key) is not None
    # Each durable ``done`` record carries its own campaign's key.
    wal = (tmp_path / "svc" / "queue.wal").read_text().splitlines()
    for record in (json.loads(line) for line in wal):
        if record.get("record") == "done":
            keys = fleet.queue.keys(record["campaign"])
            assert record["key"] == keys[record["index"]]


def test_retry_configuration_threads_to_every_queue_view(tmp_path):
    """The service-level policy/max_attempts reach the coordinator's
    queue and each fleet's queue, so one service directory has one
    re-admission backoff and one quarantine threshold."""
    policy = RetryPolicy(backoff_base=0.01, backoff_cap=0.02,
                         max_delay=0.02, jitter=0.0)
    service = CampaignService(tmp_path / "svc", policy=policy,
                              max_attempts=3)
    assert service.queue.policy is policy
    assert service.queue.max_attempts == 3
    fleet = Fleet(tmp_path / "svc", "f1", policy=policy, max_attempts=3)
    assert fleet.queue.policy is policy
    assert fleet.queue.max_attempts == 3
    service.close()


def test_deterministic_failure_quarantines_with_bundle(tmp_path):
    service, campaign = submit(tmp_path)
    fleet = Fleet(tmp_path / "svc", "f1", campaign=campaign,
                  cache_dir=service.cache_dir,
                  execute=_fail_index0_deterministic,
                  bundle_dir=tmp_path / "bundles")
    counters = fleet.run()
    assert counters["committed"] == 1
    assert counters["quarantined"] == 1
    quarantined = fleet.queue.quarantined(campaign)
    assert list(quarantined) == [0]
    bundle = json.loads(Path(quarantined[0]["bundle"]).read_text())
    assert bundle["schema"] == "cgct-diagnostics/v1"
    assert bundle["kind"] == "cell-failure"
    assert bundle["exc_type"] == "ValueError"
    assert "injected" in bundle["message"]


def test_transient_failure_retries_and_recovers(tmp_path):
    service, campaign = submit(tmp_path)
    fleet = Fleet(
        tmp_path / "svc", "f1", campaign=campaign,
        cache_dir=service.cache_dir, retries=3,
        policy=RetryPolicy(backoff_base=0.01, backoff_cap=0.02,
                           max_delay=0.02),
        execute=lambda env: _fail_twice_transient(
            env, tmp_path / "marker"),
    )
    counters = fleet.run()
    assert counters["committed"] == 2
    assert counters["quarantined"] == 0
    assert fleet.queue.status(campaign)["drained"]


def test_abandoned_cell_is_reclaimed_then_reaped(tmp_path):
    """A cell that transiently fails every claimant: the fleet abandons
    it (lease expires), re-claims with backoff, and once the attempt
    budget is spent the idle-loop reap quarantines it with a bundle —
    never an infinite crash loop, never a silent loss."""
    def always_transient(envelope):
        raise TimeoutError("injected: fails under every claimant")

    service, campaign = submit(tmp_path)
    fleet = Fleet(
        tmp_path / "svc", "f1", campaign=campaign,
        cache_dir=service.cache_dir, retries=0, lease_s=0.05,
        poll_s=0.02, execute=always_transient,
        bundle_dir=tmp_path / "bundles", max_attempts=2,
        policy=RetryPolicy(backoff_base=0.01, backoff_factor=1.0,
                           backoff_cap=0.01, max_delay=0.01, jitter=0.0),
    )
    counters = fleet.run()
    assert counters["committed"] == 0
    assert counters["abandoned"] >= 2
    quarantined = fleet.queue.quarantined(campaign)
    assert sorted(quarantined) == [0, 1]
    for record in quarantined.values():
        bundle = json.loads(Path(record["bundle"]).read_text())
        assert bundle["kind"] == "queue-reap"


def test_stalled_heartbeats_lose_cells_without_double_commit(tmp_path):
    """Chaos: fleet A claims everything, stalls its heartbeats, and
    executes slowly; fleet B reclaims after expiry and finishes. Exactly
    one ``done`` lands per cell, whoever wins the commit race."""
    service, campaign = submit(tmp_path)
    stalled = Fleet(tmp_path / "svc", "stalled", campaign=campaign,
                    cache_dir=service.cache_dir, lease_s=0.2,
                    poll_s=0.02, execute=_slow_execute,
                    stall_heartbeats=True)
    healthy = Fleet(tmp_path / "svc", "healthy", campaign=campaign,
                    cache_dir=service.cache_dir, lease_s=5.0,
                    poll_s=0.02)
    thread = threading.Thread(target=stalled.run, daemon=True)
    thread.start()
    time.sleep(0.25)  # let the stalled fleet's leases expire
    healthy.run()
    thread.join(timeout=30.0)
    assert not thread.is_alive()
    queue = CampaignQueue(tmp_path / "svc")
    status = queue.status(campaign)
    assert status["drained"] and status["done"] == 2
    wal = (tmp_path / "svc" / "queue.wal").read_text().splitlines()
    dones = [json.loads(l) for l in wal
             if json.loads(l).get("record") == "done"]
    assert sorted(d["index"] for d in dones) == [0, 1]
    # Both fleets together committed exactly once per cell.
    total = stalled.committed + healthy.committed
    assert total == 2


def test_sigkilled_fleets_cells_are_reissued_and_identical(tmp_path):
    """The headline lease property, without processes: a claimant that
    vanishes (never commits, never renews) simply loses its cells to
    the next fleet, and the results are the undisturbed ones."""
    service, campaign = submit(tmp_path)
    queue = CampaignQueue(tmp_path / "svc")
    picks = queue.claim("doomed@1", limit=10, lease_s=0.05)
    assert len(picks) == 2  # then the fleet is SIGKILLed: silence
    time.sleep(0.06)
    fleet = Fleet(tmp_path / "svc", "f2", campaign=campaign,
                  cache_dir=service.cache_dir, lease_s=5.0, poll_s=0.02)
    counters = fleet.run()
    assert counters["committed"] == 2
    reference = CampaignService(tmp_path / "ref")
    ref_campaign = reference.submit(SPEC)["campaign"]
    ref_report = reference.run(ref_campaign, fleets=0)
    report = CampaignService(
        tmp_path / "svc", cache_dir=service.cache_dir,
    ).results(campaign)
    assert report.complete
    assert report.result_fingerprint == ref_report.result_fingerprint


def _die_in_workers(envelope, parent_pid):
    """Kill any forked worker outright; succeed in the fleet's process."""
    if os.getpid() != parent_pid:
        os._exit(17)
    return execute_envelope(envelope)


def test_exhausted_breaker_drains_batch_in_process_and_halves_workers(
        tmp_path, monkeypatch):
    """Every worker dies, so the pool's half-open breaker spends its
    probes and trips for good. The pool then drains the batch in the
    fleet's own process: the cells that killed a worker are quarantined
    rather than run there, any other runs with the undisturbed result;
    the fleet logs one ``degrade`` and the next batch runs on half the
    workers."""
    spec = dict(SPEC, seeds=6)
    service, campaign = submit(tmp_path, spec)
    batches = []
    execute_batch = Fleet._execute_batch

    def spy(fleet, picks):
        batches.append((len(picks), fleet.workers))
        return execute_batch(fleet, picks)

    monkeypatch.setattr(Fleet, "_execute_batch", spy)
    log = tmp_path / "fleet.jsonl"
    with RunLog(log) as runlog:
        fleet = Fleet(
            tmp_path / "svc", "f1", campaign=campaign, workers=2,
            cache_dir=service.cache_dir, batch=4, retries=50,
            circuit_threshold=2, breaker_cooldown=0.02, runlog=runlog,
            policy=RetryPolicy(backoff_base=0.01, backoff_cap=0.02,
                               max_delay=0.02),
            execute=partial(_die_in_workers, parent_pid=os.getpid()),
        )
        counters = fleet.run()
    records = read_runlog(log)
    crashed = {r["index"] for r in records
               if r["event"] == "run" and r.get("kind") == "crash"}
    assert len(crashed) >= 2
    assert counters["degradations"] == 1
    assert counters["quarantined"] == len(crashed)
    assert counters["committed"] == 6 - len(crashed)
    assert counters["abandoned"] == 0
    assert batches == [(4, 2), (2, 1)]
    degrades = [r for r in records if r["event"] == "degrade"]
    assert len(degrades) == 1
    assert degrades[0]["remaining"] == 4
    assert degrades[0]["crashes"] >= 2
    assert (degrades[0]["workers_before"],
            degrades[0]["workers_after"]) == (2, 1)

    clean, clean_campaign = submit(tmp_path / "clean", spec)
    Fleet(tmp_path / "clean" / "svc", "f1", campaign=clean_campaign,
          cache_dir=clean.cache_dir).run()
    keys = fleet.queue.keys(campaign)
    assert keys == CampaignQueue(tmp_path / "clean" / "svc").keys(
        clean_campaign)
    store, clean_store = DiskCache(service.cache_dir), \
        DiskCache(clean.cache_dir)
    committed = [key for key in keys.values() if store.load(key) is not None]
    assert len(committed) == counters["committed"]
    for key in committed:
        assert store.load(key) == clean_store.load(key)
