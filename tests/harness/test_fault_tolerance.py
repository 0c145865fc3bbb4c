"""Fault injection against the supervised runner.

Every scenario ends with the same assertion: the surviving results are
*bit-identical* to an undisturbed serial run (full ``RunResult``
equality). Faults — killed workers, hangs past the deadline, corrupted
cache entries, interrupted sweeps — may cost wall clock, never bits.

Injection goes through the runner's ``execute`` hook with on-disk
markers (the idiom of ``test_parallel.py``), so a fault fires a
controlled number of times across worker processes.
"""

import json
import os
import signal
import time
from functools import partial
from pathlib import Path

import pytest

from repro.common.errors import FailureClass, WorkerCrash
from repro.harness.cache import DiskCache, code_version
from repro.harness.parallel import (
    ExperimentTask,
    ParallelRunner,
    execute_envelope,
)
from repro.harness.runlog import RunLog, read_runlog, summarize
from repro.harness.supervisor import (
    RetryPolicy,
    SupervisedPool,
    SweepCheckpoint,
    sweep_fingerprint,
)
from repro.system.config import SystemConfig


def grid_tasks(ops=800):
    """2 benchmarks × 2 configs — 4 cells, a cheap but real grid."""
    tasks = []
    for name in ("barnes", "tpc-w"):
        for config in (SystemConfig.paper_baseline(),
                       SystemConfig.paper_cgct(512)):
            tasks.append(ExperimentTask(name, config, ops,
                                        warmup_fraction=0.25))
    return tasks


def undisturbed(tasks):
    return ParallelRunner(workers=0).run(tasks)


# ----------------------------------------------------------------------
# Injected execute hooks (top-level: workers must reach them)
# ----------------------------------------------------------------------
def _sigkill_once_execute(envelope, marker):
    """SIGKILL the worker mid-task 0, exactly once across the sweep."""
    if envelope.index == 0:
        path = Path(marker)
        if not path.exists():
            path.write_text("killed")
            os.kill(os.getpid(), signal.SIGKILL)
    return execute_envelope(envelope)


def _hang_once_execute(envelope, marker):
    """Wedge the worker on task 1 (far past the deadline), once."""
    if envelope.index == 1:
        path = Path(marker)
        if not path.exists():
            path.write_text("hung")
            time.sleep(120)
    return execute_envelope(envelope)


def _bad_cell_execute(envelope):
    """Task 0 hits a deterministic simulator bug; the rest are fine."""
    if envelope.index == 0:
        raise ValueError("impossible region transition (injected)")
    return execute_envelope(envelope)


def _worker_hostile_execute(envelope, parent_pid):
    """Die instantly in any worker process; succeed in the parent."""
    if os.getpid() != parent_pid:
        os._exit(17)
    return execute_envelope(envelope)


def _crashy_execute(envelope, marker, fail_times):
    """Raise WorkerCrash for tasks 2+ until the marker counts out."""
    if envelope.index >= 2:
        path = Path(marker)
        seen = len(path.read_text()) if path.exists() else 0
        if seen < fail_times:
            path.write_text("x" * (seen + 1))
            raise WorkerCrash("injected transient infrastructure fault")
    return execute_envelope(envelope)


# ----------------------------------------------------------------------
# Scenario 1: worker killed mid-task
# ----------------------------------------------------------------------
def test_sigkilled_worker_is_replaced_and_results_are_identical(tmp_path):
    tasks = grid_tasks()
    expected = undisturbed(tasks)
    log = tmp_path / "run.jsonl"
    execute = partial(_sigkill_once_execute,
                      marker=str(tmp_path / "marker"))
    with RunLog(log) as runlog:
        runner = ParallelRunner(workers=2, runlog=runlog, retries=2,
                                execute=execute)
        results = runner.run(tasks)
    assert results == expected
    records = read_runlog(log)
    crashes = [r for r in records if r.get("status") == "error"
               and r.get("kind") == "crash"]
    assert len(crashes) == 1
    assert crashes[0]["will_retry"] is True
    assert crashes[0]["failure_class"] == "transient"


# ----------------------------------------------------------------------
# Scenario 2: worker hangs past the wall-clock budget
# ----------------------------------------------------------------------
def test_hung_worker_is_killed_at_deadline_and_task_requeued(tmp_path):
    tasks = grid_tasks()
    expected = undisturbed(tasks)
    log = tmp_path / "run.jsonl"
    execute = partial(_hang_once_execute, marker=str(tmp_path / "marker"))
    with RunLog(log) as runlog:
        runner = ParallelRunner(workers=2, runlog=runlog, retries=2,
                                execute=execute, task_timeout=2.0)
        results = runner.run(tasks)
    assert results == expected
    timeouts = [r for r in read_runlog(log) if r.get("status") == "error"
                and r.get("kind") == "timeout"]
    assert len(timeouts) == 1
    assert timeouts[0]["will_retry"] is True
    assert "wall-clock budget" in timeouts[0]["error"]


# ----------------------------------------------------------------------
# Scenario 3: corrupted cache entry
# ----------------------------------------------------------------------
def test_corrupt_cache_entry_is_resimulated_identically(tmp_path):
    tasks = grid_tasks()
    expected = undisturbed(tasks)
    disk = DiskCache(tmp_path / "cache")
    ParallelRunner(workers=0, cache=disk).run(tasks)

    # Truncate-and-garble one entry on disk.
    victim = disk._path(tasks[0].cache_key(code_version()))
    assert victim.exists()
    victim.write_bytes(b"not a pickle at all")

    log = tmp_path / "run.jsonl"
    with RunLog(log) as runlog:
        results = ParallelRunner(workers=0, cache=disk,
                                 runlog=runlog).run(tasks)
    assert results == expected
    summary = summarize(read_runlog(log))
    assert summary["simulated"] == 1  # only the corrupted cell re-ran
    assert summary["cache_hits"] == len(tasks) - 1
    assert summary["failures"] == 0


# ----------------------------------------------------------------------
# Scenario 4: sweep interrupted, checkpointed, resumed
# ----------------------------------------------------------------------
def test_checkpoint_resume_mid_sweep_is_bit_identical(tmp_path):
    tasks = grid_tasks()
    expected = undisturbed(tasks)
    disk = DiskCache(tmp_path / "cache")
    checkpoint_path = tmp_path / "sweep.ckpt"

    # First attempt: tasks 2+ fail transiently until the retry budget
    # runs out — the sweep ends with half the grid done. fail_times
    # covers exactly this sweep's four attempts (2 tasks × 2 tries), so
    # the fault has cleared by the resume.
    execute = partial(_crashy_execute, marker=str(tmp_path / "marker"),
                      fail_times=4)
    first = ParallelRunner(workers=0, cache=disk, retries=1, strict=False,
                           checkpoint=SweepCheckpoint(checkpoint_path),
                           execute=execute)
    partial_results = first.run(tasks)
    assert partial_results[:2] == expected[:2]
    assert partial_results[2:] == [None, None]
    assert len(first.failures) == 2

    # Resume: completed cells come from the checkpoint + cache, the
    # rest simulate now that the fault has cleared.
    log = tmp_path / "resume.jsonl"
    with RunLog(log) as runlog:
        second = ParallelRunner(workers=0, cache=disk, runlog=runlog,
                                checkpoint=SweepCheckpoint(checkpoint_path),
                                execute=execute)
        results = second.run(tasks)
    assert results == expected
    records = read_runlog(log)
    start = next(r for r in records if r["event"] == "sweep-start")
    assert start["resumed"] == 2
    resumed = [r for r in records
               if r["event"] == "run" and r.get("resumed")]
    assert {r["index"] for r in resumed} == {0, 1}
    assert summarize(records)["simulated"] == 2


def test_checkpoint_fingerprint_mismatch_restarts(tmp_path):
    path = tmp_path / "sweep.ckpt"
    checkpoint = SweepCheckpoint(path)
    assert checkpoint.begin(["key-a", "key-b"]) == set()
    checkpoint.mark_done(0, "key-a", "miss")
    assert SweepCheckpoint(path).begin(["key-a", "key-b"]) == {0}
    # A different grid (or code version, baked into real keys) restarts.
    assert SweepCheckpoint(path).begin(["key-a", "key-c"]) == set()


def test_checkpoint_tolerates_torn_trailing_line(tmp_path):
    path = tmp_path / "sweep.ckpt"
    checkpoint = SweepCheckpoint(path)
    checkpoint.begin(["key-a", "key-b"])
    checkpoint.mark_done(0, "key-a", "miss")
    with path.open("a") as handle:
        handle.write('{"record": "done", "ind')  # interrupted append
    assert SweepCheckpoint(path).begin(["key-a", "key-b"]) == {0}


# ----------------------------------------------------------------------
# Scenario 5: deterministic failures quarantine, never retry
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [0, 2])
def test_deterministic_failure_quarantines_without_retry(tmp_path, workers):
    tasks = grid_tasks()
    log = tmp_path / "run.jsonl"
    with RunLog(log) as runlog:
        runner = ParallelRunner(workers=workers, runlog=runlog, retries=3,
                                strict=False, execute=_bad_cell_execute)
        results = runner.run(tasks)
    assert results[0] is None
    assert [r is not None for r in results[1:]] == [True, True, True]
    assert len(runner.quarantined) == 1
    assert runner.quarantined[0]["class"] == "deterministic"
    errors = [r for r in read_runlog(log) if r.get("status") == "error"]
    assert len(errors) == 1  # one attempt total — no retries burned
    assert errors[0]["will_retry"] is False
    summary = summarize(read_runlog(log))
    assert summary["quarantined"] == 1
    assert summary["retries"] == 0


def test_quarantine_is_recorded_in_checkpoint(tmp_path):
    tasks = grid_tasks()
    checkpoint_path = tmp_path / "sweep.ckpt"
    runner = ParallelRunner(workers=0, strict=False,
                            checkpoint=SweepCheckpoint(checkpoint_path),
                            execute=_bad_cell_execute)
    runner.run(tasks)
    records = [json.loads(line) for line in
               checkpoint_path.read_text().splitlines()]
    quarantined = [r for r in records if r["record"] == "quarantined"]
    assert len(quarantined) == 1
    assert quarantined[0]["index"] == 0
    assert "injected" in quarantined[0]["reason"]


# ----------------------------------------------------------------------
# Scenario 6: circuit breaker → graceful serial degradation
# ----------------------------------------------------------------------
def test_circuit_break_degrades_to_serial_with_identical_results(tmp_path):
    # Every worker dies, so the breaker trips. The cells that never
    # killed a worker finish in the coordinator, bit-identical; the ones
    # that did are given up, each as one failure, instead of being run
    # where they could kill the coordinator too.
    tasks = grid_tasks()
    expected = undisturbed(tasks)
    log = tmp_path / "run.jsonl"
    execute = partial(_worker_hostile_execute, parent_pid=os.getpid())
    with RunLog(log) as runlog:
        runner = ParallelRunner(workers=2, runlog=runlog, retries=8,
                                circuit_threshold=2, execute=execute,
                                strict=False)
        results = runner.run(tasks)
    records = read_runlog(log)
    crashed = {r["index"] for r in records
               if r["event"] == "run" and r.get("kind") == "crash"}
    assert crashed and len(crashed) < len(tasks)
    for index, (result, reference) in enumerate(zip(results, expected)):
        assert result == (None if index in crashed else reference)
    assert sorted(f["index"] for f in runner.failures) == sorted(crashed)
    assert all(f["class"] == "deterministic"
               and "circuit breaker tripped" in f["error"]
               for f in runner.failures)
    breaks = [r for r in records if r["event"] == "circuit-break"]
    assert len(breaks) == 1
    assert breaks[0]["remaining"] >= 1
    assert breaks[0]["consecutive_faults"] >= 2
    assert summarize(records)["completed"] == len(tasks) - len(crashed)


# ----------------------------------------------------------------------
# Retry policy: deterministic backoff
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_delays_are_deterministic_per_key(self):
        policy = RetryPolicy()
        assert policy.delay(1, key=7) == policy.delay(1, key=7)
        assert policy.delay(1, key=7) != policy.delay(1, key=8)

    def test_backoff_grows_to_the_cap(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             backoff_cap=0.5, jitter=0.0)
        delays = [policy.delay(a) for a in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_bounded(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=1.0,
                             backoff_cap=1.0, jitter=0.25)
        for key in range(20):
            assert 1.0 <= policy.delay(1, key=key) < 1.25


def test_sweep_fingerprint_is_order_sensitive():
    assert sweep_fingerprint(["a", "b"]) != sweep_fingerprint(["b", "a"])
    assert sweep_fingerprint(["a", "b"]) == sweep_fingerprint(["a", "b"])


# ----------------------------------------------------------------------
# Retry policy: the max-delay ceiling (crash-loop re-admission cadence)
# ----------------------------------------------------------------------
class TestRetryPolicyMaxDelay:
    def test_max_delay_caps_the_jittered_value(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=10.0,
                             backoff_cap=1000.0, jitter=0.25,
                             max_delay=7.5)
        for attempt in range(1, 12):
            for key in range(10):
                assert policy.delay(attempt, key=key) <= 7.5

    def test_schedule_is_pinned(self):
        """The exact delay schedule for a fixed (policy, key) — any
        change to the derivation breaks resume determinism and must be
        deliberate."""
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             backoff_cap=2.0, jitter=0.0, max_delay=1.0)
        delays = [policy.delay(a) for a in range(1, 8)]
        assert delays == [0.1, 0.2, 0.4, 0.8, 1.0, 1.0, 1.0]

    def test_jittered_schedule_is_reproducible_across_instances(self):
        first = RetryPolicy(max_delay=3.0)
        second = RetryPolicy(max_delay=3.0)
        schedule = [first.delay(a, key=("camp", 3)) for a in range(1, 9)]
        assert schedule == [second.delay(a, key=("camp", 3))
                            for a in range(1, 9)]
        assert all(d <= 3.0 for d in schedule)

    def test_invariant_band(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_factor=2.0,
                             backoff_cap=4.0, jitter=0.25, max_delay=5.0)
        for attempt in range(1, 10):
            for key in range(20):
                delay = policy.delay(attempt, key=key)
                assert 0.5 <= delay <= 5.0


# ----------------------------------------------------------------------
# Circuit breaker: half-open probe semantics
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_breaker(**kwargs):
    from repro.harness.supervisor import CircuitBreaker

    clock = FakeClock()
    kwargs.setdefault("threshold", 2)
    kwargs.setdefault("cooldown", 10.0)
    return CircuitBreaker(clock=clock, **kwargs), clock


def trip(breaker):
    while breaker.state != "open":
        breaker.record_fault()


class TestCircuitBreakerHalfOpen:
    def test_legacy_default_trips_permanently(self):
        from repro.harness.supervisor import CircuitBreaker

        breaker = CircuitBreaker(threshold=2)  # cooldown=None
        breaker.record_fault()
        assert not breaker.tripped
        breaker.record_fault()
        assert breaker.tripped
        assert breaker.state == "open"
        assert not breaker.allow_dispatch()

    def test_open_transitions_to_half_open_after_cooldown(self):
        breaker, clock = make_breaker()
        trip(breaker)
        assert not breaker.tripped  # cooldown set: trip is provisional
        assert not breaker.allow_dispatch()
        clock.now = 9.999
        assert breaker.state == "open"
        clock.now = 10.0
        assert breaker.state == "half-open"

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock = make_breaker()
        trip(breaker)
        clock.now = 10.0
        assert breaker.allow_dispatch()       # the probe
        assert not breaker.allow_dispatch()   # a second task: refused
        assert not breaker.begin_probe()

    def test_probe_success_closes_the_breaker(self):
        breaker, clock = make_breaker()
        trip(breaker)
        clock.now = 10.0
        assert breaker.allow_dispatch()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow_dispatch()
        assert breaker.consecutive_faults == 0
        assert breaker.failed_probes == 0

    def test_probe_fault_reopens_with_escalated_cooldown(self):
        breaker, clock = make_breaker()
        trip(breaker)
        clock.now = 10.0
        assert breaker.allow_dispatch()
        breaker.record_fault()                # probe died
        assert breaker.state == "open"
        clock.now = 10.0 + 10.0               # base cooldown: not enough
        assert breaker.state == "open"
        clock.now = 10.0 + 20.0               # doubled after 1 failed probe
        assert breaker.state == "half-open"

    def test_probe_exhaustion_trips_for_good(self):
        breaker, clock = make_breaker(max_probes=2)
        trip(breaker)
        for _ in range(2):
            clock.now += 1000.0               # past any cooldown
            assert breaker.allow_dispatch()
            breaker.record_fault()
        assert breaker.tripped
        clock.now += 10000.0
        assert breaker.state == "open"        # never half-open again
        assert not breaker.allow_dispatch()

    def test_straggler_fault_in_half_open_burns_no_probe(self):
        """A task dispatched before the trip that faults during the
        half-open window (no probe admitted) re-opens the breaker but
        must not consume a probe or escalate the cool-down — otherwise
        stragglers could exhaust ``max_probes`` and permanently trip
        the breaker without a single trial task being dispatched."""
        breaker, clock = make_breaker(max_probes=2)
        trip(breaker)
        for _ in range(5):            # far more stragglers than probes
            clock.now += 10.0         # base cool-down, never escalated
            assert breaker.state == "half-open"
            breaker.record_fault()    # straggler: no probe was admitted
            assert breaker.state == "open"
        assert breaker.failed_probes == 0
        assert not breaker.tripped
        clock.now += 10.0
        assert breaker.allow_dispatch()   # the real probe finally runs
        breaker.record_success()
        assert breaker.state == "closed"

    def test_full_cycle_open_half_open_closed(self):
        breaker, clock = make_breaker()
        assert breaker.state == "closed"
        trip(breaker)
        assert breaker.state == "open"
        clock.now = 50.0
        assert breaker.state == "half-open"
        assert breaker.allow_dispatch()
        breaker.record_success()
        assert breaker.state == "closed"
        # Healthy again: faults re-trip at the same threshold.
        trip(breaker)
        assert breaker.state == "open"
        assert not breaker.tripped


# ----------------------------------------------------------------------
# Sweep checkpoint: crash-point regression sweep
# ----------------------------------------------------------------------
def test_checkpoint_crash_at_any_point_resumes_a_prefix(tmp_path):
    """Truncate the checkpoint at every byte of its tail record: begin()
    must never raise and must report a subset of the truly completed
    indices (re-running a completed cell is safe; resuming a phantom
    one is not)."""
    keys = ["k0", "k1", "k2"]
    path = tmp_path / "sweep.ckpt"
    checkpoint = SweepCheckpoint(path)
    checkpoint.begin(keys)
    checkpoint.mark_done(0, "k0", "miss")
    checkpoint.mark_done(1, "k1", "miss")
    full = path.read_bytes()
    newlines = [i for i, b in enumerate(full) if b == 0x0A]
    for cut in range(newlines[0] + 1, len(full) + 1):
        path.write_bytes(full[:cut])
        completed = SweepCheckpoint(path).begin(keys)
        assert completed <= {0, 1}
        last_full = sum(1 for n in newlines if n < cut)
        assert len(completed) >= last_full - 1
    # Restore and confirm the intact file still resumes fully.
    path.write_bytes(full)
    assert SweepCheckpoint(path).begin(keys) == {0, 1}


def test_checkpoint_appends_are_fsynced(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: (synced.append(fd), real_fsync(fd))[1])
    checkpoint = SweepCheckpoint(tmp_path / "sweep.ckpt")
    checkpoint.begin(["k0"])          # header write
    checkpoint.mark_done(0, "k0", "miss")
    assert len(synced) == 2
