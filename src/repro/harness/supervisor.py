"""Supervised worker pool: the one loop that runs a list of cells.

Every grid of independent cells — the parallel runner's experiment
cells, a service fleet's claimed batch, a conformance campaign's
iterations — runs through :meth:`SupervisedPool.run`. It executes the
cells in this process, in order, when ``workers <= 1`` or there are
fewer than two; otherwise it forks workers and owns each one
individually, which ``ProcessPoolExecutor`` cannot do (one dead worker
breaks its whole pool, and a hung one is invisible):

* every worker gets its **own pipe pair** (inbox + results), so a
  process killed mid-write corrupts only its own channel, which the
  coordinator discards along with the process;
* workers emit **heartbeats** from a daemon thread; a silent worker is
  presumed wedged and replaced;
* each dispatched task carries a **wall-clock deadline**; a worker that
  blows it is SIGKILLed and the task is requeued;
* repeated pool-level faults (crashes/timeouts, not in-task exceptions)
  trip the :class:`CircuitBreaker`; the pool then stops forking and
  drains the unfinished tasks in this process itself — except those
  that already killed a worker or blew a deadline, which could take
  this process down or hang it too: they are given up as failures.

Every failed attempt, in a worker or in this process, reaches the
caller's failure callback as a :class:`TaskFailure`, and callers judge
it with the one retry rule, :meth:`RetryPolicy.retry_delay`: a
deterministic failure gives up at once, a transient one retries after
the policy's backoff until the retry budget is spent.

Determinism is unaffected by any of this: tasks carry their seeds, so a
requeued task re-executes bit-identically, and result ordering is
restored by task index downstream. :class:`SweepCheckpoint` persists
per-task completion so an interrupted sweep resumes from the result
cache instead of restarting.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import os
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.errors import FailureClass, classify_failure
from repro.common.rng import derive_seed


# ----------------------------------------------------------------------
# Retry policy and circuit breaker
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter and a hard ceiling.

    The delay before attempt ``a``'s retry is
    ``min(cap, base * factor**(a-1))`` stretched by up to ``jitter``
    (fractionally), where the stretch is derived — not drawn from a
    shared RNG — so reruns of the same sweep back off identically.
    ``max_delay`` bounds the *jittered* value: whatever the attempt
    number or jitter draw, ``delay`` never exceeds it, so a crash-looping
    cell can be re-admitted on a predictable cadence instead of backing
    off without bound. Invariant (covered by tests):
    ``base <= delay(a, k) <= min(max_delay, base * (1 + jitter))``.
    """

    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    jitter: float = 0.25
    max_delay: float = 5.0

    def delay(self, attempt: int, key: object = 0) -> float:
        base = min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** max(0, attempt - 1),
        )
        if self.jitter > 0.0:
            fraction = (
                derive_seed(0, "backoff", str(key), attempt) % 1000 / 1000.0
            )
            base *= 1.0 + self.jitter * fraction
        return min(self.max_delay, base)

    def retry_delay(self, failure: "TaskFailure", attempt: int,
                    retries: int, key: object = 0) -> Optional[float]:
        """The retry rule: seconds before retrying *attempt*, or None.

        A deterministic failure recurs on the bit-identical rerun, so it
        gives up at once; a transient one retries until *retries*
        retries are spent.
        """
        if failure.failure_class is FailureClass.DETERMINISTIC \
                or attempt > retries:
            return None
        return self.delay(attempt, key=key)


class CircuitBreaker:
    """Counts consecutive pool faults; trips at ``threshold``.

    Only environmental faults (worker crashes, timeouts, dispatch
    failures) count — an in-task exception means the pool machinery is
    healthy. Any successful completion resets the count.

    States (``state`` property): ``"closed"`` (healthy, dispatch
    freely), ``"open"`` (tripped, dispatch nothing), ``"half-open"``
    (cool-down elapsed, exactly one trial task may probe). With
    ``cooldown=None`` — the default, and the historical behaviour — a
    trip is permanent: :attr:`tripped` goes True immediately and the
    supervised pool abandons parallel execution. With a cool-down in
    seconds, an open breaker transitions to half-open once the cool-down
    elapses; :meth:`begin_probe` then admits a single task. A probe
    success closes the breaker, a probe fault re-opens it with the
    cool-down doubled (capped at 8× the base), and ``max_probes``
    consecutive failed probes exhaust the breaker for good
    (:attr:`tripped` True). A half-open fault with *no* probe admitted
    (a straggler dispatched before the trip) re-opens the breaker but
    consumes no probe and leaves the cool-down unescalated.
    """

    def __init__(
        self,
        threshold: int = 4,
        cooldown: Optional[float] = None,
        max_probes: int = 3,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.threshold = max(1, int(threshold))
        self.cooldown = cooldown
        self.max_probes = max(1, int(max_probes))
        self._clock = clock
        self.consecutive_faults = 0
        self.failed_probes = 0
        self._state = "closed"
        self._opened_at: Optional[float] = None
        self._probe_outstanding = False
        self.tripped = False

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """``"closed"`` | ``"open"`` | ``"half-open"`` (after a poll)."""
        self._poll()
        return self._state

    def _poll(self) -> None:
        if self._state == "open" and self.cooldown is not None \
                and not self.tripped:
            waited = self._clock() - (self._opened_at or 0.0)
            if waited >= self._current_cooldown():
                self._state = "half-open"
                self._probe_outstanding = False

    def _current_cooldown(self) -> float:
        return self.cooldown * min(8.0, 2.0 ** self.failed_probes)

    def begin_probe(self) -> bool:
        """In half-open, admit exactly one trial task; False otherwise."""
        self._poll()
        if self._state != "half-open" or self._probe_outstanding:
            return False
        self._probe_outstanding = True
        return True

    def allow_dispatch(self) -> bool:
        """May the pool hand a task to a worker right now?

        Closed: always. Open: never. Half-open: only the single probe
        (this call *claims* the probe slot when it returns True).
        """
        self._poll()
        if self._state == "closed":
            return True
        if self._state == "half-open":
            return self.begin_probe()
        return False

    def record_fault(self) -> None:
        self.consecutive_faults += 1
        self._poll()
        if self._state == "half-open":
            if self._probe_outstanding:
                # The trial task faulted: back to open, cool-down
                # escalated.
                self.failed_probes += 1
                self._probe_outstanding = False
            # A fault with no probe admitted (a straggler dispatched
            # before the trip) still re-opens, but must not burn a
            # probe — otherwise max_probes could be exhausted, and the
            # breaker permanently tripped, without a single trial task
            # ever being dispatched.
            self._trip()
        elif self._state == "closed" \
                and self.consecutive_faults >= self.threshold:
            self._trip()

    def _trip(self) -> None:
        self._state = "open"
        self._opened_at = self._clock()
        if self.cooldown is None or self.failed_probes >= self.max_probes:
            self.tripped = True

    def record_success(self) -> None:
        self.consecutive_faults = 0
        if self._state != "closed":
            # A completion while open/half-open is the probe (or a
            # straggler from before the trip) finishing healthy: close.
            self._state = "closed"
            self._probe_outstanding = False
            self.failed_probes = 0
            self._opened_at = None


# ----------------------------------------------------------------------
# Failure description (crosses the process boundary as plain data)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaskFailure:
    """One failed attempt, as seen by the coordinator.

    ``kind`` is ``"exception"`` (the task raised in a healthy worker),
    ``"timeout"`` (deadline blown, worker SIGKILLed) or ``"crash"``
    (worker died or went silent). Exceptions are carried as text — the
    original object may not survive pickling.
    """

    index: int
    kind: str
    exc_type: str
    message: str
    traceback: str
    failure_class: FailureClass

    @classmethod
    def from_exception(cls, index: int, exc: BaseException) -> "TaskFailure":
        """The failure of a task that raised *exc* in a healthy process."""
        return cls(
            index=index,
            kind="exception",
            exc_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(traceback.format_exception(
                type(exc), exc, exc.__traceback__)),
            failure_class=classify_failure(exc),
        )

    def describe(self) -> str:
        return f"{self.exc_type}: {self.message}".strip(": ")


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(execute, inbox, results, heartbeat_interval: float) -> None:
    """Worker loop: recv envelope, execute, send outcome; beat meanwhile."""
    lock = threading.Lock()

    def send(message) -> bool:
        with lock:
            try:
                results.send(message)
                return True
            except (BrokenPipeError, OSError):
                return False

    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(heartbeat_interval):
            if not send(("hb",)):
                return

    threading.Thread(target=beat, daemon=True).start()
    try:
        while True:
            try:
                envelope = inbox.recv()
            except (EOFError, OSError):
                break
            if envelope is None:
                break
            try:
                outcome = execute(envelope)
            except BaseException as exc:  # noqa: BLE001 — shipped as data
                send(("fail", TaskFailure.from_exception(envelope.index, exc)))
            else:
                if not send(("done", envelope.index, outcome)):
                    break
    finally:
        stop.set()


class _Worker:
    """Coordinator-side handle for one worker process."""

    __slots__ = (
        "proc", "inbox", "results", "inflight", "deadline", "last_seen",
    )

    def __init__(self, proc, inbox, results) -> None:
        self.proc = proc
        self.inbox = inbox
        self.results = results
        self.inflight = None
        self.deadline: Optional[float] = None
        self.last_seen = time.monotonic()

    def discard(self) -> None:
        """Kill the process (if needed) and drop both channels."""
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(timeout=5.0)
        for conn in (self.inbox, self.results):
            try:
                conn.close()
            except OSError:  # pragma: no cover - already gone
                pass


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class SupervisedPool:
    """Fault-isolating process pool (see module docstring).

    Parameters
    ----------
    workers:
        Worker process count (capped by the number of queued tasks);
        ``<= 1`` runs every task in this process.
    execute:
        Per-task callable ``f(envelope) -> outcome``, run in a worker
        or in this process. Must be picklable on platforms without
        ``fork``.
    task_timeout:
        Per-task wall-clock budget in seconds; ``None`` disables hang
        detection by deadline (heartbeat supervision stays on).
    heartbeat_interval / heartbeat_grace:
        Workers beat every ``interval`` seconds; one silent for
        ``grace`` seconds is presumed wedged and replaced.
    breaker:
        A :class:`CircuitBreaker`; a fresh ``CircuitBreaker()`` when
        omitted.
    """

    _POLL_SECONDS = 0.05

    def __init__(
        self,
        workers: int,
        execute: Callable,
        task_timeout: Optional[float] = None,
        heartbeat_interval: float = 0.25,
        heartbeat_grace: float = 30.0,
        breaker: Optional[CircuitBreaker] = None,
        mp_context=None,
    ) -> None:
        if mp_context is None:
            import multiprocessing

            try:
                mp_context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-fork platforms
                mp_context = multiprocessing.get_context()
        self._ctx = mp_context
        self.workers = max(1, int(workers))
        self.execute = execute
        self.task_timeout = task_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_grace = heartbeat_grace
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        #: Counters for logs/tests.
        self.timeouts = 0
        self.crashes = 0
        self.respawns = 0

    # ------------------------------------------------------------------
    def run(
        self,
        envelopes: Sequence,
        on_outcome: Callable[[object, object], None],
        on_failure: Callable[[object, TaskFailure], Optional[float]],
    ) -> Tuple[List, List]:
        """Execute *envelopes*; returns ``(outcomes, drained)``.

        ``on_outcome(envelope, outcome)`` fires per completion, in this
        process. ``on_failure(envelope, failure)`` decides retries:
        return the delay in seconds to retry the envelope, or ``None``
        to drop it (quarantine/exhausted). ``drained`` lists the
        envelopes a tripped circuit breaker left unfinished, in index
        order, which this call then finished in this process: an
        envelope whose attempt crashed or timed out a worker is given up
        — ``on_failure`` gets that failure once more, marked
        deterministic so the retry rule drops it, and its answer is not
        acted on — and every other one runs here.
        """
        outcomes: List = []
        if self.workers <= 1 or len(envelopes) < 2 or self.breaker.tripped:
            self._run_here(envelopes, outcomes, on_outcome, on_failure)
            return outcomes, []
        ready = deque(envelopes)
        delayed: List[Tuple[float, int, object]] = []
        #: Envelope index → its last attempt that killed a worker.
        killed: Dict[int, TaskFailure] = {}
        seq = 0

        def requeue(delay: float, envelope) -> None:
            nonlocal seq
            seq += 1
            heapq.heappush(
                delayed,
                (time.monotonic() + max(0.0, delay), seq, envelope),
            )

        pool: List[_Worker] = [
            self._spawn() for _ in range(min(self.workers, len(ready)))
        ]
        try:
            while not self.breaker.tripped:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    ready.append(heapq.heappop(delayed)[2])
                for worker in pool:
                    if worker.inflight is None and ready \
                            and self.breaker.allow_dispatch():
                        self._dispatch(worker, ready)
                if not ready and not delayed and not any(
                    w.inflight is not None for w in pool
                ):
                    break
                self._pump(pool, outcomes, on_outcome, on_failure, requeue)
                self._sweep(pool, on_failure, requeue, killed)
            drained = list(ready)
            drained.extend(env for _, _, env in delayed)
            drained.extend(
                w.inflight for w in pool if w.inflight is not None
            )
        finally:
            self._shutdown(pool)
        # The breaker tripped: finish in this process. Determinism makes
        # the fallback transparent — the same cells give the same results
        # — but a cell that killed a worker would kill (or hang) this
        # process too, so it is given up instead of run.
        drained.sort(key=lambda e: e.index)
        runnable = []
        for envelope in drained:
            failure = killed.get(envelope.index)
            if failure is None:
                runnable.append(envelope)
                continue
            on_failure(envelope, dataclasses.replace(
                failure,
                message=f"{failure.message}; not re-run in the "
                        "coordinator after the circuit breaker tripped",
                failure_class=FailureClass.DETERMINISTIC,
            ))
        self._run_here(runnable, outcomes, on_outcome, on_failure)
        return outcomes, drained

    def _run_here(self, envelopes, outcomes, on_outcome, on_failure) -> None:
        """Run *envelopes* in this process, in order, retrying in place."""
        for envelope in envelopes:
            while True:
                try:
                    outcome = self.execute(envelope)
                except Exception as exc:  # noqa: BLE001 — the caller judges
                    delay = on_failure(
                        envelope,
                        TaskFailure.from_exception(envelope.index, exc),
                    )
                    if delay is None:
                        break
                    time.sleep(delay)
                else:
                    outcomes.append(outcome)
                    on_outcome(envelope, outcome)
                    break

    # ------------------------------------------------------------------
    def _spawn(self) -> _Worker:
        inbox_r, inbox_w = self._ctx.Pipe(duplex=False)
        result_r, result_w = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self.execute, inbox_r, result_w, self.heartbeat_interval),
            daemon=True,
        )
        proc.start()
        # The child holds its own copies of these ends.
        inbox_r.close()
        result_w.close()
        return _Worker(proc, inbox_w, result_r)

    def _dispatch(self, worker: _Worker, ready: deque) -> None:
        envelope = ready.popleft()
        try:
            worker.inbox.send(envelope)
        except (BrokenPipeError, OSError):
            # Worker died between sweeps; put the task back untouched —
            # the sweep will account for the crash and respawn.
            ready.appendleft(envelope)
            return
        now = time.monotonic()
        worker.inflight = envelope
        worker.last_seen = now
        worker.deadline = (
            now + self.task_timeout if self.task_timeout else None
        )

    def _pump(self, pool, outcomes, on_outcome, on_failure, requeue) -> None:
        """Drain every readable result channel (bounded by one poll)."""
        readers = {w.results: w for w in pool}
        try:
            readable = connection.wait(
                list(readers), timeout=self._POLL_SECONDS
            )
        except OSError:  # pragma: no cover - raced with a dying worker
            readable = []
        for conn in readable:
            worker = readers[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                # Channel collapsed: the sweep handles the dead process.
                worker.last_seen = 0.0
                continue
            worker.last_seen = time.monotonic()
            kind = message[0]
            if kind == "hb":
                continue
            envelope = worker.inflight
            worker.inflight = None
            worker.deadline = None
            if envelope is None:  # pragma: no cover - stale message
                continue
            if kind == "done":
                self.breaker.record_success()
                outcomes.append(message[2])
                on_outcome(envelope, message[2])
            else:
                delay = on_failure(envelope, message[1])
                if delay is not None:
                    requeue(delay, envelope)

    def _sweep(self, pool, on_failure, requeue,
               killed: Dict[int, TaskFailure]) -> None:
        """Replace dead/wedged workers, enforce deadlines; record each
        failed envelope's failure in *killed*."""
        now = time.monotonic()
        for i, worker in enumerate(pool):
            failure_kind = None
            if not worker.proc.is_alive():
                failure_kind = "crash"
            elif worker.deadline is not None and now > worker.deadline:
                failure_kind = "timeout"
            elif (
                worker.inflight is not None
                and now - worker.last_seen > self.heartbeat_grace
            ):
                failure_kind = "crash"
            if failure_kind is None:
                continue
            envelope = worker.inflight
            worker.inflight = None
            worker.discard()
            self.breaker.record_fault()
            if failure_kind == "timeout":
                self.timeouts += 1
            else:
                self.crashes += 1
            if not self.breaker.tripped:
                pool[i] = self._spawn()
                self.respawns += 1
            if envelope is None:
                continue
            if failure_kind == "timeout":
                failure = TaskFailure(
                    index=envelope.index,
                    kind="timeout",
                    exc_type="TaskTimeout",
                    message=(
                        f"task exceeded its {self.task_timeout:g}s "
                        f"wall-clock budget; worker SIGKILLed"
                    ),
                    traceback="",
                    failure_class=FailureClass.TRANSIENT,
                )
            else:
                failure = TaskFailure(
                    index=envelope.index,
                    kind="crash",
                    exc_type="WorkerCrash",
                    message=(
                        f"worker pid={worker.proc.pid} died or went "
                        f"silent (exitcode={worker.proc.exitcode})"
                    ),
                    traceback="",
                    failure_class=FailureClass.TRANSIENT,
                )
            killed[envelope.index] = failure
            delay = on_failure(envelope, failure)
            if delay is not None:
                requeue(delay, envelope)

    def _shutdown(self, pool) -> None:
        for worker in pool:
            try:
                worker.inbox.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 1.0
        for worker in pool:
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            worker.discard()


# ----------------------------------------------------------------------
# Sweep checkpointing
# ----------------------------------------------------------------------
def sweep_fingerprint(keys: Sequence[str]) -> str:
    """Content address of an ordered task list (cache keys + count)."""
    digest = hashlib.sha256()
    for key in keys:
        digest.update(key.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:32]


class SweepCheckpoint:
    """Append-only JSON-lines record of a sweep's per-task completion.

    The first line identifies the sweep by the fingerprint of its
    ordered task cache keys; one line is appended per completed task.
    ``begin`` on an existing file with the *same* fingerprint returns
    the completed task indices — the caller loads their results from
    the disk cache (bit-identical, since the cache key pins config,
    seeds and code version) and runs only the remainder. A fingerprint
    mismatch (different grid or changed code) restarts from scratch.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._fingerprint: Optional[str] = None

    def begin(self, keys: Sequence[str]) -> Set[int]:
        """Open (or adopt) the checkpoint; returns completed indices."""
        fingerprint = sweep_fingerprint(keys)
        self._fingerprint = fingerprint
        completed: Set[int] = set()
        if self.path.exists():
            records = self._read()
            if (
                records
                and records[0].get("record") == "sweep"
                and records[0].get("fingerprint") == fingerprint
            ):
                completed = {
                    r["index"] for r in records[1:]
                    if r.get("record") == "done"
                }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not completed:
            header = {
                "record": "sweep",
                "fingerprint": fingerprint,
                "tasks": len(keys),
            }
            with self.path.open("w", encoding="utf-8") as handle:
                handle.write(json.dumps(header, sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        return completed

    def mark_done(self, index: int, key: str, cache: str) -> None:
        self._append({
            "record": "done", "index": index, "key": key, "cache": cache,
        })

    def mark_quarantined(self, index: int, reason: str) -> None:
        self._append({
            "record": "quarantined", "index": index, "reason": reason,
        })

    def finish(self) -> None:
        self._append({"record": "complete"})

    # ------------------------------------------------------------------
    def _append(self, record: dict) -> None:
        # flush + fsync so a completion survives a host crash: losing a
        # "done" record would only cost a bit-identical re-run, but a
        # *torn* one must never poison the resume path (``_read``
        # tolerates exactly that by stopping at the first bad line).
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _read(self) -> List[dict]:
        records = []
        try:
            for line in self.path.read_text(encoding="utf-8").splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    # A torn trailing line from an interrupted append is
                    # expected; everything before it is still usable.
                    break
        except OSError:
            return []
        return records
