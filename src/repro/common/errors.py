"""Exception hierarchy and failure taxonomy for the CGCT reproduction.

Every error raised by the library derives from :class:`CGCTError` so callers
can catch library failures without also catching programming errors.

The harness additionally classifies *any* exception a worker raises into
one of two :class:`FailureClass` values (via :func:`classify_failure`):

* ``TRANSIENT`` — the failure came from the execution environment
  (worker death, timeout, OS resource pressure), not the simulation
  itself. Re-running the same task can succeed, so the supervised pool
  retries with exponential backoff.
* ``DETERMINISTIC`` — the failure is a property of the task (a protocol
  bug, a bad configuration, a coding error). Re-running the identical
  deterministic simulation is guaranteed to fail identically, so the
  task is quarantined immediately and never retried.
"""

import enum


class CGCTError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(CGCTError):
    """An invalid or inconsistent configuration value was supplied.

    Raised eagerly at construction time (e.g. a non-power-of-two region
    size, a region smaller than a cache line, or a topology that does not
    hold the requested number of processors) so simulations never start
    with parameters the model cannot honour.
    """


class ProtocolError(CGCTError):
    """A coherence or region-protocol invariant was violated.

    This always indicates a bug in the protocol implementation (or a
    hand-built state that the protocol could never reach), never a user
    input problem: the protocol tables are closed over their state space.
    """


class SimulationError(CGCTError):
    """The simulator reached an inconsistent runtime state.

    Examples: a trace record referencing an address outside the configured
    physical address space, or a processor clock moving backwards.
    """


class WorkloadError(CGCTError):
    """An on-disk workload input (an access-trace file) is malformed.

    Raised by the :mod:`repro.traces` readers when a record cannot be a
    legal trace operation — an unknown op code, a negative address or
    gap, a processor id outside the declared machine, a truncated binary
    tail, or a file that is not a recognized trace format at all.
    Deterministic: the same file fails the same way every time, so the
    supervised pool quarantines instead of retrying.
    """


class InvariantViolation(ProtocolError):
    """The runtime coherence sanitizer found the machine in an illegal state.

    Carries the individual violation messages and, when the sanitizer
    wrote one, the path of the diagnostics bundle that reproduces the
    failure (config, seed, last-K coherence events, telemetry snapshot).
    """

    def __init__(self, message, violations=(), bundle_path=None):
        super().__init__(message)
        self.violations = tuple(violations)
        self.bundle_path = bundle_path


class TaskTimeout(CGCTError):
    """A supervised worker exceeded its per-task wall-clock budget.

    The coordinator SIGKILLs the worker and requeues the task; the class
    is transient because timeouts usually come from host contention, not
    from the (deterministic) simulation.
    """


class WorkerCrash(CGCTError):
    """A supervised worker process died without reporting a result.

    Covers OOM kills, segfaults in extension modules, and externally
    delivered signals — all environmental, hence transient.
    """


class FailureClass(enum.Enum):
    """Retry semantics of a worker failure (see :func:`classify_failure`)."""

    TRANSIENT = "transient"
    DETERMINISTIC = "deterministic"


#: Exception types whose recurrence is guaranteed when the identical
#: deterministic task is re-executed: library invariant failures and the
#: plain-Python programming errors a simulation bug surfaces as.
_DETERMINISTIC_TYPES = (
    CGCTError,
    AssertionError,
    ArithmeticError,
    AttributeError,
    ImportError,
    LookupError,
    NameError,
    NotImplementedError,
    RecursionError,
    SyntaxError,
    TypeError,
    ValueError,
)

#: Environmental failures listed explicitly so they win even when an OS
#: error class also appears under a deterministic parent on some
#: platforms. TaskTimeout/WorkerCrash are CGCTError subclasses but
#: describe the environment, not the simulation.
_TRANSIENT_TYPES = (
    TaskTimeout,
    WorkerCrash,
    OSError,
    MemoryError,
    TimeoutError,
    ConnectionError,
    InterruptedError,
)


def classify_failure(exc) -> FailureClass:
    """Map an exception (instance or type) to its :class:`FailureClass`.

    Transient environmental types are checked first, then the
    deterministic family; anything unrecognised defaults to TRANSIENT —
    the conservative choice, since a wasted retry is cheap while
    quarantining a recoverable task loses a result.
    """
    if isinstance(exc, BaseException):
        exc_type = type(exc)
    else:
        exc_type = exc
    if issubclass(exc_type, _TRANSIENT_TYPES):
        return FailureClass.TRANSIENT
    if issubclass(exc_type, _DETERMINISTIC_TYPES):
        return FailureClass.DETERMINISTIC
    return FailureClass.TRANSIENT
