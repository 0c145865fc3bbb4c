"""The whole-machine simulator.

* :mod:`repro.system.config` — Table 3 as code: every simulation
  parameter, with the paper's values as defaults.
* :mod:`repro.system.node` — one processor node: L1 I/D + L2 + RCA +
  stream prefetcher, and the node's snoop-side behaviour.
* :mod:`repro.system.machine` — the memory system: request routing
  (L1 → L2 ∥ RCA → direct-vs-broadcast), snooping, latencies, queuing,
  and the per-request accounting every experiment consumes.
* :mod:`repro.system.processor` — trace-driven processor timing model.
* :mod:`repro.system.simulator` — event-ordered multiprocessor run loop
  and the :class:`~repro.system.simulator.RunResult` it produces.
"""

from repro.system.config import CoreParameters, SystemConfig, TimingParameters
from repro.system.eventlog import CoherenceEvent, EventLog
from repro.system.machine import Machine, RequestPath
from repro.system.node import ProcessorNode
from repro.system.processor import TraceProcessor
from repro.system.simulator import RunResult, Simulator

__all__ = [
    "CoherenceEvent",
    "CoreParameters",
    "EventLog",
    "Machine",
    "ProcessorNode",
    "RequestPath",
    "RunResult",
    "Simulator",
    "SystemConfig",
    "TimingParameters",
    "TraceProcessor",
]
