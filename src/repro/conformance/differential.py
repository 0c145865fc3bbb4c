"""Differential runner: the real simulator vs the golden model.

One :func:`run_differential` call replays a workload on the real
:class:`~repro.system.simulator.Simulator` (sanitizer attached, optional
telemetry) while a :class:`ConformanceProbe`, attached as the machine's
event log, receives every resolved request through the coherence-event
funnel's one ``record`` sink, then diffs three things against the golden
model:

1. **CGCT safety, live** — any request resolved on the ``direct`` or
   ``no_request`` path while another L2 actually held the line (or, for
   instruction fetches, held it dirty) is flagged as the probe sees the
   event. This is the paper's core safety claim: the region protocol
   may only skip the broadcast when no remote copy can exist.
2. **Holder soundness, per event** — the real machine's holder bitmask
   at every logged event must be a subset of the golden model's
   may-hold set (the model never forgets a copy it did not see die, so
   a real copy outside it is a lost invalidation).
3. **Final state** — every resident L2 line must belong to a golden
   may-holder, and every dirty (M/O) copy must sit at the golden
   model's last writer.

The golden model cannot see capacity evictions, so its verdicts are
evaluated against the machine's *actual* holder bitmasks: "the golden
model agrees no remote copy exists" is checked on the intersection of
may-hold and really-held, which is exact — a skipped broadcast is a bug
precisely when a remote copy really existed.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import InvariantViolation
from repro.conformance.golden import GoldenModel
from repro.workloads.trace import MultiTrace, TraceOp

#: Routing paths that resolved without a broadcast.
_SKIP_PATHS = ("direct", "no_request")

#: One probed coherence event. ``index`` is the global access number the
#: event belongs to; ``holders`` the machine's line-holder bitmask at
#: log time (requestor fill and remote invalidations already applied).
ProbeEvent = namedtuple(
    "ProbeEvent",
    ["index", "time", "processor", "request", "address", "path", "latency",
     "holders"],
)


class ConformanceProbe:
    """Event sink wired into the machine's coherence-event funnel.

    Attached as the machine's event log, so its :meth:`record` receives
    every resolved request in the funnel's one sink shape (raw enum
    members). Every event is stamped with the index of the access that
    produced it, taken from the shared ``order`` list the simulator's
    step observer appends to.

    The probe also exposes ``tail`` in the shape the sanitizer's
    diagnostics bundle expects, so a failing run's bundle shows the
    probed events instead of attaching a second ring.
    """

    def __init__(self, machine, order: List[int]) -> None:
        self._machine = machine
        self._order = order
        self._line_shift = machine._line_shift
        self.events: List[ProbeEvent] = []
        self.violations: List[str] = []

    def tail(self, n: Optional[int] = None):
        events = self.events if n is None else self.events[-n:]
        return events  # ProbeEvent has the attribute names tail consumers use

    # -- the request-funnel sink: the live CGCT-safety check -----------
    def record(self, now, proc, request, address, path, latency) -> None:
        machine = self._machine
        path = path.value
        line = address >> self._line_shift
        holders = machine._line_holders.get(line, 0)
        index = len(self._order) - 1
        self.events.append(ProbeEvent(
            index, now, proc, request, address, path, latency, holders,
        ))
        if path not in _SKIP_PATHS or request.value == "writeback":
            return
        remote = holders & ~(1 << proc)
        if not remote:
            return
        if request.value == "ifetch":
            dirty = [
                q for q in range(machine.topology.num_processors)
                if (remote >> q) & 1
                and (entry := machine.nodes[q].l2.peek(line)) is not None
                and entry.state.is_dirty
            ]
            if not dirty:
                return
            self.violations.append(
                f"access #{index}: P{proc} ifetch of line {line:#x} took the "
                f"{path} path while {dirty} held it dirty"
            )
            return
        self.violations.append(
            f"access #{index}: P{proc} {request.value} of line {line:#x} "
            f"took the {path} path while remote copies existed "
            f"(holders {holders:#b})"
        )


@dataclass
class DifferentialOutcome:
    """Everything one differential run produced."""

    workload: str
    config_name: str
    seed: int
    telemetry: bool
    accesses: int = 0
    events: int = 0
    mismatches: List[str] = field(default_factory=list)
    bundle_path: Optional[str] = None
    #: Flight-recorder causal history (transaction records) captured at
    #: the end of a failing run; rides into the reproducer bundle.
    flight: Optional[List[dict]] = None

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        status = "ok" if self.ok else f"{len(self.mismatches)} mismatches"
        return (
            f"{self.workload}/{self.config_name} seed={self.seed} "
            f"telemetry={'on' if self.telemetry else 'off'}: {status}"
        )


def run_differential(
    workload: MultiTrace,
    config,
    config_name: str,
    seed: int = 0,
    telemetry: bool = False,
    bundle_dir: Optional[str] = None,
    sanitizer_every: int = 512,
) -> DifferentialOutcome:
    """Replay *workload* on *config* and diff it against the golden model.

    The machine runs its production snoop paths (the holder bitmask for
    phase 1 on filter-free configs, the class masks for phase 2), so
    every corpus replay and fuzz campaign checks their bookkeeping
    against the golden model.
    """
    from repro.system.simulator import Simulator
    from repro.validate.sanitizer import CoherenceSanitizer

    registry = None
    if telemetry:
        from repro.telemetry import TelemetryRegistry

        registry = TelemetryRegistry(interval=10_000)
    sanitizer = CoherenceSanitizer(
        mode="sampled", every=sanitizer_every, bundle_dir=bundle_dir,
    )
    order: List[int] = []
    simulator = Simulator(
        config, seed=seed, telemetry=registry, sanitizer=sanitizer,
        step_observer=order.append,
    )
    probe = ConformanceProbe(simulator.machine, order)
    # Attached before run(): the sanitizer's bind() then reuses the probe
    # as its event source instead of installing its own ring.
    simulator.machine.attach_event_log(probe)

    outcome = DifferentialOutcome(
        workload=workload.name, config_name=config_name, seed=seed,
        telemetry=telemetry,
    )
    try:
        simulator.run(workload)
    except InvariantViolation as exc:
        outcome.mismatches.append(f"sanitizer: {exc}")
        if exc.bundle_path:
            outcome.bundle_path = str(exc.bundle_path)
    outcome.accesses = len(order)
    outcome.events = len(probe.events)
    outcome.mismatches.extend(probe.violations)
    _diff_against_golden(workload, simulator.machine, order, probe, outcome)
    if not outcome.ok and sanitizer.flight is not None:
        # Causal history of the trailing transactions: what the machine
        # did right before (and while) the disagreement built up.
        outcome.flight = sanitizer.flight.history(last=16)
    return outcome


def _diff_against_golden(
    workload: MultiTrace, machine, order: List[int],
    probe: ConformanceProbe, outcome: DifferentialOutcome,
) -> None:
    """Replay the recorded interleaving through the golden model."""
    nprocs = workload.num_processors
    line_shift = machine._line_shift
    ops = [t.ops.tolist() for t in workload.per_processor]
    addresses = [t.addresses.tolist() for t in workload.per_processor]
    model = GoldenModel(nprocs)
    cursors = [0] * nprocs
    events = probe.events
    ei = 0
    mismatches = outcome.mismatches
    for index, proc in enumerate(order):
        k = cursors[proc]
        cursors[proc] = k + 1
        model.access(
            proc, TraceOp(ops[proc][k]), int(addresses[proc][k]) >> line_shift
        )
        while ei < len(events) and events[ei].index <= index:
            event = events[ei]
            ei += 1
            line = event.address >> line_shift
            request = event.request
            model.apply_request(event.processor, request, line)
            extra = event.holders & ~model.holders.get(line, 0)
            if extra:
                mismatches.append(
                    f"access #{event.index}: line {line:#x} held by bitmask "
                    f"{event.holders:#b} after a {request.value} event, but "
                    f"the golden model only allows "
                    f"{model.holders.get(line, 0):#b} — lost invalidation"
                )
    # Anything the probe recorded past the last access (there should be
    # nothing) still participates in the soundness check.
    for event in events[ei:]:
        line = event.address >> line_shift
        model.apply_request(event.processor, event.request, line)

    # Final state: resident copies vs may-hold, dirty copies vs last writer.
    for node in machine.nodes:
        proc = node.proc_id
        for line, state in node.l2.resident_items():
            allowed = model.holders.get(line, 0)
            if not (allowed >> proc) & 1:
                mismatches.append(
                    f"final state: P{proc} holds line {line:#x} "
                    f"({state.name}) but the golden model's holders "
                    f"are {allowed:#b}"
                )
            if state.is_dirty:
                owner = model.dirty_owner.get(line)
                if owner != proc:
                    mismatches.append(
                        f"final state: P{proc} holds line {line:#x} dirty "
                        f"({state.name}) but the golden model's last "
                        f"writer is "
                        f"{'nobody' if owner is None else f'P{owner}'}"
                    )
