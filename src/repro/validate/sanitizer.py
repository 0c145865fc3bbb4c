"""Runtime coherence sanitizer: opt-in invariant monitoring during runs.

The sanitizer sits in the simulator's stepping loop and, every ``every``
processor steps, audits the machine against the paper-level invariants
in :mod:`repro.validate.invariants`. Two modes trade coverage for cost:

* ``sampled`` (default) — each trigger inspects a bounded, rotating
  window of resident lines and tracked regions, so a long run sweeps the
  whole machine incrementally at a few percent overhead. The final
  check at end of run is always exhaustive.
* ``deep`` — every trigger is an exhaustive sweep including the
  presence-bitmask audit and per-node inclusion assertions. Orders of
  magnitude more work per trigger; debug-only.

The sanitizer only reads machine state, so simulation results are
bit-identical with and without it. On a violation it writes a
**diagnostics bundle** — a JSON file with the configuration, seed, the
last-K coherence events (read from the machine's event log; :meth:`bind`
attaches an :class:`~repro.system.eventlog.EventLog` of ``keep_events``
when none is attached), a telemetry snapshot when telemetry was
attached, and the violations themselves — then raises
:class:`~repro.common.errors.InvariantViolation` pointing at the bundle.

By default :meth:`bind` also attaches a **flight recorder** — a
:class:`~repro.obs.simtrace.SimTracer` ring keeping the last
``flight_depth`` transactions — and the bundle embeds the causal
history of every line/region named in a violation: the full span tree
of each recent transaction that touched it (lookups, routing decision,
snoop phases, data sourcing, fill). Like the sanitizer itself the
tracer only reads, so results stay bit-identical; pass
``flight_recorder=False`` to opt out.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import re
from pathlib import Path
from typing import List, Optional

from repro.common.errors import ConfigurationError, InvariantViolation
from repro.system.eventlog import EventLog
from repro.validate.invariants import check_lines, check_machine, check_regions

#: Default check cadence per mode, in processor steps.
_DEFAULT_EVERY = {"sampled": 4096, "deep": 256}

#: Sampled-mode window sizes per trigger.
_SAMPLE_LINES = 128
_SAMPLE_REGIONS = 64


class CoherenceSanitizer:
    """Periodic machine-state auditor (see module docstring).

    Parameters
    ----------
    mode:
        ``"sampled"`` or ``"deep"``.
    every:
        Steps between triggers; defaults to 4096 (sampled) / 256 (deep).
    bundle_dir:
        Where diagnostics bundles are written on failure; ``None``
        disables bundle writing (the exception still carries the
        violations).
    keep_events:
        How many trailing coherence events the bundle includes.
    flight_recorder:
        Attach a :class:`~repro.obs.simtrace.SimTracer` ring at bind
        time (default True) so bundles carry the causal history of the
        violating line/region. A tracer the caller already attached is
        reused, never replaced.
    flight_depth:
        Ring capacity: how many trailing transactions the flight
        recorder keeps (default 64).
    """

    def __init__(
        self,
        mode: str = "sampled",
        every: Optional[int] = None,
        bundle_dir: Optional[str] = "diagnostics",
        keep_events: int = 256,
        flight_recorder: bool = True,
        flight_depth: int = 64,
    ) -> None:
        if mode not in _DEFAULT_EVERY:
            raise ConfigurationError(
                f"sanitizer mode must be 'sampled' or 'deep', got {mode!r}"
            )
        if every is not None and every < 1:
            raise ConfigurationError(
                f"sanitizer cadence must be >= 1 step, got {every}"
            )
        self.mode = mode
        self.every = int(every) if every is not None else _DEFAULT_EVERY[mode]
        self.bundle_dir = bundle_dir
        self.keep_events = int(keep_events)
        self.machine = None
        self.workload: Optional[str] = None
        self.seed: Optional[int] = None
        self.checks = 0
        self.lines_checked = 0
        self.regions_checked = 0
        self._line_cursor = 0
        self._region_cursor = 0
        self.flight_recorder = flight_recorder
        self.flight_depth = int(flight_depth)
        self._flight = None

    # ------------------------------------------------------------------
    def bind(
        self, machine, workload: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> None:
        """Attach to *machine* before a run.

        When the machine has no event log, an
        :class:`~repro.system.eventlog.EventLog` of ``keep_events`` is
        attached so a failure bundle can still show the last-K events;
        unless disabled, a flight-recorder tracer is attached the same
        way. An existing log or tracer is reused, not replaced.
        """
        self.machine = machine
        self.workload = workload
        self.seed = seed
        if machine.event_log is None:
            machine.attach_event_log(EventLog(capacity=self.keep_events))
        self._flight = None
        if self.flight_recorder:
            if machine._tracer is None:
                from repro.obs.simtrace import SimTracer

                machine.attach_tracer(SimTracer(ring=self.flight_depth))
            self._flight = machine._tracer

    @property
    def flight(self):
        """The attached flight-recorder tracer (None before bind or when
        disabled)."""
        return self._flight

    # ------------------------------------------------------------------
    def check(self, now: int) -> None:
        """One trigger: sampled window or (deep mode) exhaustive sweep."""
        machine = self.machine
        if machine is None:
            raise ConfigurationError("sanitizer used before bind()")
        self.checks += 1
        with _gc_paused():
            if self.mode == "deep":
                violations = self._check_deep(machine)
            else:
                violations = self._check_sampled(machine)
        if violations:
            self._fail(violations, now)

    def final_check(self, now: int) -> None:
        """End-of-run exhaustive sweep, run in either mode.

        Exhaustive means every resident line and every tracked region;
        the deep-only extras (stale-bitmask audit, inclusion) stay deep
        mode's, keeping the sampled end-of-run cost within the overhead
        budget on short runs.
        """
        machine = self.machine
        if machine is None:
            raise ConfigurationError("sanitizer used before bind()")
        self.checks += 1
        with _gc_paused():
            violations = self._check_machine(machine, deep=self.mode == "deep")
        if violations:
            self._fail(violations, now)

    def _check_deep(self, machine) -> List[str]:
        return self._check_machine(machine, deep=True)

    def _check_machine(self, machine, deep: bool) -> List[str]:
        self.lines_checked += len(machine._line_holders)
        self.regions_checked += len(machine._region_trackers)
        return check_machine(machine, deep=deep)

    def _check_sampled(self, machine) -> List[str]:
        lines = list(machine._line_holders)
        regions = list(machine._region_trackers)
        line_window = _rotate(lines, self._line_cursor, _SAMPLE_LINES)
        region_window = _rotate(regions, self._region_cursor, _SAMPLE_REGIONS)
        self._line_cursor += len(line_window)
        self._region_cursor += len(region_window)
        self.lines_checked += len(line_window)
        self.regions_checked += len(region_window)
        violations = check_lines(machine, line_window)
        violations.extend(check_regions(machine, region_window))
        return violations

    # ------------------------------------------------------------------
    def _fail(self, violations: List[str], now: int) -> None:
        bundle_path = None
        if self.bundle_dir is not None:
            bundle_path = self.write_bundle(violations, now)
        shown = "; ".join(violations[:3])
        more = len(violations) - 3
        if more > 0:
            shown += f" (+{more} more)"
        where = f" (diagnostics bundle: {bundle_path})" if bundle_path else ""
        raise InvariantViolation(
            f"coherence invariant violated at t={now}: {shown}{where}",
            violations=violations,
            bundle_path=str(bundle_path) if bundle_path else None,
        )

    def write_bundle(self, violations: List[str], now: int) -> Path:
        """Write the diagnostics bundle JSON and return its path.

        File names are derived from the workload/seed plus a collision
        counter (no timestamps), so repeated failures of the same run
        are distinguishable and tests can predict the name.
        """
        machine = self.machine
        directory = Path(self.bundle_dir)
        directory.mkdir(parents=True, exist_ok=True)
        stem = f"bundle-{self.workload or 'run'}"
        if self.seed is not None:
            stem += f"-seed{self.seed}"
        path = directory / f"{stem}.json"
        suffix = 1
        while path.exists():
            path = directory / f"{stem}-{suffix}.json"
            suffix += 1
        payload = {
            "schema": "cgct-diagnostics/v1",
            "workload": self.workload,
            "seed": self.seed,
            "mode": self.mode,
            "every": self.every,
            "sim_time": now,
            "checks": self.checks,
            "violations": violations,
            "config": dataclasses.asdict(machine.config),
            "events": self._recent_events(),
            "flight_recorder": self._flight_history(violations),
            "telemetry": self._telemetry_snapshot(),
            "occupancy": [
                {
                    "processor": node.proc_id,
                    "l2_lines": len(node.l2),
                    "rca_entries": (
                        len(node.rca) if node.rca is not None else None
                    ),
                }
                for node in machine.nodes
            ],
        }
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n",
            encoding="utf-8",
        )
        return path

    _VIOLATION_ADDR_RE = re.compile(r"\b(line|region) (0x[0-9a-fA-F]+)")

    def _flight_history(self, violations: List[str]) -> Optional[dict]:
        """Causal history for the bundle: every recorded transaction
        touching a line/region named in *violations*, plus the last few
        transactions overall for ordering context."""
        flight = self._flight
        if flight is None:
            return None
        lines = set()
        regions = set()
        for violation in violations:
            for kind, addr in self._VIOLATION_ADDR_RE.findall(violation):
                (lines if kind == "line" else regions).add(int(addr, 16))
        involved = []
        seen = set()
        for line in sorted(lines):
            for record in flight.history(line=line):
                if record["trace_id"] not in seen:
                    seen.add(record["trace_id"])
                    involved.append(record)
        for region in sorted(regions):
            for record in flight.history(region=region):
                if record["trace_id"] not in seen:
                    seen.add(record["trace_id"])
                    involved.append(record)
        involved.sort(key=lambda r: r["trace_id"])
        return {
            "depth": flight.ring,
            "accesses_seen": flight.accesses,
            "lines": [hex(line) for line in sorted(lines)],
            "regions": [hex(region) for region in sorted(regions)],
            "involved": involved,
            "recent": flight.history(last=8),
        }

    def _recent_events(self) -> List[dict]:
        log = self.machine.event_log
        if log is None:
            return []
        return [
            {
                "time": e.time, "processor": e.processor,
                "request": e.request.value, "address": e.address,
                "path": e.path, "latency": e.latency,
            }
            for e in log.tail(self.keep_events)
        ]

    def _telemetry_snapshot(self) -> Optional[dict]:
        registry = getattr(self.machine, "telemetry", None)
        if registry is None:
            return None
        try:
            from repro.telemetry.export import to_json
            return json.loads(to_json(registry))
        except Exception:  # noqa: BLE001 — the bundle must still be written
            return None


class _gc_paused:
    """Pause the cycle collector across one audit sweep.

    A sweep allocates tens of thousands of short-lived tuples and lists;
    crossing the collector's thresholds mid-sweep promotes those
    temporaries through generations whose scans are dominated by the
    large, live machine — measured at several times the sweep's own
    cost. The sweep is read-only and its temporaries are acyclic, so
    pausing collection loses nothing: they die by refcount when the
    sweep returns, leaving no allocation debt behind.
    """

    __slots__ = ("_was_enabled",)

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        if self._was_enabled:
            gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self._was_enabled:
            gc.enable()


def _rotate(items: List[int], cursor: int, count: int) -> List[int]:
    """A ``count``-wide window into *items* starting at ``cursor`` (wrapped)."""
    if not items:
        return []
    if len(items) <= count:
        return items
    start = cursor % len(items)
    window = items[start:start + count]
    if len(window) < count:
        window += items[:count - len(window)]
    return window
