"""Simulation-layer causal tracer (and flight recorder).

:class:`SimTracer` attaches to a :class:`~repro.system.machine.Machine`
via ``machine.attach_tracer(tracer)`` (the :class:`Simulator` forwards
its ``tracer=`` argument). The machine calls the hook methods below at
the stages of each memory access; :meth:`SimTracer.record`, the
resolved-request hook, is one of the request funnel's sinks beside the
event log and telemetry. A detached machine pays one ``is None`` check
per instrumented site (one emptiness check of the sink tuple at each
funnel site), and an attached tracer only ever *reads*, so simulated
cycles and fingerprints are bit-identical with tracing on or off
(``tests/obs/test_trace_equivalence.py`` enforces this, also against the
reference snoop walks of ``tests/system/reference_snoop.py``).

Each access becomes one **transaction** with a monotonically assigned
trace id (the global access ordinal — ids advance even for unsampled
accesses, so a sampled trace still orders globally). A transaction
carries child spans for the L1/L2 lookups, the RCA lookup and its
routing decision, bus queueing, the phase-1 line snoop, the phase-2
region snoop, DRAM, the data transfer, the local fill and any castouts,
plus nested spans for prefetches issued in its shadow. The **CGCT
verdict** classifies each transaction:

* ``"avoided"`` — CGCT (or RegionScout/owner prediction) skipped the
  broadcast: ``no_request``, ``direct`` or ``targeted`` routing;
* ``"required"`` — a broadcast the Figure 2 oracle deems necessary
  (some remote cache had to see it);
* ``"mispredicted"`` — a broadcast the oracle says was avoidable (on a
  CGCT machine: region tracking failed to filter it; on the baseline:
  every such broadcast, since nothing filters);
* ``"hit"`` — no external request at all (L1 or plain L2 hit).

Three capture modes compose:

* default — keep every sampled transaction in a list (analysis, tests);
* ``ring=N`` — keep only the last N (the **flight recorder**: the
  sanitizer and the conformance harness attach one by default and embed
  its causal history in ``cgct-diagnostics/v1`` bundles);
* ``sink=f`` — stream each finished transaction to a callable
  (the ``trace record`` CLI writes JSONL without buffering the run).

``sample=N`` records every Nth access; hooks for unsampled accesses
return immediately, which is what keeps always-on tracing affordable
(measured numbers in docs/tracing.md).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, List, Optional

from repro.obs.span import CLOCK_CYCLES, make_span

#: Requests that never open their own transaction: they nest inside the
#: demand access that triggered them.
_NESTED_REQUESTS = ("prefetch", "prefetch_ex", "writeback")


class _Txn:
    """One in-flight (or finished) transaction, kept deliberately flat."""

    __slots__ = (
        "trace_id", "proc", "op", "address", "start", "end",
        "path", "unnecessary", "children",
    )

    def __init__(self, trace_id: int, proc: int, op: str, address: int,
                 start: int) -> None:
        self.trace_id = trace_id
        self.proc = proc
        self.op = op
        self.address = address
        self.start = start
        self.end = start
        self.path: Optional[str] = None
        self.unnecessary: Optional[bool] = None
        # (name, start, end, attrs-or-None), in causal order.
        self.children: List[tuple] = []

    # ------------------------------------------------------------------
    @property
    def verdict(self) -> str:
        path = self.path
        if path is None or path == "l1_hit" or path == "l2_hit":
            return "hit"
        if path == "broadcast":
            return "mispredicted" if self.unnecessary else "required"
        return "avoided"

    @property
    def resolved_path(self) -> str:
        return self.path if self.path is not None else "l2_hit"


class SimTracer:
    """Per-transaction coherence tracer (see module docstring).

    Parameters
    ----------
    sample:
        Record every Nth access (1 = every access). Trace ids still
        advance for skipped accesses.
    ring:
        Keep only the last N transactions (flight-recorder mode).
        ``None`` keeps everything.
    sink:
        Optional callable receiving each finished transaction record
        (the dict shape of :meth:`transaction_record`) as it completes.
    keep:
        Set False to retain nothing in memory (pure streaming via
        ``sink``).
    """

    def __init__(
        self,
        sample: int = 1,
        ring: Optional[int] = None,
        sink: Optional[Callable[[Dict], None]] = None,
        keep: bool = True,
    ) -> None:
        if sample < 1:
            raise ValueError(f"sample stride must be >= 1, got {sample}")
        if ring is not None and ring < 1:
            raise ValueError(f"ring capacity must be >= 1, got {ring}")
        self._sample = int(sample)
        self._sink = sink
        if not keep:
            self._store = None
        elif ring is not None:
            self._store = deque(maxlen=int(ring))
        else:
            self._store = []
        self.ring = ring
        self.accesses = 0   # every access seen (== next trace id)
        self.recorded = 0   # sampled transactions actually captured
        self._cur: Optional[_Txn] = None
        # Geometry, filled in by bind().
        self._l1_cycles = 0
        self._l2_cycles = 0
        self._line_shift = 0
        self._region_shift = 0

    # ------------------------------------------------------------------
    # Machine-facing hooks (hot when attached; every one early-outs on
    # unsampled accesses).
    # ------------------------------------------------------------------
    def bind(self, machine) -> None:
        """Learn the machine's geometry; called by ``attach_tracer``."""
        self._l1_cycles = machine._l1_hit_cycles
        self._l2_cycles = machine._l2_hit_cycles
        self._line_shift = machine._line_shift
        self._region_shift = machine._region_shift
        self._cur = None

    def reset(self) -> None:
        """Drop everything captured so far (the machine calls this at
        the warm-up boundary, alongside ``reset_stats``). Trace ids keep
        advancing so they remain global access ordinals."""
        if self._store is not None:
            self._store.clear()
        self.recorded = 0
        self._cur = None

    def l1_hit(self, proc: int, op: str, address: int, now: int) -> None:
        """A demand access satisfied by the L1: a one-child transaction."""
        tid = self.accesses
        self.accesses = tid + 1
        if tid % self._sample:
            return
        txn = _Txn(tid, proc, op, address, now)
        txn.end = now + self._l1_cycles
        txn.path = "l1_hit"
        txn.children.append(
            ("l1_lookup", now, now + self._l1_cycles, {"hit": True})
        )
        self._deliver(txn)

    def begin(self, proc: int, op: str, address: int, now: int,
              l1: bool = True) -> None:
        """Open the transaction for an access that missed (or skipped)
        the L1; ``l1=False`` for ops with no L1 lookup (DCB flavours)."""
        tid = self.accesses
        self.accesses = tid + 1
        if tid % self._sample:
            self._cur = None
            return
        txn = _Txn(tid, proc, op, address, now)
        if l1:
            txn.children.append(
                ("l1_lookup", now, now + self._l1_cycles, {"hit": False})
            )
        self._cur = txn

    def commit(self, latency: int) -> None:
        """Close the open transaction with its full demand latency."""
        txn = self._cur
        if txn is None:
            return
        self._cur = None
        txn.end = txn.start + latency
        self._deliver(txn)

    def l2(self, hit: bool, now: int) -> None:
        txn = self._cur
        if txn is None:
            return
        txn.children.append(
            ("l2_lookup", now, now + self._l2_cycles, {"hit": hit})
        )

    def rca(self, request, region: int, hit: bool, state, now: int) -> None:
        """RCA lookup plus the region-state routing decision (Table 1)."""
        txn = self._cur
        if txn is None:
            return
        txn.children.append(("rca_lookup", now, now, {
            "region": region,
            "hit": hit,
            "state": state.name,
            "completes_without": bool(state.completes_without[request.index]),
            "direct_eligible": not state.broadcast_needed[request.index],
        }))

    def record(self, time: int, processor: int, request, address: int,
               path, latency: int) -> None:
        """One external request resolved (the request-funnel sink): the
        demand one stamps the transaction's path; prefetches/castouts
        nest as children."""
        txn = self._cur
        if txn is None:
            return
        request_name = request.value
        path_name = path.value
        nested = request_name in _NESTED_REQUESTS
        if not nested and txn.path is None:
            txn.path = path_name
            name = "external"
        else:
            name = "prefetch" if request_name.startswith("prefetch") \
                else "nested"
        txn.children.append((name, time, time + latency, {
            "request": request_name, "path": path_name, "latency": latency,
        }))

    def snoop1(self, now: int, grant: int, snoop_done: int, holders: int,
               combined, unnecessary: bool) -> None:
        """Phase-1 line snoop (plus any bus-grant queueing before it)."""
        txn = self._cur
        if txn is None:
            return
        if grant > now:
            txn.children.append(("bus_queue", now, grant, None))
        txn.children.append(("line_snoop", grant, snoop_done, {
            "holders": holders,
            "shared": combined.shared,
            "owned": combined.owned,
            "supplier": combined.supplier,
            "unnecessary": unnecessary,
        }))
        if txn.path is None:
            # The demand broadcast (prefetch broadcasts come after the
            # demand path is stamped): remember the oracle's verdict.
            txn.unnecessary = unnecessary

    def snoop2(self, grant: int, snoop_done: int, region: int,
               trackers: int, response) -> None:
        """Phase-2 region snoop (CGCT only), same bus transaction."""
        txn = self._cur
        if txn is None:
            return
        txn.children.append(("region_snoop", grant, snoop_done, {
            "region": region,
            "trackers": trackers,
            "clean": response.clean,
            "dirty": response.dirty,
        }))

    def data(self, source: str, begin: int, ready: int, start: int,
             done: int, where: Optional[int], speculative: bool) -> None:
        """Data sourcing: cache-to-cache, or DRAM plus the transfer."""
        txn = self._cur
        if txn is None:
            return
        if source == "cache":
            txn.children.append(("c2c_transfer", begin, done, {
                "supplier": where, "dram_speculated": speculative,
            }))
            return
        txn.children.append(("dram", begin, ready, {
            "home": where, "speculative": speculative,
        }))
        txn.children.append(("data_transfer", start, done, {"home": where}))

    def fill(self, now: int, state_name: str, writebacks: int) -> None:
        txn = self._cur
        if txn is None:
            return
        txn.children.append(
            ("fill", now, now, {"state": state_name, "writebacks": writebacks})
        )

    def writeback(self, direct: bool, now: int) -> None:
        txn = self._cur
        if txn is None:
            return
        txn.children.append(("writeback", now, now, {
            "routed": "direct" if direct else "broadcast",
        }))

    # ------------------------------------------------------------------
    # Delivery and access
    # ------------------------------------------------------------------
    def _deliver(self, txn: _Txn) -> None:
        self.recorded += 1
        if self._store is not None:
            self._store.append(txn)
        if self._sink is not None:
            self._sink(self.transaction_record(txn))

    @property
    def transactions(self) -> List[_Txn]:
        """Captured transactions, oldest first (ring: the last N)."""
        return list(self._store) if self._store is not None else []

    def transaction_record(self, txn: _Txn) -> Dict:
        """One transaction as a JSON-ready dict (bundles, sinks)."""
        line = txn.address >> self._line_shift
        region = txn.address >> self._region_shift
        return {
            "trace_id": txn.trace_id,
            "proc": txn.proc,
            "op": txn.op,
            "address": hex(txn.address),
            "line": hex(line),
            "region": hex(region),
            "start": txn.start,
            "end": txn.end,
            "path": txn.resolved_path,
            "verdict": txn.verdict,
            "spans": [
                {"name": name, "start": start, "end": end,
                 **(attrs if attrs is not None else {})}
                for name, start, end, attrs in txn.children
            ],
        }

    def history(
        self,
        line: Optional[int] = None,
        region: Optional[int] = None,
        last: Optional[int] = None,
    ) -> List[Dict]:
        """Causal history: captured transactions touching *line* and/or
        *region* (either filter matches), or simply the last *last*.

        This is what diagnostics bundles embed for a violating access:
        the flight recorder answers "what happened to this line/region
        just before the invariant broke".
        """
        txns = self.transactions
        if line is None and region is None:
            picked = txns
        else:
            picked = []
            for txn in txns:
                t_line = txn.address >> self._line_shift
                t_region = txn.address >> self._region_shift
                if (line is not None and t_line == line) or (
                        region is not None and t_region == region):
                    picked.append(txn)
        if last is not None:
            picked = picked[-last:]
        return [self.transaction_record(t) for t in picked]

    def to_spans(self) -> Iterable[Dict]:
        """Flatten every captured transaction to ``cgct-span/v1`` records."""
        for txn in self.transactions:
            yield from self.transaction_spans(self.transaction_record(txn))

    @staticmethod
    def transaction_spans(record: Dict) -> Iterable[Dict]:
        """Span records for one :meth:`transaction_record` dict."""
        tid = record["trace_id"]
        root_id = f"{tid}:0"
        yield make_span(
            str(tid), root_id, None, "transaction", CLOCK_CYCLES,
            record["start"], record["end"],
            {
                "proc": record["proc"], "op": record["op"],
                "address": record["address"], "line": record["line"],
                "region": record["region"], "path": record["path"],
                "verdict": record["verdict"],
            },
        )
        for i, child in enumerate(record["spans"]):
            attrs = {k: v for k, v in child.items()
                     if k not in ("name", "start", "end")}
            yield make_span(
                str(tid), f"{tid}:{i + 1}", root_id, child["name"],
                CLOCK_CYCLES, child["start"], child["end"], attrs,
            )
