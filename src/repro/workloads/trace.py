"""Trace record format.

A trace is three parallel NumPy arrays per processor: the operation, the
byte address, and the *gap* — CPU cycles of non-memory work the processor
performs before issuing the operation. Gaps are how the timing model
represents the core's compute throughput without simulating a pipeline:
execution time = Σ gaps + Σ memory stalls.

Workloads can be persisted with :meth:`MultiTrace.save` /
:meth:`MultiTrace.load` (compressed ``.npz``), so expensive generated
traces — or traces converted from external tools — can be replayed
without regeneration.

numpy is imported inside the functions that build, convert or persist
arrays, not at module level: a warm sweep or a ``--help`` imports this
module for its types and never touches an array.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, List, Sequence, Union

from repro.common.errors import SimulationError
from repro.memory.geometry import Geometry

if TYPE_CHECKING:
    import numpy as np


class TraceOp(enum.IntEnum):
    """Processor-level memory operations (what a pipeline emits)."""

    LOAD = 0
    STORE = 1
    IFETCH = 2
    DCBZ = 3
    DCBF = 4
    DCBI = 5


@dataclass(frozen=True)
class Trace:
    """One processor's memory-operation stream."""

    ops: np.ndarray
    addresses: np.ndarray
    gaps: np.ndarray
    name: str = "trace"

    def __post_init__(self) -> None:
        if not (len(self.ops) == len(self.addresses) == len(self.gaps)):
            raise SimulationError(
                f"trace {self.name}: array lengths differ "
                f"({len(self.ops)}, {len(self.addresses)}, {len(self.gaps)})"
            )

    def __len__(self) -> int:
        return len(self.ops)

    def validate(self, geometry: Geometry) -> None:
        """Check every record is legal for *geometry*; raise if not.

        The arrays are immutable and the checks depend on the geometry
        only through its address-space bound, so a passing validation is
        memoised per bound: repeated runs of the same workload (perf
        repeats, sweeps across same-geometry configs) validate once.
        """
        if len(self) == 0:
            return
        validated = self.__dict__.get("_validated_bounds")
        if validated is None:
            validated = set()
            object.__setattr__(self, "_validated_bounds", validated)
        if geometry.max_address in validated:
            return
        if self.ops.min() < 0 or self.ops.max() > max(TraceOp):
            raise SimulationError(f"trace {self.name}: unknown op code")
        if self.addresses.min() < 0:
            raise SimulationError(f"trace {self.name}: negative address")
        if int(self.addresses.max()) >= geometry.max_address:
            raise SimulationError(
                f"trace {self.name}: address {int(self.addresses.max()):#x} "
                f"outside the {geometry.physical_address_bits}-bit space"
            )
        if self.gaps.min() < 0:
            raise SimulationError(f"trace {self.name}: negative gap")
        validated.add(geometry.max_address)

    def head(self, n: int) -> "Trace":
        """First *n* records (for scaled-down benchmark runs)."""
        return Trace(
            ops=self.ops[:n],
            addresses=self.addresses[:n],
            gaps=self.gaps[:n],
            name=self.name,
        )

    # ------------------------------------------------------------------
    # Cached replay views
    # ------------------------------------------------------------------
    # The replay loop indexes plain Python lists (scalar ndarray indexing
    # costs ~3x a list index), and the run-ahead streak wants per-access
    # line numbers without a shift per step. Both views are pure
    # functions of the (immutable) arrays, so they are computed once per
    # Trace object and shared by every TraceProcessor built from it —
    # perf repeats and multi-config sweeps over one workload stop paying
    # the conversion inside the timed region. The frozen dataclass still
    # has a __dict__, which doubles as the memo (object.__setattr__
    # sidesteps the frozen guard for these derived, invisible fields).
    def replay_lists(self) -> tuple:
        """``(ops, addresses, gaps)`` as plain lists, built once."""
        cached = self.__dict__.get("_replay_lists")
        if cached is None:
            cached = (
                self.ops.tolist(),
                self.addresses.tolist(),
                self.gaps.tolist(),
            )
            object.__setattr__(self, "_replay_lists", cached)
        return cached

    def line_list(self, line_shift: int) -> list:
        """Per-access line numbers (``address >> line_shift``) as a list.

        Vectorized once per distinct shift (one numpy pass instead of a
        Python shift per access per run).
        """
        cache = self.__dict__.get("_line_lists")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_line_lists", cache)
        lines = cache.get(line_shift)
        if lines is None:
            import numpy as np

            lines = np.right_shift(
                self.addresses, np.uint64(line_shift)
            ).tolist()
            cache[line_shift] = lines
        return lines

    @staticmethod
    def from_records(
        records: Sequence, name: str = "trace"
    ) -> "Trace":
        """Build a trace from ``(op, address, gap)`` tuples (tests, examples)."""
        if records:
            ops, addresses, gaps = zip(*records)
        else:
            ops, addresses, gaps = (), (), ()
        for address in addresses:
            # uint64 conversion would silently wrap a negative address to
            # a huge value that validate() later misreports as "outside
            # the address space"; reject it here, at the source.
            if address < 0:
                raise SimulationError(
                    f"trace {name}: negative address {address}"
                )
        import numpy as np

        return Trace(
            ops=np.array([int(op) for op in ops], dtype=np.uint8),
            addresses=np.array(addresses, dtype=np.uint64),
            gaps=np.array(gaps, dtype=np.uint32),
            name=name,
        )

    @staticmethod
    def concatenate(traces: Sequence["Trace"], name: str = "trace") -> "Trace":
        """Join several traces end-to-end (phase assembly)."""
        if not traces:
            return Trace.from_records([], name=name)
        import numpy as np

        return Trace(
            ops=np.concatenate([t.ops for t in traces]),
            addresses=np.concatenate([t.addresses for t in traces]),
            gaps=np.concatenate([t.gaps for t in traces]),
            name=name,
        )


@dataclass(frozen=True)
class MultiTrace:
    """One trace per processor, plus the workload's identity."""

    per_processor: List[Trace]
    name: str = "workload"

    @property
    def num_processors(self) -> int:
        """Total processors in the machine."""
        return len(self.per_processor)

    def __len__(self) -> int:
        return sum(len(t) for t in self.per_processor)

    def validate(self, geometry: Geometry) -> None:
        """Check every record against the geometry; raise if illegal."""
        for trace in self.per_processor:
            trace.validate(geometry)

    def scaled(self, ops_per_processor: int) -> "MultiTrace":
        """Truncate every processor's trace (scaled-down benchmark runs)."""
        return MultiTrace(
            per_processor=[t.head(ops_per_processor) for t in self.per_processor],
            name=self.name,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Write the workload to a compressed ``.npz`` file."""
        import numpy as np

        arrays = {}
        for index, trace in enumerate(self.per_processor):
            arrays[f"ops_{index}"] = trace.ops
            arrays[f"addresses_{index}"] = trace.addresses
            arrays[f"gaps_{index}"] = trace.gaps
        meta = json.dumps({
            "name": self.name,
            "num_processors": self.num_processors,
            "trace_names": [t.name for t in self.per_processor],
        })
        arrays["meta"] = np.array(meta)
        np.savez_compressed(Path(path), **arrays)

    @staticmethod
    def load(path: Union[str, Path]) -> "MultiTrace":
        """Read a workload previously written by :meth:`save`."""
        import numpy as np

        with np.load(Path(path), allow_pickle=False) as data:
            try:
                meta = json.loads(str(data["meta"]))
            except KeyError:
                raise SimulationError(
                    f"{path}: not a saved MultiTrace (missing metadata)"
                ) from None
            traces = []
            for index in range(meta["num_processors"]):
                traces.append(
                    Trace(
                        ops=data[f"ops_{index}"],
                        addresses=data[f"addresses_{index}"],
                        gaps=data[f"gaps_{index}"],
                        name=meta["trace_names"][index],
                    )
                )
        return MultiTrace(per_processor=traces, name=meta["name"])
