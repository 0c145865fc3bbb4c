"""Shared fixtures: small deterministic machines and trace helpers.

Unit tests use scaled-down caches/RCAs (so evictions and inclusion
effects appear with few accesses), zero perturbation, and no prefetching
unless the test is about prefetching — keeping every assertion exact.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro.memory.geometry import Geometry
from repro.system.config import SystemConfig, TimingParameters
from repro.system.machine import Machine
from repro.workloads.trace import MultiTrace, Trace, TraceOp


@pytest.fixture
def geometry() -> Geometry:
    return Geometry()


def make_config(
    cgct: bool = True,
    region_bytes: int = 512,
    l2_bytes: int = 64 * 1024,
    l1_bytes: int = 4 * 1024,
    rca_sets: int = 64,
    prefetch: bool = False,
    perturbation: int = 0,
    **overrides,
) -> SystemConfig:
    """A small, fully deterministic machine configuration for unit tests."""
    base = SystemConfig(
        geometry=Geometry(region_bytes=region_bytes),
        cgct_enabled=cgct,
        l1i_bytes=l1_bytes,
        l1d_bytes=l1_bytes,
        l2_bytes=l2_bytes,
        rca_sets=rca_sets,
        prefetch_enabled=prefetch,
        timing=TimingParameters(perturbation_cycles=perturbation),
    )
    if overrides:
        base = replace(base, **overrides)
    return base


@pytest.fixture
def cgct_machine() -> Machine:
    return Machine(make_config(cgct=True))


@pytest.fixture
def baseline_machine() -> Machine:
    return Machine(make_config(cgct=False))


def trace_of(records, name: str = "test") -> Trace:
    """Build a trace from (op, address, gap) tuples."""
    return Trace.from_records(records, name=name)


def multitrace(per_proc_records, name: str = "test") -> MultiTrace:
    return MultiTrace(
        per_processor=[
            trace_of(records, name=f"{name}.p{i}")
            for i, records in enumerate(per_proc_records)
        ],
        name=name,
    )


def loads(addresses, gap: int = 0):
    """(LOAD, addr, gap) records for each address."""
    return [(TraceOp.LOAD, a, gap) for a in addresses]


def stores(addresses, gap: int = 0):
    return [(TraceOp.STORE, a, gap) for a in addresses]


def interleaved_best_of(rounds: int, plain, instrumented):
    """Best-of-*rounds* wall times ``(plain, instrumented)``, interleaved.

    Each round times both callables, alternating which goes first, so a
    drift in host speed during the measurement (another process
    starting, a frequency change) lands on both sides instead of on
    whichever was timed last.
    """
    fns = (plain, instrumented)
    best = [float("inf"), float("inf")]
    for r in range(rounds):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            fns[side]()
            best[side] = min(best[side], time.perf_counter() - start)
    return best[0], best[1]
