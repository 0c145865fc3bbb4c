"""Profiling stays within a fixed memory budget.

The batched profiler carries per-line and per-region state plus one
batch of work arrays; on the committed 32 000-access fixture its peak
Python-heap allocation (numpy buffers included) must stay at or below
the 4.5 MB the per-access profiler it replaced needed.
"""

import tracemalloc
from pathlib import Path

from repro.traces.profiler import profile_file

MIDSIZE = Path(__file__).parent / "fixtures" / "midsize.bin.gz"

BUDGET_BYTES = 4_500_000


def test_midsize_profile_peak_allocation():
    profile_file(MIDSIZE)            # warm imports and caches first
    tracemalloc.start()
    try:
        profile_file(MIDSIZE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= BUDGET_BYTES, f"peak {peak / 1e6:.2f} MB"
