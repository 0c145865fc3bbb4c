"""The batched profiler equals the per-access reference, bit for bit.

:mod:`tests.traces.reference_profiler` keeps the one-access-at-a-time
profiler the numpy kernel replaced. Both must produce the same
``to_dict()`` for every stream: heavy reuse over few lines and regions,
every op including the DCB ones, processor ids beyond a 64-bit mask,
any reader chunking, any batch split and every ``distance_scale``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces import profiler
from repro.traces.reader import EventChunk
from repro.workloads.trace import TraceOp
from tests.traces import reference_profiler

PROCS = [0, 1, 2, 3, 64, 65, 300, 65_535]


def _chunks(procs, ops, addresses, size):
    for start in range(0, len(procs), size):
        stop = start + size
        yield EventChunk(
            procs=procs[start:stop],
            ops=ops[start:stop],
            addresses=addresses[start:stop],
            gaps=np.zeros(len(procs[start:stop]), dtype=np.uint32),
        )


def _both(procs, ops, addresses, chunk, **kwargs):
    arrays = (
        np.asarray(procs, dtype=np.int64),
        np.asarray(ops, dtype=np.uint8),
        np.asarray(addresses, dtype=np.uint64),
    )
    got = profiler.profile_events(_chunks(*arrays, chunk), **kwargs)
    want = reference_profiler.profile_events(_chunks(*arrays, chunk), **kwargs)
    return got.to_dict(), want.to_dict()


records = st.lists(
    st.tuples(
        st.sampled_from(PROCS),
        st.sampled_from([int(op) for op in TraceOp]),
        st.integers(0, 40),    # line: ~5 regions of 8 lines at 512 B
        st.integers(0, 63),    # byte within the line
    ),
    min_size=1,
    max_size=250,
)


@settings(max_examples=150, deadline=None)
@given(
    records,
    st.sampled_from([1, 7, 1_000]),
    st.sampled_from([1, 2, 5, 64]),
    st.sampled_from([1, 2, 4]),
    st.sampled_from([64, 512, 2048]),
)
def test_matches_reference(stream, chunk, batch, scale, region_bytes):
    procs = [p for p, _, _, _ in stream]
    ops = [op for _, op, _, _ in stream]
    addresses = [line * 64 + byte for _, _, line, byte in stream]
    with mock.patch.object(profiler, "BATCH", batch):
        got, want = _both(
            procs, ops, addresses, chunk,
            region_bytes=region_bytes, distance_scale=scale,
        )
    assert got == want


@pytest.mark.parametrize("scale", [1, 2, 4])
@pytest.mark.parametrize(
    "chunk", [profiler.BATCH - 1, profiler.BATCH, profiler.BATCH + 1],
)
def test_matches_reference_across_real_batches(chunk, scale):
    """Long enough to carry state over several real batch boundaries."""
    rng = np.random.default_rng(chunk * 10 + scale)
    n = 2 * profiler.BATCH + 5
    lines = rng.integers(0, 600, n)
    got, want = _both(
        rng.choice(PROCS, n),
        rng.integers(0, len(TraceOp), n),
        lines * 64 + rng.integers(0, 64, n),
        chunk,
        distance_scale=scale,
    )
    assert got == want
