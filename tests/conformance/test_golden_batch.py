"""The closed-form batched verdicts equal the golden model's, one by one.

:func:`~repro.conformance.golden.must_broadcast_batch` answers
:meth:`GoldenModel.must_broadcast` for a whole batch at once from two
carried holders and the dirty owner per line. Applying the same stream
one access at a time must give the same verdict for every access, for
any way of splitting the stream into batches and for processor ids far
beyond a 64-bit mask.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.golden import GoldenModel, must_broadcast_batch
from repro.workloads.trace import TraceOp

LINES = 6

accesses = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 2, 3, 64, 65, 1000, 65_535]),
        st.sampled_from(list(TraceOp)),
        st.integers(0, LINES - 1),
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=300, deadline=None)
@given(accesses, st.lists(st.integers(0, 120), max_size=6))
def test_batched_verdicts_match_the_model(stream, cuts):
    model = GoldenModel(1 << 16)
    want = [model.access(p, op, line).must_broadcast for p, op, line in stream]

    procs = np.array([p for p, _, _ in stream], dtype=np.int64)
    ops = np.array([int(op) for _, op, _ in stream], dtype=np.uint8)
    lines = np.array([line for _, _, line in stream], dtype=np.int64)
    holders = np.full((LINES, 2), -1, dtype=np.int32)
    owner = np.full(LINES, -1, dtype=np.int32)
    bounds = sorted({0, len(stream), *(c for c in cuts if c < len(stream))})
    got = np.concatenate([
        must_broadcast_batch(
            procs[a:b], ops[a:b], lines[a:b], holders, owner,
        )
        for a, b in zip(bounds, bounds[1:])
    ])
    assert got.tolist() == want


def test_empty_batch_leaves_state_alone():
    holders = np.full((1, 2), -1, dtype=np.int32)
    owner = np.full(1, -1, dtype=np.int32)
    empty = np.zeros(0, dtype=np.int64)
    assert len(must_broadcast_batch(
        empty, empty.astype(np.uint8), empty, holders, owner,
    )) == 0
    assert holders.tolist() == [[-1, -1]] and owner.tolist() == [-1]
