"""Heap order ≡ the linear reference scan, bit for bit.

The stepping loop orders steps with a heap keyed ``(next_time,
proc_id)`` instead of the original O(P) ``min()`` scan, which survives as
:class:`~tests.system.reference_scheduler.ReferenceSimulator`. These
cases assert the two orderings are indistinguishable — same cycles, same
stats, same latency distributions — on hand-built traces, on randomized
traces, and at 16 processors where tie-breaks actually matter. The full
battery, across every observation mode and warm-up, is
``test_stepping_equivalence.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interconnect.topology import Topology
from repro.system.simulator import Simulator
from repro.workloads.benchmarks import build_benchmark
from repro.workloads.trace import TraceOp

from tests.conftest import make_config, multitrace
from tests.system.test_stepping_equivalence import (
    assert_equivalent,
    contended_workload,
    fingerprint,
    run_with,
)


class TestSchedulerEquivalence:
    def test_contended_trace(self):
        assert_equivalent(make_config(cgct=True), contended_workload())

    def test_baseline_machine(self):
        assert_equivalent(make_config(cgct=False), contended_workload())

    def test_with_telemetry(self):
        assert_equivalent(
            make_config(cgct=True), contended_workload(), telemetry=True
        )

    def test_with_timing_perturbation(self):
        # Perturbation draws from the per-run RNG; identical draws in both
        # schedulers prove the event *order* (which drives RNG consumption
        # order) is the same, not just the totals.
        config = make_config(cgct=True, perturbation=20)
        for seed in (0, 1, 2):
            assert_equivalent(config, contended_workload(), seed=seed)

    def test_simultaneous_ready_times_break_by_proc_id(self):
        # All processors become ready at exactly the same cycle: the only
        # thing ordering them is the proc-id tie-break.
        per_proc = [[(TraceOp.LOAD, 0x8000, 10)] * 6 for _ in range(4)]
        assert_equivalent(make_config(cgct=True), multitrace(per_proc))

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from([TraceOp.LOAD, TraceOp.STORE]),
                    st.integers(min_value=0, max_value=0x7FFF).map(
                        lambda a: a * 64
                    ),
                    st.integers(min_value=0, max_value=12),
                ),
                min_size=1,
                max_size=30,
            ),
            min_size=4,
            max_size=4,
        ),
        seed=st.integers(min_value=0, max_value=7),
        cgct=st.booleans(),
    )
    def test_randomized_traces(self, data, seed, cgct):
        config = make_config(cgct=cgct, perturbation=8)
        assert_equivalent(config, multitrace(data), seed=seed)


class TestSixteenProcessorDeterminism:
    """Serial determinism of the 16p scaling machine."""

    TOPOLOGY = Topology(
        cores_per_chip=2, chips_per_switch=2, switches_per_board=2, boards=2
    )

    def workload(self):
        return build_benchmark(
            "barnes", num_processors=16, ops_per_processor=300, seed=0
        )

    def test_heap_equals_linear_at_16p(self):
        config = make_config(cgct=True, topology=self.TOPOLOGY)
        assert_equivalent(config, self.workload(), seed=3)

    def test_repeat_runs_identical_at_16p(self):
        config = make_config(cgct=True, topology=self.TOPOLOGY)
        workload = self.workload()
        a = fingerprint(*run_with(Simulator, config, workload, seed=3))
        b = fingerprint(*run_with(Simulator, config, workload, seed=3))
        assert a == b
