"""Run-ahead streaks ≡ one step per pick, bit for bit.

The stepping loop lets the popped processor keep stepping while its
next key ``(time, proc_id)`` stays strictly below the heap top, skipping
the push/pop round-trip for private-access streaks. These cases compare
it against :class:`~tests.system.reference_scheduler.ReferenceSimulator`,
which takes exactly one step per pick — same cycles, same stats, same
latencies, same telemetry, same traced transactions — in every
observation mode the simulator supports. The full battery, with
warm-up, is ``test_stepping_equivalence.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interconnect.topology import Topology
from repro.system.processor import TraceProcessor
from repro.workloads.benchmarks import build_benchmark
from repro.workloads.trace import TraceOp

from tests.conftest import make_config, multitrace
from tests.system.reference_scheduler import ReferenceSimulator
from tests.system.test_stepping_equivalence import (
    WARMUP,
    assert_equivalent,
    contended_workload,
    private_workload,
    run_with,
)


class TestRunaheadEquivalence:
    def test_contended_trace(self):
        assert_equivalent(make_config(cgct=True), contended_workload())

    def test_private_streaks(self):
        assert_equivalent(make_config(cgct=True), private_workload())

    def test_baseline_machine(self):
        assert_equivalent(make_config(cgct=False), contended_workload())
        assert_equivalent(make_config(cgct=False), private_workload())

    def test_with_telemetry(self):
        # Streaks must stop at sampling boundaries; the registries have
        # to see the identical interleaving of samples and steps.
        assert_equivalent(
            make_config(cgct=True), private_workload(), telemetry=True
        )
        assert_equivalent(
            make_config(cgct=True), contended_workload(), telemetry=True
        )

    def test_with_timing_perturbation(self):
        # Perturbation draws from the per-run RNG; identical draws prove
        # the step *order* (which drives RNG consumption) is unchanged.
        config = make_config(cgct=True, perturbation=20)
        for seed in (0, 1, 2):
            assert_equivalent(config, private_workload(), seed=seed)

    def test_simultaneous_ready_times(self):
        # Equal-time ties must still yield to the lower proc id: a streak
        # may only continue while its key is *strictly* below the top.
        per_proc = [[(TraceOp.LOAD, 0x8000, 10)] * 6 for _ in range(4)]
        assert_equivalent(make_config(cgct=True), multitrace(per_proc))

    def test_linear_scheduler_unaffected(self, monkeypatch):
        # The reference must not share the code under test: it never
        # builds a streak, so a broken run-ahead cannot bend the oracle.
        def no_streaks(self):
            raise AssertionError("the reference scheduler built a streak")

        monkeypatch.setattr(TraceProcessor, "build_run_ahead", no_streaks)
        run_with(ReferenceSimulator, make_config(cgct=True),
                 private_workload(), telemetry=True, warmup=WARMUP)

    def test_snoop_walk_machine(self):
        assert_equivalent(
            make_config(cgct=True), private_workload(), snoop="walk"
        )

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from([TraceOp.LOAD, TraceOp.STORE,
                                     TraceOp.IFETCH, TraceOp.DCBZ]),
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


class TestRunaheadObservers:
    """Modes that hook individual steps must see the reference order."""

    def test_tracer_mode(self):
        assert_equivalent(
            make_config(cgct=True), private_workload(), tracer=True
        )

    def test_sanitizer_mode(self):
        assert_equivalent(
            make_config(cgct=True), contended_workload(), sanitizer=True
        )

    def test_step_observer_sees_reference_pid_order(self):
        assert_equivalent(
            make_config(cgct=True), private_workload(), observe=True
        )


class TestSixteenProcessorRunahead:
    """Scaling-machine equivalence without warm-up."""

    TOPOLOGY = Topology(
        cores_per_chip=2, chips_per_switch=2, switches_per_board=2, boards=2
    )

    def workload(self):
        return build_benchmark(
            "barnes", num_processors=16, ops_per_processor=300, seed=0
        )

    def test_streak_equals_off_at_16p_cgct(self):
        config = make_config(cgct=True, topology=self.TOPOLOGY)
        assert_equivalent(config, self.workload(), seed=3)

    def test_streak_equals_off_at_16p_baseline(self):
        config = make_config(cgct=False, topology=self.TOPOLOGY)
        assert_equivalent(config, self.workload(), seed=3)

    def test_streak_equals_off_at_16p_with_telemetry(self):
        config = make_config(cgct=True, topology=self.TOPOLOGY)
        assert_equivalent(config, self.workload(), seed=3, telemetry=True)
