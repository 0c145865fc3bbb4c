"""Simulator ≡ ReferenceSimulator, bit for bit, in every observation mode.

``Simulator._run_until`` is the one stepping loop: a heap keyed
``(next_time, proc_id)`` that lets the popped processor run a streak
while its next key stays strictly below the heap top and the next
telemetry sample boundary. ``ReferenceSimulator``
(``tests/system/reference_scheduler.py``) is the original linear
``min()`` scan taking one step per pick. These tests assert the two are
indistinguishable — same cycles, stats, latency distributions, request
paths, telemetry, traced transactions and observed pid order — with and
without warm-up, on hand-built, randomized (hypothesis) and
16-processor benchmark traces.

The equivalence classes here run after a 0.4 warm-up, the harness
default: that path runs the loop twice, first to partial targets and
then, after the statistics reset and the telemetry sampling restart,
to the end of every trace. The same cases without warm-up are the
named cases of ``test_runahead_equivalence.py`` and
``test_scheduler_equivalence.py``; the randomized case draws both.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.perfbench import run_record
from repro.interconnect.topology import Topology
from repro.obs.simtrace import SimTracer
from repro.system.processor import TraceProcessor
from repro.system.simulator import Simulator
from repro.telemetry.registry import TelemetryRegistry
from repro.validate.sanitizer import CoherenceSanitizer
from repro.workloads.benchmarks import build_benchmark
from repro.workloads.trace import TraceOp

from tests.conftest import loads, make_config, multitrace
from tests.system.reference_scheduler import ReferenceSimulator
from tests.system.reference_snoop import snoop_path

#: Telemetry interval: short enough that the small hand-built traces
#: (a few thousand cycles) cross several sample boundaries mid-run.
INTERVAL = 500

#: The harness's default warm-up fraction (``RunOptions.warmup_fraction``).
WARMUP = 0.4


def run_with(simulator_class, config, workload, seed=0, telemetry=False,
             warmup=0.0, tracer=None, sanitizer=None, step_observer=None,
             snoop="bitmask", interval=INTERVAL):
    # ``snoop="walk"`` builds the machine as ReferenceSnoopMachine.
    registry = TelemetryRegistry(interval=interval) if telemetry else None
    with snoop_path(snoop):
        simulator = simulator_class(
            config, seed=seed, telemetry=registry, sanitizer=sanitizer,
            step_observer=step_observer, tracer=tracer,
        )
    result = simulator.run(workload, warmup_fraction=warmup)
    return simulator, result, registry


def fingerprint(simulator, result, registry=None):
    """Everything observable about one run (the corpus's full run
    record), plus telemetry, as a comparable dict."""
    print_ = run_record(simulator, result)
    if registry is not None:
        print_["telemetry"] = registry.to_dict()
    return print_


def observed_fingerprint(simulator_class, config, workload, seed=0,
                         telemetry=False, warmup=0.0, snoop="bitmask",
                         observe=False, tracer=False, sanitizer=False,
                         interval=INTERVAL):
    """One run's fingerprint, plus what each attached observer saw."""
    pids = [] if observe else None
    span_tracer = SimTracer() if tracer else None
    auditor = (CoherenceSanitizer(mode="deep", every=7, bundle_dir=None)
               if sanitizer else None)
    simulator, result, registry = run_with(
        simulator_class, config, workload, seed, telemetry, warmup,
        tracer=span_tracer, sanitizer=auditor,
        step_observer=pids.append if observe else None,
        snoop=snoop, interval=interval,
    )
    print_ = fingerprint(simulator, result, registry)
    if observe:
        print_["pids"] = pids
    if auditor is not None:
        print_["sanitizer_checks"] = auditor.checks
    if span_tracer is not None:
        print_["accesses"] = span_tracer.accesses
        print_["recorded"] = span_tracer.recorded
        print_["transactions"] = [
            span_tracer.transaction_record(t)
            for t in span_tracer.transactions
        ]
    return print_


def assert_equivalent(config, workload, seed=0, **options):
    """Run Simulator and ReferenceSimulator with the same options and
    compare everything observable."""
    assert observed_fingerprint(
        Simulator, config, workload, seed, **options
    ) == observed_fingerprint(
        ReferenceSimulator, config, workload, seed, **options
    )


def contended_workload(procs=4, lines=24):
    """Every processor walks the same lines with staggered gaps, so grant
    order constantly interleaves and exercises the tie-break."""
    per_proc = []
    for proc in range(procs):
        addresses = [0x40000 + i * 64 for i in range(lines)]
        per_proc.append(loads(addresses, gap=3 + proc))
    return multitrace(per_proc)


def private_workload(procs=4, lines=48):
    """Disjoint working sets: long locally-resolvable streaks, the very
    case the run-ahead path is built for."""
    per_proc = []
    for proc in range(procs):
        base = 0x100000 * (proc + 1)
        addresses = [base + (i % 8) * 64 for i in range(lines)]
        per_proc.append(loads(addresses, gap=1))
    return multitrace(per_proc)


@pytest.mark.parametrize("telemetry", [False, True])
class TestSteppingEquivalence:
    def test_contended_trace(self, telemetry):
        assert_equivalent(make_config(cgct=True), contended_workload(),
                          warmup=WARMUP, telemetry=telemetry)

    def test_private_streaks(self, telemetry):
        assert_equivalent(make_config(cgct=True), private_workload(),
                          warmup=WARMUP, telemetry=telemetry)

    def test_baseline_machine(self, telemetry):
        for workload in (contended_workload(), private_workload()):
            assert_equivalent(make_config(cgct=False), workload,
                              warmup=WARMUP, telemetry=telemetry)

    def test_with_timing_perturbation(self, telemetry):
        # Perturbation draws from the per-run RNG; identical draws prove
        # the step *order* (which drives RNG consumption) is unchanged.
        config = make_config(cgct=True, perturbation=20)
        for seed in (0, 1, 2):
            assert_equivalent(config, private_workload(), seed=seed,
                              warmup=WARMUP, telemetry=telemetry)

    def test_simultaneous_ready_times(self, telemetry):
        # Equal-time ties must still yield to the lower proc id: a streak
        # may only continue while its key is *strictly* below the top.
        per_proc = [[(TraceOp.LOAD, 0x8000, 10)] * 6 for _ in range(4)]
        assert_equivalent(make_config(cgct=True), multitrace(per_proc),
                          warmup=WARMUP, telemetry=telemetry)

    def test_snoop_walk_machine(self, telemetry):
        assert_equivalent(make_config(cgct=True), private_workload(),
                          warmup=WARMUP, telemetry=telemetry, snoop="walk")


def test_streak_stops_before_an_issue_on_the_sample_boundary():
    # Sweeping the interval lands sample boundaries exactly on issue
    # times inside streaks: the step issued at the boundary belongs to
    # the next window, so the streak must stop before it.
    for interval in range(40, 52):
        assert_equivalent(make_config(cgct=True), private_workload(),
                          telemetry=True, interval=interval)


class TestObservationModes:
    """Modes that hook individual steps must see the reference order."""

    def test_tracer_mode(self):
        # Traced runs single-step; results and the captured transactions
        # must both match the reference.
        assert_equivalent(make_config(cgct=True), private_workload(),
                          warmup=WARMUP, tracer=True)

    def test_sanitizer_mode(self):
        assert_equivalent(make_config(cgct=True), contended_workload(),
                          warmup=WARMUP, sanitizer=True)

    @pytest.mark.parametrize("telemetry", [False, True])
    def test_step_observer_sees_reference_pid_order(self, telemetry):
        assert_equivalent(make_config(cgct=True), private_workload(),
                          warmup=WARMUP, telemetry=telemetry, observe=True)


@pytest.mark.parametrize("options, streaks", [
    ({}, True),
    ({"telemetry": True, "warmup": WARMUP}, True),
    ({"observe": True}, False),
    ({"tracer": True}, False),
    ({"sanitizer": True}, False),
])
def test_streaks_run_unless_a_step_hook_is_attached(
    monkeypatch, options, streaks
):
    # The equivalence above is only worth something if the plain loop
    # really streaks; hooks that need every step boundary turn it off.
    calls = []
    build = TraceProcessor.build_run_ahead

    def counting_build(processor):
        run_ahead = build(processor)

        def counted(*bounds):
            calls.append(processor.proc_id)
            run_ahead(*bounds)
        return counted

    monkeypatch.setattr(TraceProcessor, "build_run_ahead", counting_build)
    observed_fingerprint(Simulator, make_config(cgct=True),
                         private_workload(), **options)
    assert bool(calls) is streaks


@settings(max_examples=40, deadline=None)
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
    telemetry=st.booleans(),
    observe=st.booleans(),
    warmup=st.sampled_from([0.0, WARMUP]),
)
def test_randomized_traces(data, seed, cgct, telemetry, observe, warmup):
    config = make_config(cgct=cgct, perturbation=8)
    assert_equivalent(config, multitrace(data), seed=seed,
                      telemetry=telemetry, observe=observe, warmup=warmup)


#: Machine shapes for the popped-operation cases, by processor count.
SHAPES = {
    1: Topology(cores_per_chip=1, chips_per_switch=1,
                switches_per_board=1, boards=1),
    2: Topology(cores_per_chip=2, chips_per_switch=1,
                switches_per_board=1, boards=1),
    4: Topology(),
    32: Topology(cores_per_chip=2, chips_per_switch=2,
                 switches_per_board=2, boards=4),
}


def popped_workload(procs, kind):
    """Traces whose every popped operation is of one *kind*.

    ``dcb``: DCBZ/DCBF/DCBI (no L1-hit path) mixed with stores and loads
    on a few lines every processor shares. ``miss``: loads, stores and
    fetches of lines no processor touched before, so every access misses
    its L1. ``tie``: every processor issues the same operations with the
    same gaps, so issue times tie exactly and only the processor id
    orders them.
    """
    dcb_ops = [TraceOp.DCBZ, TraceOp.LOAD, TraceOp.DCBF, TraceOp.STORE,
               TraceOp.DCBI]
    miss_ops = [TraceOp.LOAD, TraceOp.STORE, TraceOp.IFETCH]
    per_proc = []
    for proc in range(procs):
        records = []
        for i in range(15):
            if kind == "dcb":
                records.append((dcb_ops[i % 5], 0x40000 + (i % 3) * 64,
                                2 + (proc + i) % 4))
            elif kind == "miss":
                address = 0x100000 + (proc * 64 + i) * 4096
                records.append((miss_ops[i % 3], address, 1 + i % 3))
            else:
                records.append((dcb_ops[i % 5] if i % 2 else TraceOp.LOAD,
                                0x40000 + (i % 4) * 64, 4))
        per_proc.append(records)
    return multitrace(per_proc)


class TestPoppedOperations:
    """The popped operation itself is the first step of every streak:
    DCB operations, L1 misses and exact time ties at 1 to 32 processors
    must step as the reference does."""

    @pytest.mark.parametrize("kind", ["dcb", "miss", "tie"])
    @pytest.mark.parametrize("procs", sorted(SHAPES))
    @pytest.mark.parametrize("cgct", [False, True])
    def test_matches_reference(self, kind, procs, cgct):
        config = make_config(cgct=cgct, topology=SHAPES[procs])
        workload = popped_workload(procs, kind)
        assert_equivalent(config, workload)
        assert_equivalent(config, workload, warmup=WARMUP, telemetry=True)


class TestSixteenProcessorStepping:
    """Scaling-machine equivalence; CI selects this class by name."""

    TOPOLOGY = Topology(
        cores_per_chip=2, chips_per_switch=2, switches_per_board=2, boards=2
    )

    def workload(self):
        return build_benchmark(
            "barnes", num_processors=16, ops_per_processor=300, seed=0
        )

    def test_cgct_at_16p(self):
        config = make_config(cgct=True, topology=self.TOPOLOGY)
        assert_equivalent(config, self.workload(), seed=3, warmup=WARMUP)

    def test_baseline_at_16p(self):
        config = make_config(cgct=False, topology=self.TOPOLOGY)
        assert_equivalent(config, self.workload(), seed=3, warmup=WARMUP)

    def test_telemetry_at_16p(self):
        config = make_config(cgct=True, topology=self.TOPOLOGY)
        assert_equivalent(config, self.workload(), seed=3, warmup=WARMUP,
                          telemetry=True)

    def test_step_observer_at_16p(self):
        config = make_config(cgct=True, topology=self.TOPOLOGY)
        assert_equivalent(config, self.workload(), seed=3, warmup=WARMUP,
                          observe=True)
