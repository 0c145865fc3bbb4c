"""Production snoop paths ≡ the reference snoop walks, bit for bit.

The machine's phase-1 line snoops iterate the maintained holder bitmask
— O(holders) per broadcast instead of O(P) — with the skipped tag probes
reconstructed from per-processor broadcast totals, and its phase-2
region snoops run over per-region state-class masks. The naive walks
live in ``tests/system/reference_snoop.py`` (``ReferenceSnoopMachine``,
selected here as ``"walk"``) precisely so these tests can assert the
paths are indistinguishable: same cycles, same stats, same per-node
snoop counters, same telemetry (including the ``rca.transitions``
matrix) — on hand-built traces, on randomized traces, on every
benchmark × perf-config × seed cell of the matrix, and at 16 processors
where holder sets are widest.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.perfbench import PERF_CONFIGS, bench_config
from repro.interconnect.topology import Topology
from repro.system.simulator import Simulator
from repro.telemetry.registry import TelemetryRegistry
from repro.workloads.benchmarks import BENCHMARKS, build_benchmark
from repro.workloads.trace import TraceOp

from tests.conftest import loads, make_config, multitrace, stores
from tests.system.reference_snoop import ReferenceSnoopMachine, snoop_path


def run_with(snoop, config, workload, seed=0, telemetry=False):
    registry = TelemetryRegistry(interval=5_000) if telemetry else None
    with snoop_path(snoop):
        simulator = Simulator(config, seed=seed, telemetry=registry)
    result = simulator.run(workload)
    return simulator, result, registry


def fingerprint(simulator, result, registry):
    """Everything observable about one run, as a comparable value."""
    machine = simulator.machine
    fp = {
        "per_processor_cycles": result.per_processor_cycles,
        "per_processor_stalls": result.per_processor_stalls,
        "per_processor_gaps": result.per_processor_gaps,
        "stats": result.stats,
        "broadcasts": result.broadcasts,
        "l1_hits": result.l1_hits,
        "l2_hits": result.l2_hits,
        "l2_misses": result.l2_misses,
        "demand_latency_mean": result.demand_latency_mean,
        "bus_queue_cycles": result.bus_queue_cycles,
        "rca_allocations": result.rca_allocations,
        "rca_self_invalidations": result.rca_self_invalidations,
        "request_paths": machine.request_paths,
        "path_latency": {
            key: (s.count, s.mean, s.minimum, s.maximum)
            for key, s in machine.path_latency.items()
        },
        # The sharpest probe of the deferred accounting: per-node snoop
        # counters must match the walk's live counts exactly.
        "snoop_probes": [n.l2.snoop_probes for n in machine.nodes],
        "snoop_hits": [n.l2.snoop_hits for n in machine.nodes],
    }
    if registry is not None:
        fp["telemetry"] = registry.to_dict()
    return fp


def assert_equivalent(config, workload, seed=0, telemetry=False):
    """Run both snoop paths and compare everything observable."""
    walk = fingerprint(*run_with("walk", config, workload, seed, telemetry))
    fast = fingerprint(*run_with("bitmask", config, workload, seed, telemetry))
    assert walk == fast


def contended_workload(procs=4, lines=24):
    """Every processor walks the same lines with staggered gaps, so the
    holder sets grow, shrink, and constantly change shape."""
    per_proc = []
    for proc in range(procs):
        addresses = [0x40000 + i * 64 for i in range(lines)]
        per_proc.append(loads(addresses, gap=3 + proc))
    return multitrace(per_proc)


class TestSnoopEquivalence:
    def test_contended_trace(self):
        assert_equivalent(make_config(cgct=True), contended_workload())

    def test_baseline_machine(self):
        assert_equivalent(make_config(cgct=False), contended_workload())

    def test_with_telemetry_aggregates(self):
        assert_equivalent(
            make_config(cgct=True), contended_workload(), telemetry=True
        )
        assert_equivalent(
            make_config(cgct=False), contended_workload(), telemetry=True
        )

    def test_with_timing_perturbation(self):
        # Perturbation draws from the per-run RNG; identical draws in
        # both snoop paths prove the fast path issues the same requests
        # in the same order, not just the same totals.
        config = make_config(cgct=True, perturbation=20)
        for seed in (0, 1, 2):
            assert_equivalent(config, contended_workload(), seed=seed)

    def test_stores_and_dcb_ops_churn_holder_sets(self):
        # Upgrades, DCBZ/DCBF/DCBI and eviction pressure exercise every
        # way a holder bit can be set and cleared mid-run.
        line = 0x40000
        per_proc = [
            [(TraceOp.STORE, line + i * 64, 2) for i in range(16)]
            + [(TraceOp.DCBF, line + i * 64, 1) for i in range(8)],
            [(TraceOp.LOAD, line + i * 64, 3) for i in range(16)]
            + [(TraceOp.DCBZ, line + 0x1000 + i * 64, 1) for i in range(8)],
            [(TraceOp.STORE, line + i * 64, 5) for i in range(16)]
            + [(TraceOp.DCBI, line + i * 64, 2) for i in range(4)],
            [(TraceOp.LOAD, line + 0x1000 + i * 64, 4) for i in range(16)],
        ]
        assert_equivalent(make_config(cgct=True), multitrace(per_proc))
        assert_equivalent(make_config(cgct=False), multitrace(per_proc))

    def test_filtered_machines_are_unaffected_by_the_toggle(self):
        # RegionScout/Jetty machines run the per-peer loop in production
        # too: the reference must be inert there, and results identical.
        for overrides in (
            dict(cgct=False, regionscout_enabled=True),
            dict(cgct=False, jetty_enabled=True),
        ):
            config = make_config(**overrides)
            assert_equivalent(config, contended_workload())

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(
                        [TraceOp.LOAD, TraceOp.STORE, TraceOp.DCBZ]
                    ),
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


#: The six pre-fast-path perf configs: the matrix the issue pins down.
MATRIX_CONFIGS = [
    name for name, processors, _ in PERF_CONFIGS if processors <= 16
]
#: Ops per processor, scaled down with machine size to keep the full
#: 9 workloads × 6 configs × 3 seeds matrix inside a test budget.
MATRIX_OPS = {4: 150, 8: 100, 16: 60}


class TestBenchmarkMatrix:
    """9 workloads × 6 configs × 3 seeds, both snoop paths."""

    @pytest.mark.parametrize("workload", sorted(BENCHMARKS))
    def test_workload_cells(self, workload):
        assert len(MATRIX_CONFIGS) == 6
        for config_name in MATRIX_CONFIGS:
            config = bench_config(config_name)
            procs = config.num_processors
            for seed in (0, 1, 2):
                trace = build_benchmark(
                    workload, num_processors=procs,
                    ops_per_processor=MATRIX_OPS[procs], seed=seed,
                )
                assert_equivalent(config, trace, seed=seed)


class TestSixteenProcessorHolderSets:
    """16 processors: wide holder masks, both paths, telemetry on."""

    TOPOLOGY = Topology(
        cores_per_chip=2, chips_per_switch=2, switches_per_board=2, boards=2
    )

    def workload(self):
        return build_benchmark(
            "ocean", num_processors=16, ops_per_processor=300, seed=0
        )

    def test_bitmask_equals_walk_at_16p(self):
        config = make_config(cgct=True, topology=self.TOPOLOGY)
        assert_equivalent(config, self.workload(), seed=3, telemetry=True)

    def test_warmup_reset_keeps_probe_accounting_exact(self):
        # reset_stats() mid-run (the warm-up path) re-bases the deferred
        # probe accounting; the measured portion must still match.
        config = make_config(cgct=True, topology=self.TOPOLOGY)
        results = {}
        for snoop in ("walk", "bitmask"):
            with snoop_path(snoop):
                sim = Simulator(config, seed=0)
            run = sim.run(self.workload(), warmup_fraction=0.3)
            results[snoop] = (
                run.per_processor_cycles,
                run.stats,
                [n.l2.snoop_probes for n in sim.machine.nodes],
                [n.l2.snoop_hits for n in sim.machine.nodes],
            )
        assert results["walk"] == results["bitmask"]


class TestInlineRegionSnoopEquivalence:
    """Class-mask phase-2 snoops ≡ the per-node region-snoop walk.

    Every CGCT machine runs phase-2 region snoops over the per-region
    class masks, with or without telemetry; ``ReferenceSnoopMachine``
    runs ``node.snoop_region`` on every remote tracker instead. Running
    the same trace both ways, with and without telemetry, therefore
    differentially tests the entire class-mask machinery — mask
    maintenance across allocations, evictions, self-invalidations,
    line-count crossings and external transitions, and the transitions
    it records into ``rca.transitions`` — against the walk.
    """

    @staticmethod
    def _compare(config, workload, seed=0, require_walks=True):
        production = None
        for telemetry in (False, True):
            fast_sim, fast_run, fast_reg = run_with(
                "bitmask", config, workload, seed, telemetry=telemetry
            )
            walk_sim, walk_run, walk_reg = run_with(
                "walk", config, workload, seed, telemetry=telemetry
            )
            # Guard the premise: the reference must actually have walked
            # phase 2 — otherwise this compares production to itself.
            # (A random trace may share no region, hence no phase 2.)
            assert isinstance(walk_sim.machine, ReferenceSnoopMachine)
            assert walk_sim.machine.region_walks > 0 or not require_walks
            assert not isinstance(fast_sim.machine, ReferenceSnoopMachine)
            assert fingerprint(fast_sim, fast_run, fast_reg) == fingerprint(
                walk_sim, walk_run, walk_reg
            )
            if production is None:
                production = fast_sim
        return production

    def test_contended_trace(self):
        self._compare(make_config(cgct=True), contended_workload())

    def test_with_timing_perturbation(self):
        config = make_config(cgct=True, perturbation=16)
        for seed in (0, 1, 2):
            self._compare(config, contended_workload(), seed=seed)

    def test_rca_pressure_exercises_eviction_and_self_invalidation(self):
        # A tiny RCA forces region evictions (fast-path bypass falls
        # back to the two-step conversation) and the line churn drives
        # empty↔non-empty crossings and self-invalidations.
        config = make_config(cgct=True, rca_sets=4, l2_bytes=16 * 1024)
        self._compare(config, contended_workload(procs=4, lines=48))

    def test_batched_self_invalidations(self):
        # Three readers share each line (one region per line), then a
        # late writer invalidates them: phase 1 empties the readers'
        # regions, so phase 2 self-invalidates a multi-processor class
        # group at once — recorded as one batched count, which must
        # equal the walk's per-observer records.
        lines = [0x40000 + i * 512 for i in range(8)]
        per_proc = [stores(lines, gap=4000)] + [
            loads(lines, gap=2 + proc) for proc in range(1, 4)
        ]
        self._compare(make_config(cgct=True), multitrace(per_proc))

    def test_hint_visibility_variants(self):
        # The class-mask path computes exclusivity hints in closed form per
        # (request kind, combined response, visibility); every variant
        # must match the reference hint computation observably.
        for overrides in (
            dict(line_response_visible=False),
            dict(two_bit_response=False),
            dict(line_response_visible=False, two_bit_response=False),
            dict(owner_prediction=True),
        ):
            config = make_config(cgct=True, **overrides)
            self._compare(config, contended_workload())

    def test_benchmark_trace_at_16p(self):
        config = make_config(
            cgct=True,
            topology=TestSixteenProcessorHolderSets.TOPOLOGY,
        )
        trace = build_benchmark(
            "ocean", num_processors=16, ops_per_processor=250, seed=0
        )
        self._compare(config, trace, seed=1)

    def test_benchmark_trace_at_32p(self):
        config = make_config(
            cgct=True,
            topology=Topology(cores_per_chip=2, chips_per_switch=2,
                              switches_per_board=2, boards=4),
        )
        trace = build_benchmark(
            "barnes", num_processors=32, ops_per_processor=150, seed=0
        )
        self._compare(config, trace, seed=2)

    def test_class_masks_audit_against_arrays(self):
        # After a run the maintained per-region class masks must agree
        # exactly with a from-scratch rebuild off the RCA arrays — the
        # eager-maintenance invariant behind the class-mask snoop loop.
        sim = self._compare(
            make_config(cgct=True, rca_sets=8), contended_workload(lines=40)
        )
        machine = sim.machine
        expected_classes = {}
        expected_trackers = {}
        for node in machine.nodes:
            if node.rca is None:
                continue
            node_bit = 1 << node.proc_id
            for entry in node.rca.entries():
                c = (entry.state.index << 1) | (
                    1 if entry.line_count == 0 else 0
                )
                cls = expected_classes.setdefault(entry.region, {})
                cls[c] = cls.get(c, 0) | node_bit
                expected_trackers[entry.region] = (
                    expected_trackers.get(entry.region, 0) | node_bit
                )
        assert machine._region_classes == expected_classes
        assert machine._region_trackers == expected_trackers

    @settings(max_examples=12, deadline=None)
    @given(
        data=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(
                        [TraceOp.LOAD, TraceOp.STORE, TraceOp.DCBZ,
                         TraceOp.DCBF]
                    ),
                    st.integers(min_value=0, max_value=0xFFF).map(
                        lambda a: a * 64
                    ),
                    st.integers(min_value=0, max_value=9),
                ),
                min_size=1,
                max_size=25,
            ),
            min_size=4,
            max_size=4,
        ),
        seed=st.integers(min_value=0, max_value=5),
    )
    def test_randomized_traces(self, data, seed):
        config = make_config(cgct=True, rca_sets=8, perturbation=6)
        self._compare(config, multitrace(data), seed=seed,
                      require_walks=False)
