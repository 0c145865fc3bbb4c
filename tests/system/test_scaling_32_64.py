"""32- and 64-processor scaling machines: determinism and bookkeeping.

The fast snoop path is what makes these machine sizes routine, so this
suite pins down exactly the properties that could silently rot at
scale: serial and parallel sweeps must agree bit for bit, interrupted
sweeps must resume to identical results, the walk and bitmask snoop
paths must still agree where holder masks are widest, and the holder /
tracker bitmasks must survive eviction, self-invalidation and DCB churn
under the deep (exhaustive) coherence audit.
"""

from functools import partial

import pytest

from repro.common.errors import WorkerCrash
from repro.harness.cache import DiskCache
from repro.harness.parallel import (
    ExperimentTask,
    ParallelRunner,
    execute_envelope,
)
from repro.harness.perfbench import PERF_CONFIGS, bench_config
from repro.harness.supervisor import SweepCheckpoint
from repro.system.simulator import Simulator
from repro.validate.sanitizer import CoherenceSanitizer
from repro.workloads.benchmarks import build_benchmark
from repro.workloads.trace import TraceOp

from tests.conftest import make_config, multitrace
from tests.system.reference_snoop import snoop_path


def scaling_tasks(processors, ops, seeds=(0, 1)):
    """Baseline + CGCT cells at one machine size."""
    return [
        ExperimentTask("barnes", bench_config(f"{processors}p-{mode}"),
                       ops, seed=seed)
        for mode in ("baseline", "cgct")
        for seed in seeds
    ]


def test_perf_configs_cover_32_and_64():
    names = [name for name, _, _ in PERF_CONFIGS]
    for expected in ("32p-baseline", "32p-cgct", "64p-baseline", "64p-cgct"):
        assert expected in names
    assert bench_config("32p-cgct").num_processors == 32
    assert bench_config("64p-cgct").num_processors == 64


class TestSerialParallelDeterminism:
    def test_serial_equals_parallel_at_32p(self):
        tasks = scaling_tasks(32, ops=120)
        serial = ParallelRunner(workers=0).run(tasks)
        fanned = ParallelRunner(workers=2).run(tasks)
        assert serial == fanned

    def test_serial_equals_parallel_at_64p(self):
        tasks = scaling_tasks(64, ops=80, seeds=(0,))
        serial = ParallelRunner(workers=0).run(tasks)
        fanned = ParallelRunner(workers=2).run(tasks)
        assert serial == fanned


def _crashy_execute(envelope, marker, fail_times):
    """Raise WorkerCrash for tasks 2+ until the marker counts out."""
    from pathlib import Path

    if envelope.index >= 2:
        path = Path(marker)
        seen = len(path.read_text()) if path.exists() else 0
        if seen < fail_times:
            path.write_text("x" * (seen + 1))
            raise WorkerCrash("injected transient infrastructure fault")
    return execute_envelope(envelope)


class TestCheckpointResume:
    def test_interrupted_32p_sweep_resumes_bit_identically(self, tmp_path):
        tasks = scaling_tasks(32, ops=100, seeds=(0,))
        tasks += scaling_tasks(32, ops=100, seeds=(1,))
        expected = ParallelRunner(workers=0).run(tasks)
        disk = DiskCache(tmp_path / "cache")
        checkpoint_path = tmp_path / "sweep.ckpt"

        # First attempt: tasks 2+ fail until the retry budget runs out,
        # so the sweep checkpoints with only half the grid done.
        execute = partial(_crashy_execute,
                          marker=str(tmp_path / "marker"), fail_times=4)
        first = ParallelRunner(workers=0, cache=disk, retries=1,
                               strict=False,
                               checkpoint=SweepCheckpoint(checkpoint_path),
                               execute=execute)
        partial_results = first.run(tasks)
        assert partial_results[:2] == expected[:2]
        assert partial_results[2:] == [None, None]

        # Resume: completed 32p cells replay from the checkpoint +
        # cache; the rest simulate now — and every field matches the
        # undisturbed sweep.
        second = ParallelRunner(workers=0, cache=disk,
                                checkpoint=SweepCheckpoint(checkpoint_path),
                                execute=execute)
        assert second.run(tasks) == expected


class TestSnoopPathsAtScale:
    @pytest.mark.parametrize("config_name", ["32p-baseline", "32p-cgct"])
    def test_walk_equals_bitmask_at_32p(self, config_name):
        config = bench_config(config_name)
        trace = build_benchmark(
            "ocean", num_processors=32, ops_per_processor=60, seed=0
        )
        results = {}
        for snoop in ("walk", "bitmask"):
            with snoop_path(snoop):
                sim = Simulator(config, seed=0)
            run = sim.run(trace)
            results[snoop] = (
                run.per_processor_cycles, run.stats, run.broadcasts,
                run.l1_hits, run.l2_hits, run.demand_latency_mean,
                [n.l2.snoop_probes for n in sim.machine.nodes],
                [n.l2.snoop_hits for n in sim.machine.nodes],
            )
        assert results["walk"] == results["bitmask"]

    def test_repeat_runs_identical_at_64p(self):
        config = bench_config("64p-cgct")
        trace = build_benchmark(
            "barnes", num_processors=64, ops_per_processor=60, seed=0
        )
        a = Simulator(config, seed=0).run(trace)
        b = Simulator(config, seed=0).run(trace)
        assert a.per_processor_cycles == b.per_processor_cycles
        assert a.stats == b.stats
        assert a.broadcasts == b.broadcasts


class TestHolderBitmaskConsistency:
    """The fast path's central invariant: the machine's line-holder and
    region-tracker bitmasks agree with actual cache/RCA contents."""

    def churn_workload(self, procs=4):
        """Stores, DCB ops and capacity pressure on shared lines: every
        way a holder bit can be set or cleared, repeatedly."""
        base = 0x40000
        per_proc = []
        for proc in range(procs):
            records = []
            for rep in range(3):
                records += [
                    (TraceOp.STORE, base + i * 64, 2) for i in range(24)
                ]
                records += [
                    (TraceOp.LOAD, base + 0x2000 * proc + i * 64, 1)
                    for i in range(24)
                ]
                records += [
                    (TraceOp.DCBZ, base + 0x8000 + proc * 0x1000 + i * 64, 1)
                    for i in range(8)
                ]
                records += [(TraceOp.DCBF, base + i * 64, 1) for i in range(6)]
                records += [(TraceOp.DCBI, base + i * 64, 2) for i in range(4)]
            per_proc.append(records)
        return multitrace(per_proc)

    def test_deep_audit_every_step_through_churn(self):
        # Tiny caches + RCA force evictions, inclusion-driven region
        # evictions and self-invalidations; the deep sanitizer audits
        # the bitmasks against full cache state after every access.
        config = make_config(cgct=True, l2_bytes=8 * 1024, rca_sets=8)
        sanitizer = CoherenceSanitizer(mode="deep", every=1)
        sim = Simulator(config, seed=0, sanitizer=sanitizer)
        sim.run(self.churn_workload())
        sim.machine.check_coherence_invariants()

    def test_deep_audit_baseline_machine(self):
        config = make_config(cgct=False, l2_bytes=8 * 1024)
        sanitizer = CoherenceSanitizer(mode="deep", every=1)
        sim = Simulator(config, seed=0, sanitizer=sanitizer)
        sim.run(self.churn_workload())
        sim.machine.check_coherence_invariants()

    def test_deep_audit_32p_smoke(self):
        config = bench_config("32p-cgct")
        sanitizer = CoherenceSanitizer(mode="deep", every=400)
        sim = Simulator(config, seed=0, sanitizer=sanitizer)
        sim.run(build_benchmark(
            "barnes", num_processors=32, ops_per_processor=60, seed=0
        ))
        sim.machine.check_coherence_invariants()
