"""Multiprocessor run loop, warm-up, and RunResult metrics."""

import pytest

from repro.common.errors import SimulationError
from repro.system.machine import Machine
from repro.system.simulator import Simulator, run_workload
from repro.workloads.trace import TraceOp

from tests.conftest import loads, make_config, multitrace, stores


def four_proc_workload(lines_per_proc=20, shared=False):
    """Simple per-processor load streams; optionally all to one region set."""
    per_proc = []
    for proc in range(4):
        base = 0x100000 if shared else 0x100000 * (proc + 1)
        addresses = [base + i * 64 for i in range(lines_per_proc)]
        per_proc.append(loads(addresses, gap=5))
    return multitrace(per_proc)


class TestRunLoop:
    def test_runs_to_completion(self):
        result = run_workload(make_config(cgct=False), four_proc_workload())
        assert result.cycles > 0
        assert len(result.per_processor_cycles) == 4

    def test_processor_count_mismatch_rejected(self):
        workload = multitrace([loads([0x100])])  # one trace, four CPUs
        with pytest.raises(SimulationError):
            run_workload(make_config(cgct=False), workload)

    def test_validation_catches_bad_addresses(self):
        workload = multitrace([loads([1 << 50])] + [loads([0])] * 3)
        with pytest.raises(SimulationError):
            run_workload(make_config(cgct=False), workload)

    def test_events_interleave_by_timestamp(self):
        # All four processors read the same line; the earliest gap wins
        # the cold miss, the rest find it shared (deterministically).
        per_proc = [
            [(TraceOp.LOAD, 0x5000, gap)] for gap in (40, 10, 30, 20)
        ]
        sim = Simulator(make_config(cgct=False))
        sim.run(multitrace(per_proc))
        # Proc 1 (gap 10) filled first and alone was unnecessary.
        assert sim.machine.stats.total_unnecessary == 1
        assert sim.machine.stats.total_broadcasts == 4


class TestOneShot:
    def test_second_run_is_refused(self):
        workload = four_proc_workload()
        simulator = Simulator(make_config(cgct=True))
        first = simulator.run(workload)
        fresh = run_workload(make_config(cgct=True), workload)
        with pytest.raises(SimulationError, match="one-shot"):
            simulator.run(workload)
        # The refused call left the first result alone.
        assert first.stats == fresh.stats
        assert first.l1_hits == fresh.l1_hits

    def test_rejected_workload_does_not_use_up_the_run(self):
        simulator = Simulator(make_config(cgct=False))
        with pytest.raises(SimulationError):
            simulator.run(multitrace([loads([0x100])]))
        assert simulator.run(four_proc_workload()).cycles > 0


class TestSnoopOption:
    @pytest.mark.parametrize("build", [Machine, Simulator])
    def test_bad_snoop_is_a_configuration_error(self, build):
        # There is no snoop option: the config alone picks each snoop
        # phase's path, so any ``snoop=`` is an unexpected keyword.
        for snoop in ("x", "walk", "bitmask"):
            with pytest.raises(TypeError, match="snoop"):
                build(make_config(cgct=True), snoop=snoop)


class TestDegenerateWorkloads:
    """Empty traces must produce a zero result, not a crash.

    Regression tests for the run loop's empty-sequence guards: ``cycles``
    over no per-processor clocks, ``_collect``'s end time, and the warmup
    target of a zero-length trace all reduce over empty sequences.
    """

    def test_empty_traces_complete_with_zero_cycles(self):
        workload = multitrace([[], [], [], []])
        result = run_workload(make_config(cgct=True), workload)
        assert result.cycles == 0
        assert result.stats.total_external == 0
        assert result.per_processor_cycles == [0, 0, 0, 0]

    def test_empty_traces_with_warmup_and_telemetry(self):
        from repro.telemetry.registry import TelemetryRegistry

        workload = multitrace([[], [], [], []])
        result = run_workload(
            make_config(cgct=False), workload, warmup_fraction=0.5,
            telemetry=TelemetryRegistry(),
        )
        assert result.cycles == 0

    def test_cycles_of_zero_processor_result_is_zero(self):
        from dataclasses import replace

        workload = four_proc_workload(lines_per_proc=2)
        result = run_workload(make_config(cgct=False), workload)
        empty = replace(
            result, per_processor_cycles=[], per_processor_stalls=[],
            per_processor_gaps=[],
        )
        assert empty.cycles == 0


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        workload = four_proc_workload()
        config = make_config(cgct=True, perturbation=20)
        a = run_workload(config, workload, seed=5)
        b = run_workload(config, workload, seed=5)
        assert a.per_processor_cycles == b.per_processor_cycles
        assert a.broadcasts == b.broadcasts

    def test_different_seeds_perturb_timing(self):
        workload = four_proc_workload()
        config = make_config(cgct=True, perturbation=20)
        a = run_workload(config, workload, seed=1)
        b = run_workload(config, workload, seed=2)
        assert a.per_processor_cycles != b.per_processor_cycles


class TestWarmup:
    def test_warmup_excludes_cold_misses_from_stats(self):
        workload = multitrace([
            loads([0x1000 + i * 64 for i in range(10)] * 2, gap=2)
            for _ in range(4)
        ])
        cold = run_workload(make_config(cgct=False), workload)
        warmed = run_workload(
            make_config(cgct=False), workload, warmup_fraction=0.5
        )
        # Second half replays the same lines: everything hits.
        assert warmed.stats.total_external == 0
        assert cold.stats.total_external > 0
        assert warmed.cycles < cold.cycles

    def test_bad_warmup_fraction_rejected(self):
        with pytest.raises(SimulationError):
            run_workload(
                make_config(cgct=False), four_proc_workload(),
                warmup_fraction=1.0,
            )


class TestRunResultMetrics:
    def test_fraction_bounds(self):
        result = run_workload(make_config(cgct=True), four_proc_workload())
        assert 0.0 <= result.fraction_avoided() <= 1.0
        assert 0.0 <= result.fraction_unnecessary() <= 1.0

    def test_category_fraction_validates_kind(self):
        from repro.system.machine import OracleCategory

        result = run_workload(make_config(cgct=False), four_proc_workload())
        with pytest.raises(ValueError):
            result.category_fraction(OracleCategory.DATA, of="bogus")

    def test_speedup_and_reduction_consistent(self):
        workload = four_proc_workload()
        base = run_workload(make_config(cgct=False), workload)
        cgct = run_workload(make_config(cgct=True), workload)
        speedup = cgct.speedup_over(base)
        reduction = cgct.runtime_reduction_over(base)
        assert speedup == pytest.approx(1.0 / (1.0 - reduction))

    def test_rca_stats_present_only_with_cgct(self):
        workload = four_proc_workload()
        base = run_workload(make_config(cgct=False), workload)
        cgct = run_workload(make_config(cgct=True), workload)
        assert base.rca_mean_line_count is None
        assert cgct.rca_mean_line_count is not None

    def test_private_streams_mostly_avoided_by_cgct(self):
        workload = four_proc_workload(lines_per_proc=64)
        result = run_workload(make_config(cgct=True), workload)
        # 64 lines = 8 regions per proc: 8 broadcasts, 56 directs each.
        assert result.fraction_avoided() == pytest.approx(56 / 64)
