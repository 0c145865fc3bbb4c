"""Telemetry overhead guard: instrumentation must stay cheap.

The cost contract (see docs/telemetry.md) is one ``is None`` check per
instrumented site when telemetry is off, and bounded bookkeeping when it
is on. This guard compares best-of-three wall times, plain and
instrumented runs interleaved, and fails if the instrumented run exceeds
1.5x the plain run plus a small absolute slack that absorbs timer noise
on loaded CI machines.
"""

from repro.system.config import SystemConfig
from repro.system.simulator import run_workload
from repro.telemetry.registry import TelemetryRegistry
from repro.workloads.benchmarks import build_benchmark
from tests.conftest import interleaved_best_of


def test_telemetry_overhead_within_guard():
    config = SystemConfig.paper_cgct()
    workload = build_benchmark(
        "barnes", num_processors=config.num_processors,
        ops_per_processor=4000, seed=0,
    )

    def plain():
        run_workload(config, workload, seed=0, warmup_fraction=0.4)

    def instrumented():
        run_workload(
            config, workload, seed=0, warmup_fraction=0.4,
            telemetry=TelemetryRegistry(interval=50_000),
        )

    plain()  # warm code paths and trace caches before timing
    off, on = interleaved_best_of(3, plain, instrumented)
    assert on <= off * 1.5 + 0.05, (
        f"telemetry overhead too high: {on:.3f}s vs {off:.3f}s "
        f"({on / off:.2f}x)"
    )


def test_disabled_registry_overhead_is_negligible():
    config = SystemConfig.paper_cgct()
    workload = build_benchmark(
        "barnes", num_processors=config.num_processors,
        ops_per_processor=4000, seed=0,
    )

    def plain():
        run_workload(config, workload, seed=0, warmup_fraction=0.4)

    def disabled():
        run_workload(
            config, workload, seed=0, warmup_fraction=0.4,
            telemetry=TelemetryRegistry(enabled=False),
        )

    plain()
    off, on = interleaved_best_of(3, plain, disabled)
    # A disabled registry hands out no-op singletons; allow the same
    # guard (the attach itself costs nothing measurable).
    assert on <= off * 1.5 + 0.05
