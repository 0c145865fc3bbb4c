"""Tracer overhead guard: observation must stay cheap.

The cost contract (see docs/tracing.md) is one ``is None`` check per
hook site when no tracer is attached — measured against the pre-hook
code at ≤1.05x, recorded in docs/tracing.md — and bounded bookkeeping
when one is (sampled capture within 1.5x). The disabled case cannot be
re-measured here (the hook-free code no longer exists in the tree), so
these guards cover the enabled modes. Like the telemetry guard next
door, they compare best-of-three wall times, plain and traced runs
interleaved, with a generous multiplier plus an absolute slack so timer
noise on loaded CI machines cannot flake them.
"""

from repro.obs.simtrace import SimTracer
from repro.system.config import SystemConfig
from repro.system.simulator import run_workload
from repro.workloads.benchmarks import build_benchmark
from tests.conftest import interleaved_best_of


def _setup():
    config = SystemConfig.paper_cgct()
    workload = build_benchmark(
        "barnes", num_processors=config.num_processors,
        ops_per_processor=4000, seed=0,
    )
    return config, workload


def test_sampled_tracer_overhead_within_guard():
    config, workload = _setup()

    def plain():
        run_workload(config, workload, seed=0, warmup_fraction=0.4)

    def sampled():
        run_workload(config, workload, seed=0, warmup_fraction=0.4,
                     tracer=SimTracer(sample=16))

    plain()
    off, on = interleaved_best_of(3, plain, sampled)
    assert on <= off * 1.5 + 0.05, (
        f"sampled tracing overhead too high: {on:.3f}s vs {off:.3f}s "
        f"({on / off:.2f}x)"
    )


def test_ring_capture_is_bounded_and_within_guard():
    config, workload = _setup()

    def plain():
        run_workload(config, workload, seed=0, warmup_fraction=0.4)

    tracers = []

    def flight():
        tracer = SimTracer(ring=64)
        tracers.append(tracer)
        run_workload(config, workload, seed=0, warmup_fraction=0.4,
                     tracer=tracer)

    plain()
    off, on = interleaved_best_of(3, plain, flight)
    # The flight recorder is default-on in the sanitizer, so its cost
    # matters even though it captures everything: the ring bounds memory,
    # not work. Hold it to the same guard as full telemetry.
    assert on <= off * 1.5 + 0.05, (
        f"flight-recorder overhead too high: {on:.3f}s vs {off:.3f}s "
        f"({on / off:.2f}x)"
    )
    assert all(len(t.transactions) == 64 for t in tracers)
