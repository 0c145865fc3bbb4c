"""Memoised simulation runs.

The figure experiments overlap heavily — Figures 7, 8 and 10 all need
the same baselines, and Figure 9 reuses Figure 8's 512 B runs. A
:class:`RunCache` memoises runs by their
:class:`~repro.harness.parallel.ExperimentTask`, the cell identity the
parallel runner and the on-disk result cache use too, so every field
of the configuration tells two runs apart.

A miss goes through :func:`~repro.harness.parallel.load_or_simulate`,
the executor a sweep's workers use: a disk-backed cache loads the
result from its :class:`~repro.harness.cache.DiskCache` (keyed by the
full content address, including the code version), or simulates and
stores it — so repeated invocations only execute changed cells.
:meth:`RunCache.warm` runs a whole task list up-front through the
:class:`~repro.harness.parallel.ParallelRunner`, keeps the results and
hands back the telemetry registries of the cells it simulated.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.harness.cache import DiskCache, code_version
from repro.harness.parallel import (
    ExperimentTask,
    ParallelRunner,
    _recent_workload,
    load_or_simulate,
)
from repro.harness.supervisor import preload_numpy
from repro.system.config import SystemConfig
from repro.system.simulator import RunResult
from repro.workloads.trace import MultiTrace


class RunCache:
    """Caches completed runs, optionally backed by disk.

    ``telemetry_interval`` (simulated cycles) instruments every
    simulation :meth:`warm` executes with its own
    :class:`~repro.telemetry.registry.TelemetryRegistry`, which
    :meth:`warm` returns for the caller to merge and export. Cache hits
    — in-memory or disk — skip the simulator and therefore capture no
    telemetry, so telemetry-gathering invocations should bypass the disk
    store (``--no-cache``); :meth:`run` never records telemetry.

    ``check_invariants`` ("" | "sampled" | "deep") audits every
    simulation this cache executes — itself or through :meth:`warm` —
    with the runtime coherence sanitizer in that mode. Cache hits were
    audited (or not) when they were first computed; results are
    bit-identical either way, so sanitized and unsanitized runs share
    cache entries.
    """

    def __init__(
        self,
        disk: Optional[DiskCache] = None,
        check_invariants: str = "",
        telemetry_interval: Optional[int] = None,
    ) -> None:
        self._runs: Dict[ExperimentTask, RunResult] = {}
        self.disk = disk
        self.check_invariants = check_invariants
        self.telemetry_interval = telemetry_interval

    def trace(
        self, benchmark: str, ops_per_processor: int, seed: int = 0,
        num_processors: int = 4,
    ) -> MultiTrace:
        """Generate (or reuse) a benchmark trace."""
        return _recent_workload(benchmark, num_processors, seed,
                                ops_per_processor)

    def run(
        self,
        benchmark: str,
        config: SystemConfig,
        ops_per_processor: int,
        seed: int = 0,
        warmup_fraction: float = 0.4,
        trace_seed: Optional[int] = None,
    ) -> RunResult:
        """Run (or reuse) one simulation.

        ``seed`` perturbs the machine's timing; ``trace_seed`` (defaults
        to 0 so all seeds replay the *same* trace, as the paper's
        perturbation methodology does) selects the generated trace.
        """
        task = ExperimentTask(
            benchmark, config, ops_per_processor, seed=seed,
            trace_seed=0 if trace_seed is None else trace_seed,
            warmup_fraction=warmup_fraction,
        )
        result = self._runs.get(task)
        if result is None:
            result, _, _ = load_or_simulate(
                task, self.disk, check_invariants=self.check_invariants)
            self._runs[task] = result
        return result

    def warm(self, tasks: Iterable[ExperimentTask],
             **runner_options) -> List["TelemetryRegistry"]:
        """Run the *tasks* this cache lacks up-front and keep the results.

        They go through a :class:`~repro.harness.parallel.ParallelRunner`
        (in this process at ``workers <= 1``) over this cache's disk
        store, audited in its ``check_invariants`` mode and instrumented
        at its ``telemetry_interval``; the other *runner_options*
        (``workers``, ``runlog``, ``checkpoint``, ...) go to the runner
        unchanged. Returns the telemetry registries of the cells that
        simulated, in task order (none without an interval).
        """
        tasks = [t for t in dict.fromkeys(tasks) if t not in self._runs]
        if not tasks:
            return []
        disk = self.disk
        if disk is None or not disk.enabled or not all(
                disk.contains(t.cache_key(code_version())) for t in tasks):
            # Some cell will simulate. Loading numpy here, before the
            # runner's sweep starts, keeps its import out of the sweep's
            # timed region; a fully warm sweep never loads it.
            preload_numpy()
        runner = ParallelRunner(cache=self.disk,
                                check_invariants=self.check_invariants,
                                telemetry_interval=self.telemetry_interval,
                                **runner_options)
        for task, result in zip(tasks, runner.run(tasks)):
            if result is not None:
                self._runs[task] = result
        return runner.registries

    def clear(self) -> None:
        """Drop every in-memory entry (the disk store is untouched)."""
        self._runs.clear()

    def __len__(self) -> int:
        return len(self._runs)
