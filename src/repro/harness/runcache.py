"""The results of a sweep's cells, shared by the experiments it renders.

The figure experiments overlap heavily — Figures 7, 8 and 10 all need
the same baselines, and Figure 9 reuses Figure 8's 512 B runs. A
:class:`RunCache` is a read-only mapping from
:class:`~repro.harness.parallel.ExperimentTask` — the cell identity the
parallel runner and the on-disk result cache use too, so every field
of the configuration tells two runs apart — to its ``RunResult``.

Only :meth:`RunCache.warm` fills it: it runs a task list through the
:class:`~repro.harness.parallel.ParallelRunner`, which loads each cell
from the optional :class:`~repro.harness.cache.DiskCache` (keyed by
the full content address, including the code version) or simulates and
stores it, so repeated invocations only execute changed cells. An
experiment's ``render`` takes the warmed cache as its results; looking
up a cell that no warm-up ran raises :class:`KeyError`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional

from repro.harness.cache import DiskCache, code_version
from repro.harness.parallel import ExperimentTask, ParallelRunner
from repro.harness.supervisor import preload_numpy
from repro.system.simulator import RunResult


class RunCache(Mapping[ExperimentTask, RunResult]):
    """Completed runs by cell, optionally backed by disk.

    ``telemetry_interval`` (simulated cycles) instruments every
    simulation :meth:`warm` executes with its own
    :class:`~repro.telemetry.registry.TelemetryRegistry`, which
    :meth:`warm` returns for the caller to merge and export. Cache hits
    — in-memory or disk — skip the simulator and therefore capture no
    telemetry, so telemetry-gathering invocations should bypass the disk
    store (``--no-cache``).

    ``check_invariants`` ("" | "sampled" | "deep") audits every
    simulation :meth:`warm` executes with the runtime coherence
    sanitizer in that mode. Cache hits were audited (or not) when they
    were first computed; results are bit-identical either way, so
    sanitized and unsanitized runs share cache entries.
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

    def warm(self, tasks: Iterable[ExperimentTask],
             **runner_options) -> List["TelemetryRegistry"]:
        """Run the *tasks* this cache lacks up-front and keep the results.

        They go through a :class:`~repro.harness.parallel.ParallelRunner`
        (in this process at ``workers <= 1``) over this cache's disk
        store, audited in its ``check_invariants`` mode unless
        *runner_options* name another for this call, and instrumented at
        its ``telemetry_interval``; the other *runner_options*
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
        runner_options.setdefault("check_invariants", self.check_invariants)
        runner = ParallelRunner(cache=disk,
                                telemetry_interval=self.telemetry_interval,
                                **runner_options)
        for task, result in zip(tasks, runner.run(tasks)):
            if result is not None:
                self._runs[task] = result
        return runner.registries

    def __getitem__(self, task: ExperimentTask) -> RunResult:
        return self._runs[task]

    def __iter__(self) -> Iterator[ExperimentTask]:
        return iter(self._runs)

    def __len__(self) -> int:
        return len(self._runs)
