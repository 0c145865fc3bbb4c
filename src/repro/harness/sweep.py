"""Generic configuration sweeps.

The figure experiments hard-code the paper's parameter grids; this
module is the open-ended version for design-space exploration: give it a
base configuration, the axes to vary (any ``SystemConfig`` field, with
dotted paths into nested configs), the workloads, and a set of metrics,
and it returns one tidy record per grid point.

Example::

    sweep = ConfigSweep(
        base=SystemConfig.paper_cgct(),
        axes={"geometry.region_bytes": [256, 512, 1024],
              "rca_sets": [4096, 8192]},
    )
    records = sweep.run(["barnes", "tpc-w"], ops_per_processor=20_000)
    # records[0] == {"geometry.region_bytes": 256, "rca_sets": 4096,
    #                "workload": "barnes", "runtime_reduction": ...}
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Dict, Iterable, List, Mapping, Sequence

from repro.harness.parallel import ExperimentTask
from repro.harness.runcache import RunCache
from repro.system.config import SystemConfig
from repro.system.simulator import RunResult


def _replace_path(config, path: str, value):
    """Return a copy of *config* with dotted-path *path* set to *value*."""
    head, _, rest = path.partition(".")
    if not hasattr(config, head):
        raise KeyError(f"no field {head!r} on {type(config).__name__}")
    if rest:
        inner = _replace_path(getattr(config, head), rest, value)
        return dataclasses.replace(config, **{head: inner})
    return dataclasses.replace(config, **{head: value})


#: Metric name → extractor over (baseline RunResult, candidate RunResult).
DEFAULT_METRICS: Dict[str, Callable[[RunResult, RunResult], float]] = {
    "runtime_reduction": lambda base, run: run.runtime_reduction_over(base),
    "fraction_avoided": lambda base, run: run.fraction_avoided(),
    "traffic_per_window": lambda base, run: run.broadcasts_per_window(),
    "cycles": lambda base, run: float(run.cycles),
}


class ConfigSweep:
    """Cartesian sweep over configuration axes.

    Parameters
    ----------
    base:
        Starting configuration; every grid point is a
        ``dataclasses.replace`` of it.
    axes:
        Dotted field path → values. Paths may reach into nested frozen
        dataclasses (``"geometry.region_bytes"``,
        ``"timing.store_stall_fraction"``).
    baseline:
        Configuration the relative metrics compare against; defaults to
        the paper baseline.
    metrics:
        Metric name → ``f(baseline_result, result)``; defaults to
        :data:`DEFAULT_METRICS`.
    """

    def __init__(
        self,
        base: SystemConfig,
        axes: Mapping[str, Sequence],
        baseline: SystemConfig = None,
        metrics: Mapping[str, Callable] = None,
    ) -> None:
        if not axes:
            raise ValueError("a sweep needs at least one axis")
        self.base = base
        self.axes = dict(axes)
        self.baseline = baseline or SystemConfig.paper_baseline()
        self.metrics = dict(metrics or DEFAULT_METRICS)

    # ------------------------------------------------------------------
    def grid(self) -> List[Dict]:
        """All grid points as {path: value} dictionaries."""
        names = list(self.axes)
        points = []
        for combo in itertools.product(*(self.axes[n] for n in names)):
            points.append(dict(zip(names, combo)))
        return points

    def config_for(self, point: Mapping) -> SystemConfig:
        """The configuration at one grid point."""
        config = self.base
        for path, value in point.items():
            config = _replace_path(config, path, value)
        return config

    # ------------------------------------------------------------------
    def run(
        self,
        workloads: Iterable[str],
        ops_per_processor: int = 20_000,
        warmup_fraction: float = 0.4,
        seed: int = 0,
        cache: RunCache = None,
        workers: int = 0,
        runlog=None,
        task_timeout=None,
        checkpoint=None,
        check_invariants: str = "",
        workload_cache=None,
    ) -> List[Dict]:
        """Run the full grid × workload matrix; returns tidy records.

        ``workers > 1`` executes the grid across that many worker
        processes, and any other count runs it in this process, both
        through :meth:`RunCache.warm` (bit-identical records, see
        :mod:`repro.harness.parallel`); ``runlog`` appends per-cell
        observability records either way. A disk-backed *cache* makes
        repeated sweeps only execute changed cells. The telemetry
        registries of a *cache* with a ``telemetry_interval`` are not
        kept: :meth:`RunCache.warm` returns them to its caller.

        The fault-tolerance knobs mirror
        :class:`~repro.harness.parallel.ParallelRunner`:
        ``task_timeout`` bounds each cell's wall clock, ``checkpoint``
        (a :class:`~repro.harness.supervisor.SweepCheckpoint`) makes
        the sweep resumable, and ``check_invariants`` ("sampled" or
        "deep") audits every cell this sweep simulates with the
        coherence sanitizer, unless *cache* has a mode of its own; the
        *cache* itself is left as it was. Records are bit-identical
        either way.
        ``workload_cache`` (a
        :class:`~repro.workloads.store.WorkloadStore`) reuses
        generated traces across the grid's repeated (workload,
        processor-count) pairs and across invocations; when omitted,
        the process-wide active store (``$REPRO_WORKLOAD_CACHE`` or
        the CLI's ``--workload-cache``) applies.
        """
        if workload_cache is not None:
            from repro.workloads.store import set_workload_store

            set_workload_store(workload_cache)
        cache = cache if cache is not None else RunCache()
        workloads = list(workloads)
        configs = [self.baseline] + [self.config_for(p) for p in self.grid()]

        def cell(name: str, config: SystemConfig) -> ExperimentTask:
            return ExperimentTask(name, config, ops_per_processor, seed=seed,
                                  warmup_fraction=warmup_fraction)

        cache.warm(
            (cell(name, config) for name in workloads for config in configs),
            workers=workers, runlog=runlog, task_timeout=task_timeout,
            checkpoint=checkpoint, workload_cache=workload_cache,
            check_invariants=cache.check_invariants or check_invariants,
        )
        records: List[Dict] = []
        for name in workloads:
            base_run = cache[cell(name, self.baseline)]
            for point, config in zip(self.grid(), configs[1:]):
                record = dict(point)
                record["workload"] = name
                run = cache[cell(name, config)]
                for metric, extract in self.metrics.items():
                    record[metric] = extract(base_run, run)
                records.append(record)
        return records

    @staticmethod
    def best(records: List[Dict], metric: str = "runtime_reduction") -> Dict:
        """The record maximising *metric*."""
        if not records:
            raise ValueError("no records to choose from")
        return max(records, key=lambda r: r[metric])
