"""Campaign specs: a declarative, durable description of a cell grid.

The queue stores a campaign's *spec* (a small JSON object), not its
tasks: cells are re-derived deterministically from the spec on every
load, so corrupt ``cell`` records are repairable and the WAL never has
to serialise a :class:`~repro.system.config.SystemConfig`. Two kinds:

``{"kind": "experiments", "experiments": ["fig8", ...], "ops": N,
"seeds": S, "warmup": F, "benchmarks": [...] | null, "quick": bool}``
    The paper-figure grids, exactly as ``python -m repro.harness``
    enumerates them (:func:`repro.harness.parallel.experiment_tasks`).

``{"kind": "matrix", "benchmarks": [...], "configs": ["4p-cgct", ...],
"ops": N, "seeds": S, "warmup": F}``
    A benchmark × named-machine-point × seed cross-product over the
    perf-suite configurations (:func:`repro.harness.perfbench
    .bench_config`) — the design-space-engine shape.

Campaign identity is content-addressed: :func:`campaign_id_for` digests
the ordered cell cache keys, so the same spec (and code version)
resubmitted anywhere resolves to the same campaign.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.harness.parallel import ExperimentTask
from repro.harness.perfbench import result_fingerprint
from repro.harness.supervisor import sweep_fingerprint


def campaign_cells(spec: dict) -> List["ExperimentTask"]:
    """The ordered, de-duplicated cell list a spec describes."""
    kind = spec.get("kind", "experiments")
    if kind == "experiments":
        return _experiment_cells(spec)
    if kind == "matrix":
        return _matrix_cells(spec)
    raise ConfigurationError(
        f"unknown campaign spec kind {kind!r} (expected 'experiments' "
        f"or 'matrix')"
    )


def _experiment_cells(spec: dict) -> List[ExperimentTask]:
    from repro.harness.experiments import EXPERIMENTS, RunOptions
    from repro.harness.parallel import experiment_tasks

    options = RunOptions(
        ops_per_processor=int(spec.get("ops", 60_000)),
        seeds=int(spec.get("seeds", 2)),
        warmup_fraction=float(spec.get("warmup", 0.4)),
    )
    benchmarks = spec.get("benchmarks")
    if benchmarks:
        options = RunOptions(
            ops_per_processor=options.ops_per_processor,
            seeds=options.seeds,
            warmup_fraction=options.warmup_fraction,
            benchmarks=tuple(benchmarks),
        )
    if spec.get("quick"):
        options = options.quick()
    wanted = list(spec.get("experiments") or [])
    if "all" in wanted:
        wanted = list(EXPERIMENTS)
    unknown = [e for e in wanted if e not in EXPERIMENTS]
    if unknown:
        raise ConfigurationError(
            f"unknown experiment ids in campaign spec: {unknown}"
        )
    return experiment_tasks(wanted, options)


def _matrix_cells(spec: dict) -> List[ExperimentTask]:
    from repro.harness.perfbench import bench_config

    benchmarks = list(spec.get("benchmarks") or [])
    config_names = list(spec.get("configs") or [])
    if not benchmarks or not config_names:
        raise ConfigurationError(
            "a matrix campaign needs non-empty 'benchmarks' and 'configs'"
        )
    ops = int(spec.get("ops", 12_000))
    seeds = int(spec.get("seeds", 1))
    warmup = float(spec.get("warmup", 0.4))
    tasks = [
        ExperimentTask(
            benchmark, bench_config(name), ops, seed=seed,
            warmup_fraction=warmup,
        )
        for benchmark in benchmarks
        for name in config_names
        for seed in range(seeds)
    ]
    return list(dict.fromkeys(tasks))


def campaign_keys(spec: dict,
                  version: Optional[str] = None) -> List[str]:
    """Ordered cache keys — the cells' durable identities."""
    return [task.cache_key(version) for task in campaign_cells(spec)]


def campaign_id_for(spec: dict, version: Optional[str] = None) -> str:
    """Content-addressed campaign id for *spec* (``c-`` + 12 hex)."""
    return "c-" + sweep_fingerprint(campaign_keys(spec, version))[:12]


def campaign_result_fingerprint(
    keys: Sequence[str], results: Sequence,
) -> str:
    """Digest of every cell's result fingerprint, in cell order.

    Two campaign executions — interrupted or not, any fleet/worker
    schedule — must produce the same digest; this is the kill-and-
    resume determinism check's single number.
    """
    payload = [
        {"index": i, "key": key,
         "fingerprint": result_fingerprint(result) if result is not None
         else None}
        for i, (key, result) in enumerate(zip(keys, results))
    ]
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]
