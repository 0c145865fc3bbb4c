"""Experiment harness: regenerate every table and figure of the paper.

* :mod:`repro.harness.runcache` — the results of a sweep's cells,
  shared between the experiments it renders (Figures 7–10 reuse the
  same baselines).
* :mod:`repro.harness.cache` — on-disk, content-addressed result store
  (configuration + workload + code version), so repeated invocations
  only execute changed cells.
* :mod:`repro.harness.parallel` — supervised process-pool experiment
  runner (heartbeats, timeouts, taxonomy-routed retries, checkpoint /
  resume); bit-identical to serial execution.
* :mod:`repro.harness.supervisor` — the fault-isolating pool itself,
  plus :class:`RetryPolicy`, :class:`CircuitBreaker` and
  :class:`SweepCheckpoint` (see ``docs/robustness.md``).
* :mod:`repro.harness.runlog` — JSON-lines per-run observability
  (wall time, cache hit/miss, worker, peak RSS, failures).
* :mod:`repro.harness.render` — :class:`ExperimentResult` and
  plain-text table/bar rendering.
* :mod:`repro.harness.experiments` — one ``cells`` grid plus one
  ``render`` per paper artifact, registered by ID (``fig2`` …
  ``fig10``, ``table1`` … ``table4``, ``sec32``, then the
  beyond-the-paper ones of :mod:`repro.harness.extensions`).
* ``python -m repro.harness <experiment-id>`` — command-line entry.
"""

import importlib
from typing import Any, List

#: Public name -> the submodule that defines it. Names load on first
#: access (PEP 562), so importing one submodule — the ``traces`` tools
#: import ``repro.harness.runlog`` — does not load the experiments,
#: the process pool and :mod:`multiprocessing` along with it.
_EXPORTS = {
    "DiskCache": "cache",
    "cache_key": "cache",
    "code_version": "cache",
    "EXPERIMENTS": "experiments",
    "Experiment": "experiments",
    "ExperimentResult": "render",
    "RunOptions": "experiments",
    "experiment_tasks": "experiments",
    "run_experiment": "experiments",
    "result_to_dict": "export",
    "result_to_markdown": "export",
    "save_results_json": "export",
    "save_results_markdown": "export",
    "ExperimentTask": "parallel",
    "ParallelRunner": "parallel",
    "replicated_tasks": "parallel",
    "render_table": "render",
    "CircuitBreaker": "supervisor",
    "RetryPolicy": "supervisor",
    "SupervisedPool": "supervisor",
    "SweepCheckpoint": "supervisor",
    "RunCache": "runcache",
    "RunLog": "runlog",
    "read_runlog": "runlog",
    "summarize": "runlog",
}


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = sorted(_EXPORTS)
