"""The read-only mapping of a sweep's results, shared across experiments."""

from dataclasses import replace

import pytest

from repro.harness.parallel import ExperimentTask
from repro.harness.runcache import RunCache
from repro.system.config import SystemConfig


def test_config_key_distinguishes_what_matters():
    """RunCache keys runs by their ExperimentTask: every configuration
    field tells two cells apart, and equal configurations share one."""
    def task(config):
        return ExperimentTask("barnes", config, 400)

    base = SystemConfig.paper_baseline()
    cgct = SystemConfig.paper_cgct(512)
    assert task(base) != task(cgct)
    assert task(SystemConfig.paper_cgct(256)) != task(cgct)
    assert task(SystemConfig.paper_cgct(512, rca_sets=4096)) != task(cgct)
    # Fields a hand-written key once left out.
    assert task(cgct) != task(replace(cgct, prefetch_streams=1))
    assert task(cgct) != task(replace(cgct, interleave_bytes=1024))
    assert task(base) == task(SystemConfig.paper_baseline())
    assert hash(task(base)) == hash(task(SystemConfig.paper_baseline()))


def test_run_cache_reuses_results():
    cache = RunCache()
    task = ExperimentTask("barnes", SystemConfig.paper_baseline(), 400,
                          warmup_fraction=0.0)
    cache.warm([task, task])
    a = cache[task]
    # A second warm of a cell the cache holds runs nothing.
    assert cache.warm([task]) == []
    assert cache[task] is a
    assert len(cache) == 1
    assert list(cache) == [task]


def test_run_cache_distinguishes_seeds_and_configs():
    cache = RunCache()
    base = SystemConfig.paper_baseline()
    cache.warm([
        ExperimentTask("barnes", base, 400, seed=0, warmup_fraction=0.0),
        ExperimentTask("barnes", base, 400, seed=1, warmup_fraction=0.0),
        ExperimentTask("barnes", SystemConfig.paper_cgct(512), 400, seed=0,
                       warmup_fraction=0.0),
    ])
    assert len(cache) == 3


def test_lookup_of_an_unwarmed_cell_raises_instead_of_simulating():
    cache = RunCache()
    task = ExperimentTask("barnes", SystemConfig.paper_baseline(), 400)
    with pytest.raises(KeyError):
        cache[task]
    assert task not in cache
    assert len(cache) == 0


def test_empty_cache_is_not_discarded_by_run_experiment():
    """Regression: an empty RunCache is falsy (len == 0); run_experiment
    must not replace it with a throwaway via ``cache or RunCache()``."""
    from repro.harness.experiments import RunOptions, run_experiment

    cache = RunCache()
    options = RunOptions(ops_per_processor=1500, seeds=1,
                         benchmarks=("barnes",))
    run_experiment("fig2", options, cache)
    assert len(cache) > 0
