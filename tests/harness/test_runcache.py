"""Run memoisation shared across experiments."""

from dataclasses import replace

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


def test_trace_cache_reuses_objects():
    cache = RunCache()
    a = cache.trace("barnes", 500)
    b = cache.trace("barnes", 500)
    assert a is b
    assert cache.trace("barnes", 600) is not a


def test_run_cache_reuses_results():
    cache = RunCache()
    config = SystemConfig.paper_baseline()
    a = cache.run("barnes", config, ops_per_processor=400, warmup_fraction=0.0)
    b = cache.run("barnes", config, ops_per_processor=400, warmup_fraction=0.0)
    assert a is b
    assert len(cache) == 1


def test_run_cache_distinguishes_seeds_and_configs():
    cache = RunCache()
    base = SystemConfig.paper_baseline()
    cache.run("barnes", base, 400, seed=0, warmup_fraction=0.0)
    cache.run("barnes", base, 400, seed=1, warmup_fraction=0.0)
    cache.run("barnes", SystemConfig.paper_cgct(512), 400, seed=0,
              warmup_fraction=0.0)
    assert len(cache) == 3


def test_clear():
    cache = RunCache()
    cache.run("barnes", SystemConfig.paper_baseline(), 400,
              warmup_fraction=0.0)
    cache.clear()
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
