"""On-disk result cache: keys, round-trips, invalidation, resilience."""

import pickle

import pytest

from repro.harness.cache import (
    DiskCache,
    cache_key,
    code_version,
    config_fingerprint,
)
from repro.harness.parallel import ExperimentTask
from repro.harness.runcache import RunCache
from repro.harness.runlog import RunLog, read_runlog
from repro.system.config import SystemConfig


@pytest.fixture(scope="module")
def small_result():
    return ExperimentTask("barnes", SystemConfig.paper_baseline(), 300,
                          warmup_fraction=0.0).execute()


def _key(**overrides):
    params = dict(config=SystemConfig.paper_baseline(), benchmark="barnes",
                  ops_per_processor=300, seed=0, trace_seed=0,
                  warmup_fraction=0.0, version="pinned")
    params.update(overrides)
    return cache_key(**params)


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def test_key_is_stable_and_content_addressed():
    assert _key() == _key()
    assert len(_key()) == 64


def test_key_distinguishes_every_input():
    base = _key()
    assert _key(config=SystemConfig.paper_cgct(512)) != base
    assert _key(benchmark="ocean") != base
    assert _key(ops_per_processor=400) != base
    assert _key(seed=1) != base
    assert _key(trace_seed=1) != base
    assert _key(warmup_fraction=0.4) != base


def test_code_version_change_invalidates():
    assert _key(version="aaaa") != _key(version="bbbb")


def test_code_version_is_memoised_and_stable():
    assert code_version() == code_version()
    assert len(code_version()) == 16
    int(code_version(), 16)  # hex


def test_config_fingerprint_covers_nested_fields():
    base = SystemConfig.paper_cgct(512)
    assert config_fingerprint(base) == config_fingerprint(
        SystemConfig.paper_cgct(512))
    assert config_fingerprint(base) != config_fingerprint(
        SystemConfig.paper_cgct(1024))


# ----------------------------------------------------------------------
# Store behaviour
# ----------------------------------------------------------------------
def test_round_trip_preserves_every_field(tmp_path, small_result):
    disk = DiskCache(tmp_path)
    disk.store(_key(), small_result)
    loaded = disk.load(_key())
    assert loaded == small_result
    assert disk.hits == 1


def test_miss_returns_none_and_counts(tmp_path):
    disk = DiskCache(tmp_path)
    assert disk.load(_key()) is None
    assert disk.misses == 1
    assert not disk.contains(_key())


def test_metadata_sidecar_written(tmp_path, small_result):
    disk = DiskCache(tmp_path)
    disk.store(_key(), small_result, metadata={"benchmark": "barnes"})
    sidecars = list(tmp_path.rglob("*.json"))
    assert len(sidecars) == 1
    assert "barnes" in sidecars[0].read_text()


def test_corrupt_entry_treated_as_miss_and_dropped(tmp_path, small_result):
    disk = DiskCache(tmp_path)
    key = _key()
    disk.store(key, small_result)
    path = disk._path(key)
    path.write_bytes(path.read_bytes()[:20])  # truncate mid-pickle
    assert disk.load(key) is None
    assert not path.exists()


def test_unpicklable_garbage_treated_as_miss(tmp_path):
    disk = DiskCache(tmp_path)
    key = _key()
    path = disk._path(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(b"not a pickle at all")
    assert disk.load(key) is None


def test_invalidate_and_clear(tmp_path, small_result):
    disk = DiskCache(tmp_path)
    disk.store(_key(), small_result, metadata={})
    disk.store(_key(seed=1), small_result)
    assert len(disk) == 2
    assert disk.invalidate(_key()) is True
    assert disk.invalidate(_key()) is False
    assert len(disk) == 1
    assert disk.clear() == 1
    assert len(disk) == 0


def test_disabled_cache_is_a_noop(tmp_path, small_result):
    disk = DiskCache(tmp_path, enabled=False)
    disk.store(_key(), small_result)
    assert disk.load(_key()) is None
    assert len(disk) == 0
    assert not any(tmp_path.iterdir())


def test_atomic_store_leaves_no_temp_files(tmp_path, small_result):
    disk = DiskCache(tmp_path)
    for seed in range(3):
        disk.store(_key(seed=seed), small_result)
    assert not list(tmp_path.rglob("*.tmp"))


# ----------------------------------------------------------------------
# RunCache integration
# ----------------------------------------------------------------------
def test_disk_backed_runcache_replays_across_instances(tmp_path):
    task = ExperimentTask("barnes", SystemConfig.paper_baseline(), 300,
                          warmup_fraction=0.0)
    first = RunCache(disk=DiskCache(tmp_path / "store"))
    first.warm([task])
    # A fresh process-equivalent: new memory cache, same disk store.
    second = RunCache(disk=DiskCache(tmp_path / "store"))
    with RunLog(tmp_path / "run.jsonl") as runlog:
        second.warm([task], runlog=runlog)
    assert first[task] == second[task]
    runs = [r for r in read_runlog(tmp_path / "run.jsonl")
            if r["event"] == "run"]
    assert [r["cache"] for r in runs] == ["hit"]


def test_disk_backed_runcache_stores_new_runs(tmp_path):
    task = ExperimentTask("barnes", SystemConfig.paper_baseline(), 300,
                          warmup_fraction=0.0)
    cache = RunCache(disk=DiskCache(tmp_path / "store"))
    cache.warm([task])
    assert len(cache.disk) == 1
    # In-memory hit: the disk is not consulted twice.
    with RunLog(tmp_path / "run.jsonl") as runlog:
        cache.warm([task], runlog=runlog)
    assert read_runlog(tmp_path / "run.jsonl") == []


def test_results_pickle_roundtrip_equality(small_result):
    clone = pickle.loads(pickle.dumps(small_result))
    assert clone == small_result
    assert clone.cycles == small_result.cycles
