"""Configuration sweeps."""

import pytest

from repro.harness import runcache
from repro.harness.runcache import RunCache
from repro.harness.sweep import ConfigSweep, _replace_path
from repro.system.config import SystemConfig


class TestReplacePath:
    def test_top_level_field(self):
        config = _replace_path(SystemConfig.paper_cgct(), "rca_sets", 4096)
        assert config.rca_sets == 4096

    def test_nested_field(self):
        config = _replace_path(
            SystemConfig.paper_cgct(), "geometry.region_bytes", 256)
        assert config.geometry.region_bytes == 256
        assert config.cgct_enabled  # rest untouched

    def test_unknown_field_rejected(self):
        with pytest.raises(KeyError):
            _replace_path(SystemConfig(), "bogus_field", 1)


class TestGrid:
    def test_cartesian_product(self):
        sweep = ConfigSweep(
            base=SystemConfig.paper_cgct(),
            axes={"geometry.region_bytes": [256, 512],
                  "rca_sets": [4096, 8192]},
        )
        grid = sweep.grid()
        assert len(grid) == 4
        assert {"geometry.region_bytes": 256, "rca_sets": 8192} in grid

    def test_config_for_applies_all_axes(self):
        sweep = ConfigSweep(
            base=SystemConfig.paper_cgct(),
            axes={"geometry.region_bytes": [256],
                  "timing.store_stall_fraction": [0.5]},
        )
        config = sweep.config_for(sweep.grid()[0])
        assert config.geometry.region_bytes == 256
        assert config.timing.store_stall_fraction == 0.5

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            ConfigSweep(SystemConfig(), axes={})


class TestRun:
    def test_records_have_axes_workload_and_metrics(self):
        sweep = ConfigSweep(
            base=SystemConfig.paper_cgct(),
            axes={"geometry.region_bytes": [512, 1024]},
        )
        records = sweep.run(["barnes"], ops_per_processor=2000)
        assert len(records) == 2
        for record in records:
            assert record["workload"] == "barnes"
            assert "runtime_reduction" in record
            assert "fraction_avoided" in record
            assert record["geometry.region_bytes"] in (512, 1024)

    def test_custom_metric(self):
        sweep = ConfigSweep(
            base=SystemConfig.paper_cgct(),
            axes={"geometry.region_bytes": [512]},
            metrics={"broadcasts": lambda b, r: r.stats.total_broadcasts},
        )
        records = sweep.run(["barnes"], ops_per_processor=2000)
        assert records[0]["broadcasts"] > 0
        assert "runtime_reduction" not in records[0]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_points_differing_only_outside_a_hand_written_key(self,
                                                              workers):
        """Regression: the in-memory cache once keyed runs by a list of
        23 configuration fields that left out ``prefetch_streams``, so
        both points of this sweep reported one point's cycles."""
        sweep = ConfigSweep(
            base=SystemConfig.paper_cgct(),
            axes={"prefetch_streams": [1, 8]},
        )
        serial = sweep.run(["tpc-b"], ops_per_processor=1_500)
        records = sweep.run(["tpc-b"], ops_per_processor=1_500,
                            workers=workers)
        assert records == serial
        assert records[0]["cycles"] != records[1]["cycles"]

    def test_sanitizer_mode_is_the_sweeps_own(self, monkeypatch):
        """``check_invariants`` audits this sweep's cells and leaves the
        caller's cache as it was, so later warm-ups on it are plain."""
        modes = []

        class Runner(runcache.ParallelRunner):
            def __init__(self, **options):
                modes.append(options["check_invariants"])
                super().__init__(**options)

        monkeypatch.setattr(runcache, "ParallelRunner", Runner)
        sweep = ConfigSweep(base=SystemConfig.paper_cgct(),
                            axes={"geometry.region_bytes": [512]})
        cache = RunCache()
        sweep.run(["barnes"], ops_per_processor=300, cache=cache,
                  check_invariants="sampled")
        assert cache.check_invariants == ""
        sweep.run(["barnes"], ops_per_processor=400, cache=cache)
        assert modes == ["sampled", ""]

    def test_best(self):
        records = [
            {"x": 1, "runtime_reduction": 0.05},
            {"x": 2, "runtime_reduction": 0.09},
        ]
        assert ConfigSweep.best(records)["x"] == 2

    def test_best_empty_rejected(self):
        with pytest.raises(ValueError):
            ConfigSweep.best([])
