"""Unit-level checks on the beyond-the-paper experiment helpers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.extensions import (
    _ablation_configs,
    _extension_configs,
    _topology_for,
)
from repro.harness.experiments import RunOptions, run_experiment
from repro.harness.parallel import ExperimentTask
from repro.harness.runcache import RunCache

ROOT = Path(__file__).resolve().parents[2]


class TestAblationConfigs:
    def test_variants_are_distinct_runs(self):
        keys = {label: ExperimentTask("barnes", cfg, 1_000)
                for label, cfg in _ablation_configs().items()}
        assert len(set(keys.values())) == len(keys), (
            "two ablation variants share a cache key — their results "
            "would silently alias"
        )

    def test_full_config_is_the_paper_system(self):
        full = _ablation_configs()["CGCT (full)"]
        assert full.cgct_enabled
        assert full.geometry.region_bytes == 512
        assert full.self_invalidation
        assert full.two_bit_response

    def test_regionscout_variant_has_no_rca(self):
        scout = _ablation_configs()["RegionScout"]
        assert not scout.cgct_enabled
        assert scout.regionscout_enabled


class TestTopologies:
    def test_known_sizes(self):
        assert _topology_for(4).num_processors == 4
        assert _topology_for(8).num_processors == 8
        assert _topology_for(16).num_processors == 16

    def test_sixteen_spans_two_boards(self):
        topo = _topology_for(16)
        assert topo.boards == 2
        assert topo.num_memory_controllers == 8

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError):
            _topology_for(6)


class TestExperimentPlumbing:
    QUICK = RunOptions(ops_per_processor=2_000, seeds=1,
                       benchmarks=("barnes",))

    def test_energy_rows_per_workload_and_config(self):
        result = run_experiment("energy", self.QUICK, RunCache())
        assert len(result.rows) == 4  # one workload × four configs
        labels = {row[1] for row in result.rows}
        assert "baseline" in labels
        assert "baseline + Jetty" in labels

    def test_sectored_reports_tag_savings_direction(self):
        result = run_experiment("sectored", self.QUICK, RunCache())
        assert result.rows
        # Conventional tag count is 16384 for the 1 MB / 2-way cache.
        assert result.rows[0][2] == 16384


class TestExtensionConfigs:
    def test_labels_cover_each_feature_and_their_combination(self):
        labels = list(_extension_configs())
        assert labels[0] == "CGCT (as evaluated)"
        assert "+ all three" in labels
        assert len(labels) == 5

    def test_variants_are_distinct_runs(self):
        keys = {label: ExperimentTask("barnes", cfg, 1_000)
                for label, cfg in _extension_configs().items()}
        assert len(set(keys.values())) == len(keys)

    def test_all_three_enables_every_section6_feature(self):
        combo = _extension_configs()["+ all three"]
        assert combo.prefetch_region_filter
        assert combo.dram_speculation_filter
        assert combo.region_state_prefetch


class TestWorkloadFallback:
    """Benchmark lists that miss every ABLATION_WORKLOAD fall back to
    the first two requested benchmarks instead of producing empty rows."""

    FALLBACK = RunOptions(ops_per_processor=1_000, seeds=1,
                          benchmarks=("ocean", "specjbb2000"))

    def test_ablations_use_requested_benchmarks(self):
        result = run_experiment("ablations", self.FALLBACK, RunCache())
        assert result.headers[1:] == ["ocean", "specjbb2000"]
        assert all(len(row) == 3 for row in result.rows)

    def test_extensions_use_requested_benchmarks(self):
        result = run_experiment("extensions", self.FALLBACK, RunCache())
        assert result.headers[1:] == ["ocean", "specjbb2000"]
        assert len(result.rows) == 5


class TestScalingThroughCache:
    def test_scaling_rows_and_memoisation(self):
        options = RunOptions(ops_per_processor=1_000, seeds=1,
                             benchmarks=("barnes",))
        cache = RunCache()
        result = run_experiment("scaling", options, cache)
        assert [row[0] for row in result.rows] == [4, 8, 16]
        # Every scaling cell went through the shared cache: 3 machine
        # sizes × (baseline + CGCT).
        runs_after_first = len(cache)
        assert runs_after_first == 6
        # A second invocation replays entirely from cache.
        again = run_experiment("scaling", options, cache)
        assert len(cache) == runs_after_first
        assert again.rows == result.rows


@pytest.mark.parametrize("first", ["repro.harness.extensions",
                                   "repro.harness.experiments"])
def test_registry_is_complete_whichever_module_is_imported_first(first):
    # extensions does not import experiments at run time, so the import
    # graph has no cycle; a fresh interpreter is the only place the
    # import order is not already settled by earlier tests.
    script = (
        f"import {first}\n"
        "from repro.harness.experiments import EXPERIMENTS\n"
        "print(' '.join(EXPERIMENTS))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    fresh = subprocess.run([sys.executable, "-c", script], env=env,
                           capture_output=True, text=True, check=True)
    assert fresh.stdout.split() == [
        "table1", "table2", "table3", "table4", "fig2", "fig6", "fig7",
        "fig8", "fig9", "fig10", "sec32", "ablations", "extensions",
        "scaling", "energy", "sectored"]
