"""Tests of the benchmark's own code (not of the program).

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import child  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
import hostspeed  # noqa: E402
from hostspeed import REFERENCE_KERNEL_S  # noqa: E402


def sim_spec(tmp_path, seed, ops=1_500, processors=4, benchmark="tpc-b",
             trace=False):
    return {"mode": "sim", "benchmark": benchmark, "processors": processors,
            "ops": ops, "seed": seed, "store": str(tmp_path / f"s{seed}"),
            "seconds": 0, "records_seconds": None, "at_least": 1,
            "work": str(tmp_path),
            "rate": 4, "trace": trace, "t0": time.time(),
            "kernel_s": REFERENCE_KERNEL_S}


def drive(spec, tracer=None):
    out = {}
    child.run_sim(spec, out, tracer)
    return out


class TestPerfCrossCheck:
    """The benchmark replays the same program as ``perf``: it
    reproduces the fingerprints committed in ``BENCH_core.json``."""

    @pytest.mark.parametrize("name", ["4p-baseline", "4p-cgct"])
    def test_bench_core_fingerprint(self, name):
        from repro.system.simulator import Simulator
        from repro.workloads.benchmarks import build_benchmark

        committed = json.loads((ROOT / "BENCH_core.json").read_text())
        suite = committed["suite"]
        assert (suite["workload"], suite["ops_per_processor"], suite["seed"],
                suite["warmup_fraction"]) == ("barnes", 12_000, 0, 0.0)
        baseline, cgct = child.machine_configs()
        config = cgct if name.endswith("cgct") else baseline
        trace = build_benchmark("barnes", num_processors=4, seed=0,
                                ops_per_processor=12_000)
        record = child.replay(Simulator(config, seed=0), trace, warmup=0.0)
        assert record["error"] is None
        expected = committed["configs"][name]["fingerprint"]
        assert record["fingerprint"] == expected

    def test_machines_match_perf_configs(self):
        from repro.harness.perfbench import bench_config

        assert child.machine_configs() == (bench_config("4p-baseline"),
                                           bench_config("4p-cgct"))


class TestSeeds:
    def test_same_seed_same_fingerprints(self, tmp_path):
        first = drive(sim_spec(tmp_path, seed=3))
        again = drive(sim_spec(tmp_path / "again", seed=3))
        assert [r["fingerprint"] for r in first["runs"]] == \
            [r["fingerprint"] for r in again["runs"]]
        assert all(r["error"] is None for r in first["runs"] + again["runs"])

    def test_other_seed_other_fingerprints(self, tmp_path):
        first = drive(sim_spec(tmp_path, seed=3))
        other = drive(sim_spec(tmp_path, seed=4))
        for a, b in zip(first["runs"], other["runs"]):
            assert a["fingerprint"] != b["fingerprint"]

    def test_sweep_size_follows_seed(self):
        assert run.sweep_ops(5) == run.sweep_ops(5 + 64)
        assert len({run.sweep_ops(s) for s in range(64)}) == 64
        assert all(2_300 < run.sweep_ops(s) <= 2_500 for s in range(64))


class TestSpans:
    def make(self):
        tracer = Tracer("test")

        class Layer:
            def outer(self):
                time.sleep(0.002)
                self.inner()
                self.inner()

            def inner(self):
                time.sleep(0.001)

        tracer.span(Layer, "outer", "outer")
        tracer.span(Layer, "inner", "inner")
        return tracer, Layer()

    def test_self_times_sum_to_root(self):
        tracer, layer = self.make()
        start = time.perf_counter()
        layer.outer()
        wall = time.perf_counter() - start
        layers = tracer.layer_times()
        assert layers["inner"]["calls"] == 2
        assert layers["outer"]["self_s"] == pytest.approx(
            layers["outer"]["total_s"] - layers["inner"]["total_s"])
        total_self = sum(cell["self_s"] for cell in layers.values())
        assert total_self == pytest.approx(tracer.subtree_self_sum(0))
        assert abs(total_self - wall) <= run.RECONCILE_TOLERANCE * wall

    def test_merge_rebases_worker_spans(self):
        tracer, layer = self.make()
        layer.outer()                      # spans 0..2 of the coordinator
        worker, other = self.make()
        other.outer()                      # recorded before the fork ...
        worker._stack.append(0)            # ... with span 0 still open
        first = len(worker)
        other.outer()                      # the worker's own spans
        shipped = worker.export(first, {})
        tracer.merge(shipped)
        assert len(tracer) == 6
        assert list(tracer.parents[3:]) == [-1, 3, 3]
        assert set(tracer.procs[3:]) == {shipped["pid"]}
        with pytest.raises(StopIteration):
            tracer.find("outer", 3)        # not a span of this process

    def test_traced_replay_reconciles(self, tmp_path):
        out = run_child(tmp_path, sim_spec(tmp_path, seed=1, trace=True))
        assert [r["mode"] for r in out["runs"]] == ["baseline", "cgct"]
        for record in out["runs"]:
            wall = record["wall_s"]
            assert abs(record["span_self_s"] - wall) <= \
                run.RECONCILE_TOLERANCE * wall
        layers = out["layers"]
        assert layers["system.run"]["calls"] == 2
        assert 0 < layers["system.miss"]["total_s"] < \
            layers["system.run"]["total_s"]
        assert out["trace_counts"]["cache.l2.lookup_calls"] > 0
        spans = (tmp_path / "spans.jsonl").read_text().splitlines()
        header = json.loads(spans[0])
        assert len(spans) - 1 == sum(c["calls"] for c in layers.values())
        assert {json.loads(line)["run_id"] for line in spans} == \
            {header["run_id"]}


class TestHostSpeed:
    def test_each_unit_scaled_by_the_kernels_around_it(self):
        times = iter([0.02, 0.04, 0.01])
        speed = hostspeed.HostSpeed(lambda: next(times))
        assert speed.scale() == pytest.approx(REFERENCE_KERNEL_S / 0.03)
        assert speed.scale() == pytest.approx(REFERENCE_KERNEL_S / 0.025)

    def test_on_cpus_restores_affinity(self):
        before = os.sched_getaffinity(0)
        with hostspeed.on_cpus({min(before)}):
            assert os.sched_getaffinity(0) == {min(before)}
        assert os.sched_getaffinity(0) == before

    def test_child_kernels_are_timed_by_the_parent(self, tmp_path):
        out = run_child(tmp_path, sim_spec(tmp_path, seed=1))
        scales = [out["setup_scale"]] + [r["scale"] for r in out["runs"]]
        assert all(0 < scale < 100 for scale in scales)
        assert len(set(scales)) == len(scales)


def run_child(tmp_path, spec):
    """``child.py`` on *spec* in a fresh interpreter, as ``run.py`` runs
    it; returns what it wrote."""
    spec = dict(spec, out=str(tmp_path / "out.json"), run_id="test",
                spans_path=str(tmp_path / "spans.jsonl"))
    return run.run_child(spec, tmp_path / "spec.json", tmp_path / "log",
                         dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         os.sched_getaffinity(0))


class TestPerLayerMetrics:
    def test_every_per_layer_metric_is_produced(self):
        produced = set(run.span_metrics({}, {})) | set(
            run.traces_metrics({}, {}))
        produced |= {"common.import_s", "trace.overhead_frac",
                     "trace.reconcile_error_frac"}
        assert produced == {name for name, _ in run.PER_LAYER}

    def test_harness_metrics_read_zero_without_a_sweep(self):
        metrics = run.span_metrics({}, {})
        assert metrics["harness.cache_hits"] == 0.0
        assert metrics["harness.cell_s.p50"] == 0.0


class TestOutputChecks:
    def test_figures_text_drops_only_status_lines(self):
        stdout = ("== fig8: Run-time reduction ==\n  ocean | +6.3%\n"
                  "[fig8 finished in 12.3s]\n[results written to a.json]\n")
        assert run.figures_text(stdout) == \
            "== fig8: Run-time reduction ==\n  ocean | +6.3%"

    def test_figure_metrics(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps([
            {"experiment_id": "fig7",
             "headers": ["Benchmark", "Avoided 256B", "Avoided 512B"],
             "rows": [["a", "1.0%", "50.0%"], ["b", "1.0%", "70.0%"]]},
            {"experiment_id": "fig8",
             "headers": ["Benchmark", "256B regions", "512B regions"],
             "rows": [["a", "+1.0% ±0.0%", "+2.0% ±0.0%"],
                      ["AVERAGE", "+1.0%", "+4.5%"]]},
        ]))
        metrics = run.figure_metrics(path)
        assert metrics["sim_speedup"] == pytest.approx(1 / (1 - 0.045))
        assert metrics["broadcasts_avoided_frac"] == pytest.approx(0.6)
