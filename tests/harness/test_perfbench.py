"""Fingerprint corpus: configs, cells, the committed file, and --check.

The corpus pins simulated behaviour, never host speed. These tests
cover config construction, the cell and row shapes, the full run
record, the comparison that ``perf --check`` reports, its exit codes,
and byte-for-byte reproducibility of the written file. Command tests
shrink the suite (``small_corpus``) so a generation takes well under a
second; the committed file's own cells are checked in
``test_bench_core_fingerprints.py``.
"""

import copy
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError
from repro.harness import perfbench
from repro.harness.perfbench import (
    CORPUS,
    CORPUS_CONFIGS,
    PERF_CONFIGS,
    SCHEMA,
    SUITE,
    bench_config,
    cell_name,
    check_against,
    corpus_cell,
    corpus_cells,
    corpus_config,
    corpus_trace,
    digest,
    dumps,
    generate,
    load_measurement,
    perf_command,
    render,
    result_fingerprint,
    run_record,
    scaling_row,
)
from repro.system.simulator import RunResult, Simulator
from repro.workloads.benchmarks import BENCHMARKS

ROOT = Path(__file__).resolve().parents[2]
BENCH_CORE = ROOT / "BENCH_core.json"

#: The shrunken suite of ``small_corpus``: applied in-process by the
#: fixture and in a fresh interpreter by the byte-identity test.
SMALL_CORPUS = """
from repro.harness import perfbench
perfbench.SUITE["ops_per_processor"] = 200
perfbench.CORPUS["ops_per_processor"] = 200
perfbench.PERF_CONFIGS = perfbench.PERF_CONFIGS[:1]
perfbench.corpus_cells = lambda: [("tpc-b", "cgct-512", 0),
                                  ("tpc-b", "jetty", 1)]
"""

SMALL_CELLS = ["tpc-b/cgct-512/seed0", "tpc-b/jetty/seed1"]


def shrink(monkeypatch):
    monkeypatch.setitem(perfbench.SUITE, "ops_per_processor", 200)
    monkeypatch.setitem(perfbench.CORPUS, "ops_per_processor", 200)
    monkeypatch.setattr(perfbench, "PERF_CONFIGS", PERF_CONFIGS[:1])
    monkeypatch.setattr(perfbench, "corpus_cells", lambda: [
        ("tpc-b", "cgct-512", 0), ("tpc-b", "jetty", 1)])


@pytest.fixture
def small_corpus(monkeypatch):
    shrink(monkeypatch)


@pytest.fixture(scope="module")
def small_text():
    """The small corpus's file text, generated once."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        shrink(monkeypatch)
        return dumps(generate())


@pytest.fixture
def small_file(small_corpus, small_text, tmp_path):
    """A small corpus file to check against: (path, payload)."""
    path = tmp_path / "BENCH_core.json"
    path.write_text(small_text)
    return path, json.loads(small_text)


def rewrite(path, payload):
    path.write_text(dumps(payload))
    return str(path)


class TestConfigs:
    def test_canonical_points_cover_4_through_64(self):
        assert [(p, c) for _, p, c in PERF_CONFIGS] == [
            (4, False), (4, True), (8, False), (8, True),
            (16, False), (16, True), (32, False), (32, True),
            (64, False), (64, True),
        ]

    @pytest.mark.parametrize("name,processors,cgct", PERF_CONFIGS)
    def test_bench_config_matches_its_point(self, name, processors, cgct):
        config = bench_config(name)
        assert config.num_processors == processors
        assert config.cgct_enabled == cgct

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError):
            bench_config("2p-baseline")


#: What each corpus machine must be: its CGCT region size (None for a
#: broadcast baseline) and the fields that differ from that paper machine.
EXPECTED_CORPUS = {
    "baseline": (None, {}),
    "cgct-512": (512, {}),
    "cgct-256": (256, {}),
    "no-self-invalidation": (512, {"self_invalidation": False}),
    "one-bit-response": (512, {"two_bit_response": False}),
    "line-response-hidden": (512, {"line_response_visible": False}),
    "owner-prediction": (512, {"owner_prediction": True}),
    "region-state-prefetch": (512, {"region_state_prefetch": True}),
    "section6-filters": (512, {"prefetch_region_filter": True,
                               "dram_speculation_filter": True,
                               "region_state_prefetch": True}),
    "regionscout": (None, {"regionscout_enabled": True}),
    "jetty": (None, {"jetty_enabled": True}),
    "rca-64-sets": (512, {"rca_sets": 64}),
}


class TestCorpusConfigs:
    def test_twelve_corpus_configs_in_order(self):
        assert [name for name, _, _ in CORPUS_CONFIGS] == \
            list(EXPECTED_CORPUS)

    @pytest.mark.parametrize("name", list(EXPECTED_CORPUS))
    def test_corpus_config_differs_from_its_paper_machine(self, name):
        from repro.system.config import SystemConfig

        region_bytes, overrides = EXPECTED_CORPUS[name]
        base = (SystemConfig.paper_baseline() if region_bytes is None
                else SystemConfig.paper_cgct(region_bytes))
        config = corpus_config(name)
        assert config.num_processors == CORPUS["processors"] == 4
        assert config.cgct_enabled == (region_bytes is not None)
        changed = {
            f.name: getattr(config, f.name)
            for f in dataclasses.fields(config)
            if getattr(config, f.name) != getattr(base, f.name)
        }
        assert changed == overrides

    def test_unknown_corpus_config_rejected(self):
        with pytest.raises(ValueError):
            corpus_config("cgct-1024")

    def test_corpus_has_216_cells(self):
        cells = corpus_cells()
        assert len(cells) == len(set(cells)) == 9 * 12 * 2 == 216
        assert {b for b, _, _ in cells} == set(BENCHMARKS)
        assert {s for _, _, s in cells} == {0, 1}


class TestMeasurement:
    def test_cell_shape_and_fingerprint_determinism(self, small_corpus):
        a = corpus_cell("tpc-b", "cgct-512", 1)
        b = corpus_cell("tpc-b", "cgct-512", 1)
        assert set(a) == {"fingerprint", "digest", "telemetry_digest"}
        assert set(a["fingerprint"]) == {
            "cycles", "external_requests", "broadcasts", "l1_hits",
            "l2_hits"}
        assert a["fingerprint"]["cycles"] > 0
        assert len(a["digest"]) == len(a["telemetry_digest"]) == 64
        assert a == b

    def test_run_suite_payload(self, small_corpus):
        payload = generate()
        assert payload["schema"] == SCHEMA == "bench-core/v2"
        assert payload["suite"] == SUITE
        assert list(payload["configs"]) == ["4p-baseline"]
        assert list(payload["corpus"]["cells"]) == SMALL_CELLS
        assert {k: v for k, v in payload["corpus"].items()
                if k != "cells"} == CORPUS
        # Host time lives in bench/ now: nothing host-dependent here.
        text = dumps(payload)
        for gone in ("host", "generated", "reference", "speedup",
                     "wall_s", "ops_per_host_second", "repeats"):
            assert f'"{gone}"' not in text

    def test_run_suite_rejects_unknown_config(self):
        with pytest.raises(ValueError):
            corpus_cell("barnes", "nope", 0)
        with pytest.raises(ValueError):
            scaling_row("2p-baseline")


def run_small(config_name="cgct-512", seed=0, telemetry=None):
    config = corpus_config(config_name)
    simulator = Simulator(config, seed=seed, telemetry=telemetry)
    result = simulator.run(corpus_trace("tpc-b", 4, 200),
                           warmup_fraction=0.4)
    return simulator, result


class TestRunRecord:
    def test_record_covers_every_run_result_field(self):
        record = run_record(*run_small())
        fields = {f.name for f in dataclasses.fields(RunResult)}
        assert fields <= set(record)
        assert set(record) - fields == {
            "request_paths", "path_latency", "snoop_probes", "snoop_hits"}
        assert len(record["snoop_probes"]) == 4

    def test_record_is_canonical_json(self):
        record = run_record(*run_small())
        assert json.loads(json.dumps(record)) == record
        assert digest(record) == digest(json.loads(json.dumps(record)))

    def test_record_separates_seeds(self):
        assert digest(run_record(*run_small(seed=0))) != \
            digest(run_record(*run_small(seed=1)))

    def test_one_result_fingerprint(self):
        from repro.service import cells

        assert cells.result_fingerprint is result_fingerprint
        _, result = run_small()
        assert result_fingerprint(result)["cycles"] == result.cycles


def fake_payload(cycles=123, cell_digest="ab" * 32):
    return {
        "schema": SCHEMA,
        "suite": dict(SUITE),
        "configs": {
            "4p-cgct": {
                "processors": 4, "mode": "cgct", "simulated_ops": 48000,
                "fingerprint": {"cycles": cycles, "broadcasts": 7},
            },
        },
        "corpus": {
            **CORPUS,
            "cells": {
                "barnes/cgct-512/seed0": {
                    "fingerprint": {"cycles": 9},
                    "digest": cell_digest,
                    "telemetry_digest": "cd" * 32,
                },
            },
        },
    }


class TestCheckAgainst:
    def test_identical_measurement_passes(self):
        payload = fake_payload()
        assert check_against(payload, copy.deepcopy(payload)) == []

    def test_fingerprint_mismatch_fails_even_when_fast(self):
        # No speed is compared any more: a differing row fingerprint
        # fails on its own.
        failures = check_against(fake_payload(cycles=999), fake_payload())
        assert len(failures) == 1
        assert "row 4p-cgct: differs" in failures[0]
        assert "999" in failures[0]

    def test_configs_missing_from_baseline_are_skipped(self):
        """A generated row the committed file lacks is a failure: the
        comparison skips it and reports it once, as missing."""
        baseline = fake_payload(cycles=1)
        del baseline["configs"]["4p-cgct"]
        failures = check_against(fake_payload(), baseline)
        assert failures == [
            "row 4p-cgct: missing from the committed file"]

    def test_config_disappearing_from_the_run_fails_loudly(self):
        baseline = fake_payload()
        baseline["configs"]["8p-cgct"] = copy.deepcopy(
            baseline["configs"]["4p-cgct"]
        )
        failures = check_against(fake_payload(), baseline)
        assert failures == [
            "row 8p-cgct: in the committed file but not generated"]

    def test_empty_run_reports_every_lost_config(self):
        payload = fake_payload()
        payload["configs"] = {}
        payload["corpus"]["cells"] = {}
        failures = check_against(payload, fake_payload())
        assert len(failures) == 2
        assert "row 4p-cgct" in failures[0]
        assert "cell barnes/cgct-512/seed0" in failures[1]

    def test_cell_digest_mismatch_is_named(self):
        failures = check_against(fake_payload(cell_digest="00" * 32),
                                 fake_payload())
        assert len(failures) == 1
        assert failures[0].startswith("cell barnes/cgct-512/seed0: differs")

    def test_parameter_change_is_reported(self):
        baseline = fake_payload()
        baseline["corpus"]["ops_per_processor"] = 6_000
        baseline["suite"]["seed"] = 3
        failures = check_against(fake_payload(), baseline)
        assert [f.split(" ")[0] for f in failures] == ["suite", "corpus"]


class TestReferenceAndRender:
    def test_explicit_configs_restriction_trims_the_comparison(
            self, small_file, capsys):
        """The comparison covers exactly what the suite generates.

        With the suite cut to one row, a file holding only that row
        checks clean: the full suite's other rows are absent from the
        file and not demanded. Adding one of them back, copied from the
        committed file, is then an extra row that fails the check.
        """
        path, payload = small_file
        full = json.loads(BENCH_CORE.read_text())["configs"]
        absent = [name for name in full if name not in payload["configs"]]
        assert list(payload["configs"]) == ["4p-baseline"]
        assert len(absent) == len(full) - 1
        assert perf_command(["--check", str(path)]) == 0
        assert "CORPUS MISMATCH" not in capsys.readouterr().err
        payload["configs"]["8p-cgct"] = full["8p-cgct"]
        assert perf_command(["--check", rewrite(path, payload)]) == 1
        err = capsys.readouterr().err
        assert ("row 8p-cgct: in the committed file but not generated"
                in err)
        assert err.count("CORPUS MISMATCH") == 1

    def test_render_mentions_every_config(self, small_corpus):
        table = render(generate())
        assert "4p-baseline" in table
        assert "cgct-512, jetty" in table
        assert "2 cells" in table
        assert "speedup" not in table and "ops/host-s" not in table


class TestCommand:
    def test_quick_run_writes_payload_and_checks_itself(
            self, small_corpus, small_text, tmp_path, capsys):
        path = tmp_path / "BENCH_core.json"
        assert perf_command(["--output", str(path)]) == 0
        assert path.read_text() == small_text
        assert perf_command(["--check", str(path)]) == 0
        assert "corpus check passed" in capsys.readouterr().out

    def test_check_exits_nonzero_on_regression(self, small_file, capsys):
        path, payload = small_file
        payload["configs"]["4p-baseline"]["fingerprint"]["cycles"] += 1
        assert perf_command(["--check", rewrite(path, payload)]) == 1
        err = capsys.readouterr().err
        assert "CORPUS MISMATCH: row 4p-baseline: differs" in err


class TestCheckCommand:
    def test_mutated_digest_exits_1_and_names_the_cell(self, small_file,
                                                       capsys):
        path, payload = small_file
        cell = payload["corpus"]["cells"]["tpc-b/cgct-512/seed0"]
        cell["digest"] = "0" * 64
        assert perf_command(["--check", rewrite(path, payload)]) == 1
        err = capsys.readouterr().err
        assert "cell tpc-b/cgct-512/seed0: differs" in err
        assert err.count("CORPUS MISMATCH") == 1

    def test_removed_cell_exits_1_and_names_it(self, small_file, capsys):
        path, payload = small_file
        del payload["corpus"]["cells"]["tpc-b/jetty/seed1"]
        assert perf_command(["--check", rewrite(path, payload)]) == 1
        assert ("cell tpc-b/jetty/seed1: missing from the committed file"
                in capsys.readouterr().err)

    def test_extra_cell_exits_1_and_names_it(self, small_file, capsys):
        path, payload = small_file
        cells = payload["corpus"]["cells"]
        cells["tpc-h/jetty/seed1"] = copy.deepcopy(cells["tpc-b/jetty/seed1"])
        assert perf_command(["--check", rewrite(path, payload)]) == 1
        assert ("cell tpc-h/jetty/seed1: in the committed file but not "
                "generated" in capsys.readouterr().err)

    def test_v1_file_exits_2(self, small_corpus, tmp_path, capsys):
        v1 = {"schema": "bench-core/v1", "suite": dict(SUITE),
              "configs": {}}
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(v1))
        assert perf_command(["--check", str(path)]) == 2
        assert "expected 'bench-core/v2'" in capsys.readouterr().err

    def test_telemetry_divergence_fails_the_cell(self, small_file,
                                                 monkeypatch, capsys):
        # A run record that changes when telemetry is attached must fail
        # both the check and the write.
        path, _ = small_file
        record = perfbench.run_record
        monkeypatch.setattr(perfbench, "run_record", lambda sim, result: {
            **record(sim, result), "observed": sim.telemetry is not None})
        assert perf_command(["--check", str(path)]) == 1
        assert "telemetry_record_digest" in capsys.readouterr().err
        out = path.parent / "diverged.json"
        assert perf_command(["--output", str(out)]) == 1
        assert not out.exists()
        assert "the telemetry run's record differs" in \
            capsys.readouterr().err

    def test_regeneration_is_byte_identical(self, small_text):
        # A fresh interpreter with another hash seed writes the same bytes.
        script = SMALL_CORPUS + (
            "import sys\n"
            "sys.stdout.write(perfbench.dumps(perfbench.generate()))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="4242",
                   PYTHONPATH=str(ROOT / "src"))
        fresh = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, check=True)
        assert fresh.stdout == small_text

    def test_runlog_records_workload_cache(self, small_corpus, tmp_path):
        from repro.harness.runlog import read_runlog
        from repro.workloads.store import set_workload_store

        runlog = tmp_path / "perf.jsonl"
        try:
            assert perf_command([
                "--output", str(tmp_path / "out.json"),
                "--workload-cache", str(tmp_path / "cache"),
                "--runlog", str(runlog),
            ]) == 0
        finally:
            set_workload_store(None)
        (record,) = read_runlog(runlog)
        assert record["event"] == "workload-cache"
        # The two tpc-b cells share one trace.
        assert record["hits"] > 0


class TestCommittedFile:
    @pytest.fixture(scope="class")
    def committed(self):
        return json.loads(BENCH_CORE.read_text())

    def test_committed_file_is_canonical(self, committed):
        # What perf writes for this content, byte for byte.
        assert BENCH_CORE.read_text() == dumps(committed)

    def test_committed_file_covers_the_corpus(self, committed):
        assert committed["schema"] == SCHEMA
        assert committed["suite"] == SUITE
        assert list(committed["configs"]) == [n for n, _, _ in PERF_CONFIGS]
        assert {k: v for k, v in committed["corpus"].items()
                if k != "cells"} == CORPUS
        assert list(committed["corpus"]["cells"]) == [
            cell_name(*cell) for cell in corpus_cells()]


class TestLoadMeasurement:
    """--check file vetting: actionable errors before any run."""

    def _write(self, tmp_path, payload):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(payload))
        return path

    def test_valid_measurement_loads(self, tmp_path):
        path = self._write(tmp_path, fake_payload())
        assert load_measurement(path)["corpus"]["cells"]

    def test_missing_file_names_the_fix(self, tmp_path):
        with pytest.raises(ConfigurationError) as excinfo:
            load_measurement(tmp_path / "gone.json")
        message = str(excinfo.value)
        assert "--check" in message
        assert "python -m repro.harness perf" in message

    def test_unparseable_file_is_rejected(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{truncated")
        with pytest.raises(ConfigurationError, match="not a readable JSON"):
            load_measurement(path)

    def test_wrong_schema_is_rejected(self, tmp_path):
        payload = fake_payload()
        payload["schema"] = "bench-core/v99"
        path = self._write(tmp_path, payload)
        with pytest.raises(ConfigurationError, match="bench-core/v2"):
            load_measurement(path)


class TestCommandVetting:
    def test_missing_check_file_exits_2_before_measuring(
            self, tmp_path, monkeypatch, capsys):
        def no_runs():
            raise AssertionError("generated before vetting --check")

        monkeypatch.setattr(perfbench, "generate", no_runs)
        assert perf_command(["--check", str(tmp_path / "gone.json")]) == 2
        err = capsys.readouterr().err
        assert "error: --check" in err


class TestSanitizedMeasurement:
    def test_check_invariants_is_recorded_and_bit_identical(self):
        # A run audited by the coherence sanitizer reproduces the
        # committed corpus cell's digest exactly.
        from repro.validate.sanitizer import CoherenceSanitizer

        committed = json.loads(BENCH_CORE.read_text())
        cell = committed["corpus"]["cells"]["tpc-b/owner-prediction/seed1"]
        sanitizer = CoherenceSanitizer(mode="sampled", bundle_dir=None)
        simulator = Simulator(corpus_config("owner-prediction"), seed=1,
                              sanitizer=sanitizer)
        result = simulator.run(
            corpus_trace("tpc-b", 4, CORPUS["ops_per_processor"]),
            warmup_fraction=CORPUS["warmup_fraction"])
        assert sanitizer.checks > 0
        assert digest(run_record(simulator, result)) == cell["digest"]
