"""The ``python -m repro.harness`` command line."""

import pytest

from repro.harness.__main__ import main


def test_static_experiment_prints_table(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "RCA storage overhead" in out
    assert "16K-Entries, 512-Byte Regions" in out
    assert "5.9%" in out


def test_multiple_experiments(capsys):
    assert main(["table1", "fig6"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "fig6" in out


def test_quick_flag_and_benchmark_restriction(capsys):
    assert main(["fig2", "--quick", "--ops", "2000",
                 "--benchmarks", "barnes"]) == 0
    out = capsys.readouterr().out
    assert "barnes" in out
    assert "AVERAGE" in out


def test_unknown_experiment_raises():
    with pytest.raises(KeyError):
        main(["fig99"])


def test_json_and_markdown_export(tmp_path, capsys):
    json_path = tmp_path / "out.json"
    md_path = tmp_path / "out.md"
    assert main(["table1", "--json", str(json_path),
                 "--markdown", str(md_path)]) == 0
    import json

    payload = json.loads(json_path.read_text())
    assert payload[0]["experiment_id"] == "table1"
    assert "table1" in md_path.read_text()


def test_validate_subcommand_clean_matrix(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # bundle dir default is relative
    assert main(["validate", "--benchmarks", "barnes",
                 "--configs", "4p-baseline", "4p-cgct",
                 "--ops", "1200", "--mode", "deep"]) == 0
    out = capsys.readouterr().out
    assert "ok   barnes/4p-baseline" in out
    assert "ok   barnes/4p-cgct" in out
    assert "all 2 cells clean" in out


def test_validate_subcommand_catches_mutation(capsys, tmp_path,
                                              monkeypatch):
    from repro.rca import protocol
    from repro.rca.protocol import RegionProtocol

    monkeypatch.setattr(
        RegionProtocol, "_after_external_request",
        lambda self, state, request, fills=None: state,
    )
    monkeypatch.setattr(protocol, "_TABLES", {})
    assert main(["validate", "--benchmarks", "barnes",
                 "--configs", "4p-cgct", "--ops", "1500",
                 "--mode", "sampled",
                 "--bundle-dir", str(tmp_path / "diag")]) == 1
    out = capsys.readouterr().out
    assert "FAIL barnes/4p-cgct" in out
    assert "cells FAILED" in out
    assert list((tmp_path / "diag").glob("bundle-*.json"))


def test_check_invariants_flag_runs_clean(capsys, tmp_path):
    assert main(["fig2", "--quick", "--ops", "1200",
                 "--benchmarks", "barnes",
                 "--check-invariants", "sampled", "--no-cache",
                 "--runlog", str(tmp_path / "run.jsonl")]) == 0
    assert "AVERAGE" in capsys.readouterr().out


def test_warm_sweep_fingerprints_each_config_once(tmp_path, capsys,
                                                  monkeypatch):
    # A warm sweep renders from the cache warm_cache filled: every cell
    # is hashed by config, and each distinct config is digested once per
    # process however many cells, lookups and experiments share it.
    import repro.harness.cache as cache_module
    from repro.harness.experiments import RunOptions
    from repro.harness.parallel import experiment_tasks

    experiments = ["fig2", "fig7", "fig8"]
    argv = [*experiments, "--quick", "--ops", "200",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    cold = capsys.readouterr().out

    digests = []
    digest = cache_module._config_digest
    monkeypatch.setattr(cache_module, "_FINGERPRINTS", {})
    monkeypatch.setattr(cache_module, "_config_digest",
                        lambda config: digests.append(config)
                        or digest(config))
    assert main(argv) == 0
    warm = capsys.readouterr().out

    tasks = experiment_tasks(experiments,
                             RunOptions(ops_per_processor=200).quick())
    assert len(digests) == len({repr(task.config) for task in tasks}) == 4
    strip = (lambda out: [line for line in out.splitlines()
                          if "finished in" not in line])
    assert strip(warm) == strip(cold)


def test_telemetry_sweep_is_the_same_at_any_worker_count(tmp_path, capsys):
    # --telemetry runs on the ordinary sweep path: the cells' registries
    # come back from whichever process simulated them and merge in task
    # order, so the export is byte-identical serial and pooled, and the
    # run log and checkpoint are the same as any sweep's.
    import json

    from repro.harness.experiments import RunOptions
    from repro.harness.parallel import experiment_tasks
    from repro.harness.runlog import read_runlog

    experiments = ["fig2", "fig7"]
    tasks = experiment_tasks(experiments,
                             RunOptions(ops_per_processor=300).quick())
    exports = []
    for workers in ("0", "2"):
        out = tmp_path / f"workers-{workers}"
        assert main([*experiments, "--quick", "--ops", "300",
                     "--telemetry", "--no-cache", "--workers", workers,
                     "--telemetry-dir", str(out / "telemetry"),
                     "--runlog", str(out / "run.jsonl"),
                     "--checkpoint", str(out / "sweep.ckpt")]) == 0
        assert f"telemetry from {len(tasks)} simulated runs" in \
            capsys.readouterr().out
        exports.append((out / "telemetry" / "telemetry.json").read_bytes())
        events = [record["event"] for record in read_runlog(out / "run.jsonl")]
        assert events.count("sweep-start") == events.count("sweep-end") == 1
        assert events.count("run") == len(tasks)
        assert (out / "sweep.ckpt").stat().st_size > 0
    assert exports[0] == exports[1]
    counters = json.loads(exports[0])["counters"]
    paths = sum(data["value"] for name, data in counters.items()
                if name.startswith("machine.paths."))
    assert paths == sum(task.execute().stats.total_external
                        for task in tasks) > 0
