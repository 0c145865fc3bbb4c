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
