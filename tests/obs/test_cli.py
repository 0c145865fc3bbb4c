"""The ``trace`` CLI: record → summary → critical-path → export."""

import json

import pytest

from repro.harness.__main__ import main
from repro.obs.export import read_spans, validate_chrome_trace
from repro.obs.span import CLOCK_CYCLES, CLOCK_WALL


@pytest.fixture(scope="module")
def sim_trace(tmp_path_factory):
    """One small traced simulation, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("sim-trace")
    trace = root / "trace.jsonl"
    telemetry = root / "telemetry.json"
    code = main(["trace", "record", "barnes", "--config", "8p-cgct",
                 "--ops", "400", "--out", str(trace),
                 "--telemetry", str(telemetry)])
    assert code == 0
    return trace, telemetry


def test_record_writes_a_valid_span_file(sim_trace, capsys):
    trace, telemetry = sim_trace
    spans = read_spans(trace)
    assert spans
    assert all(s["clock"] == CLOCK_CYCLES for s in spans)
    assert json.loads(telemetry.read_text())["histograms"]


def test_summary_reports_paths_and_verdicts(sim_trace, capsys):
    trace, _ = sim_trace
    assert main(["trace", "summary", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "transactions" in out
    assert "broadcast" in out
    assert "avoided" in out


def test_critical_path_reconciles_and_writes_json(sim_trace, tmp_path,
                                                  capsys):
    trace, telemetry = sim_trace
    report_path = tmp_path / "report.json"
    code = main(["trace", "critical-path", str(trace),
                 "--telemetry", str(telemetry),
                 "--json", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "reconciliation" in out
    report = json.loads(report_path.read_text())
    for entry in report["reconciliation"].values():
        assert entry["mean_delta"] == pytest.approx(0.0)


def test_export_chrome_validates(sim_trace, tmp_path, capsys):
    trace, _ = sim_trace
    out_path = tmp_path / "trace.json"
    code = main(["trace", "export", str(trace), "-o", str(out_path)])
    assert code == 0
    assert "perfetto" in capsys.readouterr().out
    loaded = json.loads(out_path.read_text())
    assert validate_chrome_trace(loaded) == len(read_spans(trace))


def test_sweep_mode_records_wall_spans(tmp_path, capsys):
    """A real sweep's run log is its wall-clock trace, cache hits too."""
    runlog = tmp_path / "sweep.jsonl"
    argv = ["fig2", "--quick", "--ops", "400", "--workers", "0",
            "--cache-dir", str(tmp_path / "cache"), "--runlog", str(runlog)]
    assert main(argv) == 0          # cold
    assert main(argv) == 0          # warm: every cell a disk hit
    spans = read_spans(runlog)
    assert all(s["clock"] == CLOCK_WALL for s in spans)
    sweeps = [s for s in spans if s["name"] == "sweep"]
    assert len(sweeps) == 2
    for sweep, cache in zip(sweeps, ("miss", "hit")):
        tasks = [s for s in spans if s["name"] == "task"
                 and s["parent_id"] == sweep["span_id"]]
        assert len(tasks) >= 2
        assert {t["attrs"]["cache"] for t in tasks} == {cache}
        for task in tasks:
            assert sweep["start"] <= task["start"] <= task["end"] \
                <= sweep["end"]
    # The derived trace exports and summarizes like any other.
    out_path = tmp_path / "sweep.json"
    assert main(["trace", "export", str(runlog), "-o", str(out_path)]) == 0
    validate_chrome_trace(json.loads(out_path.read_text()))
    assert main(["trace", "summary", str(runlog)]) == 0
    assert "parallelism" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["summary"], ["critical-path"], ["export", "-o", "out.json"],
], ids=["summary", "critical-path", "export"])
@pytest.mark.parametrize("contents", ["runlog", "empty"])
def test_file_without_spans_is_a_one_line_error(tmp_path, capsys,
                                                monkeypatch, command,
                                                contents):
    # A run log with no sweep (here one `traces run` record) and an
    # empty file both hold no spans: the command says so on one line of
    # stderr and exits 1, with no traceback.
    from repro.harness.runlog import RunLog

    monkeypatch.chdir(tmp_path)
    path = tmp_path / "log.jsonl"
    path.touch()
    if contents == "runlog":
        with RunLog(path) as runlog:
            runlog.record("traces-run", src="trace.bin", cycles=100)
    assert main(["trace", command[0], str(path), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()
