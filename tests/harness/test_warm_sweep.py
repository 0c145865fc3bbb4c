"""A warm sweep is pure lookup; a cold one forks with numpy loaded.

Each check runs ``python -m repro.harness fig2 --quick --workers 2`` in
a fresh interpreter, the way a user does: a cold sweep fills a result
cache once for the module, and every warm sweep reads a copy of it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import List

import pytest

from repro.harness.runlog import read_runlog, summarize

SRC = str(Path(__file__).resolve().parents[2] / "src")

SWEEP = ["fig2", "--quick", "--ops", "300", "--workers", "2"]

#: Runs the CLI after wrapping the pool's fork, printing (as the last
#: line) whether numpy was loaded at each worker's fork.
COLD = """
import json, sys
from repro.harness import supervisor
from repro.harness.__main__ import main

seen = []
spawn = supervisor.SupervisedPool._spawn

def recording_spawn(self):
    seen.append("numpy" in sys.modules)
    return spawn(self)

supervisor.SupervisedPool._spawn = recording_spawn
code = main(sys.argv[1:])
print(json.dumps(seen))
sys.exit(code)
"""


def _python(args: List[str], cwd: Path) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc


def _sweep_args(cache: Path, out: Path, tag: str) -> List[str]:
    return [*SWEEP, "--cache-dir", str(cache),
            "--runlog", str(out / f"{tag}.jsonl"),
            "--json", str(out / f"{tag}.json")]


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """One cold sweep: its directory, and numpy's presence at each fork."""
    out = tmp_path_factory.mktemp("cold")
    proc = _python(["-c", COLD, *_sweep_args(out / "cache", out, "cold")],
                   out)
    return out, json.loads(proc.stdout.strip().splitlines()[-1])


def _warm(cold_dir: Path, tmp_path: Path, *python_flags: str):
    cache = tmp_path / "cache"
    shutil.copytree(cold_dir / "cache", cache)
    return cache, lambda: _python(
        [*python_flags, "-m", "repro.harness",
         *_sweep_args(cache, tmp_path, "warm")], tmp_path)


def test_cold_sweep_forks_with_numpy_loaded(cold):
    out, numpy_at_fork = cold
    assert numpy_at_fork and all(numpy_at_fork)
    runs = [r for r in read_runlog(out / "cold.jsonl")
            if r["event"] == "run"]
    assert runs and all(r["cache"] == "miss" for r in runs)
    assert {r["worker"] for r in runs} - {runs[0]["pid"]}


def test_warm_sweep_loads_no_numpy_and_forks_nothing(cold, tmp_path):
    out, _ = cold
    _, sweep = _warm(out, tmp_path, "-X", "importtime")
    modules = {
        line.rsplit("|", 1)[1].strip()
        for line in sweep().stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    assert "repro.harness.parallel" in modules
    assert not {m for m in modules if m == "numpy" or m.startswith("numpy.")}
    runs = [r for r in read_runlog(tmp_path / "warm.jsonl")
            if r["event"] == "run"]
    assert runs
    for record in runs:
        assert record["cache"] == "hit"
        assert record["worker"] == record["pid"]  # the coordinator
    assert (tmp_path / "warm.json").read_bytes() \
        == (out / "cold.json").read_bytes()


def test_warm_sweep_resimulates_a_corrupt_entry(cold, tmp_path):
    out, _ = cold
    cache, sweep = _warm(out, tmp_path)
    victim = sorted(cache.rglob("*.pkl"))[0]
    victim.write_bytes(b"not a pickle at all")
    sweep()
    summary = summarize(read_runlog(tmp_path / "warm.jsonl"))
    assert summary["simulated"] == 1
    assert summary["cache_hits"] == summary["completed"] - 1
    assert (tmp_path / "warm.json").read_bytes() \
        == (out / "cold.json").read_bytes()
