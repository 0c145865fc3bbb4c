"""Start-up guard: entry points must not load heavy optional modules.

scipy is needed only for confidence intervals over two or more samples,
and costs about a second and 60 MB to import, so no entry point may load
it at start-up. numpy is needed only to build, load or save a trace, and
costs about 0.1 s, so neither ``import repro`` nor ``--help`` may load
it (a warm sweep, which builds no trace, is checked in
``tests/harness/test_warm_sweep.py``). The simulator layers (``repro.system``) must not pull in
the experiment harness either, and importing one harness module must
not load the others. Each check runs the real command in a
fresh interpreter with ``-X importtime`` and reads the modules it
imported from stderr.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Set

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _imported_modules(*args: str) -> Set[str]:
    """Every module a fresh ``python -X importtime *args`` imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


@pytest.mark.parametrize(
    "args",
    [
        ("-c", "import repro"),
        ("-m", "repro.harness", "--help"),
        ("-m", "repro.harness", "traces", "--help"),
    ],
    ids=["import-repro", "harness-help", "traces-help"],
)
def test_entry_point_does_not_import_scipy(args):
    modules = _imported_modules(*args)
    assert "repro" in modules
    assert not {m for m in modules if m == "scipy" or m.startswith("scipy.")}


@pytest.mark.parametrize(
    "args",
    [
        ("-c", "import repro"),
        ("-c", "import repro.system"),
        ("-m", "repro.harness", "--help"),
    ],
    ids=["import-repro", "import-system", "harness-help"],
)
def test_entry_point_does_not_import_numpy(args):
    modules = _imported_modules(*args)
    assert "repro" in modules
    assert not {m for m in modules if m == "numpy" or m.startswith("numpy.")}


def test_system_does_not_import_harness():
    modules = _imported_modules("-c", "import repro.system")
    assert "repro.system" in modules
    assert not {m for m in modules if m.startswith("repro.harness")}


def test_runlog_does_not_import_the_harness():
    """The ``traces`` tools import the run log on their first ``--runlog``
    call; the package ``__init__`` must not drag in the rest."""
    modules = _imported_modules("-c", "import repro.harness.runlog")
    assert "repro.harness.runlog" in modules
    assert not modules & {
        "repro.harness.experiments", "repro.harness.parallel",
        "multiprocessing",
    }


def test_harness_exports_every_public_name():
    import repro.harness as harness

    for name in harness.__all__:
        assert getattr(harness, name) is not None, name
    with pytest.raises(AttributeError):
        getattr(harness, "no_such_name")
