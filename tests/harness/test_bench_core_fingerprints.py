"""The committed ``BENCH_core.json`` fingerprints, pinned in tier-1.

Every cell of the tracked benchmark carries a fingerprint of its run —
cycles, external requests, broadcasts, L1/L2 hits — at the file's
recorded ``suite`` parameters. Re-running the 4- and 8-processor
baseline and CGCT cells at those parameters must reproduce each
fingerprint exactly: a whole-system, host-independent identity check
on the simulator's results (the larger cells are checked by
``repro.harness perf --check BENCH_core.json``).
"""

import json
from pathlib import Path

import pytest

from repro.harness.perfbench import measure_config

BENCH_CORE = Path(__file__).resolve().parents[2] / "BENCH_core.json"


@pytest.fixture(scope="module")
def committed():
    return json.loads(BENCH_CORE.read_text())


@pytest.mark.parametrize(
    "config_name", ["4p-baseline", "4p-cgct", "8p-baseline", "8p-cgct"]
)
def test_fingerprint_matches_committed(committed, config_name):
    suite = committed["suite"]
    cell = measure_config(
        config_name,
        ops_per_processor=suite["ops_per_processor"],
        workload=suite["workload"],
        seed=suite["seed"],
        warmup_fraction=suite["warmup_fraction"],
        repeats=1,
    )
    assert cell["fingerprint"] == committed["configs"][config_name][
        "fingerprint"
    ]
