"""``scripts/ab.py`` against two stub trees.

Each stub tree's ``bench/run.py`` logs its call and prints canned JSON
results, by call index, so the medians, spreads and wins the A/B
reports are known in advance.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

#: A stub ``bench/run.py``: appends "<tree> <workload> <seed>" to the
#: shared calls log and prints the canned result for its call index
#: (``null`` prints nothing, as a crashed run does).
STUB = '''
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parents[1]
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
log = here.parent / "calls.log"
calls = log.read_text().splitlines() if log.exists() else []
index = sum(1 for line in calls if line.split()[0] == here.name)
with log.open("a") as out:
    out.write(f"{here.name} {args['--workload']} {args['--seed']}\\n")
result = json.loads((here / "canned.json").read_text())[index]
if result is not None:
    print("progress line")
    print(json.dumps(result))
'''

END_TO_END = [
    {"name": "sim_ops_per_s.cgct", "better": "higher"},
    {"name": "setup_s", "better": "lower"},
]


def result(ops, setup, attempted=10, failed=0):
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {"sim_ops_per_s.cgct": {"value": ops, "unit": "1/s"},
                        "setup_s": {"value": setup, "unit": "s"}}}


def make_tree(root, name, canned):
    tree = root / name
    (tree / "bench").mkdir(parents=True)
    (tree / "bench" / "run.py").write_text(STUB)
    (tree / "canned.json").write_text(json.dumps(canned))
    (tree / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 3,
        "workloads": [{"name": "oltp-4p"}],
        "end_to_end": END_TO_END,
    }))
    return tree


@pytest.fixture
def trees(tmp_path, monkeypatch):
    monkeypatch.setattr(ab, "TIER1", [sys.executable, "-c", "pass"])
    parent = make_tree(tmp_path, "parent", [
        result(100, 1.0), result(110, 1.0), result(120, 2.0),
        result(130, 1.0), result(140, 1.0),
    ])
    change = make_tree(tmp_path, "change", [
        result(150, 0.5), result(100, 1.0), None,
        result(150, 3.0, attempted=7, failed=2), result(145, 0.9),
    ])
    return tmp_path, parent, change


def run(trees, pairs=5):
    _, parent, change = trees
    return ab.run_ab(parent, change, ["oltp-4p"], pairs, 3, END_TO_END,
                     log=lambda line: None)


def test_pairs_alternate_and_share_a_seed(trees):
    record = run(trees, pairs=4)
    calls = [line.split()
             for line in (trees[0] / "calls.log").read_text().splitlines()]
    assert [c[0] for c in calls] == [
        "parent", "change", "change", "parent",
        "parent", "change", "change", "parent"]
    # Both runs of a pair use the same workload and seed; each pair a
    # fresh one.
    for first, second in zip(calls[::2], calls[1::2]):
        assert first[1:] == second[1:]
    seeds = [int(c[2]) for c in calls[::2]]
    assert record["seeds"] == {"oltp-4p": seeds}
    assert len(set(seeds)) == 4


def test_medians_ratio_and_parent_spread(trees):
    ops = run(trees)["metrics"]["oltp-4p"]["sim_ops_per_s.cgct"]
    # The crashed third change run has no metrics: its pair drops out.
    assert ops["pairs"] == 4
    assert ops["parent"] == 120.0            # median of 100 110 130 140
    assert ops["change"] == 147.5            # median of 150 100 150 145
    assert ops["ratio"] == pytest.approx(147.5 / 120)
    # Inclusive quartiles of 100 110 130 140: 107.5 and 132.5.
    assert ops["parent_spread"] == pytest.approx(25 / 120)


def test_wins_follow_each_metrics_direction(trees):
    metrics = run(trees)["metrics"]["oltp-4p"]
    # Higher is better: 150>100 and 145>140 win, 100<110 loses,
    # 150>130 wins.
    assert metrics["sim_ops_per_s.cgct"]["wins"] == 3
    # Lower is better: 0.5<1.0 and 0.9<1.0 win, the 1.0 tie counts for
    # neither side, 3.0>1.0 loses.
    assert metrics["setup_s"]["wins"] == 2


def test_failed_runs_are_counted(trees):
    failures = run(trees)["failures"]
    assert failures["parent"] == {"attempted": 50, "failed": 0}
    # 10+10+7+10 attempted plus the crash, counted as one failed of one.
    assert failures["change"] == {"attempted": 38, "failed": 3}


def test_history_record_is_appended(trees, monkeypatch, capsys):
    _, parent, change = trees
    monkeypatch.setattr(ab, "ROOT", change)
    history = change / "BENCH_history.jsonl"
    history.write_text('{"earlier": true}\n')
    assert ab.main([str(parent), "--pairs", "2"]) == 0
    lines = history.read_text().splitlines()
    assert len(lines) == 2 and json.loads(lines[0]) == {"earlier": True}
    record = json.loads(lines[1])
    assert set(record) == {
        "date", "parent_sha", "change_sha", "python", "platform", "pairs",
        "seconds", "seeds", "metrics", "failures", "tier1_s",
        "tier1_passed", "tier1_failed"}
    assert record["pairs"] == 2 and record["seconds"] == 3
    assert set(record["tier1_s"]) == {"parent", "change"}
    assert record["tier1_passed"] == {"parent": True, "change": True}
    assert record["tier1_failed"] == {"parent": [], "change": []}
    # Stub trees are no git checkouts.
    assert record["parent_sha"] is None
    assert "sim_ops_per_s.cgct" in capsys.readouterr().out


def test_failed_tier1_names_its_tests(trees, monkeypatch):
    # A tier-1 run that fails keeps the ids of pytest's short summary.
    monkeypatch.setattr(ab, "TIER1", [sys.executable, "-c", (
        "print('.F.E')\n"
        "print('FAILED tests/x.py::test_y - AssertionError')\n"
        "print('ERROR tests/z.py::test_w')\n"
        "print('1 failed, 2 passed, 1 error in 0.1s')\n"
        "raise SystemExit(1)")])
    record = run(trees, pairs=1)
    assert record["tier1_passed"] == {"parent": False, "change": False}
    assert record["tier1_failed"] == {
        side: ["tests/x.py::test_y", "tests/z.py::test_w"]
        for side in ("parent", "change")}
    assert "FAILED tests/x.py::test_y" in ab.render(record)
