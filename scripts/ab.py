"""Interleaved host-time A/B of two trees with the repository benchmark.

    python3 scripts/ab.py PARENT_TREE [--pairs N]

Runs ``python3 bench/run.py --workload W --seed S --seconds T`` in
PARENT_TREE and in this tree, N pairs for every workload W of
``BENCHMARK.json``, where T is its ``run_seconds``. Each pair draws one fresh seed
and uses it on both sides; pairs alternate which tree runs first, so a
drift of the host during the session lands on both sides alike. Each
run's last line of output is its JSON result.

For every end-to-end metric of ``BENCHMARK.json`` and every workload it
prints the parent and change medians, their ratio, the parent's spread
(quartile distance over the median) and the change's wins: pairs where
the change is better by the metric's ``better`` direction (ties count
for neither side). It also totals attempted and failed operations per
side — a run that prints no result counts one failed operation — and
times one whole tier-1 run (``python -m pytest -q``) in each tree,
keeping the ids its short summary names as ``FAILED`` or ``ERROR``.

One JSON record with all of this, both trees' git revisions and the
host's Python and platform is appended to ``BENCH_history.jsonl`` at
the root of this tree: one line per change, so the repository's
host-time trajectory is data.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]

#: The tier-1 test command, run once in each tree. No ``-x``: a tree
#: with a failing test still runs, and is timed over, the whole suite.
TIER1 = [sys.executable, "-m", "pytest", "-q"]


def _env(tree: Path) -> Dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(tree / "src"))


def bench_run(tree: Path, workload: str, seed: int, seconds: int) -> Dict:
    """One ``bench/run.py`` run in *tree*: its JSON result, or a failed
    stand-in when it printed none."""
    proc = subprocess.run(
        ["python3", "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, env=_env(tree), capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 1, "failed": 1,
                "metrics": {}}
    return result


def quartiles(values: List[float]):
    """(first quartile, median, third quartile) of *values*."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(pairs: List[tuple], end_to_end: List[Dict]) -> Dict:
    """Per-metric medians, ratio, parent spread and change wins over
    (parent result, change result) *pairs* of one workload."""
    summary = {}
    for metric in end_to_end:
        name = metric["name"]
        values = [
            (p["metrics"].get(name, {}).get("value"),
             c["metrics"].get(name, {}).get("value"))
            for p, c in pairs
        ]
        values = [(p, c) for p, c in values
                  if p is not None and c is not None]
        if not values:
            continue
        parent = [p for p, _ in values]
        change = [c for _, c in values]
        q1, parent_median, q3 = quartiles(parent)
        change_median = statistics.median(change)
        sign = 1 if metric["better"] == "higher" else -1
        summary[name] = {
            "parent": parent_median,
            "change": change_median,
            "ratio": (change_median / parent_median if parent_median
                      else None),
            "parent_spread": ((q3 - q1) / parent_median if parent_median
                              else None),
            "wins": sum(1 for p, c in values if sign * (c - p) > 0),
            "pairs": len(values),
        }
    return summary


def git_revision(tree: Path) -> Optional[str]:
    """HEAD of *tree*, with ``+dirty`` when its working tree differs."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree,
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=tree,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if head.returncode != 0:
        return None
    dirty = "+dirty" if status.stdout.strip() else ""
    return head.stdout.strip() + dirty


def failed_tests(output: str) -> List[str]:
    """Test ids on pytest's ``FAILED``/``ERROR`` short-summary lines."""
    ids = []
    for line in output.splitlines():
        for prefix in ("FAILED ", "ERROR "):
            if line.startswith(prefix):
                ids.append(line[len(prefix):].split(" - ", 1)[0].strip())
    return ids


def tier1(tree: Path):
    """(wall seconds, passed?, failed test ids) of one tier-1 run in
    *tree*."""
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=_env(tree),
                          capture_output=True, text=True)
    return (round(time.perf_counter() - start, 1), proc.returncode == 0,
            failed_tests(proc.stdout))


def run_ab(parent: Path, change: Path, workloads: List[str], pairs: int,
           seconds: int, end_to_end: List[Dict],
           log=print) -> Dict:
    """The whole A/B; returns the history record."""
    rng = random.Random()
    sides = {"parent": parent, "change": change}
    failures = {side: {"attempted": 0, "failed": 0} for side in sides}
    metrics = {}
    seeds = {}
    for workload in workloads:
        results = []
        seeds[workload] = []
        for i in range(pairs):
            seed = rng.randrange(1 << 31)
            seeds[workload].append(seed)
            order = ("parent", "change") if i % 2 == 0 else \
                ("change", "parent")
            pair = {}
            for side in order:
                pair[side] = bench_run(sides[side], workload, seed, seconds)
                failures[side]["attempted"] += pair[side]["attempted"]
                failures[side]["failed"] += pair[side]["failed"]
                log(f"{workload} seed {seed} {side}: "
                    f"correct={pair[side]['correct']} "
                    f"failed={pair[side]['failed']}")
            results.append((pair["parent"], pair["change"]))
        metrics[workload] = summarise(results, end_to_end)
    record = {
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "parent_sha": git_revision(parent),
        "change_sha": git_revision(change),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "pairs": pairs,
        "seconds": seconds,
        "seeds": seeds,
        "metrics": metrics,
        "failures": failures,
    }
    runs = {side: tier1(tree) for side, tree in sides.items()}
    record["tier1_s"] = {side: run[0] for side, run in runs.items()}
    record["tier1_passed"] = {side: run[1] for side, run in runs.items()}
    record["tier1_failed"] = {side: run[2] for side, run in runs.items()}
    return record


def render(record: Dict) -> str:
    lines = [f"{'workload':<15} {'metric':<24} {'parent':>11} "
             f"{'change':>11} {'ratio':>6} {'spread':>7} {'wins':>6}"]
    for workload, summary in record["metrics"].items():
        for name, m in summary.items():
            ratio = f"{m['ratio']:.3f}" if m["ratio"] is not None else "-"
            spread = (f"{m['parent_spread']:.3f}"
                      if m["parent_spread"] is not None else "-")
            lines.append(
                f"{workload:<15} {name:<24} {m['parent']:>11.4g} "
                f"{m['change']:>11.4g} {ratio:>6} {spread:>7} "
                f"{m['wins']:>3}/{m['pairs']:<2}"
            )
    for side, counts in record["failures"].items():
        lines.append(f"{side}: {counts['failed']} of {counts['attempted']} "
                     f"operations failed; tier-1 {record['tier1_s'][side]} s, "
                     f"{'passed' if record['tier1_passed'][side] else 'FAILED'}")
        lines.extend(f"  FAILED {test}"
                     for test in record["tier1_failed"][side])
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=5,
                        help="alternating pairs per workload (default 5)")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    record = run_ab(args.parent.resolve(), ROOT, workloads, args.pairs,
                    benchmark["run_seconds"], benchmark["end_to_end"],
                    log=lambda line: print(line, file=sys.stderr))
    print(render(record))
    history = ROOT / "BENCH_history.jsonl"
    with open(history, "a") as out:
        out.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"[record appended to {history}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
