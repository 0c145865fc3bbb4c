"""Fingerprint corpus (``python -m repro.harness perf``).

``BENCH_core.json`` at the repo root pins the simulator's behaviour,
not its speed. It holds two sets of deterministic results:

* ``configs`` — the ten scaling rows (:data:`PERF_CONFIGS`, 4–64
  processors, baseline and CGCT) at the ``suite`` parameters, each a
  5-key :func:`result_fingerprint`;
* ``corpus`` — every benchmark × :data:`CORPUS_CONFIGS` × seed on the
  paper's 4-processor machine. Each cell stores its fingerprint, the
  sha256 ``digest`` of its full :func:`run_record`, and the
  ``telemetry_digest`` of ``registry.to_dict()`` from a second run with
  telemetry attached — whose run record must equal the plain run's.

``perf`` regenerates the file; ``perf --check PATH`` regenerates every
row and cell and names each one missing from, extra to, or different in
PATH. Host time is measured elsewhere: ``bench/run.py`` is the
benchmark, and ``scripts/ab.py`` compares two trees with it and appends
the result to ``BENCH_history.jsonl``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Tuple

SCHEMA = "bench-core/v2"

#: Canonical machine points: (config name, processors, cgct?). The 4p
#: pair is the paper machine; 8p/16p follow the scaling experiment's
#: topologies, where per-op work grows with the snooper count; 32p/64p
#: extend the sweep past the paper's measured range, into the multi-chip
#: scales where broadcast filtering matters most.
PERF_CONFIGS = (
    ("4p-baseline", 4, False),
    ("4p-cgct", 4, True),
    ("8p-baseline", 8, False),
    ("8p-cgct", 8, True),
    ("16p-baseline", 16, False),
    ("16p-cgct", 16, True),
    ("32p-baseline", 32, False),
    ("32p-cgct", 32, True),
    ("64p-baseline", 64, False),
    ("64p-cgct", 64, True),
)

#: The scaling rows' run parameters (the ``suite`` block).
SUITE = {
    "workload": "barnes",
    "ops_per_processor": 12_000,
    "seed": 0,
    "warmup_fraction": 0.0,
}

#: The corpus machines: (name, CGCT region bytes or None for the
#: baseline, field overrides). Each toggles one mechanism or ablation
#: of the paper machine, so a change to any of them moves a digest.
CORPUS_CONFIGS = (
    ("baseline", None, {}),
    ("cgct-512", 512, {}),
    ("cgct-256", 256, {}),
    ("no-self-invalidation", 512, {"self_invalidation": False}),
    ("one-bit-response", 512, {"two_bit_response": False}),
    ("line-response-hidden", 512, {"line_response_visible": False}),
    ("owner-prediction", 512, {"owner_prediction": True}),
    ("region-state-prefetch", 512, {"region_state_prefetch": True}),
    ("section6-filters", 512, {"prefetch_region_filter": True,
                               "dram_speculation_filter": True,
                               "region_state_prefetch": True}),
    ("regionscout", None, {"regionscout_enabled": True}),
    ("jetty", None, {"jetty_enabled": True}),
    ("rca-64-sets", 512, {"rca_sets": 64}),
)

#: The corpus cells' run parameters (the ``corpus`` block).
CORPUS = {
    "processors": 4,
    "ops_per_processor": 5_000,
    "seeds": [0, 1],
    "warmup_fraction": 0.4,
    "telemetry_interval": 5_000,
}


def _topology_for(processors: int):
    """The scaling experiment's machine shapes (4–64 processors)."""
    from repro.interconnect.topology import Topology

    if processors == 4:
        return Topology()
    if processors == 8:
        return Topology(cores_per_chip=2, chips_per_switch=2,
                        switches_per_board=2, boards=1)
    if processors == 16:
        return Topology(cores_per_chip=2, chips_per_switch=2,
                        switches_per_board=2, boards=2)
    if processors == 32:
        return Topology(cores_per_chip=2, chips_per_switch=2,
                        switches_per_board=2, boards=4)
    if processors == 64:
        return Topology(cores_per_chip=2, chips_per_switch=2,
                        switches_per_board=2, boards=8)
    raise ValueError(f"no topology defined for {processors} processors")


def bench_config(name: str):
    """The :class:`SystemConfig` behind one named scaling row."""
    from repro.system.config import SystemConfig

    for config_name, processors, cgct in PERF_CONFIGS:
        if config_name == name:
            base = (SystemConfig.paper_cgct(512) if cgct
                    else SystemConfig.paper_baseline())
            return replace(base, topology=_topology_for(processors))
    raise ValueError(f"unknown perf config {name!r}")


def corpus_config(name: str):
    """The :class:`SystemConfig` behind one named corpus machine."""
    from repro.system.config import SystemConfig

    for config_name, region_bytes, overrides in CORPUS_CONFIGS:
        if config_name == name:
            base = (SystemConfig.paper_baseline() if region_bytes is None
                    else SystemConfig.paper_cgct(region_bytes))
            return replace(base, **overrides)
    raise ValueError(f"unknown corpus config {name!r}")


def corpus_cells() -> List[Tuple[str, str, int]]:
    """Every (benchmark, corpus config, seed), in file order."""
    from repro.workloads.benchmarks import BENCHMARKS

    return [
        (benchmark, name, seed)
        for benchmark in BENCHMARKS
        for name, _, _ in CORPUS_CONFIGS
        for seed in CORPUS["seeds"]
    ]


def cell_name(benchmark: str, config_name: str, seed: int) -> str:
    return f"{benchmark}/{config_name}/seed{seed}"


def result_fingerprint(result) -> Dict[str, int]:
    """The five headline counters that pin a run."""
    return {
        "cycles": result.cycles,
        "external_requests": result.stats.total_external,
        "broadcasts": result.broadcasts,
        "l1_hits": result.l1_hits,
        "l2_hits": result.l2_hits,
    }


def run_record(simulator, result) -> Dict:
    """Everything observable about one run, as a JSON-ready dict.

    Every :class:`~repro.system.simulator.RunResult` field (the config
    as its :func:`~repro.harness.cache.config_fingerprint`, the request
    statistics per routing and category), the machine's request paths
    and per-path latency moments, and each node's snoop probes and
    hits.
    """
    from repro.harness.cache import config_fingerprint

    record: Dict = {}
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if f.name == "config":
            value = config_fingerprint(value)
        elif f.name == "stats":
            value = {
                kind.name: {c.name: n for c, n in getattr(value, kind.name)
                            .items()}
                for kind in dataclasses.fields(value)
            }
        record[f.name] = value
    machine = simulator.machine
    record["request_paths"] = {
        f"{request.name}/{path.name}": n
        for (request, path), n in machine.request_paths.items()
    }
    record["path_latency"] = {
        f"{request.name}/{path.name}": [s.count, s.mean, s.minimum,
                                        s.maximum]
        for (request, path), s in machine.path_latency.items()
    }
    record["snoop_probes"] = [n.l2.snoop_probes for n in machine.nodes]
    record["snoop_hits"] = [n.l2.snoop_hits for n in machine.nodes]
    return record


def digest(value) -> str:
    """sha256 of *value*'s canonical JSON."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def corpus_trace(benchmark: str, processors: int, ops_per_processor: int):
    """A benchmark trace as every row and cell builds it (trace seed 0)."""
    from repro.workloads.benchmarks import build_benchmark

    return build_benchmark(benchmark, num_processors=processors,
                           ops_per_processor=ops_per_processor, seed=0)


def scaling_row(name: str) -> Dict:
    """One ``configs`` row: the named machine at the :data:`SUITE`."""
    from repro.system.simulator import Simulator

    config = bench_config(name)
    trace = corpus_trace(SUITE["workload"], config.num_processors,
                         SUITE["ops_per_processor"])
    result = Simulator(config, seed=SUITE["seed"]).run(
        trace, warmup_fraction=SUITE["warmup_fraction"])
    return {
        "processors": config.num_processors,
        "mode": "cgct" if config.cgct_enabled else "baseline",
        "simulated_ops": config.num_processors * SUITE["ops_per_processor"],
        "fingerprint": result_fingerprint(result),
    }


def corpus_cell(benchmark: str, config_name: str, seed: int) -> Dict:
    """One corpus cell: fingerprint, record digest, telemetry digest.

    A telemetry run whose record differs from the plain run's adds a
    ``telemetry_record_digest`` key, which no committed cell has, so
    ``--check`` reports the cell and ``perf`` refuses to write it.
    """
    from repro.system.simulator import Simulator
    from repro.telemetry.registry import TelemetryRegistry

    config = corpus_config(config_name)
    trace = corpus_trace(benchmark, CORPUS["processors"],
                         CORPUS["ops_per_processor"])
    registry = TelemetryRegistry(interval=CORPUS["telemetry_interval"])
    runs = []
    for telemetry in (None, registry):
        simulator = Simulator(config, seed=seed, telemetry=telemetry)
        result = simulator.run(
            trace, warmup_fraction=CORPUS["warmup_fraction"])
        runs.append((result, digest(run_record(simulator, result))))
    (plain, plain_digest), (_, observed_digest) = runs
    cell = {
        "fingerprint": result_fingerprint(plain),
        "digest": plain_digest,
        "telemetry_digest": digest(registry.to_dict()),
    }
    if observed_digest != plain_digest:
        cell["telemetry_record_digest"] = observed_digest
    return cell


def generate() -> Dict:
    """Run every scaling row and corpus cell; returns the payload."""
    return {
        "schema": SCHEMA,
        "suite": dict(SUITE),
        "configs": {name: scaling_row(name) for name, _, _ in PERF_CONFIGS},
        "corpus": {
            **CORPUS,
            "cells": {
                cell_name(*cell): corpus_cell(*cell)
                for cell in corpus_cells()
            },
        },
    }


def dumps(payload: Dict) -> str:
    """The file text for *payload* (byte-stable for equal payloads)."""
    return json.dumps(payload, indent=2) + "\n"


def load_measurement(path) -> Dict:
    """Load and vet a ``bench-core/v2`` file for ``--check``.

    Raises :class:`~repro.common.errors.ConfigurationError` with an
    actionable message when the file is missing, unreadable, or the
    wrong schema.
    """
    from repro.common.errors import ConfigurationError

    path = Path(path)
    regenerate = (
        f"regenerate it with `python -m repro.harness perf --output {path}`"
    )
    if not path.exists():
        raise ConfigurationError(
            f"--check: no corpus at {path} — {regenerate}, or point "
            f"--check at an existing one (the committed one lives at the "
            f"repo root as BENCH_core.json)"
        )
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(
            f"--check: {path} is not a readable JSON corpus ({exc}) — "
            f"{regenerate}"
        ) from None
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != SCHEMA:
        raise ConfigurationError(
            f"--check: {path} has schema {schema!r}, expected {SCHEMA!r} — "
            f"{regenerate}"
        )
    return payload


def _compare(kind: str, expected: Dict, committed: Dict) -> List[str]:
    failures = [f"{kind} {name}: missing from the committed file"
                for name in expected if name not in committed]
    failures += [f"{kind} {name}: in the committed file but not generated"
                 for name in committed if name not in expected]
    failures += [
        f"{kind} {name}: differs — generated {expected[name]}, committed "
        f"{committed[name]}"
        for name in expected
        if name in committed and expected[name] != committed[name]
    ]
    return failures


def check_against(payload: Dict, baseline: Dict) -> List[str]:
    """Every difference between a generated *payload* and a committed
    *baseline*, one human-readable line each (empty = identical).

    Names each scaling row and corpus cell that is missing from the
    baseline, extra to it, or different in it, and any difference in
    the run parameters behind them.
    """
    failures = []
    for block in ("suite", "corpus"):
        params = {k: v for k, v in payload.get(block, {}).items()
                  if k != "cells"}
        committed = {k: v for k, v in baseline.get(block, {}).items()
                     if k != "cells"}
        if params != committed:
            failures.append(f"{block} parameters differ — generated "
                            f"{params}, committed {committed}")
    failures += _compare("row", payload.get("configs", {}),
                         baseline.get("configs", {}))
    failures += _compare("cell", payload.get("corpus", {}).get("cells", {}),
                         baseline.get("corpus", {}).get("cells", {}))
    return failures


def render(payload: Dict) -> str:
    """Human-readable summary of one corpus."""
    lines = [f"{'row':<14} {'ops':>9} {'cycles':>10} {'broadcasts':>11}"]
    for name, row in payload["configs"].items():
        fp = row["fingerprint"]
        lines.append(f"{name:<14} {row['simulated_ops']:>9} "
                     f"{fp['cycles']:>10} {fp['broadcasts']:>11}")
    corpus = payload["corpus"]
    configs = sorted({name.split("/")[1] for name in corpus["cells"]})
    lines.append(
        f"corpus: {len(corpus['cells'])} cells at "
        f"{corpus['processors']} processors × "
        f"{corpus['ops_per_processor']} ops, warm-up "
        f"{corpus['warmup_fraction']}; configs: {', '.join(configs)}"
    )
    return "\n".join(lines)


def perf_command(argv) -> int:
    """``python -m repro.harness perf [...]`` — generate or check."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness perf",
        description="Generate the simulator's fingerprint corpus (the "
                    "4–64-processor scaling rows and every benchmark × "
                    "corpus config × seed cell) and write it, or check "
                    "a committed one.",
    )
    parser.add_argument("--output", metavar="PATH", default="BENCH_core.json",
                        help="where to write the corpus "
                             "(default BENCH_core.json)")
    parser.add_argument("--check", metavar="PATH", default=None,
                        help="regenerate and compare with the corpus at "
                             "PATH instead of writing; exit 1 naming each "
                             "missing, extra or different row and cell")
    parser.add_argument("--runlog", metavar="PATH", default=None,
                        help="append the workload-cache statistics to "
                             "PATH (with --workload-cache)")
    parser.add_argument("--workload-cache", metavar="DIR", default=None,
                        dest="workload_cache",
                        help="materialize generated traces under DIR and "
                             "reuse them across configs and invocations "
                             "(also honoured via $REPRO_WORKLOAD_CACHE)")
    args = parser.parse_args(argv)

    from repro.common.errors import ConfigurationError

    # Vet the comparison file up-front — before minutes of runs that a
    # typo'd path would throw away.
    baseline = None
    if args.check:
        try:
            baseline = load_measurement(args.check)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.workload_cache:
        from repro.workloads.store import WorkloadStore, set_workload_store

        set_workload_store(WorkloadStore(args.workload_cache))

    payload = generate()
    print(render(payload))
    from repro.workloads.store import active_store

    store = active_store()
    if store is not None and store.enabled:
        print(f"[workload cache {store.cache_dir}: {store.hits} hits, "
              f"{store.misses} misses, {len(store)} entries]")
        if args.runlog:
            from repro.harness.runlog import RunLog

            with RunLog(args.runlog) as runlog:
                runlog.record("workload-cache", dir=str(store.cache_dir),
                              entries=len(store), **store.stats())
    if baseline is not None:
        failures = check_against(payload, baseline)
        for failure in failures:
            print(f"CORPUS MISMATCH: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"[corpus check passed against {args.check}]")
        return 0
    diverged = [name for name, cell in payload["corpus"]["cells"].items()
                if "telemetry_record_digest" in cell]
    if diverged:
        for name in diverged:
            print(f"CORPUS MISMATCH: cell {name}: the telemetry run's "
                  f"record differs from the plain run's", file=sys.stderr)
        return 1
    Path(args.output).write_text(dumps(payload))
    print(f"[corpus written to {args.output}]")
    return 0
