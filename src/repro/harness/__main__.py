"""Command-line entry: ``python -m repro.harness <experiment> [...]``.

Examples::

    python -m repro.harness fig2
    python -m repro.harness fig8 --ops 100000 --seeds 3
    python -m repro.harness all --quick
    python -m repro.harness fig8 fig9 --workers 4 --runlog runs.jsonl
    python -m repro.harness fig2 --quick --telemetry --no-cache
    python -m repro.harness telemetry barnes --ops 20000 --trace-dump t.jsonl
    python -m repro.harness perf --check BENCH_core.json

Simulation results are cached on disk (``.repro-cache/`` by default, or
``$REPRO_CACHE_DIR``) keyed by configuration + workload + code version,
so re-running only executes changed cells; ``--no-cache`` bypasses the
store. ``--workers N`` fans the experiment grid out across N processes
— results are bit-identical to serial execution. ``--runlog PATH``
appends one JSON-lines record per simulation (wall time, cache hit or
miss, worker PID, peak RSS, failures with tracebacks).

``--telemetry`` instruments every simulation the sweep executes (see
``docs/telemetry.md``): each cell records into its own registry, in
whichever process runs it, and the registries are merged in task order
— the same export at any ``--workers`` count — and written as JSON, CSV
and Prometheus text under ``--telemetry-dir``; ``--interval`` sets the
sampling window in simulated cycles. Cache hits capture nothing —
combine with ``--no-cache`` when you want a full capture.

The ``telemetry`` subcommand runs a *single* benchmark with full
telemetry plus an event log, exports all three formats, and can merge
the event stream with the interval series into a chronological
trace dump (``--trace-dump``).

The ``trace`` subcommand records causal span traces — per-transaction
coherence traces on the simulated clock, or wall-clock spans for a
supervised sweep — summarizes them, decomposes the critical path
against the telemetry histograms, and exports Chrome trace-event JSON
that Perfetto loads directly (see ``docs/tracing.md``).

The ``perf`` subcommand generates the simulator's fingerprint corpus —
the 4–64-processor scaling rows plus every benchmark × corpus config ×
seed cell, as result digests — and writes ``BENCH_core.json``, or checks
a committed one with ``--check`` (see ``docs/performance.md``).

The ``conformance`` subcommand fuzzes the coherence protocol
differentially against the golden reference model (see
``docs/conformance.md``): seeded adversarial traces across all six
canonical machine points, parallel and checkpointable through the
supervised pool, with failing traces shrunk to minimal reproducers.

The ``traces`` subcommand ingests on-disk access traces: convert
between CSV/binary/npz formats, profile reuse distance, sharing and the
oracle Figure-2 broadcast mix without simulating, spatially sample
large traces down to simulator size with a machine-readable error
report, and replay trace files through the full simulator or a region
sweep (see ``docs/traces.md``). Trace files also run anywhere a
workload name does, via ``trace:<path>``.

Robustness (see ``docs/robustness.md``): ``--check-invariants
{sampled,deep}`` audits every *executed* simulation with the runtime
coherence sanitizer (a violation aborts the run and writes a
diagnostics bundle); ``--task-timeout`` bounds each parallel cell's
wall clock; ``--checkpoint PATH`` makes interrupted sweeps resumable
from the result cache, bit-identically. The ``validate`` subcommand
runs the sanitizer matrix directly — every requested workload ×
machine configuration under sampled or deep auditing.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.harness.cache import DEFAULT_CACHE_DIR, DiskCache
from repro.harness.experiments import (
    EXPERIMENTS,
    RunOptions,
    check_experiments,
)
from repro.harness.parallel import experiment_tasks
from repro.harness.runcache import RunCache
from repro.harness.runlog import RunLog


def _telemetry_command(argv) -> int:
    """``python -m repro.harness telemetry <benchmark> [...]``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness telemetry",
        description="Run one benchmark fully instrumented and export the "
                    "telemetry (JSON + CSV + Prometheus, optional trace "
                    "dump).",
    )
    parser.add_argument("benchmark", help="workload name (e.g. barnes)")
    parser.add_argument("--baseline", action="store_true",
                        help="run the broadcast baseline instead of CGCT")
    parser.add_argument("--ops", type=int, default=20_000,
                        help="memory operations per processor (default 20000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="perturbation seed (default 0)")
    parser.add_argument("--warmup", type=float, default=0.4,
                        help="warm-up fraction of the trace (default 0.4)")
    parser.add_argument("--interval", type=int, default=100_000,
                        help="sampling window in simulated cycles "
                             "(default 100000, the Figure 10 window)")
    parser.add_argument("--out", metavar="DIR", default="telemetry-out",
                        help="export directory (default telemetry-out)")
    parser.add_argument("--trace-dump", metavar="PATH", default=None,
                        help="also write the merged event/interval stream "
                             "to PATH as JSON-lines")
    parser.add_argument("--events", type=int, default=65_536,
                        help="event-log ring capacity (default 65536)")
    parser.add_argument("--tail", type=int, default=0,
                        help="print the last N trace records to stdout")
    args = parser.parse_args(argv)

    from pathlib import Path

    from repro.system.config import SystemConfig
    from repro.system.eventlog import EventLog
    from repro.system.simulator import Simulator
    from repro.telemetry import TelemetryRegistry
    from repro.telemetry import export as tele_export
    from repro.telemetry import tracedump
    from repro.workloads.benchmarks import build_benchmark

    registry = TelemetryRegistry(interval=args.interval)
    event_log = EventLog(capacity=args.events)
    config = (
        SystemConfig.paper_baseline() if args.baseline
        else SystemConfig.paper_cgct()
    )
    workload = build_benchmark(
        args.benchmark, num_processors=config.num_processors,
        ops_per_processor=args.ops, seed=0,
    )
    simulator = Simulator(config, seed=args.seed, telemetry=registry)
    simulator.machine.attach_event_log(event_log)
    result = simulator.run(workload, warmup_fraction=args.warmup)

    out = Path(args.out)
    tele_export.save_all(registry, out)
    dumped = None
    if args.trace_dump:
        dumped = tracedump.save_trace_dump(registry, event_log,
                                           args.trace_dump)

    mode = "baseline" if args.baseline else "cgct"
    print(f"[{args.benchmark}/{mode}: {result.cycles} cycles, "
          f"{result.stats.total_external} external requests, "
          f"{result.stats.total_broadcasts} broadcasts]")
    matrix = registry.get("rca.transitions")
    if matrix is not None and matrix.total:
        print(f"[rca transitions: {matrix.total} recorded across "
              f"{matrix.coverage()} distinct (from, event, to) cells]")
    print(f"[telemetry written to {out}/telemetry.{{json,csv,prom}}]")
    if dumped is not None:
        print(f"[{dumped} trace records written to {args.trace_dump}]")
    if args.tail:
        print(tracedump.render(registry, event_log, limit=args.tail))
    return 0


def _validate_command(argv) -> int:
    """``python -m repro.harness validate [...]``.

    Runs the coherence-invariant sanitizer over a workload ×
    configuration matrix — by default every registered benchmark on all
    six canonical machine points (4/8/16 processors × baseline/CGCT).
    Exit 0 means every cell passed every audit; a violation prints the
    diagnostics-bundle path and the command exits 1 after finishing the
    remaining cells.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness validate",
        description="Audit simulations against the paper's coherence "
                    "invariants (single owner, shared implies no remote "
                    "M, Table 1 region-state consistency).",
    )
    parser.add_argument("--benchmarks", nargs="*", default=None,
                        help="workloads to audit (default: all registered)")
    parser.add_argument("--configs", nargs="*", default=None,
                        help="machine points to audit, by perf-config name "
                             "(default: every perf config, 4p–64p × "
                             "baseline/cgct)")
    parser.add_argument("--mode", choices=("sampled", "deep"),
                        default="deep",
                        help="sampled = rotating subset every 4096 events; "
                             "deep = exhaustive every 256 events "
                             "(default deep — this is a debugging tool)")
    parser.add_argument("--ops", type=int, default=4_000,
                        help="memory operations per processor "
                             "(default 4000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="perturbation seed (default 0)")
    parser.add_argument("--warmup", type=float, default=0.4,
                        help="warm-up fraction (default 0.4)")
    parser.add_argument("--bundle-dir", metavar="DIR", default="diagnostics",
                        help="where violation bundles are written "
                             "(default diagnostics/)")
    parser.add_argument("--runlog", metavar="PATH", default=None,
                        help="append one JSON-lines record per audited "
                             "cell to PATH")
    args = parser.parse_args(argv)

    from repro.common.errors import InvariantViolation
    from repro.harness.perfbench import PERF_CONFIGS, bench_config
    from repro.system.simulator import Simulator
    from repro.validate.sanitizer import CoherenceSanitizer
    from repro.workloads.benchmarks import BENCHMARKS, build_benchmark

    benchmarks = args.benchmarks or sorted(BENCHMARKS)
    config_names = args.configs or [n for n, _, _ in PERF_CONFIGS]
    configs = {name: bench_config(name) for name in config_names}

    runlog = RunLog(args.runlog) if args.runlog else None
    traces = {}
    failed = []
    started = time.time()
    try:
        for benchmark in benchmarks:
            for name, config in configs.items():
                trace_key = (benchmark, config.num_processors)
                if trace_key not in traces:
                    traces[trace_key] = build_benchmark(
                        benchmark, num_processors=config.num_processors,
                        ops_per_processor=args.ops, seed=0,
                    )
                sanitizer = CoherenceSanitizer(
                    mode=args.mode, bundle_dir=args.bundle_dir,
                )
                simulator = Simulator(config, seed=args.seed,
                                      sanitizer=sanitizer)
                cell = f"{benchmark}/{name}"
                try:
                    simulator.run(traces[trace_key],
                                  warmup_fraction=args.warmup)
                except InvariantViolation as exc:
                    failed.append(cell)
                    print(f"FAIL {cell}: {exc}")
                    if runlog is not None:
                        runlog.record(
                            "validate", cell=cell, mode=args.mode,
                            status="violation", error=str(exc),
                            bundle=(str(exc.bundle_path)
                                    if exc.bundle_path else None),
                            violations=list(exc.violations),
                        )
                else:
                    print(f"ok   {cell} ({args.mode}: "
                          f"{sanitizer.checks} audits, "
                          f"{sanitizer.lines_checked} line and "
                          f"{sanitizer.regions_checked} region checks)")
                    if runlog is not None:
                        runlog.record(
                            "validate", cell=cell, mode=args.mode,
                            status="ok", checks=sanitizer.checks,
                            lines_checked=sanitizer.lines_checked,
                            regions_checked=sanitizer.regions_checked,
                        )
    finally:
        if runlog is not None:
            runlog.close()
    cells = len(benchmarks) * len(configs)
    verdict = (f"{len(failed)} of {cells} cells FAILED" if failed
               else f"all {cells} cells clean")
    print(f"[validate {args.mode}: {verdict} in "
          f"{time.time() - started:.1f}s]")
    return 1 if failed else 0


def _conformance_command(argv) -> int:
    """``python -m repro.harness conformance [...]``.

    Differential conformance fuzzing (see ``docs/conformance.md``):
    every iteration fuzzes one adversarial trace per machine size and
    replays it on all six canonical configurations against the golden
    model, with the runtime sanitizer attached. Exit 0 means every cell
    of every iteration agreed with the golden model; on failures the
    command exits 1 after (optionally) shrinking each distinct failure
    to a minimal reproducer bundle + corpus file.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness conformance",
        description="Fuzz the coherence protocol differentially against "
                    "the golden reference model.",
    )
    parser.add_argument("--iterations", type=int, default=200,
                        help="fuzzed trace ids to run (default 200)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign root seed (default 0)")
    parser.add_argument("--ops", type=int, default=48,
                        help="accesses per processor per trace (default 48)")
    parser.add_argument("--time-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="stop starting new iterations past this wall "
                             "clock (completed iterations still count)")
    parser.add_argument("--shrink", action="store_true",
                        help="minimize each distinct failure and write a "
                             "reproducer bundle + corpus file")
    parser.add_argument("--workers", type=int, default=0,
                        help="fan iterations out across N supervised worker "
                             "processes (default 0 = serial)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget per parallel iteration")
    parser.add_argument("--configs", nargs="*", default=None,
                        help="machine points to fuzz, by perf-config name "
                             "(default: every perf config up to 32p × "
                             "baseline/cgct)")
    parser.add_argument("--bundle-dir", metavar="DIR", default="diagnostics",
                        help="where reproducer bundles and corpus files are "
                             "written (default diagnostics/)")
    parser.add_argument("--runlog", metavar="PATH", default=None,
                        help="append one JSON-lines record per iteration")
    parser.add_argument("--checkpoint", metavar="PATH", default=None,
                        help="record per-iteration completion so an "
                             "interrupted campaign resumes where it stopped")
    args = parser.parse_args(argv)

    from repro.conformance.campaign import run_campaign

    checkpoint = None
    if args.checkpoint:
        from repro.harness.supervisor import SweepCheckpoint

        checkpoint = SweepCheckpoint(args.checkpoint)
    runlog = RunLog(args.runlog) if args.runlog else None
    try:
        result = run_campaign(
            iterations=args.iterations,
            seed=args.seed,
            ops=args.ops,
            workers=args.workers,
            time_budget=args.time_budget,
            shrink=args.shrink,
            config_names=args.configs,
            bundle_dir=args.bundle_dir,
            runlog=runlog,
            checkpoint=checkpoint,
            task_timeout=args.task_timeout,
            progress=print,
        )
    finally:
        if runlog is not None:
            runlog.close()
    budget_note = " (stopped by --time-budget)" if result.stopped_by_budget \
        else ""
    if result.ok:
        print(f"[conformance: {result.iterations} iterations / "
              f"{result.cells} cells clean in {result.elapsed:.1f}s"
              f"{budget_note}]")
        return 0
    print(f"[conformance: {len(result.failures)} failing cells across "
          f"{result.iterations} iterations in {result.elapsed:.1f}s"
          f"{budget_note}]")
    for bundle, corpus in result.reproducers:
        print(f"[reproducer: {bundle}]")
        print(f"[corpus file (commit under tests/conformance/corpus/): "
              f"{corpus}]")
    return 1


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "telemetry":
        return _telemetry_command(argv[1:])
    if argv and argv[0] == "validate":
        return _validate_command(argv[1:])
    if argv and argv[0] == "conformance":
        return _conformance_command(argv[1:])
    if argv and argv[0] == "perf":
        from repro.harness.perfbench import perf_command

        return perf_command(argv[1:])
    if argv and argv[0] == "trace":
        from repro.obs.cli import trace_command

        return trace_command(argv[1:])
    if argv and argv[0] == "traces":
        from repro.traces.cli import traces_command

        return traces_command(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments", nargs="+",
        help=f"experiment IDs ({', '.join(EXPERIMENTS)}) or 'all'; "
             "or the 'telemetry' / 'validate' / 'perf' / 'conformance' "
             "/ 'trace' / 'traces' subcommands (see --help "
             "of 'python -m repro.harness <subcommand>')",
    )
    parser.add_argument("--ops", type=int, default=60_000,
                        help="memory operations per processor (default 60000)")
    parser.add_argument("--seeds", type=int, default=2,
                        help="perturbed runs per configuration (default 2)")
    parser.add_argument("--warmup", type=float, default=0.4,
                        help="warm-up fraction of each trace (default 0.4)")
    parser.add_argument("--benchmarks", nargs="*", default=None,
                        help="restrict to these workloads")
    parser.add_argument("--quick", action="store_true",
                        help="small traces, one seed, three workloads")
    parser.add_argument("--workers", type=int, default=0,
                        help="fan simulations out across N worker processes "
                             "(default 0 = serial; results are identical)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="on-disk result cache directory "
                             f"(default {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache entirely")
    parser.add_argument("--workload-cache", metavar="DIR", default=None,
                        dest="workload_cache",
                        help="materialize generated workload traces under "
                             "DIR and memory-map them back on reuse "
                             "(also honoured via $REPRO_WORKLOAD_CACHE)")
    parser.add_argument("--runlog", metavar="PATH", default=None,
                        help="append per-simulation JSON-lines records to PATH")
    parser.add_argument("--check-invariants", choices=("sampled", "deep"),
                        default="", dest="check_invariants",
                        help="audit every executed simulation with the "
                             "runtime coherence sanitizer (cache hits were "
                             "audited when first computed; see "
                             "docs/robustness.md)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget per parallel cell; a worker "
                             "past it is killed and the cell retried")
    parser.add_argument("--checkpoint", metavar="PATH", default=None,
                        help="record per-cell completion at PATH so an "
                             "interrupted sweep resumes from the result "
                             "cache (requires the cache; bit-identical)")
    parser.add_argument("--telemetry", action="store_true",
                        help="instrument every executed simulation and "
                             "export the merged metrics (cache hits "
                             "capture nothing — consider --no-cache)")
    parser.add_argument("--interval", type=int, default=100_000,
                        help="telemetry sampling window in simulated cycles "
                             "(default 100000)")
    parser.add_argument("--telemetry-dir", metavar="DIR",
                        default="telemetry-out",
                        help="telemetry export directory "
                             "(default telemetry-out)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write all results to PATH as JSON")
    parser.add_argument("--markdown", metavar="PATH", default=None,
                        help="also write all results to PATH as Markdown")
    args = parser.parse_args(argv)

    options = RunOptions(
        ops_per_processor=args.ops,
        seeds=args.seeds,
        warmup_fraction=args.warmup,
    )
    if args.benchmarks:
        options = RunOptions(
            ops_per_processor=options.ops_per_processor,
            seeds=options.seeds,
            warmup_fraction=options.warmup_fraction,
            benchmarks=tuple(args.benchmarks),
        )
    if args.quick:
        options = options.quick()

    wanted = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    check_experiments(wanted)
    disk = None if args.no_cache else DiskCache(args.cache_dir)
    cache = RunCache(disk=disk, check_invariants=args.check_invariants,
                     telemetry_interval=(args.interval if args.telemetry
                                         else None))
    if args.workload_cache:
        from repro.workloads.store import WorkloadStore, set_workload_store

        set_workload_store(WorkloadStore(args.workload_cache))
    runlog = RunLog(args.runlog) if args.runlog else None
    checkpoint = None
    if args.checkpoint:
        from repro.harness.supervisor import SweepCheckpoint

        checkpoint = SweepCheckpoint(args.checkpoint)
    try:
        # Execute the whole grid up-front (in parallel when asked); each
        # experiment below then renders from the warm cache.
        registries = cache.warm(
            experiment_tasks(wanted, options), workers=args.workers,
            runlog=runlog, task_timeout=args.task_timeout,
            checkpoint=checkpoint)
        results = []
        for experiment_id in wanted:
            started = time.time()
            result = EXPERIMENTS[experiment_id](options, cache)
            results.append(result)
            print(result.render())
            print(f"[{experiment_id} finished in {time.time() - started:.1f}s]\n")
        if args.telemetry:
            _export_telemetry(registries, args)
    finally:
        if runlog is not None:
            runlog.close()
    if args.json:
        from repro.harness.export import save_results_json

        save_results_json(results, args.json)
        print(f"[results written to {args.json}]")
    if args.markdown:
        from repro.harness.export import save_results_markdown

        save_results_markdown(results, args.markdown)
        print(f"[results written to {args.markdown}]")
    return 0


def _export_telemetry(registries, args) -> None:
    """Merge the cells' registries; write JSON/CSV/Prometheus."""
    from pathlib import Path

    from repro.telemetry import TelemetryRegistry
    from repro.telemetry import export as tele_export

    merged = TelemetryRegistry(interval=args.interval)
    for registry in registries:
        merged.merge_from(registry)
    out = Path(args.telemetry_dir)
    tele_export.save_all(merged, out)
    print(f"[telemetry from {len(registries)} simulated "
          f"runs written to {out}/telemetry.{{json,csv,prom}}]")


if __name__ == "__main__":
    sys.exit(main())
