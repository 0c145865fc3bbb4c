"""The ``trace`` subcommand: record, inspect and export span traces.

::

    python -m repro.harness trace record barnes --config 8p-cgct \\
        --ops 4000 --out trace.jsonl --telemetry telemetry.json
    python -m repro.harness trace summary trace.jsonl
    python -m repro.harness trace critical-path trace.jsonl \\
        --telemetry telemetry.json
    python -m repro.harness trace export trace.jsonl -o trace.json

``record`` runs one benchmark with a :class:`SimTracer` attached and
writes a JSONL span file on the cycles clock (``--sample N`` keeps every
Nth access). Every other subcommand also reads a sweep's run log
(``python -m repro.harness fig2 --runlog sweep.jsonl``) as wall-clock
spans: one sweep span per runner invocation, one task span per cell.
``export`` converts either kind to the Chrome trace-event JSON that
https://ui.perfetto.dev loads directly. See docs/tracing.md.
"""

from __future__ import annotations

import argparse
import json
import sys


def _record(args) -> int:
    from repro.harness.perfbench import bench_config
    from repro.obs.export import write_spans
    from repro.obs.simtrace import SimTracer
    from repro.system.simulator import Simulator
    from repro.workloads.benchmarks import build_benchmark

    config = bench_config(args.config)
    workload = build_benchmark(
        args.target, num_processors=config.num_processors,
        ops_per_processor=args.ops, seed=0,
    )
    tracer = SimTracer(sample=args.sample)
    telemetry = None
    if args.telemetry:
        from repro.telemetry import TelemetryRegistry

        telemetry = TelemetryRegistry()
    simulator = Simulator(config, seed=args.seed, telemetry=telemetry,
                          tracer=tracer)
    result = simulator.run(workload, warmup_fraction=args.warmup)
    count = write_spans(tracer.to_spans(), args.out)
    print(f"[{args.target}/{args.config}: {result.cycles} cycles; "
          f"{tracer.recorded} of {tracer.accesses} accesses captured, "
          f"{count} spans written to {args.out}]")
    if telemetry is not None:
        from repro.telemetry import export as tele_export

        tele_export.save_json(telemetry, args.telemetry)
        print(f"[telemetry snapshot written to {args.telemetry} — "
              f"feed it to 'trace critical-path --telemetry']")
    return 0


def _summary(args) -> int:
    from repro.obs.analyze import render_summary, summarize

    print(render_summary(summarize(args.spans)))
    return 0


def _critical_path(args) -> int:
    from repro.obs.analyze import critical_path, render_critical_path

    telemetry = None
    if args.telemetry:
        with open(args.telemetry, "r", encoding="utf-8") as fh:
            telemetry = json.load(fh)
    report = critical_path(args.spans, telemetry=telemetry)
    print(render_critical_path(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[report written to {args.json}]")
    return 0


def _export(args) -> int:
    from repro.obs.export import validate_chrome_trace, write_chrome_trace

    trace = write_chrome_trace(args.spans, args.out)
    events = validate_chrome_trace(trace)
    print(f"[{events} events written to {args.out}; load it at "
          f"https://ui.perfetto.dev or chrome://tracing]")
    return 0


def trace_command(argv) -> int:
    """``python -m repro.harness trace <record|summary|...> [...]``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness trace",
        description="Record, inspect and export causal span traces "
                    "(see docs/tracing.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser(
        "record", help="run a traced benchmark and write a JSONL span "
                       "file")
    record.add_argument("target", help="benchmark name (e.g. barnes)")
    record.add_argument("--config", default="8p-cgct",
                        help="perf-config name (default 8p-cgct)")
    record.add_argument("--ops", type=int, default=4_000,
                        help="memory operations per processor "
                             "(default 4000)")
    record.add_argument("--seed", type=int, default=0,
                        help="perturbation seed (default 0)")
    record.add_argument("--warmup", type=float, default=0.0,
                        help="warm-up fraction (default 0: trace the "
                             "whole run so telemetry reconciles exactly)")
    record.add_argument("--sample", type=int, default=1,
                        help="capture every Nth access (default 1 = all)")
    record.add_argument("--out", required=True, metavar="PATH",
                        help="JSONL span file to write")
    record.add_argument("--telemetry", metavar="PATH", default=None,
                        help="also export the run's telemetry JSON")
    record.set_defaults(func=_record)

    summary = sub.add_parser("summary",
                             help="counts, verdicts and latencies of a "
                                  "span file")
    summary.add_argument("file", help="JSONL span file or run log")
    summary.set_defaults(func=_summary)

    critical = sub.add_parser(
        "critical-path",
        help="per-path latency decomposition, optionally reconciled "
             "against a telemetry JSON export")
    critical.add_argument("file", help="JSONL span file or run log")
    critical.add_argument("--telemetry", metavar="PATH", default=None,
                          help="telemetry JSON from the same run")
    critical.add_argument("--json", metavar="PATH", default=None,
                          help="also write the report as JSON")
    critical.set_defaults(func=_critical_path)

    export = sub.add_parser(
        "export", help="convert a span file or run log to Chrome "
                       "trace-event JSON (Perfetto-loadable)")
    export.add_argument("file", help="JSONL span file or run log")
    export.add_argument("-o", "--out", required=True, metavar="PATH",
                        help="output file")
    export.set_defaults(func=_export)

    args = parser.parse_args(argv)
    if args.command != "record":
        from repro.obs.export import read_spans

        args.spans = read_spans(args.file)
        if not args.spans:
            print(f"error: {args.file}: no spans (neither span records "
                  f"nor a run log with a sweep)", file=sys.stderr)
            return 1
    return args.func(args)
