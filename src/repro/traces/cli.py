"""``python -m repro.harness traces <convert|profile|sample|run> [...]``.

The trace pipeline's command-line face (see ``docs/traces.md``)::

    # capture a generated benchmark as a portable trace file
    traces convert bench:tpc-w big.bin --processors 4 --ops 250000

    # formats convert freely (content-sniffed, gzip-transparent)
    traces convert big.bin big.csv.gz

    # profile: reuse distance, sharing footprint, oracle Figure 2
    traces profile big.bin --json profile.json

    # shrink it 8x, emitting the sample-vs-full error report
    traces sample big.bin small.bin --rate 8 --report report.json

    # replay through the full simulator (and optionally a region sweep)
    traces run small.bin --config 4p-cgct
    traces run small.bin --sweep --workers 4

Every subcommand takes ``--runlog PATH`` and appends one JSON-lines
record; ``run`` additionally exports full telemetry with
``--telemetry-dir``. Trace files also work wherever a workload name
does (``trace:<path>``), so sweeps, experiments and conformance
replay them unchanged.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.common.errors import WorkloadError


def _add_runlog(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--runlog", metavar="PATH", default=None,
                        help="append one JSON-lines record to PATH")


def _runlog(args):
    if not args.runlog:
        return None
    from repro.harness.runlog import RunLog

    return RunLog(args.runlog)


def _resolve_source(src: str, args) -> str:
    """Materialize ``bench:<name>`` sources into a temporary npz file."""
    if not src.startswith("bench:"):
        return src
    from repro.workloads.benchmarks import build_benchmark

    name = src[len("bench:"):]
    workload = build_benchmark(
        name,
        num_processors=args.processors,
        seed=getattr(args, "trace_seed", 0),
        ops_per_processor=args.ops,
    )
    return workload


def _format_for(path: Path, override=None) -> str:
    if override:
        return override
    name = path.name[:-3] if path.name.endswith(".gz") else path.name
    if name.endswith(".csv"):
        return "csv"
    if name.endswith(".npz"):
        return "npz"
    return "binary"


# ----------------------------------------------------------------------
def _convert(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness traces convert",
        description="Convert between trace formats (csv, binary, npz), "
                    "or capture a generated benchmark as a trace file.",
    )
    parser.add_argument("src", help="trace file, or bench:<name> to "
                                    "generate a benchmark workload")
    parser.add_argument("dst", help="output path (.csv/.bin/.npz, "
                                    "optional .gz)")
    parser.add_argument("--format", choices=("csv", "binary", "npz"),
                        default=None,
                        help="output format (default: from dst suffix)")
    parser.add_argument("--processors", type=int, default=4,
                        help="machine width for bench: sources "
                             "(default 4)")
    parser.add_argument("--ops", type=int, default=None,
                        help="operations per processor for bench: "
                             "sources (default: the profile's)")
    parser.add_argument("--trace-seed", type=int, default=0,
                        help="generator seed for bench: sources")
    parser.add_argument("--chunk", type=int, default=65_536,
                        help="streaming chunk size in records")
    _add_runlog(parser)
    args = parser.parse_args(argv)

    from repro.traces import reader
    from repro.workloads.trace import MultiTrace

    started = time.time()
    dst = Path(args.dst)
    out_format = _format_for(dst, args.format)
    source = _resolve_source(args.src, args)
    if isinstance(source, MultiTrace):
        records = reader.save_workload(source, dst, out_format)
        nprocs = source.num_processors
    else:
        info = reader.detect_format(source)
        if info.format == "npz" or out_format == "npz" \
                or info.num_processors is None:
            # No declared width (bare CSV) or no event order (npz):
            # materialize, then save.
            workload = reader.load_workload(source)
            records = reader.save_workload(workload, dst, out_format)
            nprocs = workload.num_processors
        else:
            nprocs = info.num_processors
            chunks = reader.read_events(source, chunk_records=args.chunk)
            if out_format == "csv":
                records = reader.write_csv(dst, chunks, nprocs)
            else:
                records = reader.write_binary(
                    dst, chunks, nprocs, record_count=info.record_count,
                )
    elapsed = time.time() - started
    print(f"[traces convert: {records} records, {nprocs} processors "
          f"-> {dst} ({out_format}) in {elapsed:.1f}s]")
    runlog = _runlog(args)
    if runlog is not None:
        with runlog:
            runlog.record("traces-convert", src=str(args.src),
                          dst=str(dst), format=out_format,
                          records=records, processors=nprocs,
                          elapsed=elapsed)
    return 0


# ----------------------------------------------------------------------
def _profile(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness traces profile",
        description="Profile a trace: reuse-distance histogram, "
                    "per-region sharing footprint, oracle Figure-2 "
                    "broadcast profile (no simulation).",
    )
    parser.add_argument("src", help="trace file (csv/binary/npz), or "
                                    "bench:<name>")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the full profile to PATH as JSON")
    parser.add_argument("--line-bytes", type=int, default=64)
    parser.add_argument("--region-bytes", type=int, default=512)
    parser.add_argument("--processors", type=int, default=4,
                        help="machine width for bench: sources")
    parser.add_argument("--ops", type=int, default=None,
                        help="operations per processor for bench: "
                             "sources")
    parser.add_argument("--chunk", type=int, default=65_536)
    _add_runlog(parser)
    args = parser.parse_args(argv)

    from repro.traces import profiler
    from repro.workloads.trace import MultiTrace

    started = time.time()
    source = _resolve_source(args.src, args)
    if isinstance(source, MultiTrace):
        profile = profiler.profile_workload(
            source, line_bytes=args.line_bytes,
            region_bytes=args.region_bytes,
        )
    else:
        profile = profiler.profile_file(
            source, line_bytes=args.line_bytes,
            region_bytes=args.region_bytes, chunk_records=args.chunk,
        )
    elapsed = time.time() - started
    print(render_profile(profile))
    print(f"[traces profile: {profile.accesses} accesses in "
          f"{elapsed:.1f}s]")
    if args.json:
        profile.save_json(args.json)
        print(f"[profile written to {args.json}]")
    runlog = _runlog(args)
    if runlog is not None:
        with runlog:
            runlog.record(
                "traces-profile", src=str(args.src),
                accesses=profile.accesses,
                fraction_unnecessary=profile.oracle.fraction_unnecessary,
                mean_reuse_distance=profile.reuse.mean,
                regions=profile.regions_touched,
                shared_fraction=profile.shared_region_fraction,
                elapsed=elapsed,
            )
    return 0


def render_profile(profile) -> str:
    """Human-readable profile summary."""
    lines = [
        f"trace profile: {profile.accesses} accesses, "
        f"{profile.num_processors} processors, "
        f"{profile.lines_touched} lines, "
        f"{profile.regions_touched} regions "
        f"({profile.region_bytes} B regions)",
        f"  op mix: " + ", ".join(
            f"{name}={count}"
            for name, count in sorted(profile.op_counts.items())
        ),
        f"  reuse distance: mean {profile.reuse.mean:.1f}, "
        f"max {profile.reuse.max_distance}, "
        f"cold {profile.reuse.cold} "
        f"({profile.reuse.cold / profile.accesses:.1%})"
        if profile.accesses else "  reuse distance: (empty trace)",
        f"  sharing: {profile.regions_shared} shared regions "
        f"({profile.shared_region_fraction:.1%}), "
        f"{profile.regions_write_shared} write-shared, "
        f"{profile.upgrades} upgrades",
        f"  oracle figure 2: {profile.oracle.unnecessary} of "
        f"{profile.oracle.total} accesses need no broadcast "
        f"({profile.oracle.fraction_unnecessary:.1%} unnecessary)",
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
def _sample(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness traces sample",
        description="Region-aligned spatial sampling: keep a "
                    "deterministic 1/RATE of regions, write the sampled "
                    "trace, and emit a sample-vs-full error report.",
    )
    parser.add_argument("src", help="trace file (csv or binary)")
    parser.add_argument("dst", help="sampled trace output path")
    parser.add_argument("--rate", type=int, required=True,
                        help="keep 1 in RATE regions")
    parser.add_argument("--seed", type=int, default=0,
                        help="sampling hash seed (default 0)")
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="write the error report to PATH as JSON")
    parser.add_argument("--bound", action="append", default=[],
                        metavar="METRIC=VALUE",
                        help="override a per-metric error bound "
                             "(repeatable)")
    parser.add_argument("--enforce", action="store_true",
                        help="exit 1 when the sample violates its "
                             "error bounds")
    parser.add_argument("--line-bytes", type=int, default=64)
    parser.add_argument("--region-bytes", type=int, default=512)
    parser.add_argument("--chunk", type=int, default=65_536)
    _add_runlog(parser)
    args = parser.parse_args(argv)

    from repro.traces import sample as sample_mod

    bounds = {}
    for spec in args.bound:
        name, _, value = spec.partition("=")
        if name not in sample_mod.DEFAULT_BOUNDS:
            parser.error(
                f"unknown metric {name!r} (bounds: "
                f"{', '.join(sample_mod.DEFAULT_BOUNDS)})"
            )
        try:
            bounds[name] = float(value)
        except ValueError:
            parser.error(f"bad bound {spec!r}")

    started = time.time()
    report = sample_mod.sample_file(
        args.src, args.dst, rate=args.rate, seed=args.seed,
        region_bytes=args.region_bytes, line_bytes=args.line_bytes,
        chunk_records=args.chunk, bounds=bounds,
    )
    elapsed = time.time() - started
    kept = report["accesses"]["sampled"]
    total = report["accesses"]["full"]
    print(f"[traces sample: kept {kept} of {total} accesses "
          f"({kept / total:.1%} at rate {args.rate}), "
          f"{report['regions']['sampled']} of "
          f"{report['regions']['full']} regions -> {args.dst} "
          f"in {elapsed:.1f}s]" if total else
          f"[traces sample: empty trace -> {args.dst}]")
    for name, cell in sorted(report["metrics"].items()):
        flag = "ok  " if cell["within"] else "FAIL"
        print(f"  {flag} {name}: full {cell['full']:.4f} vs sampled "
              f"{cell['sampled']:.4f} (rel err {cell['rel_error']:.3f}, "
              f"bound {cell['bound']})")
    verdict = "within bounds" if report["within_bounds"] \
        else "OUTSIDE bounds"
    print(f"[error report: {verdict}]")
    if args.report:
        sample_mod.save_report(report, args.report)
        print(f"[error report written to {args.report}]")
    runlog = _runlog(args)
    if runlog is not None:
        with runlog:
            runlog.record(
                "traces-sample", src=str(args.src), dst=str(args.dst),
                rate=args.rate, seed=args.seed, kept=kept, total=total,
                within_bounds=report["within_bounds"], elapsed=elapsed,
            )
    if args.enforce and not report["within_bounds"]:
        return 1
    return 0


# ----------------------------------------------------------------------
def _run(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness traces run",
        description="Replay a trace file through the full simulator "
                    "(optionally as a region-size sweep through the "
                    "parallel harness).",
    )
    parser.add_argument("src", help="trace file (csv/binary/npz)")
    parser.add_argument("--config", default=None,
                        help="perf-config name (e.g. 4p-cgct; default: "
                             "<N>p-cgct for the trace's width)")
    parser.add_argument("--baseline", action="store_true",
                        help="with no --config, use <N>p-baseline")
    parser.add_argument("--ops", type=int, default=None,
                        help="truncate each processor's stream")
    parser.add_argument("--seed", type=int, default=0,
                        help="timing perturbation seed")
    parser.add_argument("--warmup", type=float, default=0.0,
                        help="warm-up fraction (default 0: captured "
                             "traces carry their own warm state)")
    parser.add_argument("--sweep", action="store_true",
                        help="sweep region sizes 256/512/1024 B through "
                             "the harness instead of one run")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes for --sweep")
    parser.add_argument("--telemetry-dir", metavar="DIR", default=None,
                        help="instrument the (single) run and export "
                             "telemetry JSON/CSV/Prometheus under DIR")
    _add_runlog(parser)
    args = parser.parse_args(argv)

    from repro.traces.reader import load_workload
    from repro.workloads.benchmarks import TRACE_PREFIX

    src = Path(args.src)
    probe = load_workload(src)
    width = probe.num_processors
    name = TRACE_PREFIX + str(src)
    runlog = _runlog(args)
    try:
        if args.sweep:
            return _run_sweep(args, name, width, runlog)
        return _run_single(args, name, width, runlog)
    finally:
        if runlog is not None:
            runlog.close()


def _bench_config(args, width: int):
    from repro.harness.perfbench import PERF_CONFIGS, bench_config

    if args.config:
        return args.config, bench_config(args.config)
    widths = sorted({p for _, p, _ in PERF_CONFIGS})
    fits = [p for p in widths if p >= width]
    if not fits:
        raise WorkloadError(
            f"trace is {width} processors wide; the widest canonical "
            f"machine has {widths[-1]} (pass --config)"
        )
    config_name = f"{fits[0]}p-{'baseline' if args.baseline else 'cgct'}"
    return config_name, bench_config(config_name)


def _run_single(args, name: str, width: int, runlog) -> int:
    from repro.system.simulator import run_workload
    from repro.workloads.benchmarks import build_benchmark

    config_name, config = _bench_config(args, width)
    workload = build_benchmark(
        name, num_processors=config.num_processors,
        ops_per_processor=args.ops,
    )
    registry = None
    if args.telemetry_dir:
        from repro.telemetry import TelemetryRegistry

        registry = TelemetryRegistry(interval=100_000)
    started = time.time()
    result = run_workload(
        config, workload, seed=args.seed,
        warmup_fraction=args.warmup, telemetry=registry,
    )
    elapsed = time.time() - started
    print(f"[{name} on {config_name}: {result.cycles} cycles, "
          f"{result.stats.total_external} external requests, "
          f"{result.stats.total_broadcasts} broadcasts, "
          f"{result.fraction_avoided():.1%} avoided, "
          f"{result.fraction_unnecessary():.1%} unnecessary "
          f"in {elapsed:.1f}s]")
    if registry is not None:
        from repro.telemetry import export as tele_export

        out = Path(args.telemetry_dir)
        tele_export.save_all(registry, out)
        print(f"[telemetry written to {out}/telemetry.{{json,csv,prom}}]")
    if runlog is not None:
        runlog.record(
            "traces-run", src=str(args.src), config=config_name,
            cycles=result.cycles,
            external=result.stats.total_external,
            broadcasts=result.stats.total_broadcasts,
            fraction_avoided=result.fraction_avoided(),
            fraction_unnecessary=result.fraction_unnecessary(),
            seed=args.seed, elapsed=elapsed,
        )
    return 0


def _run_sweep(args, name: str, width: int, runlog) -> int:
    from repro.harness.sweep import ConfigSweep

    config_name, config = _bench_config(args, width)
    if not config.cgct_enabled:
        raise WorkloadError("--sweep varies the region size; use a "
                            "cgct config")
    from repro.harness.perfbench import bench_config

    baseline = bench_config(config_name.replace("cgct", "baseline"))
    sweep = ConfigSweep(
        base=config,
        axes={"geometry.region_bytes": [256, 512, 1024]},
        baseline=baseline,
    )
    ops = args.ops if args.ops is not None else 1 << 62
    records = sweep.run(
        [name], ops_per_processor=ops, warmup_fraction=args.warmup,
        seed=args.seed, workers=args.workers, runlog=runlog,
    )
    for record in records:
        print(f"  region {record['geometry.region_bytes']:>5} B: "
              f"runtime reduction "
              f"{record['runtime_reduction']:+.2%}, "
              f"avoided {record['fraction_avoided']:.1%}, "
              f"cycles {record['cycles']:.0f}")
    print(f"[traces run --sweep: {len(records)} grid points on "
          f"{config_name} via the sweep harness]")
    return 0


# ----------------------------------------------------------------------
def traces_command(argv=None) -> int:
    """Entry point for the ``traces`` subcommand."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    commands = {
        "convert": _convert,
        "profile": _profile,
        "sample": _sample,
        "run": _run,
    }
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        print(f"subcommands: {', '.join(commands)}")
        return 0
    command = commands.get(argv[0])
    if command is None:
        print(f"unknown traces subcommand {argv[0]!r} "
              f"(expected {', '.join(commands)})", file=sys.stderr)
        return 2
    try:
        return command(argv[1:])
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(traces_command())
