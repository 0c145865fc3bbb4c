"""One experiment per paper artifact.

Every public experiment takes :class:`RunOptions` (trace length, seed
count, warm-up) plus a shared :class:`RunCache` and returns an
:class:`ExperimentResult` — headers, rows and notes that mirror the
corresponding table or figure of the paper. ``run_experiment("fig8")``
is the single entry point; the registry maps IDs to functions.

Scale note: the paper simulated billions of instructions per benchmark;
this harness replays synthetic traces of (by default) 60 K memory
operations per processor after a 40 % warm-up. Absolute cycle counts and
traffic levels therefore differ from the paper; the comparisons the
experiments print (who wins, by what factor, how trends move with region
size) are the reproduction targets. EXPERIMENTS.md records paper-vs-
measured values for each artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.metrics import runtime_reduction_interval
from repro.analysis.overhead import table2_rows
from repro.common.units import to_nanoseconds
from repro.harness.render import render_bar, render_stacked_bar, render_table
from repro.harness.runcache import RunCache
from repro.rca.states import RegionState
from repro.system.config import SystemConfig
from repro.system.machine import OracleCategory
from repro.workloads.benchmarks import BENCHMARKS

#: The paper's commercial subset (Section 5.2's "commercial workloads").
COMMERCIAL = ("specweb99", "specjbb2000", "tpc-w", "tpc-b", "tpc-h")


@dataclass(frozen=True)
class RunOptions:
    """Knobs shared by every simulation-backed experiment."""

    ops_per_processor: int = 60_000
    seeds: int = 2
    warmup_fraction: float = 0.4
    region_sizes: Sequence[int] = (256, 512, 1024)
    benchmarks: Sequence[str] = tuple(BENCHMARKS)

    def quick(self) -> "RunOptions":
        """A scaled-down variant for smoke tests and CI."""
        return replace(
            self,
            ops_per_processor=min(self.ops_per_processor, 12_000),
            seeds=1,
            benchmarks=tuple(self.benchmarks)[:3],
        )


@dataclass
class ExperimentResult:
    """Rows + notes (and optionally an ASCII chart) for one artifact."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List]
    notes: List[str] = field(default_factory=list)
    chart: Optional[str] = None

    def render(self) -> str:
        """Plain-text rendering (title + aligned table + chart + notes)."""
        parts = [f"== {self.experiment_id}: {self.title} ==",
                 render_table(self.headers, self.rows)]
        if self.chart:
            parts.append(self.chart)
        parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)


# ----------------------------------------------------------------------
# Static artifacts (no simulation)
# ----------------------------------------------------------------------
def table1(options: RunOptions, cache: RunCache) -> ExperimentResult:
    """Table 1: the region protocol's stable states."""
    rows = []
    description = {
        RegionState.INVALID: ("No Cached Copies", "Unknown", "Yes"),
        RegionState.CLEAN_INVALID: (
            "Unmodified Copies Only", "No Cached Copies", "No"),
        RegionState.CLEAN_CLEAN: (
            "Unmodified Copies Only", "Unmodified Copies Only",
            "For Modifiable Copy"),
        RegionState.CLEAN_DIRTY: (
            "Unmodified Copies Only", "May Have Modified Copies", "Yes"),
        RegionState.DIRTY_INVALID: (
            "May Have Modified Copies", "No Cached Copies", "No"),
        RegionState.DIRTY_CLEAN: (
            "May Have Modified Copies", "Unmodified Copies Only",
            "For Modifiable Copy"),
        RegionState.DIRTY_DIRTY: (
            "May Have Modified Copies", "May Have Modified Copies", "Yes"),
    }
    for state, (local, other, broadcast) in description.items():
        rows.append([f"{state.name.replace('_', '-').title()} ({state.value})",
                     local, other, broadcast])
    return ExperimentResult(
        "table1", "Region protocol states",
        ["State", "Processor", "Other Processors", "Broadcast Needed?"],
        rows,
        notes=["Encoded in repro.rca.states.RegionState; the 'Broadcast "
               "Needed?' column is RegionState.needs_broadcast()."],
    )


def table2(options: RunOptions, cache: RunCache) -> ExperimentResult:
    """Table 2: RCA storage overhead for every evaluated design point."""
    rows = []
    for row in table2_rows():
        rows.append([
            row.label, row.address_tag_bits, row.state_bits,
            row.line_count_bits, row.mem_cntrl_id_bits, row.lru_bits,
            row.ecc_bits, row.total_bits_per_set,
            f"{row.tag_space_overhead:.1%}",
            f"{row.cache_space_overhead:.1%}",
        ])
    return ExperimentResult(
        "table2", "RCA storage overhead",
        ["Configuration", "Tag", "State", "Count", "MC-ID", "LRU", "ECC",
         "Bits/Set", "Tag Space", "Cache Space"],
        rows,
        notes=["Paper values: 10.2/19.6/38.2 % of tag space and "
               "1.6/3.0/5.9 % of cache space for 4K/8K/16K entries."],
    )


def table3(options: RunOptions, cache: RunCache) -> ExperimentResult:
    """Table 3: simulation parameters, from the live configuration."""
    config = SystemConfig.paper_cgct(512)
    core = config.core
    lat = config.latency
    rows = [
        ["Processor cores per chip", config.topology.cores_per_chip],
        ["Processor chips per data switch", config.topology.chips_per_switch],
        ["Processor clock", f"{core.clock_hz / 1e9:.1f} GHz"],
        ["Pipeline stages", core.pipeline_stages],
        ["Fetch queue size", core.fetch_queue_size],
        ["BTB", f"{core.btb_sets} sets, {core.btb_ways}-way"],
        ["Branch predictor", core.branch_predictor],
        ["Return address stack", core.return_address_stack],
        ["Decode/Issue/Commit width",
         f"{core.decode_width}/{core.issue_width}/{core.commit_width}"],
        ["Issue window", core.issue_window],
        ["ROB entries", core.rob_entries],
        ["Load/store queue", core.load_store_queue],
        ["L1 I-cache", f"{config.l1i_bytes // 1024}KB {config.l1i_ways}-way, "
                       f"{config.geometry.line_bytes}B lines, "
                       f"{lat.l1_hit_cycles}-cycle"],
        ["L1 D-cache", f"{config.l1d_bytes // 1024}KB {config.l1d_ways}-way, "
                       f"{config.geometry.line_bytes}B lines, "
                       f"{lat.l1_hit_cycles}-cycle"],
        ["L2 cache", f"{config.l2_bytes // (1 << 20)}MB {config.l2_ways}-way, "
                     f"{config.geometry.line_bytes}B lines, "
                     f"{lat.l2_hit_cycles}-cycle"],
        ["Prefetching", f"Power4-style, {config.prefetch_streams} streams, "
                        f"{config.prefetch_runahead}-line runahead + "
                        "R10000-style exclusive prefetch"],
        ["Coherence protocols", "Write-invalidate MOESI (L2), MSI (L1)"],
        ["System clock", "150 MHz"],
        ["Snoop latency", f"{lat.snoop_cycles} CPU cycles "
                          f"({to_nanoseconds(lat.snoop_cycles):.0f} ns)"],
        ["DRAM latency", f"{lat.dram_cycles} CPU cycles"],
        ["DRAM latency (overlapped)", f"{lat.dram_overlapped_cycles} CPU cycles"],
        ["RCA organisation",
         f"{config.rca_sets} sets, {config.rca_ways}-way"],
        ["Region sizes evaluated", "256B, 512B, 1KB"],
    ]
    return ExperimentResult(
        "table3", "Simulation parameters", ["Parameter", "Value"], rows,
        notes=["Core-pipeline rows are configuration records only; the "
               "timing model is trace-driven (DESIGN.md §5)."],
    )


def table4(options: RunOptions, cache: RunCache) -> ExperimentResult:
    """Table 4: the benchmark suite."""
    rows = [
        [profile.category, name, profile.description]
        for name, profile in BENCHMARKS.items()
    ]
    return ExperimentResult(
        "table4", "Benchmarks", ["Category", "Benchmark", "Comments"], rows,
        notes=["Synthetic stand-ins; see repro.workloads.benchmarks for the "
               "profile of each."],
    )


def fig6(options: RunOptions, cache: RunCache) -> ExperimentResult:
    """Figure 6: memory request latency scenarios."""
    model = SystemConfig.paper_baseline().latency
    rows = []
    for scenario in model.figure6_scenarios():
        rows.append([
            scenario.name,
            scenario.total_cycles,
            f"{scenario.total_system_cycles:.1f}",
            f"{to_nanoseconds(scenario.total_cycles):.0f}",
        ])
    return ExperimentResult(
        "fig6", "Memory request latency (no queuing)",
        ["Scenario", "CPU cycles", "System cycles", "ns"],
        rows,
        notes=["Paper totals: snoop 25/25/30/35 and direct ~18/20/27/34 "
               "system cycles by distance."],
    )


# ----------------------------------------------------------------------
# Simulation-backed figures
# ----------------------------------------------------------------------
def fig2(options: RunOptions, cache: RunCache) -> ExperimentResult:
    """Figure 2: unnecessary broadcasts in the conventional system."""
    baseline = SystemConfig.paper_baseline()
    rows = []
    fractions = []
    runs = []
    for name in options.benchmarks:
        run = cache.run(name, baseline, options.ops_per_processor,
                        warmup_fraction=options.warmup_fraction)
        runs.append(run)
        total = run.fraction_unnecessary()
        fractions.append(total)
        rows.append([
            name,
            f"{total:.1%}",
            f"{run.category_fraction(OracleCategory.DATA, of='unnecessary'):.1%}",
            f"{run.category_fraction(OracleCategory.WRITEBACK, of='unnecessary'):.1%}",
            f"{run.category_fraction(OracleCategory.IFETCH, of='unnecessary'):.1%}",
            f"{run.category_fraction(OracleCategory.DCB, of='unnecessary'):.1%}",
        ])
    rows.append(["AVERAGE", f"{sum(fractions) / len(fractions):.1%}",
                 "", "", "", ""])
    chart_lines = ["", "  (# data, + write-backs, x i-fetch, o DCB; 50 chars = 100%)"]
    for name, run in zip(options.benchmarks, runs):
        stack = [
            run.category_fraction(c, of="unnecessary")
            for c in (OracleCategory.DATA, OracleCategory.WRITEBACK,
                      OracleCategory.IFETCH, OracleCategory.DCB)
        ]
        chart_lines.append(
            f"  {name:16s} |{render_stacked_bar(stack, width=50)}|"
        )
    return ExperimentResult(
        "fig2", "Unnecessary broadcasts (oracle)",
        ["Benchmark", "Unnecessary", "Data R/W", "Write-backs", "I-fetch",
         "DCB ops"],
        rows,
        chart="\n".join(chart_lines),
        notes=["Paper: 67 % on average, ranging 15-94 %; data reads/writes "
               "the largest slice, then write-backs, i-fetches, DCB ops."],
    )


def fig7(options: RunOptions, cache: RunCache) -> ExperimentResult:
    """Figure 7: broadcasts avoided vs the oracle opportunity."""
    baseline = SystemConfig.paper_baseline()
    rows = []
    for name in options.benchmarks:
        base = cache.run(name, baseline, options.ops_per_processor,
                         warmup_fraction=options.warmup_fraction)
        row = [name, f"{base.fraction_unnecessary():.1%}"]
        for region in options.region_sizes:
            cgct = cache.run(name, SystemConfig.paper_cgct(region),
                             options.ops_per_processor,
                             warmup_fraction=options.warmup_fraction)
            row.append(f"{cgct.fraction_avoided():.1%}")
        rows.append(row)
    headers = ["Benchmark", "Opportunity (oracle)"]
    headers += [f"Avoided {r}B" for r in options.region_sizes]
    return ExperimentResult(
        "fig7", "Broadcasts avoided by CGCT", headers, rows,
        notes=["Paper: CGCT eliminates 55-97 % of the unnecessary "
               "broadcasts; write-backs sit on top of the stacks."],
    )


def fig8(options: RunOptions, cache: RunCache) -> ExperimentResult:
    """Figure 8: run-time reduction per region size (±95 % CI)."""
    rows = []
    per_region_means: Dict[int, List[float]] = {r: [] for r in options.region_sizes}
    for name in options.benchmarks:
        row = [name]
        for region in options.region_sizes:
            interval = _reduction_interval(
                cache, name, SystemConfig.paper_cgct(region), options)
            per_region_means[region].append(interval.mean)
            row.append(f"{interval.mean:+.1%} ±{interval.half_width:.1%}")
        rows.append(row)
    average_row = ["AVERAGE"]
    commercial_row = ["COMMERCIAL"]
    for region in options.region_sizes:
        means = per_region_means[region]
        average_row.append(f"{sum(means) / len(means):+.1%}")
        commercial = [
            m for m, n in zip(means, options.benchmarks) if n in COMMERCIAL
        ]
        commercial_row.append(
            f"{sum(commercial) / len(commercial):+.1%}" if commercial else "-"
        )
    rows.append(average_row)
    rows.append(commercial_row)
    headers = ["Benchmark"] + [f"{r}B regions" for r in options.region_sizes]
    chart = None
    if 512 in options.region_sizes:
        column = list(options.region_sizes).index(512)
        scale = max(0.01, max(per_region_means[512]))
        chart_lines = ["", "  (run-time reduction, 512B regions; full bar = "
                           f"{scale:.1%})"]
        for name, mean in zip(options.benchmarks, per_region_means[512]):
            chart_lines.append(
                f"  {name:16s} |{render_bar(max(0.0, mean) / scale, 40)}| "
                f"{mean:+.1%}"
            )
        chart = "\n".join(chart_lines)
    return ExperimentResult(
        "fig8", "Run-time reduction by region size", headers, rows,
        chart=chart,
        notes=["Paper: 512B best; 8.8 % average (10.4 % commercial), "
               "max 21.7 % for TPC-W."],
    )


def fig9(options: RunOptions, cache: RunCache) -> ExperimentResult:
    """Figure 9: half-size RCA (8K entries) vs full (16K), 512B regions."""
    rows = []
    full_means, half_means = [], []
    for name in options.benchmarks:
        full = _reduction_interval(
            cache, name, SystemConfig.paper_cgct(512, rca_sets=8192), options)
        half = _reduction_interval(
            cache, name, SystemConfig.paper_cgct(512, rca_sets=4096), options)
        full_means.append(full.mean)
        half_means.append(half.mean)
        rows.append([
            name,
            f"{full.mean:+.1%} ±{full.half_width:.1%}",
            f"{half.mean:+.1%} ±{half.half_width:.1%}",
            f"{full.mean - half.mean:+.1%}",
        ])
    rows.append(["AVERAGE",
                 f"{sum(full_means) / len(full_means):+.1%}",
                 f"{sum(half_means) / len(half_means):+.1%}",
                 f"{(sum(full_means) - sum(half_means)) / len(full_means):+.1%}"])
    return ExperimentResult(
        "fig9", "Half-size RCA run-time reduction",
        ["Benchmark", "16K entries", "8K entries", "Difference"],
        rows,
        notes=["Paper: 7.8 % average with 8K entries vs 8.8 % with 16K — "
               "about a 1 % difference for half the storage."],
    )


def fig10(options: RunOptions, cache: RunCache) -> ExperimentResult:
    """Figure 10: average and peak broadcast traffic per 100K cycles."""
    baseline = SystemConfig.paper_baseline()
    cgct_cfg = SystemConfig.paper_cgct(512)
    rows = []
    base_avgs, cgct_avgs, base_peaks, cgct_peaks = [], [], [], []
    for name in options.benchmarks:
        base = cache.run(name, baseline, options.ops_per_processor,
                         warmup_fraction=options.warmup_fraction)
        cgct = cache.run(name, cgct_cfg, options.ops_per_processor,
                         warmup_fraction=options.warmup_fraction)
        base_avgs.append(base.broadcasts_per_window())
        cgct_avgs.append(cgct.broadcasts_per_window())
        base_peaks.append(base.traffic_peak_per_window)
        cgct_peaks.append(cgct.traffic_peak_per_window)
        rows.append([
            name,
            f"{base.broadcasts_per_window():.0f}",
            f"{cgct.broadcasts_per_window():.0f}",
            base.traffic_peak_per_window,
            cgct.traffic_peak_per_window,
        ])
    rows.append([
        "MAX",
        f"{max(base_avgs):.0f}", f"{max(cgct_avgs):.0f}",
        max(base_peaks), max(cgct_peaks),
    ])
    return ExperimentResult(
        "fig10", "Broadcast traffic per 100K cycles",
        ["Benchmark", "Avg baseline", "Avg 512B", "Peak baseline",
         "Peak 512B"],
        rows,
        notes=["Paper: highest average fell 2573 → 1103; peak fell "
               "7365 → 2683 — both cut by more than half."],
    )


def sec32(options: RunOptions, cache: RunCache) -> ExperimentResult:
    """Section 3.2/5.2 statistics: evictions, inclusion cost, line counts."""
    baseline = SystemConfig.paper_baseline()
    cgct_cfg = SystemConfig.paper_cgct(512)
    rows = []
    for name in options.benchmarks:
        base = cache.run(name, baseline, options.ops_per_processor,
                         warmup_fraction=options.warmup_fraction)
        cgct = cache.run(name, cgct_cfg, options.ops_per_processor,
                         warmup_fraction=options.warmup_fraction)
        miss_increase = (
            cgct.l2_misses / base.l2_misses - 1.0 if base.l2_misses else 0.0
        )
        rows.append([
            name,
            f"{cgct.rca_eviction_fractions.get(0, 0.0):.1%}",
            f"{cgct.rca_eviction_fractions.get(1, 0.0):.1%}",
            f"{cgct.rca_eviction_fractions.get(2, 0.0):.1%}",
            f"{cgct.rca_mean_line_count:.2f}",
            f"{miss_increase:+.1%}",
        ])
    return ExperimentResult(
        "sec32", "RCA eviction and inclusion statistics (512B regions)",
        ["Benchmark", "Evicted empty", "1 line", "2 lines",
         "Mean lines/region", "L2 miss increase"],
        rows,
        notes=["Paper: 65.1 % of evicted regions empty, 17.2 % one line, "
               "5.1 % two; 2.8-5 mean lines/region; ≈1.2 % miss increase."],
    )


def _reduction_interval(cache: RunCache, name: str, config: SystemConfig,
                        options: RunOptions):
    baseline = SystemConfig.paper_baseline()
    bases = [
        cache.run(name, baseline, options.ops_per_processor, seed=s,
                  warmup_fraction=options.warmup_fraction)
        for s in range(options.seeds)
    ]
    runs = [
        cache.run(name, config, options.ops_per_processor, seed=s,
                  warmup_fraction=options.warmup_fraction)
        for s in range(options.seeds)
    ]
    return runtime_reduction_interval(bases, runs)


#: Experiment ID → implementation, in the paper's presentation order.
#: The beyond-the-paper experiments (ablations, extensions, scaling) are
#: registered at the bottom of this module to avoid a circular import.
EXPERIMENTS: Dict[str, Callable[[RunOptions, RunCache], ExperimentResult]] = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "fig2": fig2,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "sec32": sec32,
}


def check_experiments(experiment_ids) -> None:
    """Raise :class:`KeyError`, naming the valid ids, on an unknown id."""
    for experiment_id in experiment_ids:
        if experiment_id not in EXPERIMENTS:
            raise KeyError(
                f"unknown experiment {experiment_id!r}; "
                f"choose from {', '.join(EXPERIMENTS)}"
            )


def run_experiment(
    experiment_id: str,
    options: Optional[RunOptions] = None,
    cache: Optional[RunCache] = None,
    workers: int = 0,
    runlog=None,
) -> ExperimentResult:
    """Run one registered experiment and return its result.

    The experiment's simulation grid runs up-front through
    :func:`~repro.harness.parallel.warm_cache` — across ``workers``
    worker processes when ``workers > 1``, in this process otherwise —
    and the experiment then renders from the warmed cache; results are
    bit-identical either way. ``runlog`` (a
    :class:`~repro.harness.runlog.RunLog`) records per-cell
    observability. Telemetry registries are not kept here; to export
    them, call :meth:`RunCache.warm` on the grid, which returns them.
    """
    check_experiments([experiment_id])
    # NB: explicit None checks — an empty RunCache is falsy (len == 0), so
    # ``cache or RunCache()`` would silently discard a shared cache.
    if options is None:
        options = RunOptions()
    if cache is None:
        cache = RunCache()
    from repro.harness.parallel import warm_cache

    warm_cache([experiment_id], options, cache, workers=workers,
               runlog=runlog)
    return EXPERIMENTS[experiment_id](options, cache)


# The beyond-the-paper experiments register themselves at the end of
# their module, which needs ExperimentResult/RunOptions from this one.
# Imported last, so that whichever of the two modules a process imports
# first, every importer sees the full registry.
from repro.harness import extensions as _extensions  # noqa: E402,F401
