"""Beyond-the-paper experiments: ablations, Section 6 features, scaling.

These are not reproductions of published figures — they answer the
questions the paper raises but does not evaluate:

* ``ablations`` — how much each design ingredient of CGCT matters:
  self-invalidation (Section 3.1), the empty-region replacement
  preference (Section 3.2), the two-bit snoop response (Section 3.4),
  line-response visibility (Section 3.1), and the RegionScout
  alternative (Section 2).
* ``extensions`` — the Section 6 future-work features implemented here:
  region-filtered prefetching, DRAM-speculation filtering, and
  region-state prefetch.
* ``scaling`` — broadcast traffic and CGCT benefit as the machine grows
  from 4 to 8 to 16 processors (the scalability argument of Section 5.3
  extrapolated).

Like the paper's artifacts, each is a ``cells(options)`` grid plus a
``render(options, results)``; :data:`repro.harness.experiments.EXPERIMENTS`
registers them. ``energy`` and ``sectored`` declare no cells.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.harness.parallel import ExperimentTask, _recent_workload
from repro.harness.perfbench import _topology_for
from repro.harness.render import ExperimentResult
from repro.system.config import SystemConfig

if TYPE_CHECKING:  # annotations only: experiments imports this module
    from repro.harness.experiments import Results, RunOptions

#: Workloads that stress the mechanisms differently: migratory-heavy,
#: broadcast-bound, and sharing-light.
ABLATION_WORKLOADS = ("barnes", "tpc-w", "specweb99")


def _ablation_workloads(options: RunOptions) -> List[str]:
    """The requested ABLATION_WORKLOADS, else the first two requested."""
    return [w for w in ABLATION_WORKLOADS if w in options.benchmarks] or \
        list(options.benchmarks)[:2]


def _ablation_configs() -> Dict[str, SystemConfig]:
    full = SystemConfig.paper_cgct(512)
    return {
        "CGCT (full)": full,
        "no self-invalidation": replace(full, self_invalidation=False),
        "plain-LRU replacement": replace(full, prefer_empty_victims=False),
        "one-bit response": replace(full, two_bit_response=False),
        "line response hidden": replace(full, line_response_visible=False),
        "RegionScout": replace(
            SystemConfig.paper_baseline(), regionscout_enabled=True
        ),
    }


def _variant_cells(options: RunOptions,
                   variants: Dict[str, SystemConfig]) -> List[ExperimentTask]:
    """Per workload: the baseline, then each variant."""
    configs = [SystemConfig.paper_baseline(), *variants.values()]
    return [options.cell(name, config)
            for name in _ablation_workloads(options) for config in configs]


def _variant_rows(options: RunOptions, results: Results,
                  variants: Dict[str, SystemConfig]
                  ) -> Tuple[List[str], List[List]]:
    """The workloads, and per variant "avoided / run-time reduction"."""
    baseline = SystemConfig.paper_baseline()
    workloads = _ablation_workloads(options)
    rows: List[List] = []
    for label, config in variants.items():
        row = [label]
        for name in workloads:
            base = results[options.cell(name, baseline)]
            run = results[options.cell(name, config)]
            row.append(
                f"{run.fraction_avoided():.1%} / "
                f"{run.runtime_reduction_over(base):+.1%}"
            )
        rows.append(row)
    return workloads, rows


def ablation_cells(options: RunOptions) -> List[ExperimentTask]:
    """Per workload: the baseline, then each ablation."""
    return _variant_cells(options, _ablation_configs())


def ablations(options: RunOptions, results: Results) -> ExperimentResult:
    """Per-ingredient ablation of the CGCT design."""
    workloads, rows = _variant_rows(options, results, _ablation_configs())
    return ExperimentResult(
        "ablations", "CGCT design ablations (avoided / run-time reduction)",
        ["Variant"] + workloads, rows,
        notes=["Self-invalidation matters most for migratory workloads "
               "(barnes); the one-bit response costs the direct i-fetch "
               "path; RegionScout trades >4x less storage for reduced "
               "effectiveness (Section 2's claim)."],
    )


def _extension_configs() -> Dict[str, SystemConfig]:
    base_cfg = SystemConfig.paper_cgct(512)
    return {
        "CGCT (as evaluated)": base_cfg,
        "+ prefetch region filter": replace(
            base_cfg, prefetch_region_filter=True),
        "+ DRAM speculation filter": replace(
            base_cfg, dram_speculation_filter=True),
        "+ region-state prefetch": replace(
            base_cfg, region_state_prefetch=True),
        "+ all three": replace(
            base_cfg, prefetch_region_filter=True,
            dram_speculation_filter=True, region_state_prefetch=True),
    }


def extension_cells(options: RunOptions) -> List[ExperimentTask]:
    """Per workload: the baseline, then each Section 6 variant."""
    return _variant_cells(options, _extension_configs())


def extensions(options: RunOptions, results: Results) -> ExperimentResult:
    """Section 6 future-work features, measured."""
    workloads, rows = _variant_rows(options, results, _extension_configs())
    return ExperimentResult(
        "extensions",
        "Section 6 extensions (avoided / run-time reduction)",
        ["Variant"] + workloads, rows,
        notes=["The DRAM filter trades occasional serial-DRAM misses for "
               "avoided speculative accesses (an energy proxy); region-"
               "state prefetch targets the ~4 % of requests whose region "
               "state was invalid (Section 6)."],
    )


def _scaling_workload(options: RunOptions) -> str:
    return "tpc-w" if "tpc-w" in options.benchmarks else options.benchmarks[0]


def _scaling_configs(processors: int) -> Tuple[SystemConfig, SystemConfig]:
    """The baseline and CGCT 512 B machines with *processors* cores."""
    topology = _topology_for(processors)
    return (replace(SystemConfig.paper_baseline(), topology=topology),
            replace(SystemConfig.paper_cgct(512), topology=topology))


def scaling_cells(options: RunOptions) -> List[ExperimentTask]:
    """Per machine size: the baseline, then CGCT. Each cell's trace is
    built at its configuration's processor count."""
    name = _scaling_workload(options)
    return [options.cell(name, config) for processors in (4, 8, 16)
            for config in _scaling_configs(processors)]


def scaling(options: RunOptions, results: Results) -> ExperimentResult:
    """Broadcast traffic and CGCT benefit versus machine size."""
    workload_name = _scaling_workload(options)
    rows: List[List] = []
    for processors in (4, 8, 16):
        base_cfg, cgct_cfg = _scaling_configs(processors)
        base = results[options.cell(workload_name, base_cfg)]
        cgct = results[options.cell(workload_name, cgct_cfg)]
        rows.append([
            processors,
            f"{base.broadcasts_per_window():.0f}",
            f"{cgct.broadcasts_per_window():.0f}",
            f"{base.bus_queue_cycles / max(1, base.stats.total_broadcasts):.1f}",
            f"{cgct.fraction_avoided():.1%}",
            f"{cgct.runtime_reduction_over(base):+.1%}",
        ])
    return ExperimentResult(
        "scaling",
        f"Scalability on {workload_name}: 4 → 16 processors",
        ["Processors", "Bcast/100K (base)", "Bcast/100K (CGCT)",
         "Queue cycles/bcast (base)", "Avoided", "Run-time reduction"],
        rows,
        notes=["Broadcast traffic and per-broadcast queuing grow with "
               "processor count while the ordered address network does "
               "not; CGCT removes a constant large fraction of that load "
               "(Section 5.3's argument). Whether the *run-time* benefit "
               "also grows depends on how close the baseline is to bus "
               "saturation: broadcast-bound workloads (ocean) gain "
               "dramatically at 16 processors, latency-bound ones "
               "(tpc-w) see the gain diluted by growing necessary "
               "cache-to-cache traffic."],
    )


def energy(options: RunOptions, results: Results) -> ExperimentResult:
    """Coherence-energy proxy (Section 6's power discussion).

    Runs each workload on the baseline, CGCT, and CGCT with the DRAM
    speculation filter, and reports the event counts the paper says
    cost power — network messages, tag lookups, DRAM accesses — plus a
    weighted proxy total. RCA lookups are charged against CGCT, probing
    Section 6's caveat that "the additional logic may cancel out some of
    that savings."

    The report reads the simulated :class:`~repro.system.machine.Machine`,
    which a ``RunResult`` does not carry, so this experiment declares no
    cells and runs its own :class:`~repro.system.simulator.Simulator`
    per configuration instead of reading *results*.
    """
    from repro.analysis.energy import energy_report
    from repro.system.simulator import Simulator
    from repro.workloads.benchmarks import build_benchmark

    configs = {
        "baseline": SystemConfig.paper_baseline(),
        "baseline + Jetty": replace(
            SystemConfig.paper_baseline(), jetty_enabled=True
        ),
        "CGCT 512B": SystemConfig.paper_cgct(512),
        "CGCT + DRAM filter": replace(
            SystemConfig.paper_cgct(512), dram_speculation_filter=True
        ),
    }
    rows: List[List] = []
    for name in _ablation_workloads(options):
        trace = build_benchmark(name, ops_per_processor=options.ops_per_processor)
        reports = {}
        for label, config in configs.items():
            simulator = Simulator(config)
            simulator.run(trace, warmup_fraction=options.warmup_fraction)
            reports[label] = energy_report(simulator.machine)
        base = reports["baseline"]
        for label, report in reports.items():
            rows.append([
                name, label,
                report.address_messages, report.tag_lookups,
                report.rca_lookups, report.dram_accesses,
                f"{report.weighted_total:.0f}",
                f"{report.savings_over(base):+.1%}" if label != "baseline" else "-",
            ])
    return ExperimentResult(
        "energy",
        "Coherence-energy proxy (events and weighted total)",
        ["Benchmark", "Config", "Addr msgs", "Tag lookups", "RCA lookups",
         "DRAM", "Proxy total", "Saving"],
        rows,
        notes=["A comparison proxy, not joules: weights in "
               "repro.analysis.energy. Jetty (Section 2) only filters "
               "tag lookups — broadcasts and DRAM are untouched; CGCT "
               "saves messages and lookups but pays for RCA lookups "
               "(Section 6's trade-off); the DRAM filter additionally "
               "trims wasted speculative DRAM reads."],
    )


def sectored(options: RunOptions, results: Results) -> ExperimentResult:
    """Sectored-cache miss-ratio contrast (Section 2's related work).

    Feeds each benchmark's data-reference stream through a conventional
    1 MB 2-way cache and through sectored organisations of the same data
    capacity, quantifying the miss-ratio inflation that motivates CGCT's
    choice to keep region state *beside* the cache rather than sector it.
    It reads traces, not simulations, so it declares no cells.
    """
    import numpy as np

    from repro.cache.sectored import SectoredCache
    from repro.memory.geometry import Geometry
    from repro.workloads.trace import TraceOp

    geometry = Geometry()
    data_ops = (int(TraceOp.LOAD), int(TraceOp.STORE), int(TraceOp.DCBZ))
    rows: List[List] = []
    for name in _ablation_workloads(options):
        trace = _recent_workload(name, 4, 0, options.ops_per_processor) \
            .per_processor[0]
        mask = np.isin(trace.ops, data_ops)
        addresses = trace.addresses[mask].tolist()
        conventional = SectoredCache(geometry, lines_per_sector=1)
        base_ratio = conventional.run(addresses)
        row = [name, f"{base_ratio:.2%}", conventional.tags]
        for lines_per_sector in (4, 8):
            sectored_cache = SectoredCache(
                geometry, lines_per_sector=lines_per_sector)
            ratio = sectored_cache.run(addresses)
            inflation = ratio / base_ratio - 1 if base_ratio else 0.0
            row.append(
                f"{ratio:.2%} ({inflation:+.0%}, "
                f"util {sectored_cache.utilization():.0%})"
            )
        rows.append(row)
    return ExperimentResult(
        "sectored",
        "Sectored-cache miss ratios (same data capacity)",
        ["Benchmark", "Conventional", "Tags",
         "4 lines/sector", "8 lines/sector"],
        rows,
        notes=["Section 2: sectoring saves tags but inflates miss ratio "
               "through internal fragmentation — CGCT gets coarse-grain "
               "tracking without restructuring the cache. 'util' is the "
               "fraction of allocated sector lines actually valid."],
    )
