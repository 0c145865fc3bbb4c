"""Structured machine summaries.

:func:`machine_summary` collapses a machine's state and counters into a
plain nested dictionary — stable keys, JSON-serialisable values — for
debugging sessions, example scripts, and tests that want to assert on
"the whole picture" without poking at internals. :func:`render_summary`
pretty-prints it.
"""

from __future__ import annotations

from typing import Dict

from repro.common.render import render_table
from repro.system.machine import Machine


def machine_summary(machine: Machine, horizon: int = 0) -> Dict:
    """Summarise *machine* after a run.

    ``horizon`` (cycles) enables utilisation figures; pass the run's end
    time (e.g. ``max(result.per_processor_cycles)``).
    """
    stats = machine.stats
    summary: Dict = {
        "config": {
            "cgct": machine.config.cgct_enabled,
            "regionscout": machine.config.regionscout_enabled,
            "region_bytes": machine.geometry.region_bytes,
            "processors": machine.topology.num_processors,
        },
        "requests": {
            "broadcasts": stats.total_broadcasts,
            "directs": stats.total_directs,
            "no_requests": stats.total_no_requests,
            "unnecessary_broadcasts": stats.total_unnecessary,
            "targeted_hits": machine.targeted_hits,
            "targeted_misses": machine.targeted_misses,
        },
        "hierarchy": {
            "l1_hits": machine.l1_hits,
            "l2_hits": machine.l2_hits,
            "l2_misses": sum(n.l2.misses for n in machine.nodes),
            "l2_writebacks": sum(n.l2.writebacks for n in machine.nodes),
            "region_forced_evictions": sum(
                n.l2.region_forced_evictions for n in machine.nodes
            ),
        },
        "interconnect": {
            "bus_broadcasts": machine.bus.broadcasts,
            "bus_queued_cycles": machine.bus.queued_cycles,
            "data_transfers": machine.network.transfers,
            "c2c_transfers": machine.c2c_transfers,
        },
        "memory": {
            "dram_reads": sum(mc.reads for mc in machine.controllers),
            "dram_writes": sum(mc.writes for mc in machine.controllers),
            "speculative_wasted": machine.dram_speculative_wasted,
        },
    }
    if horizon > 0:
        summary["interconnect"]["bus_utilization"] = round(
            machine.bus.utilization(horizon), 4
        )
    if machine.config.cgct_enabled:
        summary["rca"] = {
            "hits": sum(n.rca.hits for n in machine.nodes),
            "misses": sum(n.rca.misses for n in machine.nodes),
            "allocations": sum(n.rca.allocations for n in machine.nodes),
            "evictions": sum(n.rca.evictions for n in machine.nodes),
            "self_invalidations": sum(
                n.rca.self_invalidations for n in machine.nodes
            ),
            "resident_regions": sum(len(n.rca) for n in machine.nodes),
            "states": _region_state_census(machine),
        }
    return summary


def _region_state_census(machine: Machine) -> Dict[str, int]:
    census: Dict[str, int] = {}
    for node in machine.nodes:
        for entry in node.rca.entries():
            census[entry.state.value] = census.get(entry.state.value, 0) + 1
    return dict(sorted(census.items()))


def render_summary(summary: Dict) -> str:
    """Pretty-print a :func:`machine_summary` dictionary."""
    rows = []
    for section, values in summary.items():
        for key, value in values.items():
            rows.append([section, key, value])
    return render_table(["section", "metric", "value"], rows)
