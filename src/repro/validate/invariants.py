"""Paper-level coherence invariants as pure check functions.

Each function inspects a :class:`~repro.system.machine.Machine` between
processor steps (the machine is quiescent — no request is in flight) and
returns a list of human-readable violation strings instead of raising,
so callers can aggregate, sample, or escalate as they see fit. The
:class:`~repro.validate.sanitizer.CoherenceSanitizer` drives them during
runs; :meth:`Machine.check_coherence_invariants` drives the exhaustive
variant from tests.

The invariants come straight from the paper and the MOESI base protocol:

**Line level** (single-writer/multiple-reader):

* at most one processor holds a line MODIFIED or EXCLUSIVE, and then no
  other processor holds any copy;
* at most one processor holds a dirty (M/O) copy;
* a SHARED copy never coexists with a remote M/E copy (subsumed by the
  first rule, checked for the error message's sake);
* the machine's line-holder bitmask agrees with the L2s' actual contents
  for every inspected line.

**Region level** (Table 1, via the sticky-dirty local letter of
Figures 3–5 — an EXCLUSIVE fill already marks the region Dirty because
the copy can be silently modified):

* a tracked region's line count equals the number of its lines resident
  in that node's L2;
* local letter Clean ⇒ none of the node's own lines of the region are
  dirty or silently modifiable (M/O/E);
* external letter Invalid (CI/DI) ⇒ no *other* processor caches any
  line of the region;
* external letter Clean (CC/DC) ⇒ other processors hold at most SHARED
  copies of the region's lines (a remote M/O/E would have answered
  Region-Dirty);
* external letter Dirty (CD/DD) is conservative and constrains nothing;
* (deep audit) the machine's region-tracker bitmask and per-region
  class masks agree with the RCAs' actual entries.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.coherence.line_states import LineState
from repro.rca.states import RegionState

#: Line states a remote processor may hold inside a region some tracker
#: believes is externally *clean*: shared-only (see module docstring).
_EXCLUSIVE_LINE_STATES = (LineState.MODIFIED, LineState.EXCLUSIVE)

#: ``{line: [(proc_id, state), ...]}`` — who holds each resident line.
#: Exhaustive sweeps build one with a single walk over every L2 instead
#: of peeking every node for every line — O(resident copies) instead of
#: O(lines x processors).
_Snapshot = Dict[int, List[Tuple[int, "LineState"]]]

#: One region's audit view, shared by every tracker of the region:
#: ``(line_masks, local_by_proc, unsafe)`` where ``line_masks`` is
#: ``[(line, holder_bitmask)]`` for lines with recorded holders,
#: ``local_by_proc`` maps each holder to its resident ``[(line, state)]``
#: of the region, and ``unsafe`` lists the copies a remote tracker may
#: never coexist with cleanly — ``[(line, holder, state)]`` for every
#: M/O/E copy. Precomputing this once per region makes each entry check
#: O(own lines) instead of re-walking every copy per tracker.
_RegionView = Tuple[
    List[Tuple[int, int]],
    Dict[int, List[Tuple[int, "LineState"]]],
    List[Tuple[int, int, "LineState"]],
]

_EMPTY_VIEW: _RegionView = ([], {}, [])

#: States a copy may not hold inside a region some tracker believes is
#: clean: dirty (M/O) or silently modifiable (M/E). One membership test
#: in the sweep's inner loop instead of two attribute loads per copy.
_UNSAFE_LINE_STATES = frozenset(
    state for state in LineState
    if state.is_dirty or state.can_silently_modify
)


def check_lines(machine, lines: Iterable[int]) -> List[str]:
    """Line-level invariants over the given line numbers.

    The sampled window checker: peeks every node's L2 per line (the only
    way to catch a resident copy whose holder bit was lost). Exhaustive
    sweeps run the same checks from a one-walk snapshot inside
    :func:`check_machine` instead.
    """
    violations: List[str] = []
    nodes = machine.nodes
    holders_map = machine._line_holders
    for line in lines:
        holders = []
        mask = 0
        for node in nodes:
            entry = node.l2.peek(line)
            if entry is not None:
                holders.append((node.proc_id, entry.state))
                mask |= 1 << node.proc_id
        recorded = holders_map.get(line, 0)
        if recorded != mask:
            violations.append(
                f"line {line:#x}: holder bitmask {recorded:#b} disagrees "
                f"with resident copies {mask:#b}"
            )
        if len(holders) > 1:
            _check_line_copies(line, holders, violations)
    return violations


def _check_line_copies(line: int, holders, violations: List[str]) -> None:
    """Single-writer/multi-reader conflicts among one line's copies."""
    exclusive = [
        (p, s) for p, s in holders if s in _EXCLUSIVE_LINE_STATES
    ]
    if exclusive:
        violations.append(
            f"line {line:#x}: exclusive copy coexists with other "
            f"copies: {_fmt_holders(holders)}"
        )
    dirty = [(p, s) for p, s in holders if s.is_dirty]
    if len(dirty) > 1:
        violations.append(
            f"line {line:#x}: multiple dirty copies: "
            f"{_fmt_holders(holders)}"
        )


def check_regions(machine, regions: Iterable[int]) -> List[str]:
    """Table 1 region invariants for every tracker of the given regions.

    The machine's region-tracker bitmask names the nodes worth probing,
    and each region's holder copies are gathered once (from the
    line-holder bitmask) and shared by all of its trackers — O(trackers
    + resident copies) per region instead of O(P) probes with a fresh
    line walk per tracked entry. Both bitmasks are themselves audited:
    line holders by every :func:`check_lines` window, region trackers by
    the deep audit in :func:`check_machine`.
    """
    violations: List[str] = []
    nodes = machine.nodes
    num_procs = len(nodes)
    trackers = machine._region_trackers
    holders_map = machine._line_holders
    geometry = machine.geometry
    for region in regions:
        t_mask = trackers.get(region, 0)
        if not t_mask:
            continue
        # Build the region's view straight from the holder bitmask: only
        # nodes whose bit is set are peeked. A named holder whose L2 does
        # not actually hold the line still counts as a remote *presence*
        # (in the mask) but contributes no state — exactly what the
        # per-node peek walk this replaces observed.
        line_masks: List[Tuple[int, int]] = []
        local_by_proc: Dict[int, List[Tuple[int, "LineState"]]] = {}
        unsafe: List[Tuple[int, int, "LineState"]] = []
        for line in geometry.lines_in_region(region):
            mask = holders_map.get(line, 0)
            if not mask:
                continue
            line_masks.append((line, mask))
            m = mask
            while m:
                low = m & -m
                proc = low.bit_length() - 1
                m ^= low
                if proc >= num_procs:  # corrupt mask; check_lines flags it
                    continue
                cached = nodes[proc].l2.peek(line)
                if cached is None:
                    continue
                held_state = cached.state
                local_by_proc.setdefault(proc, []).append((line, held_state))
                if held_state.is_dirty or held_state.can_silently_modify:
                    unsafe.append((line, proc, held_state))
        view = (line_masks, local_by_proc, unsafe)
        m = t_mask
        while m:
            low = m & -m
            proc = low.bit_length() - 1
            m ^= low
            if proc >= num_procs:  # corrupt mask; the deep audit flags it
                continue
            node = nodes[proc]
            if node.rca is None:
                continue
            entry = node.rca.probe(region)
            if entry is not None:
                violations.extend(
                    _check_region_entry(machine, node, entry, view)
                )
    return violations


_NO_LINES: List[Tuple[int, "LineState"]] = []


def _check_region_entry(machine, node, entry, view: _RegionView) -> List[str]:
    """Check one RCA entry against its region's precomputed view."""
    violations: List[str] = []
    region = entry.region
    state = entry.state
    proc = node.proc_id
    state_name = state.value

    # Violations are the rare case; the label f-string is deferred so a
    # clean entry costs no string work (this runs per entry per sweep).
    def label() -> str:
        return f"region {region:#x}: P{proc} state {state_name}"

    if not state.is_valid:
        violations.append(f"{label()}: tracked region holds INVALID state")
        return violations

    line_masks, local_by_proc, unsafe = view
    local_lines = local_by_proc.get(proc, _NO_LINES)
    if entry.line_count != len(local_lines):
        violations.append(
            f"{label()}: line_count {entry.line_count} but "
            f"{len(local_lines)} lines resident in L2"
        )
    local_part, external_part = state_name[0], state_name[1]
    if local_part == "C":
        for line, held_state in local_lines:
            if held_state.is_dirty or held_state.can_silently_modify:
                violations.append(
                    f"{label()}: locally clean but own line "
                    f"{line:#x} is {held_state.value}"
                )
    if external_part == "D":
        return violations

    if external_part == "I":
        own_bit = 1 << proc
        for line, mask in line_masks:
            remote_mask = mask & ~own_bit
            if remote_mask:
                violations.append(
                    f"{label()}: externally invalid but line {line:#x} is "
                    f"cached by {_fmt_mask(remote_mask)}"
                )
        return violations

    # Externally clean: remote copies must be shared-only.
    for line, holder, held_state in unsafe:
        if holder != proc:
            violations.append(
                f"{label()}: externally clean but P{holder} "
                f"holds line {line:#x} {held_state.value}"
            )
    return violations


def check_machine(machine, deep: bool = True) -> List[str]:
    """Exhaustive sweep: every resident line, every tracked region.

    With ``deep`` the presence bitmasks are additionally audited for
    stale entries (a mask naming a line/region no L2/RCA holds), the
    per-region class masks behind phase-2 region snoops are checked
    against the RCA entries' (state, empty) classes, and the per-node
    L1⊆L2 / RCA inclusion assertions are folded in as violations.
    """
    nodes = machine.nodes
    snapshot: _Snapshot = {}
    node_lines = {}
    for node in nodes:
        proc = node.proc_id
        setdefault = snapshot.setdefault
        if deep:
            # Only the deep inclusion audit below reads per-node line
            # lists; the sampled-mode final sweep skips building them.
            held = []
            append_line = held.append
            for entry in node.l2.iter_entries():
                line = entry.line
                append_line(line)
                setdefault(line, []).append((proc, entry.state))
            node_lines[proc] = held
        else:
            for entry in node.l2.iter_entries():
                setdefault(entry.line, []).append((proc, entry.state))
    violations: List[str] = []
    holders_map = machine._line_holders
    # Lines whose recorded holder bit has no resident copy anywhere (the
    # fused loop below only sees lines with copies). Dict-view set
    # difference keeps the clean-machine case in C.
    for line in sorted(holders_map.keys() - snapshot.keys()):
        violations.append(
            f"line {line:#x}: holder bitmask {holders_map[line]:#b} "
            f"disagrees with resident copies {0:#b}"
        )
    # One fused pass over the snapshot: per-line holder-bitmask agreement
    # and copy conflicts, plus (when any node has an RCA) the per-region
    # views the tracker audit below shares, so a region's trackers never
    # re-walk its copies. Machines without RCAs skip the view work.
    geometry = machine.geometry
    region_shift = geometry._region_bits - geometry._line_bits
    views: Dict[int, _RegionView] = {}
    get_view = views.get
    get_recorded = holders_map.get
    has_rca = any(node.rca is not None for node in nodes)
    if has_rca:
        # Snapshot order groups a region's lines (consecutive L2 sets per
        # node), so the view lookup/unpack is cached across the run.
        last_region = -1
        line_masks = local_by_proc = unsafe = None
        for line, copies in snapshot.items():
            region = line >> region_shift
            if region != last_region:
                last_region = region
                view = get_view(region)
                if view is None:
                    view = views[region] = ([], {}, [])
                line_masks, local_by_proc, unsafe = view
            mask = 0
            for holder, held_state in copies:
                mask |= 1 << holder
                local_by_proc.setdefault(holder, []).append(
                    (line, held_state)
                )
                if held_state in _UNSAFE_LINE_STATES:
                    unsafe.append((line, holder, held_state))
            line_masks.append((line, mask))
            recorded = get_recorded(line, 0)
            if recorded != mask:
                violations.append(
                    f"line {line:#x}: holder bitmask {recorded:#b} "
                    f"disagrees with resident copies {mask:#b}"
                )
            if len(copies) > 1:
                _check_line_copies(line, copies, violations)
    else:
        for line, copies in snapshot.items():
            mask = 0
            for holder, _held_state in copies:
                mask |= 1 << holder
            recorded = get_recorded(line, 0)
            if recorded != mask:
                violations.append(
                    f"line {line:#x}: holder bitmask {recorded:#b} "
                    f"disagrees with resident copies {mask:#b}"
                )
            if len(copies) > 1:
                _check_line_copies(line, copies, violations)
    # Audit region entries straight from each RCA's contents — probing
    # every (region, node) pair would redo the walk P times over.
    derived: dict = {}
    node_entries = {}
    for node in nodes:
        if node.rca is None:
            continue
        bit = 1 << node.proc_id
        # RCA iteration order is deterministic (dict insertion order from
        # a deterministic run), so no sort is needed for stable output.
        entries = node.rca.entries_list()
        node_entries[node.proc_id] = entries
        for entry in entries:
            region = entry.region
            derived[region] = derived.get(region, 0) | bit
            violations.extend(
                _check_region_entry(
                    machine, node, entry, get_view(region, _EMPTY_VIEW)
                )
            )
    if not deep:
        return violations

    tracker_map = machine._region_trackers
    for region in set(tracker_map) | set(derived):
        recorded = tracker_map.get(region, 0)
        actual = derived.get(region, 0)
        if recorded != actual:
            violations.append(
                f"region {region:#x}: tracker bitmask {recorded:#b} "
                f"disagrees with RCA contents {actual:#b}"
            )
    # The phase-2 class masks: {(state.index << 1) | empty: pid mask}
    # per region, derived from the same entries.
    derived_classes: Dict[int, Dict[int, int]] = {}
    for proc, entries in node_entries.items():
        bit = 1 << proc
        for entry in entries:
            c = (entry.state.index << 1) | (entry.line_count == 0)
            cls = derived_classes.setdefault(entry.region, {})
            cls[c] = cls.get(c, 0) | bit
    class_map = machine._region_classes
    for region in set(class_map) | set(derived_classes):
        recorded = class_map.get(region, {})
        actual = derived_classes.get(region, {})
        if recorded != actual:
            violations.append(
                f"region {region:#x}: class masks {_fmt_classes(recorded)} "
                f"disagree with RCA contents {_fmt_classes(actual)}"
            )
    # Inclusion, from the walks already done (line counts were audited
    # per entry above; node.check_inclusion() redoes the same walks for
    # standalone use).
    geometry = machine.geometry
    for node in nodes:
        proc = node.proc_id
        held = set(node_lines[proc])
        for line in node.l1d.resident_lines():
            if line not in held:
                violations.append(
                    f"P{proc} inclusion: L1D line {line:#x} not in L2"
                )
        for line in node.l1i.resident_lines():
            if line not in held:
                violations.append(
                    f"P{proc} inclusion: L1I line {line:#x} not in L2"
                )
        if node.rca is None:
            continue
        tracked = {entry.region for entry in node_entries[proc]}
        untracked = set()
        for line in held:
            region = geometry.region_of_line(line)
            if region not in tracked and region not in untracked:
                untracked.add(region)
                violations.append(
                    f"P{proc} inclusion: region {region:#x} cached but "
                    f"untracked"
                )
    return violations


def _fmt_holders(holders) -> str:
    return ", ".join(f"P{p}={s.value}" for p, s in holders)


def _fmt_classes(classes: Dict[int, int]) -> str:
    states = tuple(RegionState)
    return "{" + ", ".join(
        f"{states[c >> 1].value}{'/empty' if c & 1 else ''}={_fmt_mask(m)}"
        for c, m in sorted(classes.items())
    ) + "}"


def _fmt_mask(mask: int) -> str:
    procs = [str(p) for p in range(mask.bit_length()) if (mask >> p) & 1]
    return "P{" + ",".join(procs) + "}"
