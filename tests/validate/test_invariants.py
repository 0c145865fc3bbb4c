"""Invariant check functions against hand-corrupted machines.

Each test runs a short real simulation (so the machine is in a
legitimately reachable quiescent state), asserts the checks come back
clean, then surgically corrupts one piece of state and asserts exactly
the right violation is reported. The corruption goes through the same
slots the protocol mutates — these are the states a real bug would
produce, minus the bug.
"""

import pytest

from repro.coherence.line_states import LineState
from repro.rca.states import RegionState
from repro.system.config import SystemConfig
from repro.system.simulator import Simulator
from repro.validate.invariants import (
    check_lines,
    check_machine,
    check_regions,
)
from repro.workloads.benchmarks import build_benchmark


@pytest.fixture(scope="module")
def config():
    return SystemConfig.paper_cgct(512)


def fresh_machine(config, ops=2_000, workload="barnes"):
    trace = build_benchmark(workload, num_processors=config.num_processors,
                            ops_per_processor=ops, seed=0)
    simulator = Simulator(config, seed=0)
    simulator.run(trace, warmup_fraction=0.0)
    return simulator.machine


@pytest.fixture()
def machine(config):
    return fresh_machine(config)


def find_shared_line(machine, min_holders=2):
    """A line cached SHARED/OWNED by at least *min_holders* nodes."""
    for line, mask in machine._line_holders.items():
        holders = [
            node for node in machine.nodes
            if (mask >> node.proc_id) & 1
        ]
        if len(holders) < min_holders:
            continue
        if all(node.l2.peek(line).state in (LineState.SHARED,
                                            LineState.OWNED)
               for node in holders):
            return line, holders
    raise AssertionError("no multi-holder shared line in this run")


def find_region_entry(machine, external_letter):
    """(node, entry) whose region state has the given external letter."""
    for node in machine.nodes:
        for entry in node.rca.entries():
            if entry.state.value[1] == external_letter:
                return node, entry
    raise AssertionError(f"no region with external {external_letter!r}")


class TestCleanMachine:
    def test_reachable_state_has_no_violations(self, machine):
        assert check_machine(machine, deep=True) == []

    def test_baseline_machine_is_clean_too(self):
        baseline = fresh_machine(SystemConfig.paper_baseline())
        assert check_machine(baseline, deep=True) == []


class TestLineInvariants:
    def test_holder_bitmask_disagreement_is_flagged(self, machine):
        line = next(iter(machine._line_holders))
        machine._line_holders[line] ^= 1  # flip P0's presence bit
        violations = check_lines(machine, [line])
        assert len(violations) == 1
        assert "bitmask" in violations[0]

    def test_second_exclusive_copy_is_flagged(self, machine):
        line, holders = find_shared_line(machine)
        holders[0].l2.peek(line).state = LineState.MODIFIED
        violations = check_lines(machine, [line])
        assert any("exclusive copy coexists" in v for v in violations)

    def test_two_dirty_copies_are_flagged(self, machine):
        line, holders = find_shared_line(machine)
        holders[0].l2.peek(line).state = LineState.MODIFIED
        holders[1].l2.peek(line).state = LineState.OWNED
        violations = check_lines(machine, [line])
        assert any("multiple dirty copies" in v for v in violations)


class TestRegionInvariants:
    def test_line_count_drift_is_flagged(self, machine):
        node, entry = find_region_entry(machine, "D")
        entry.line_count += 1
        violations = check_regions(machine, [entry.region])
        assert any("line_count" in v for v in violations)

    def test_tracked_invalid_state_is_flagged(self, machine):
        node, entry = find_region_entry(machine, "D")
        entry.state = RegionState.INVALID
        violations = check_regions(machine, [entry.region])
        assert any("INVALID" in v for v in violations)

    def test_externally_invalid_with_remote_copy_is_flagged(self, machine):
        node, entry = find_region_entry(machine, "I")
        other = next(n for n in machine.nodes
                     if n.proc_id != node.proc_id)
        line = next(iter(machine.geometry.lines_in_region(entry.region)))
        machine._line_holders[line] = (
            machine._line_holders.get(line, 0) | (1 << other.proc_id)
        )
        violations = check_regions(machine, [entry.region])
        assert any("externally invalid" in v for v in violations)

    def test_externally_clean_with_remote_dirty_is_flagged(self, machine):
        # Find an externally-clean tracker whose region has a line
        # actually resident in some *other* node's L2, then dirty it.
        for node in machine.nodes:
            for entry in node.rca.entries():
                if entry.state.value[1] != "C":
                    continue
                for line in machine.geometry.lines_in_region(entry.region):
                    mask = machine._line_holders.get(line, 0)
                    remote = mask & ~(1 << node.proc_id)
                    for other in machine.nodes:
                        if not (remote >> other.proc_id) & 1:
                            continue
                        other.l2.peek(line).state = LineState.MODIFIED
                        violations = check_regions(machine, [entry.region])
                        assert any("externally clean" in v
                                   for v in violations)
                        return
        raise AssertionError("no externally-clean region with remote copies")

    def test_locally_clean_with_own_dirty_line_is_flagged(self, machine):
        for node in machine.nodes:
            for entry in node.rca.entries():
                if entry.state.value[0] != "C":
                    continue
                lines = node.l2.resident_lines_of_region(entry.region)
                if not lines:
                    continue
                lines[0].state = LineState.MODIFIED
                violations = check_regions(machine, [entry.region])
                assert any("locally clean" in v for v in violations)
                return
        raise AssertionError("no locally-clean region with resident lines")


class TestDeepAudit:
    def test_stale_region_tracker_bit_is_flagged(self, machine):
        node, entry = find_region_entry(machine, "D")
        # Record a tracker that no RCA actually holds.
        ghost = max(machine._region_trackers) + 1
        machine._region_trackers[ghost] = 1
        violations = check_machine(machine, deep=True)
        assert any("tracker bitmask" in v for v in violations)

    def test_corrupt_class_mask_is_flagged(self, machine):
        # Phase-2 region snoops read the class masks, not the entries:
        # move one tracker's bit into the class of a state its entry
        # does not have, leaving the entry and the tracker mask intact.
        node, entry = find_region_entry(machine, "D")
        region = entry.region
        classes = machine._region_classes[region]
        bit = 1 << node.proc_id
        empty = 1 if entry.line_count == 0 else 0
        c = (entry.state.index << 1) | empty
        wrong = (RegionState.CLEAN_INVALID.index << 1) | empty
        assert classes[c] & bit and wrong != c
        classes[c] &= ~bit
        if not classes[c]:
            del classes[c]
        classes[wrong] = classes.get(wrong, 0) | bit
        assert check_machine(machine, deep=False) == []
        violations = check_machine(machine, deep=True)
        assert len(violations) == 1
        assert f"region {region:#x}: class masks" in violations[0]
        assert "CI=P{" in violations[0]

    def test_machine_entry_point_raises_assertion(self, machine):
        # The historical Machine.check_coherence_invariants contract:
        # AssertionError whose text carries every violation.
        line = next(iter(machine._line_holders))
        machine._line_holders[line] ^= 1
        with pytest.raises(AssertionError, match="bitmask"):
            machine.check_coherence_invariants()
