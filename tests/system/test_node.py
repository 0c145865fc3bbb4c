"""Processor node: fills, inclusion plumbing, snoop responses."""

import pytest

from repro.coherence.line_states import L1State, LineState
from repro.coherence.requests import RequestType
from repro.rca.states import RegionState
from repro.system.machine import Machine, OracleCategory
from repro.system.node import ProcessorNode

from tests.conftest import make_config


@pytest.fixture
def node():
    return ProcessorNode(0, make_config(cgct=True, rca_sets=256))


@pytest.fixture
def plain_node():
    return ProcessorNode(0, make_config(cgct=False))


def geom(node):
    return node.config.geometry


class TestConstruction:
    def test_cgct_node_has_rca(self, node):
        assert node.rca is not None

    def test_baseline_node_has_none(self, plain_node):
        assert plain_node.rca is None

    def test_prefetcher_optional(self):
        with_pf = ProcessorNode(0, make_config(prefetch=True))
        assert with_pf.prefetcher is not None


def conflict_misses(machine):
    """Store line 0, then load two lines of the same L2 set: the third
    fill evicts the dirty line 0. Returns the L2's set stride."""
    node = machine.nodes[0]
    stride = node.l2.num_sets * machine.geometry.line_bytes
    machine.store(0, 0, now=0)
    machine.load(0, stride, now=1000)
    machine.load(0, 2 * stride, now=2000)
    return stride


class TestFillsAndInclusion:
    def test_fill_updates_region_line_count(self, node):
        region = geom(node).region_of(0x1000)
        node.rca.insert(region, RegionState.DIRTY_INVALID, home_mc=0)
        node.l2.fill(0x1000, LineState.MODIFIED)
        node.l1d.fill(0x1000, writable=True)
        assert node.rca.probe(region).line_count == 1
        assert node.l1d.state_of(0x1000) is L1State.MODIFIED
        node.check_inclusion()

    def test_l2_victim_back_invalidates_l1(self):
        # The L1 has ways to spare: only the L2 victim's
        # back-invalidation can drop line 0 from it.
        machine = Machine(make_config(cgct=False))
        conflict_misses(machine)
        node = machine.nodes[0]
        assert node.l2.peek(0) is None
        assert node.l1d.state_of(0) is L1State.INVALID
        node.check_inclusion()

    def test_dirty_victim_produces_writeback(self):
        machine = Machine(make_config(cgct=False))
        conflict_misses(machine)
        assert machine.nodes[0].l2.writebacks == 1
        # The baseline cannot route the castout: it broadcasts.
        assert machine.stats.broadcasts[OracleCategory.WRITEBACK] == 1
        assert machine.stats.directs[OracleCategory.WRITEBACK] == 0

    def test_cgct_writeback_carries_home_mc(self):
        machine = Machine(make_config(cgct=True, rca_sets=256))
        conflict_misses(machine)
        home = machine.address_map.home_of(0)
        assert machine.nodes[0].rca.probe(0).home_mc == home
        assert machine.stats.directs[OracleCategory.WRITEBACK] == 1
        assert machine.stats.broadcasts[OracleCategory.WRITEBACK] == 0
        assert machine.controllers[home].writes == 1


class TestRegionAllocation:
    def test_allocation_with_free_way(self, node):
        entry, writebacks = node.allocate_region(
            5, RegionState.CLEAN_INVALID, home_mc=1)
        assert entry.region == 5
        assert writebacks == []

    def test_allocation_evicts_victim_and_flushes_lines(self, node):
        g = geom(node)
        sets = node.rca.num_sets
        # Three regions in the same RCA set.
        regions = [7, 7 + sets, 7 + 2 * sets]
        for region in regions[:2]:
            node.rca.insert(region, RegionState.DIRTY_INVALID, home_mc=3)
        dirty_address = list(g.region_addresses(regions[0]))[0]
        node.l2.fill(dirty_address, LineState.MODIFIED)
        # Region[1] is empty ⇒ preferred victim; region[0] keeps its line.
        entry2, writebacks = node.allocate_region(
            regions[2], RegionState.CLEAN_INVALID, home_mc=3)
        assert writebacks == []
        assert node.rca.probe(regions[0]) is not None
        assert node.rca.probe(regions[1]) is None
        # Give the new region a line too, so the next allocation cannot
        # find an empty victim and must flush LRU region[0].
        node.l2.fill(list(g.region_addresses(regions[2]))[0], LineState.SHARED)
        _entry, writebacks = node.allocate_region(
            regions[0] + 3 * sets, RegionState.CLEAN_INVALID, home_mc=3)
        assert [w.line for w in writebacks] == [g.line_of(dirty_address)]
        assert writebacks[0].home_mc == 3
        assert node.l2.peek(g.line_of(dirty_address)) is None
        node.check_inclusion()


class TestLineSnoops:
    def test_snoop_miss(self, node):
        response, wrote_back = node.snoop_line(42, RequestType.READ)
        assert not response.cached
        assert not wrote_back

    def test_read_snoop_of_modified_supplies_and_demotes(self, node):
        g = geom(node)
        node.rca.insert(g.region_of(0), RegionState.DIRTY_INVALID, home_mc=0)
        node.l2.fill(0, LineState.MODIFIED)
        node.l1d.fill(0, writable=True)
        response, wrote_back = node.snoop_line(0, RequestType.READ)
        assert response.cached and response.dirty and response.supplied
        assert not wrote_back
        assert node.l2.peek(0).state is LineState.OWNED
        assert node.l1d.state_of(0) is L1State.SHARED

    def test_rfo_snoop_invalidates_through_l1(self, node):
        g = geom(node)
        node.rca.insert(g.region_of(0), RegionState.DIRTY_INVALID, home_mc=0)
        node.l2.fill(0, LineState.MODIFIED)
        node.l1d.fill(0, writable=True)
        response, _ = node.snoop_line(0, RequestType.RFO)
        assert response.supplied
        assert node.l2.peek(0) is None
        assert node.l1d.state_of(0) is L1State.INVALID
        assert node.rca.probe(g.region_of(0)).line_count == 0

    def test_dcbf_snoop_writes_back(self, node):
        g = geom(node)
        node.rca.insert(g.region_of(0), RegionState.DIRTY_INVALID, home_mc=0)
        node.l2.fill(0, LineState.MODIFIED)
        _response, wrote_back = node.snoop_line(0, RequestType.DCBF)
        assert wrote_back
        assert node.l2.peek(0) is None


class TestRegionSnoops:
    def test_no_rca_reports_nothing(self, plain_node):
        response = plain_node.snoop_region(5, RequestType.READ, False)
        assert not response.cached

    def test_untracked_region_reports_nothing(self, node):
        response = node.snoop_region(5, RequestType.READ, False)
        assert not response.cached

    def test_tracked_dirty_region_reports_dirty_and_downgrades(self, node):
        g = geom(node)
        node.rca.insert(5, RegionState.DIRTY_INVALID, home_mc=0)
        address = list(g.region_addresses(5))[0]
        node.l2.fill(address, LineState.MODIFIED)
        response = node.snoop_region(5, RequestType.READ, False)
        assert response.dirty
        assert node.rca.probe(5).state is RegionState.DIRTY_CLEAN

    def test_empty_region_self_invalidates(self, node):
        node.rca.insert(5, RegionState.DIRTY_DIRTY, home_mc=0)
        response = node.snoop_region(5, RequestType.RFO, None)
        assert not response.cached
        assert node.rca.probe(5) is None
        assert node.rca.self_invalidations == 1
