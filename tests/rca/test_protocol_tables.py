"""Region protocol tables: tabulated once per process and shared."""

import dataclasses

import pytest

from repro.coherence.line_states import LineState
from repro.coherence.requests import RequestType
from repro.common.errors import ProtocolError
from repro.rca import protocol as protocol_module
from repro.rca.protocol import RegionProtocol
from repro.rca.states import RegionState
from repro.system.config import SystemConfig
from repro.system.machine import Machine
from repro.telemetry.registry import TransitionMatrix

TABLES = ("_response_table", "_external_table", "_local_table")


def nested_tuples(table) -> bool:
    if isinstance(table, list):
        return False
    if isinstance(table, tuple):
        return all(nested_tuples(cell) for cell in table)
    return True


def test_every_node_of_two_machines_shares_one_set_of_tables():
    config = SystemConfig.paper_cgct(512)
    protocols = [node.protocol
                 for machine in (Machine(config, seed=0),
                                 Machine(config, seed=1))
                 for node in machine.nodes]
    assert len(protocols) == 2 * config.num_processors
    for name in TABLES:
        assert len({id(getattr(p, name)) for p in protocols}) == 1


def test_baseline_and_cgct_machines_share_tables_for_equal_flags():
    baseline = Machine(SystemConfig.paper_baseline(), seed=0)
    cgct = Machine(SystemConfig.paper_cgct(512), seed=0)
    for name in TABLES:
        assert getattr(baseline.nodes[0].protocol, name) \
            is getattr(cgct.nodes[0].protocol, name)


def test_replace_with_transitions_keeps_the_same_tables():
    plain = RegionProtocol()
    recording = dataclasses.replace(
        plain, transitions=TransitionMatrix("region"))
    assert recording == plain
    for name in TABLES:
        assert getattr(recording, name) is getattr(plain, name)


@pytest.mark.parametrize("two_bit,self_invalidation", [
    (True, True), (False, True), (True, False), (False, False),
])
def test_tables_are_immutable_nested_tuples(two_bit, self_invalidation):
    protocol = RegionProtocol(two_bit, self_invalidation)
    for name in TABLES:
        table = getattr(protocol, name)
        assert isinstance(table, tuple)
        assert nested_tuples(table)


def test_flag_variants_get_their_own_tables():
    tables = {id(RegionProtocol(two_bit, invalidate)._response_table)
              for two_bit in (True, False) for invalidate in (True, False)}
    assert len(tables) == 4


def test_tabulated_error_cell_still_raises_through_the_reference_path():
    protocol = RegionProtocol()
    cell = protocol._local_table[RegionState.INVALID.index][
        RequestType.UPGRADE.index][LineState.MODIFIED.index][0]
    assert cell is None
    with pytest.raises(ProtocolError, match="UPGRADE with no region entry"):
        protocol.after_local_request(RegionState.INVALID,
                                     RequestType.UPGRADE,
                                     LineState.MODIFIED, None)


def test_emptied_table_cache_tabulates_a_patched_reference(monkeypatch):
    shared = RegionProtocol()._external_table
    monkeypatch.setattr(
        RegionProtocol, "_after_external_request",
        lambda self, state, request, fills=None: state,
    )
    assert RegionProtocol()._external_table is shared
    monkeypatch.setattr(protocol_module, "_TABLES", {})
    patched = RegionProtocol()
    assert patched._external_table is not shared
    assert patched.after_external_request(
        RegionState.CLEAN_INVALID, RequestType.RFO
    ) is RegionState.CLEAN_INVALID
