"""The coherence event log."""

import pytest

from repro.coherence.requests import RequestType
from repro.system.eventlog import EventLog
from repro.system.machine import Machine, RequestPath

from tests.conftest import make_config


@pytest.fixture
def logged_machine():
    machine = Machine(make_config(cgct=True, rca_sets=1024))
    log = EventLog(capacity=64)
    machine.attach_event_log(log)
    return machine, log


class TestRecording:
    def test_external_requests_are_logged(self, logged_machine):
        machine, log = logged_machine
        machine.load(0, 0x1000, now=0)
        machine.load(0, 0x1040, now=1000)
        assert len(log) == 2
        first, second = log.tail(2)
        assert first.path == "broadcast"
        assert second.path == "direct"
        assert first.request is RequestType.READ

    def test_hits_are_not_logged(self, logged_machine):
        machine, log = logged_machine
        machine.load(0, 0x1000, now=0)
        machine.load(0, 0x1000, now=1000)  # L1 hit
        assert len(log) == 1

    def test_no_request_completions_logged(self, logged_machine):
        machine, log = logged_machine
        machine.ifetch(0, 0x1000, now=0)
        machine.store(0, 0x1000, now=1000)  # silent upgrade
        kinds = [e.path for e in log]
        assert "no_request" in kinds

    def test_detached_machine_logs_nothing(self):
        machine = Machine(make_config(cgct=True, rca_sets=1024))
        machine.load(0, 0x1000, now=0)  # no log attached: no error either

    def test_capacity_is_bounded(self):
        log = EventLog(capacity=4)
        for i in range(10):
            log.record(i, 0, RequestType.READ, i * 64,
                       RequestPath.BROADCAST, 250)
        assert len(log) == 4
        assert log.recorded == 10
        assert [e.time for e in log] == [6, 7, 8, 9]
        assert [e.time for e in log.tail(2)] == [8, 9]


class TestQueries:
    def _fill(self, log):
        log.record(0, 0, RequestType.READ, 0x1000, RequestPath.BROADCAST, 250)
        log.record(10, 1, RequestType.RFO, 0x1040, RequestPath.DIRECT, 200)
        log.record(20, 0, RequestType.IFETCH, 0x9000, RequestPath.DIRECT, 181)

    def test_for_processor(self):
        log = EventLog()
        self._fill(log)
        assert len(log.for_processor(0)) == 2
        assert len(log.for_processor(3)) == 0

    def test_by_path(self):
        log = EventLog()
        self._fill(log)
        assert len(log.by_path("direct")) == 2

    def test_for_region(self):
        log = EventLog()
        self._fill(log)
        region = 0x1000 >> 9
        assert len(log.for_region(region)) == 2

    def test_render(self):
        log = EventLog()
        self._fill(log)
        text = log.render()
        assert "broadcast" in text and "0x1000" in text

    def test_describe(self):
        log = EventLog()
        self._fill(log)
        assert "P0" in log.tail(1)[0].describe()


def test_capacity_validation():
    with pytest.raises(ValueError):
        EventLog(capacity=0)
