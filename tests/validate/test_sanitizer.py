"""Runtime sanitizer: bit-identity, mutation detection, diagnostics.

The two load-bearing properties: (1) a sanitized run returns the exact
same ``RunResult`` as an unsanitized one — the sanitizer only reads
machine state; (2) a seeded protocol mutation (here: a region protocol
that ignores external broadcasts, i.e. skips a Table 1 decision) is
caught mid-run with an :class:`InvariantViolation` pointing at a
diagnostics bundle that is actually useful.
"""

import json

import pytest

from repro.common.errors import ConfigurationError, InvariantViolation
from repro.rca import protocol as protocol_module
from repro.rca.protocol import RegionProtocol
from repro.system.config import SystemConfig
from repro.system.simulator import run_workload
from repro.validate.sanitizer import CoherenceSanitizer
from repro.workloads.benchmarks import build_benchmark


def run(config, sanitizer=None, ops=2_000, workload="barnes", seed=0):
    trace = build_benchmark(workload, num_processors=config.num_processors,
                            ops_per_processor=ops, seed=0)
    return run_workload(config, trace, seed=seed, warmup_fraction=0.25,
                        sanitizer=sanitizer)


class TestBitIdentity:
    @pytest.mark.parametrize("mode", ["sampled", "deep"])
    def test_sanitized_run_is_bit_identical(self, mode):
        config = SystemConfig.paper_cgct(512)
        plain = run(config)
        sanitizer = CoherenceSanitizer(mode=mode, bundle_dir=None)
        audited = run(config, sanitizer=sanitizer)
        assert audited == plain  # full RunResult equality, every field
        assert sanitizer.checks > 0

    def test_baseline_machine_is_audited_too(self):
        config = SystemConfig.paper_baseline()
        plain = run(config)
        sanitizer = CoherenceSanitizer(mode="deep", bundle_dir=None)
        assert run(config, sanitizer=sanitizer) == plain

    def test_sampled_mode_rotates_windows(self):
        sanitizer = CoherenceSanitizer(mode="sampled", every=512,
                                       bundle_dir=None)
        run(SystemConfig.paper_cgct(512), sanitizer=sanitizer)
        assert sanitizer.checks > 2
        assert sanitizer.lines_checked > 0
        assert sanitizer.regions_checked > 0


class TestConfiguration:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            CoherenceSanitizer(mode="paranoid")

    def test_zero_cadence_rejected(self):
        with pytest.raises(ConfigurationError, match="cadence"):
            CoherenceSanitizer(mode="sampled", every=0)

    def test_check_before_bind_rejected(self):
        with pytest.raises(ConfigurationError, match="bind"):
            CoherenceSanitizer().check(now=0)


def skip_external_transitions(monkeypatch):
    # The bug: external broadcasts never downgrade our region state
    # (Table 1's external-part transitions are skipped), so trackers
    # keep claiming exclusivity the rest of the machine has lost. The
    # emptied table cache makes the protocol tabulate the patched code.
    monkeypatch.setattr(
        RegionProtocol, "_after_external_request",
        lambda self, state, request, fills=None: state,
    )
    monkeypatch.setattr(protocol_module, "_TABLES", {})


class TestMutationDetection:
    def test_skipped_broadcast_decision_is_caught(self, tmp_path,
                                                  monkeypatch):
        skip_external_transitions(monkeypatch)
        sanitizer = CoherenceSanitizer(mode="sampled",
                                       bundle_dir=str(tmp_path))
        with pytest.raises(InvariantViolation) as excinfo:
            run(SystemConfig.paper_cgct(512), sanitizer=sanitizer)
        exc = excinfo.value
        assert exc.violations
        assert any("external" in v for v in exc.violations)
        assert exc.bundle_path is not None

    def test_bundle_contents_are_actionable(self, tmp_path, monkeypatch):
        skip_external_transitions(monkeypatch)
        sanitizer = CoherenceSanitizer(mode="deep",
                                       bundle_dir=str(tmp_path))
        with pytest.raises(InvariantViolation) as excinfo:
            run(SystemConfig.paper_cgct(512), sanitizer=sanitizer)
        bundle = json.loads(open(excinfo.value.bundle_path).read())
        assert bundle["schema"] == "cgct-diagnostics/v1"
        assert bundle["workload"] == "barnes"
        assert bundle["seed"] == 0
        assert bundle["mode"] == "deep"
        assert bundle["violations"]
        assert bundle["config"]["cgct_enabled"] is True
        # The ring sink captured the lead-up to the violation.
        assert bundle["events"]
        assert {"time", "processor", "request", "address"} <= set(
            bundle["events"][-1])
        assert len(bundle["occupancy"]) == 4

    def test_bundle_names_count_up_without_timestamps(self, tmp_path):
        sanitizer = CoherenceSanitizer(bundle_dir=str(tmp_path))
        sanitizer.workload, sanitizer.seed = "barnes", 3

        class _Machine:
            config = SystemConfig.paper_baseline()
            event_log = None
            telemetry = None
            nodes = ()

        sanitizer.machine = _Machine()
        first = sanitizer.write_bundle(["v"], now=10)
        second = sanitizer.write_bundle(["v"], now=20)
        assert first.name == "bundle-barnes-seed3.json"
        assert second.name == "bundle-barnes-seed3-1.json"
