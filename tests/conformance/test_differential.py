"""Differential harness end-to-end: clean machines pass, seeded bugs fail.

The load-bearing test here is :class:`TestSeededBug`: it breaks one
entry of the paper's Table 1 (CLEAN_CLEAN stops broadcasting UPGRADEs),
proves the campaign catches it, shrinks the failure to a hand-readable
reproducer, and proves the reproducer flips back to green once the bug
is fixed — the complete find → shrink → regress workflow from
``docs/conformance.md``.
"""

import json

import pytest

from repro.coherence.requests import RequestType
from repro.conformance.campaign import campaign_config_names, run_iteration
from repro.conformance.differential import run_differential
from repro.conformance.fuzz import fuzz_trace
from repro.conformance.shrink import load_corpus_file, shrink_trace, write_reproducer
from repro.harness.perfbench import bench_config
from repro.rca.states import RegionState

from tests.system.reference_snoop import snoop_path


def _run(workload, config_name, telemetry=False, seed=0):
    return run_differential(
        workload, bench_config(config_name), config_name,
        seed=seed, telemetry=telemetry, bundle_dir=None,
    )


class TestCleanMachine:
    @pytest.mark.parametrize("config_name", campaign_config_names())
    def test_all_configs_conform(self, config_name):
        nprocs = int(config_name.split("p-")[0])
        workload = fuzz_trace(1, nprocs, ops_per_processor=24, seed=0)
        outcome = _run(workload, config_name)
        assert outcome.ok, outcome.mismatches[:5]
        assert outcome.accesses == 24 * nprocs
        assert outcome.events > 0

    @pytest.mark.parametrize("telemetry", [False, True])
    def test_telemetry_does_not_change_the_verdict(self, telemetry):
        workload = fuzz_trace(2, 4, ops_per_processor=24, seed=0)
        outcome = _run(workload, "4p-cgct", telemetry=telemetry)
        assert outcome.ok, outcome.mismatches[:5]

    def test_campaign_matrix_fuzzes_32p(self):
        assert "32p-baseline" in campaign_config_names()
        assert "32p-cgct" in campaign_config_names()

    @pytest.mark.parametrize("config_name", ["4p-cgct", "32p-cgct"])
    def test_both_snoop_paths_conform_identically(self, config_name):
        # The golden model knows nothing about snoop implementations:
        # the reference walks and the production paths must both
        # conform, over the same accesses and coherence event stream.
        nprocs = int(config_name.split("p-")[0])
        workload = fuzz_trace(4, nprocs, ops_per_processor=24, seed=0)
        outcomes = {}
        for snoop in ("walk", "bitmask"):
            with snoop_path(snoop):
                outcomes[snoop] = run_differential(
                    workload, bench_config(config_name), config_name,
                    seed=0,
                )
        for snoop, outcome in outcomes.items():
            assert outcome.ok, (snoop, outcome.mismatches[:5])
        assert outcomes["walk"].accesses == outcomes["bitmask"].accesses
        assert outcomes["walk"].events == outcomes["bitmask"].events

    def test_run_iteration_covers_every_requested_config(self):
        outcomes = run_iteration(
            trace_id=3, seed=0, ops=16,
            config_names=("4p-baseline", "4p-cgct", "8p-cgct"),
            telemetry=False,
        )
        assert [o.config_name for o in outcomes] == [
            "4p-baseline", "4p-cgct", "8p-cgct"
        ]
        assert all(o.ok for o in outcomes), [
            m for o in outcomes for m in o.mismatches[:2]
        ]


def _break_clean_clean_upgrade():
    """Seed the Table 1 bug: CC regions stop broadcasting UPGRADEs.

    Returns the saved tuple so callers can restore it in a finally
    block. With the bug in place a processor that has a shared (clean)
    copy upgrades it to M without invalidating the other sharers —
    a textbook lost invalidation.
    """
    state = RegionState.CLEAN_CLEAN
    saved = state.broadcast_needed
    mutated = list(saved)
    mutated[RequestType.UPGRADE.index] = False
    state.broadcast_needed = tuple(mutated)
    return saved


def _find_failing_trace(config_name="4p-cgct", max_id=8):
    for trace_id in range(max_id):
        workload = fuzz_trace(trace_id, 4, ops_per_processor=48, seed=0)
        outcome = _run(workload, config_name)
        if not outcome.ok:
            return workload, outcome
    return None, None


class TestSeededBug:
    def test_bug_is_caught_and_shrinks_small(self, tmp_path):
        saved = _break_clean_clean_upgrade()
        try:
            workload, outcome = _find_failing_trace()
            assert workload is not None, (
                "seeded CLEAN_CLEAN/UPGRADE bug survived 8 fuzz traces"
            )

            def is_failing(candidate):
                return not _run(candidate, outcome.config_name).ok

            minimized, evals = shrink_trace(workload, is_failing)
            accesses = sum(len(t) for t in minimized.per_processor)
            assert accesses <= 12, (
                f"reproducer still has {accesses} accesses after "
                f"{evals} evaluations"
            )

            min_outcome = _run(minimized, outcome.config_name)
            assert not min_outcome.ok
            bundle_path, corpus_path = write_reproducer(
                minimized, min_outcome, tmp_path, shrink_evals=evals,
            )
            bundle = json.loads(bundle_path.read_text(encoding="utf-8"))
            assert bundle["schema"] == "cgct-diagnostics/v1"
            assert bundle["kind"] == "conformance-reproducer"
            assert bundle["mismatches"]
            assert bundle["accesses"] == accesses

            # The committed-corpus file round-trips and still fails
            # while the bug is live...
            replayed, meta = load_corpus_file(corpus_path)
            assert meta["configs"] == [outcome.config_name]
            assert not _run(replayed, outcome.config_name).ok
        finally:
            RegionState.CLEAN_CLEAN.broadcast_needed = saved
        # ... and passes the moment the protocol is fixed: exactly the
        # regression test test_corpus.py runs forever.
        assert _run(replayed, outcome.config_name).ok

    def test_shrink_rejects_passing_traces(self):
        from repro.common.errors import SimulationError

        workload = fuzz_trace(1, 4, ops_per_processor=16, seed=0)
        with pytest.raises(SimulationError, match="does not fail"):
            shrink_trace(workload, lambda w: not _run(w, "4p-cgct").ok)


class TestFlightRecorder:
    def test_passing_outcomes_carry_no_flight_history(self):
        workload = fuzz_trace(1, 4, ops_per_processor=24, seed=0)
        assert _run(workload, "4p-cgct").flight is None

    def test_failing_outcome_and_reproducer_carry_flight_history(
        self, tmp_path
    ):
        saved = _break_clean_clean_upgrade()
        try:
            workload, outcome = _find_failing_trace()
            assert workload is not None
            # The sanitizer's flight recorder was live during the run;
            # the failing outcome carries its tail...
            assert outcome.flight
            assert len(outcome.flight) <= 16
            for record in outcome.flight:
                assert record["op"]
                assert record["spans"]
            # ... and the written reproducer embeds it, so a bundle
            # alone shows what the machine did before diverging.
            bundle_path, _ = write_reproducer(
                workload, outcome, tmp_path, shrink_evals=0,
            )
            bundle = json.loads(bundle_path.read_text(encoding="utf-8"))
            assert bundle["flight_recorder"] == outcome.flight
        finally:
            RegionState.CLEAN_CLEAN.broadcast_needed = saved
