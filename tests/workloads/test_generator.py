"""Synthetic workload generator: determinism, structure, address hygiene."""

import dataclasses

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.memory.geometry import Geometry
from repro.workloads.generator import (
    PhaseSpec,
    SyntheticWorkload,
    WorkloadProfile,
    physical_address,
    physical_addresses,
)
from repro.workloads.trace import TraceOp


@pytest.fixture
def profile():
    return WorkloadProfile(
        name="test",
        description="unit-test workload",
        category="Test",
        ops_per_processor=4000,
    )


class TestPhysicalAddressTranslation:
    def test_deterministic(self):
        assert physical_address(0x12345678) == physical_address(0x12345678)

    def test_preserves_page_offset(self):
        for virtual in (0x1000, 0x1040, 0x1FFF, 0x123456):
            assert physical_address(virtual) % 4096 == virtual % 4096

    def test_same_page_stays_together(self):
        base = physical_address(0x40_0000)
        assert physical_address(0x40_0040) == base + 0x40

    def test_different_pages_scatter(self):
        pages = {physical_address(i << 12) >> 12 for i in range(1000)}
        assert len(pages) > 990  # essentially no collisions

    def test_fits_in_40_bits(self):
        for virtual in (0, 0x7F_FFFF_FFFF, 0x41_2345_6789):
            assert physical_address(virtual) < (1 << 40)

    def test_spreads_cache_sets(self):
        # Pages scatter across all 128 page-aligned set groups of an
        # 8K-set cache — the aliasing bug this function exists to fix
        # left every pool stacked on group 0.
        groups = {
            (physical_address(i << 12) >> 6) & 8191 for i in range(1000)
        }
        assert len(groups) > 100  # of the 128 possible page-start groups


    def test_array_form_matches_scalar_form(self):
        rng = np.random.default_rng(7)
        virtual = np.concatenate([
            rng.integers(0, 1 << 40, 2000, dtype=np.uint64),
            np.array([0, 0xFFF, 0x1000, 0x7F_FFFF_FFFF, (1 << 52) - 1],
                     dtype=np.uint64),
        ])
        physical = physical_addresses(virtual)
        assert physical.dtype == np.uint64
        assert physical.tolist() == [
            physical_address(v) for v in virtual.tolist()]


class TestDeterminism:
    def test_same_seed_same_trace(self, profile):
        a = SyntheticWorkload(profile).build(seed=7)
        b = SyntheticWorkload(profile).build(seed=7)
        for ta, tb in zip(a.per_processor, b.per_processor):
            assert np.array_equal(ta.ops, tb.ops)
            assert np.array_equal(ta.addresses, tb.addresses)
            assert np.array_equal(ta.gaps, tb.gaps)

    def test_different_seeds_differ(self, profile):
        a = SyntheticWorkload(profile).build(seed=1)
        b = SyntheticWorkload(profile).build(seed=2)
        assert not np.array_equal(
            a.per_processor[0].addresses, b.per_processor[0].addresses
        )

    def test_processors_have_distinct_streams(self, profile):
        mt = SyntheticWorkload(profile).build(seed=0)
        assert not np.array_equal(
            mt.per_processor[0].addresses, mt.per_processor[1].addresses
        )

    def test_machine_sizes_have_distinct_streams(self, profile):
        # Regression: the per-processor RNG used to be scoped only by
        # (seed, profile, proc), so a 4p and an 8p build of the same
        # profile replayed identical draws for their common processors
        # even though episode choices depend on the machine size. The
        # stream must be scoped by the processor count as well. (The
        # simulator's paired perturbation stream in Machine is shared
        # across configs *on purpose* — that one must NOT be scoped.)
        t4 = SyntheticWorkload(profile, num_processors=4).build(seed=7)
        t8 = SyntheticWorkload(profile, num_processors=8).build(seed=7)
        assert not np.array_equal(
            t4.per_processor[0].addresses[:200],
            t8.per_processor[0].addresses[:200],
        )

    def test_uniform_random_scoped_by_machine_size(self):
        from repro.workloads.microbench import uniform_random

        a = uniform_random(num_processors=4, ops_per_processor=300, seed=3)
        b = uniform_random(num_processors=8, ops_per_processor=300, seed=3)
        assert not np.array_equal(
            a.per_processor[0].addresses, b.per_processor[0].addresses
        )


class TestStructure:
    def test_exact_op_count(self, profile):
        mt = SyntheticWorkload(profile).build(seed=0, ops_per_processor=1234)
        assert all(len(t) == 1234 for t in mt.per_processor)

    def test_validates_against_geometry(self, profile):
        mt = SyntheticWorkload(profile).build(seed=0)
        mt.validate(Geometry())  # must not raise

    def test_contains_expected_op_mix(self, profile):
        mt = SyntheticWorkload(profile).build(seed=0)
        ops = np.concatenate([t.ops for t in mt.per_processor])
        present = set(ops.tolist())
        assert int(TraceOp.LOAD) in present
        assert int(TraceOp.STORE) in present
        assert int(TraceOp.IFETCH) in present
        assert int(TraceOp.DCBZ) in present

    def test_dcbz_comes_in_page_bursts(self, profile):
        mt = SyntheticWorkload(profile).build(seed=0, ops_per_processor=20_000)
        trace = mt.per_processor[0]
        dcbz_addresses = trace.addresses[trace.ops == int(TraceOp.DCBZ)]
        assert len(dcbz_addresses) >= 64
        # All 64 lines of at least one page appear.
        pages = dcbz_addresses >> 12
        values, counts = np.unique(pages, return_counts=True)
        assert counts.max() == 64

    def test_gaps_follow_mean(self):
        profile = WorkloadProfile(
            name="gaps", description="", category="Test", mean_gap=10.0,
        )
        mt = SyntheticWorkload(profile).build(seed=0, ops_per_processor=20_000)
        mean = float(np.mean(mt.per_processor[0].gaps))
        assert 7.0 < mean < 13.0

    def test_shared_pools_overlap_between_processors(self):
        profile = WorkloadProfile(
            name="shared", description="", category="Test",
            ro_bias=0.0, hot_fraction=0.9, hot_pool_fraction=0.1,
            phases=(PhaseSpec(fraction=1.0, p_private=0.0, p_shared_ro=1.0,
                              p_shared_rw=0.0, p_code=0.0),),
        )
        mt = SyntheticWorkload(profile).build(seed=0, ops_per_processor=5_000)
        lines = [set((t.addresses >> 6).tolist()) for t in mt.per_processor]
        assert lines[0] & lines[1]

    def test_private_pools_never_overlap(self):
        profile = WorkloadProfile(
            name="private", description="", category="Test",
            stream_fraction=0.0,
            phases=(PhaseSpec(fraction=1.0, p_private=1.0, p_shared_ro=0.0,
                              p_shared_rw=0.0, p_code=0.0),),
        )
        mt = SyntheticWorkload(profile).build(seed=0, ops_per_processor=5_000)
        lines = [set((t.addresses >> 6).tolist()) for t in mt.per_processor]
        assert not (lines[0] & lines[1])

    def test_private_pools_stay_disjoint_at_64_processors(self):
        # Regression: with a fixed FRESH_BASE, processor 48's private
        # pool landed exactly on processor 0's fresh pool (PRIVATE_BASE
        # + 48 * PRIVATE_STRIDE == FRESH_BASE), silently sharing pages
        # meant to be private. The fresh floor now lifts past every
        # private pool on machines larger than 48 processors.
        profile = WorkloadProfile(
            name="private64", description="", category="Test",
            stream_fraction=0.0,
            phases=(PhaseSpec(fraction=1.0, p_private=0.5, p_shared_ro=0.0,
                              p_shared_rw=0.0, p_code=0.0, p_page_zero=0.5),),
        )
        mt = SyntheticWorkload(profile, num_processors=64).build(
            seed=0, ops_per_processor=400
        )
        lines = [set((t.addresses >> 6).tolist()) for t in mt.per_processor]
        for i in range(64):
            for j in range(i + 1, 64):
                assert not (lines[i] & lines[j]), (
                    f"processors {i} and {j} share supposedly-private lines"
                )

    def test_fresh_pool_layout_unchanged_up_to_48_processors(self):
        # The 64p fix must not move any existing machine's addresses:
        # up to 48 processors the fresh floor is still FRESH_BASE.
        from repro.workloads.generator import (
            FRESH_BASE, FRESH_STRIDE, _ProcessorStream,
        )

        profile = WorkloadProfile(name="layout", description="",
                                  category="Test")
        for nprocs in (1, 4, 16, 48):
            stream = _ProcessorStream(profile, nprocs - 1, nprocs, seed=0)
            assert stream.fresh_base == FRESH_BASE + (nprocs - 1) * FRESH_STRIDE
        stream = _ProcessorStream(profile, 0, 64, seed=0)
        assert stream.fresh_base > FRESH_BASE

    def test_code_private_flag_separates_ifetch_streams(self):
        base = dict(
            description="", category="Test",
            phases=(PhaseSpec(fraction=1.0, p_private=0.0, p_shared_ro=0.0,
                              p_shared_rw=0.0, p_code=1.0),),
        )
        shared = SyntheticWorkload(
            WorkloadProfile(name="cs", **base)
        ).build(seed=0, ops_per_processor=3_000)
        private = SyntheticWorkload(
            WorkloadProfile(name="cp", code_private=True, **base)
        ).build(seed=0, ops_per_processor=3_000)
        shared_lines = [set((t.addresses >> 6).tolist())
                        for t in shared.per_processor]
        private_lines = [set((t.addresses >> 6).tolist())
                         for t in private.per_processor]
        assert shared_lines[0] & shared_lines[1]
        assert not (private_lines[0] & private_lines[1])


class TestPhases:
    def test_phase_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile(
                name="bad", description="", category="Test",
                phases=(PhaseSpec(fraction=0.5, p_private=1.0, p_shared_ro=0.0,
                                  p_shared_rw=0.0, p_code=0.0),),
            )

    def test_episode_probabilities_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            PhaseSpec(fraction=1.0, p_private=0.5, p_shared_ro=0.0,
                      p_shared_rw=0.0, p_code=0.0)

    def test_two_phase_workload_changes_behaviour(self):
        profile = WorkloadProfile(
            name="phased", description="", category="Test",
            phases=(
                PhaseSpec(fraction=0.5, p_private=1.0, p_shared_ro=0.0,
                          p_shared_rw=0.0, p_code=0.0),
                PhaseSpec(fraction=0.5, p_private=0.0, p_shared_ro=0.0,
                          p_shared_rw=0.0, p_code=1.0),
            ),
        )
        mt = SyntheticWorkload(profile).build(seed=0, ops_per_processor=4_000)
        trace = mt.per_processor[0]
        first = trace.ops[:1800]
        second = trace.ops[2200:]
        assert int(TraceOp.IFETCH) not in set(first.tolist())
        assert set(second.tolist()) == {int(TraceOp.IFETCH)}


class TestValidation:
    def test_chunk_must_be_line_multiple(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile(name="bad", description="", category="Test",
                            chunk_bytes=100)

    def test_pool_smaller_than_chunk_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile(name="bad", description="", category="Test",
                            code_bytes=512, chunk_bytes=2048)

    def test_zero_processors_rejected(self, profile):
        with pytest.raises(ConfigurationError):
            SyntheticWorkload(profile, num_processors=0)


class TestHeapPool:
    def test_heap_parcels_never_overlap_between_processors(self):
        profile = WorkloadProfile(
            name="heap-only", description="", category="Test",
            phases=(PhaseSpec(fraction=1.0, p_private=0.0, p_shared_ro=0.0,
                              p_shared_rw=0.0, p_code=0.0, p_heap=1.0),),
        )
        mt = SyntheticWorkload(profile).build(seed=0, ops_per_processor=4000)
        lines = [set((t.addresses >> 6).tolist()) for t in mt.per_processor]
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                assert not (lines[i] & lines[j])

    def test_heap_parcels_interleave_within_blocks(self):
        """Adjacent 512B parcels belong to different processors, so any
        1KB region is touched by two of them."""
        profile = WorkloadProfile(
            name="heap-only2", description="", category="Test",
            heap_bytes=1 << 20,
            phases=(PhaseSpec(fraction=1.0, p_private=0.0, p_shared_ro=0.0,
                              p_shared_rw=0.0, p_code=0.0, p_heap=1.0),),
        )
        mt = SyntheticWorkload(profile).build(seed=0, ops_per_processor=8000)
        # Group touched 512B parcels by 1KB block; blocks touched by two
        # processors must exist (parcels are round-robin).
        owners_per_kb = {}
        for proc, trace in enumerate(mt.per_processor):
            for address in trace.addresses.tolist():
                owners_per_kb.setdefault(address >> 10, set()).add(proc)
        assert any(len(owners) > 1 for owners in owners_per_kb.values())

    def test_rw_chunk_granularity(self):
        profile = WorkloadProfile(
            name="rw-gran", description="", category="Test",
            rw_chunk_bytes=256, shared_rw_bytes=64 << 10,
            phases=(PhaseSpec(fraction=1.0, p_private=0.0, p_shared_ro=0.0,
                              p_shared_rw=1.0, p_code=0.0),),
        )
        mt = SyntheticWorkload(profile).build(seed=0, ops_per_processor=2000)
        mt.validate(Geometry())

    def test_bad_heap_chunk_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile(name="bad", description="", category="Test",
                            heap_chunk_bytes=100)

    def test_bad_rw_chunk_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile(name="bad", description="", category="Test",
                            rw_chunk_bytes=0)
