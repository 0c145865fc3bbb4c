"""Confidence intervals, geometric means, streaming moments."""

import math
import sys

import pytest
from hypothesis import given, strategies as st

from repro.common.stats import (
    RunningStat,
    confidence_interval,
    geometric_mean,
)


class TestConfidenceInterval:
    def test_single_sample_has_zero_width(self):
        ci = confidence_interval([3.5])
        assert ci.mean == 3.5
        assert ci.half_width == 0.0
        assert ci.n == 1

    def test_identical_samples_have_zero_width(self):
        ci = confidence_interval([2.0, 2.0, 2.0])
        assert ci.mean == 2.0
        assert ci.half_width == pytest.approx(0.0)

    def test_matches_t_distribution_hand_value(self):
        # n=4, stddev=1 ⇒ half-width = t(0.975, 3) / 2 ≈ 1.5912.
        ci = confidence_interval([-1.0, 1.0, -1.0, 1.0], confidence=0.95)
        sem = math.sqrt(4 / 3) / 2
        assert ci.half_width == pytest.approx(3.182446 * sem, rel=1e-4)

    def test_contains_and_overlaps(self):
        ci = confidence_interval([1.0, 2.0, 3.0])
        assert ci.contains(ci.mean)
        assert ci.overlaps(ci)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            confidence_interval([])

    def test_bad_confidence_raises(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0, 2.0], confidence=1.5)

    def test_wider_confidence_gives_wider_interval(self):
        samples = [1.0, 2.0, 4.0, 8.0]
        assert (
            confidence_interval(samples, 0.99).half_width
            > confidence_interval(samples, 0.90).half_width
        )


class TestConfidenceIntervalExact:
    """Half-widths equal scipy's t quantile times the SEM, bit for bit."""

    @pytest.mark.parametrize("confidence", [0.90, 0.95, 0.99])
    @pytest.mark.parametrize(
        "samples",
        [
            [1.0, 2.0],
            [0.31, 0.27, 0.35],
            [-1.0, 1.0, -1.0, 1.0],
            [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
            [0.1 * k * k for k in range(1, 31)],
        ],
    )
    def test_half_width_is_exact(self, samples, confidence):
        from scipy import stats

        n = len(samples)
        mean = sum(samples) / n
        variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
        sem = math.sqrt(variance / n)
        t_crit = float(stats.t.ppf((1.0 + confidence) / 2.0, df=n - 1))
        ci = confidence_interval(samples, confidence)
        assert ci.mean == mean
        assert ci.half_width == t_crit * sem

    def test_single_sample_needs_no_scipy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)
        ci = confidence_interval([4.25])
        assert (ci.mean, ci.half_width, ci.n) == (4.25, 0.0, 1)
        with pytest.raises(ImportError):
            confidence_interval([4.25, 5.0])


class TestGeometricMean:
    def test_hand_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    @given(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=20))
    def test_bounded_by_min_and_max(self, values):
        gm = geometric_mean(values)
        assert min(values) - 1e-9 <= gm <= max(values) + 1e-9


class TestRunningStat:
    def test_matches_batch_computation(self):
        samples = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        stat = RunningStat()
        stat.extend(samples)
        mean = sum(samples) / len(samples)
        var = sum((x - mean) ** 2 for x in samples) / (len(samples) - 1)
        assert stat.count == len(samples)
        assert stat.mean == pytest.approx(mean)
        assert stat.variance == pytest.approx(var)
        assert stat.minimum == 1.0
        assert stat.maximum == 9.0

    def test_variance_zero_below_two_samples(self):
        stat = RunningStat()
        assert stat.variance == 0.0
        stat.add(5.0)
        assert stat.variance == 0.0

    def test_merge_equals_combined_stream(self):
        left, right, combined = RunningStat(), RunningStat(), RunningStat()
        a = [1.0, 2.0, 3.0]
        b = [10.0, 20.0]
        left.extend(a)
        right.extend(b)
        combined.extend(a + b)
        merged = left.merge(right)
        assert merged.count == combined.count
        assert merged.mean == pytest.approx(combined.mean)
        assert merged.variance == pytest.approx(combined.variance)
        assert merged.minimum == combined.minimum
        assert merged.maximum == combined.maximum

    def test_merge_with_empty_is_identity(self):
        stat = RunningStat()
        stat.extend([1.0, 2.0])
        merged = stat.merge(RunningStat())
        assert merged.count == 2
        assert merged.mean == pytest.approx(1.5)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    def test_welford_agrees_with_two_pass(self, samples):
        stat = RunningStat()
        stat.extend(samples)
        mean = sum(samples) / len(samples)
        assert stat.mean == pytest.approx(mean, abs=1e-6)


class TestRunningStatPercentiles:
    def test_exact_below_sample_limit(self):
        stat = RunningStat()
        stat.extend(float(v) for v in range(101))
        assert stat.percentile(0) == 0.0
        assert stat.percentile(50) == pytest.approx(50.0)
        assert stat.percentile(100) == 100.0
        # Linear interpolation between retained samples.
        assert stat.percentile(12.5) == pytest.approx(12.5)

    def test_single_sample(self):
        stat = RunningStat()
        stat.add(7.0)
        assert stat.percentile(0) == stat.percentile(99) == 7.0

    def test_out_of_range_p_raises(self):
        stat = RunningStat()
        stat.add(1.0)
        with pytest.raises(ValueError):
            stat.percentile(-1)
        with pytest.raises(ValueError):
            stat.percentile(101)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            RunningStat().percentile(50)

    def test_sample_limit_zero_disables_retention(self):
        stat = RunningStat(sample_limit=0)
        stat.extend([1.0, 2.0, 3.0])
        assert stat.mean == pytest.approx(2.0)  # moments unaffected
        with pytest.raises(ValueError):
            stat.percentile(50)

    def test_retention_is_bounded_and_deterministic(self):
        a, b = RunningStat(sample_limit=64), RunningStat(sample_limit=64)
        values = [float((v * 37) % 1000) for v in range(10_000)]
        a.extend(values)
        b.extend(values)
        assert len(a._samples) <= 64
        assert a._samples == b._samples
        assert a.percentile(90) == b.percentile(90)
        # The strided estimate stays near the true quantile.
        true_p90 = sorted(values)[int(0.9 * (len(values) - 1))]
        assert a.percentile(90) == pytest.approx(true_p90, rel=0.15)

    def test_merge_combines_retained_samples(self):
        left, right = RunningStat(), RunningStat()
        left.extend([1.0, 2.0, 3.0])
        right.extend([10.0, 20.0])
        merged = left.merge(right)
        assert sorted(merged._samples) == [1.0, 2.0, 3.0, 10.0, 20.0]
        assert merged.percentile(100) == 20.0

    def test_merge_decimates_back_under_limit(self):
        left, right = RunningStat(sample_limit=8), RunningStat(sample_limit=8)
        left.extend(float(v) for v in range(8))
        right.extend(float(v) for v in range(8))
        merged = left.merge(right)
        assert len(merged._samples) <= 8
        assert merged.count == 16

    def test_merge_moments_unaffected_by_retention(self):
        left = RunningStat(sample_limit=4)
        right = RunningStat(sample_limit=4)
        a = [float(v) for v in range(100)]
        b = [float(v) for v in range(100, 150)]
        left.extend(a)
        right.extend(b)
        combined = RunningStat()
        combined.extend(a + b)
        merged = left.merge(right)
        assert merged.count == combined.count
        assert merged.mean == pytest.approx(combined.mean)
        assert merged.variance == pytest.approx(combined.variance)


def _state(stat):
    """Every field of a RunningStat, floats by their exact bits."""
    def bits(value):
        return value.hex() if isinstance(value, float) else value

    return (
        stat.count, bits(stat.mean), bits(stat._m2), bits(stat.minimum),
        bits(stat.maximum), stat.sample_limit, stat._stride,
        [bits(v) for v in stat._samples],
        [type(v) for v in stat._samples],
        type(stat.minimum), type(stat.maximum),
    )


_VALUES = st.lists(
    st.one_of(
        st.integers(min_value=-10**6, max_value=10**6),
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    ),
    max_size=120,
)


class TestRunningStatExtend:
    """``extend`` folds buffered samples later: it must leave exactly the
    state an ``add`` per sample leaves, bit for bit."""

    @given(before=_VALUES, values=_VALUES,
           limit=st.sampled_from([0, 1, 2, 3, 8, 1024]))
    def test_extend_equals_an_add_loop(self, before, values, limit):
        # Small limits decimate the retained samples (and double the
        # stride) many times over; limit 0 retains none.
        folded = RunningStat(sample_limit=limit)
        added = RunningStat(sample_limit=limit)
        for value in before:
            folded.add(value)
            added.add(value)
        folded.extend(values)
        for value in values:
            added.add(value)
        assert _state(folded) == _state(added)

    @given(chunks=st.lists(_VALUES, max_size=6),
           limit=st.sampled_from([0, 2, 5, 1024]))
    def test_chunked_extends_equal_an_add_loop(self, chunks, limit):
        folded = RunningStat(sample_limit=limit)
        added = RunningStat(sample_limit=limit)
        for chunk in chunks:
            folded.extend(chunk)
            for value in chunk:
                added.add(value)
        assert _state(folded) == _state(added)

    def test_extending_with_nothing_changes_nothing(self):
        stat = RunningStat()
        stat.extend([])
        assert _state(stat) == _state(RunningStat())
        stat.add(3)
        before = _state(stat)
        stat.extend(iter(()))
        assert _state(stat) == before

    def test_decimation_past_the_limit(self):
        folded = RunningStat(sample_limit=4)
        folded.extend(range(10))
        added = RunningStat(sample_limit=4)
        for value in range(10):
            added.add(value)
        assert folded._stride == added._stride == 4
        assert folded._samples == added._samples == [0, 4, 8]
        assert _state(folded) == _state(added)
