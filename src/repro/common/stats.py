"""Summary statistics for multi-run experiments.

The paper reports 95 % confidence intervals over several perturbed runs of
each benchmark (Section 4, following Alameldeen et al.). This module
provides the small amount of statistics the harness needs: streaming
mean/variance accumulation, Student-t confidence intervals, and geometric
means for speedup aggregation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval around a sample mean."""

    mean: float
    half_width: float
    confidence: float
    n: int

    @property
    def low(self) -> float:
        """Lower bound of the interval."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper bound of the interval."""
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """Whether *value* lies inside the interval (inclusive)."""
        return self.low <= value <= self.high

    def overlaps(self, other: "ConfidenceInterval") -> bool:
        """Whether two intervals share any point."""
        return self.low <= other.high and other.low <= self.high

    def __str__(self) -> str:  # pragma: no cover - formatting only
        return f"{self.mean:.4g} ± {self.half_width:.2g} ({self.confidence:.0%}, n={self.n})"


def confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of *samples*.

    With a single sample the half-width is zero (there is nothing to
    estimate dispersion from); the harness flags such results as
    single-run. Raises :class:`ValueError` on an empty sequence.
    """
    if not samples:
        raise ValueError("confidence_interval() requires at least one sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return ConfidenceInterval(mean=mean, half_width=0.0, confidence=confidence, n=1)
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    sem = math.sqrt(variance / n)
    # Imported here, not at module level: scipy takes about a second and
    # 60 MB to load, and only intervals over two or more samples need it.
    from scipy import stats as _scipy_stats

    t_crit = float(_scipy_stats.t.ppf((1.0 + confidence) / 2.0, df=n - 1))
    return ConfidenceInterval(
        mean=mean, half_width=t_crit * sem, confidence=confidence, n=n
    )


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean, the conventional aggregate for speedup ratios.

    Raises :class:`ValueError` for empty input or non-positive values
    (a non-positive speedup is always a caller bug).
    """
    log_sum = 0.0
    count = 0
    for value in values:
        if value <= 0.0:
            raise ValueError(f"geometric_mean requires positive values, got {value}")
        log_sum += math.log(value)
        count += 1
    if count == 0:
        raise ValueError("geometric_mean() requires at least one value")
    return math.exp(log_sum / count)


@dataclass
class RunningStat:
    """Streaming mean / variance / extrema accumulator.

    Moments use Welford's online algorithm: a single pass that updates
    the mean and the centred sum of squares (``M2``) incrementally, so
    the variance never suffers the catastrophic cancellation of the
    naive ``E[x²] − E[x]²`` formula even when the mean is large relative
    to the spread. Each sample costs O(1) time and the moments cost O(1)
    memory; results are exact up to ordinary floating-point rounding.
    Merging two accumulators uses the parallel (Chan et al.) variant of
    the same update and is equivalent to having streamed both sample
    sets through one accumulator.

    Percentiles cannot be computed from moments alone, so the
    accumulator also retains a bounded, deterministic subsample: every
    ``stride``-th sample is kept, and whenever the buffer would exceed
    ``sample_limit`` the stride doubles and the buffer is decimated.
    The retained set is a function of the input sequence only — no
    randomness — so repeated runs report identical percentiles.
    ``sample_limit=0`` disables retention (moments only).

    Used by the simulator for per-request latency statistics where
    storing every sample would be wasteful.
    """

    count: int = 0
    mean: float = 0.0
    _m2: float = field(default=0.0, repr=False)
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    sample_limit: int = 1024
    _samples: List[float] = field(default_factory=list, repr=False)
    _stride: int = field(default=1, repr=False)

    def add(self, value: float) -> None:
        """Fold one sample into the accumulator."""
        if self.sample_limit > 0 and self.count % self._stride == 0:
            self._samples.append(value)
            if len(self._samples) > self.sample_limit:
                self._samples = self._samples[::2]
                self._stride *= 2
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        """Fold many samples into the accumulator."""
        for value in values:
            self.add(value)

    @property
    def variance(self) -> float:
        """Unbiased sample variance; zero until two samples exist."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    def percentile(self, p: float) -> float:
        """Approximate *p*-th percentile from the retained subsample.

        Uses linear interpolation between the two nearest retained
        samples. Exact while fewer than ``sample_limit`` samples have
        been seen; an evenly-strided estimate afterwards. Raises
        :class:`ValueError` when no samples are retained (empty
        accumulator, or ``sample_limit=0``).
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            raise ValueError("percentile() requires retained samples")
        ordered = sorted(self._samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        lower = int(math.floor(rank))
        upper = min(lower + 1, len(ordered) - 1)
        frac = rank - lower
        return ordered[lower] * (1.0 - frac) + ordered[upper] * frac

    def merge(self, other: "RunningStat") -> "RunningStat":
        """Return a new accumulator equivalent to seeing both sample sets.

        Moments combine exactly (parallel Welford); the retained
        subsamples are concatenated and deterministically decimated back
        under the larger of the two sample limits.
        """
        limit = max(self.sample_limit, other.sample_limit)
        samples = self._samples + other._samples
        stride = max(self._stride, other._stride)
        while limit > 0 and len(samples) > limit:
            samples = samples[::2]
            stride *= 2
        if other.count == 0:
            return RunningStat(
                self.count, self.mean, self._m2, self.minimum, self.maximum,
                limit, samples, stride,
            )
        if self.count == 0:
            return RunningStat(
                other.count, other.mean, other._m2, other.minimum,
                other.maximum, limit, samples, stride,
            )
        count = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * other.count / count
        m2 = self._m2 + other._m2 + delta * delta * self.count * other.count / count
        mins: List[float] = [
            m for m in (self.minimum, other.minimum) if m is not None
        ]
        maxs: List[float] = [
            m for m in (self.maximum, other.maximum) if m is not None
        ]
        return RunningStat(count, mean, m2, min(mins), max(maxs),
                           limit, samples, stride)
