"""Shared utilities used by every other subpackage.

This package deliberately contains no simulator policy: only deterministic
randomness plumbing (:mod:`repro.common.rng`), unit conversions
(:mod:`repro.common.units`), summary statistics with confidence intervals
(:mod:`repro.common.stats`), windowed traffic counters
(:mod:`repro.common.intervals`), busy-resource timing primitives
(:mod:`repro.common.resources`), and plain-text tables
(:mod:`repro.common.render`).
"""

from repro.common.errors import (
    CGCTError,
    ConfigurationError,
    ProtocolError,
    SimulationError,
)
from repro.common.intervals import IntervalCounter
from repro.common.resources import OccupiedResource
from repro.common.rng import derive_seed, make_rng
from repro.common.stats import (
    ConfidenceInterval,
    RunningStat,
    confidence_interval,
    geometric_mean,
)
from repro.common.units import (
    CPU_CYCLES_PER_SYSTEM_CYCLE,
    cpu_cycles,
    nanoseconds,
    system_cycles,
)

__all__ = [
    "CGCTError",
    "ConfigurationError",
    "ProtocolError",
    "SimulationError",
    "IntervalCounter",
    "OccupiedResource",
    "derive_seed",
    "make_rng",
    "ConfidenceInterval",
    "RunningStat",
    "confidence_interval",
    "geometric_mean",
    "CPU_CYCLES_PER_SYSTEM_CYCLE",
    "cpu_cycles",
    "nanoseconds",
    "system_cycles",
]
