"""Region-aligned spatial sampling with a sample-vs-full error report.

Production traces are orders of magnitude larger than a software
simulator can replay; spatial sampling shrinks them by keeping a
deterministic *subset of regions* rather than a time window. A region
is kept iff a seeded 64-bit mix of its region id falls in the kept
residue class (``mix(region, seed) % rate == 0`` — Cydonia
``BlkSample``-style hashing), so:

* **Determinism** — the kept set depends only on ``(region id, seed,
  rate)``: fixed seed → identical sample, independent of reader chunk
  size, event order, or which file the region appears in.
* **Region alignment** — *every* access to a kept region is kept. All
  accesses to a cache line travel together (a line never straddles
  regions), so per-line and per-region history is preserved exactly:
  the golden model's Figure-2 verdict of every surviving access is
  **identical** in the full and sampled traces (the verdict depends
  only on prior accesses to the same line), and each surviving region's
  sharing footprint is exactly its footprint in the full trace. Only
  *aggregate* fractions drift, by which regions the hash happened to
  keep.
* **Reuse distance** — distances count distinct lines between reuses.
  Lines in the reused line's *own region* always survive sampling
  (region alignment), while lines in other regions are thinned by
  ~rate. The error report therefore profiles the sample with the
  region-aware SHARDS correction (``distance_scale=rate``): the
  intra-region part of each distance is kept exact and only the
  inter-region part is multiplied back up before comparing histograms.

The **error report** (``cgct-trace-sample-report/v1``) is machine
readable: per-metric full/sampled values, absolute and relative error,
the bound each metric is held to, and a ``within_bounds`` verdict. The
default bounds (see :data:`DEFAULT_BOUNDS` and
``docs/traces.md``) are calibrated for rates up to ~16 on traces with
thousands of regions; callers can override them per metric.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, Mapping, Optional, Union

import numpy as np

from repro.common.errors import WorkloadError
from repro.traces.profiler import TraceProfile, profile_events
from repro.traces.reader import (
    EventChunk,
    detect_format,
    read_events,
    workload_to_events,
    write_binary,
    write_csv,
)
from repro.workloads.trace import MultiTrace, Trace

#: Error-report JSON schema identifier.
REPORT_SCHEMA = "cgct-trace-sample-report/v1"

#: Default per-metric relative-error bounds (fractions); the histogram
#: distance is an absolute bound: earth-mover's distance between the
#: power-of-two bucket distributions, in bucket (octave) units — 1.0
#: means sampled reuse distances sit one doubling away from the full
#: trace's on average.
DEFAULT_BOUNDS: Dict[str, float] = {
    "fraction_unnecessary": 0.10,
    "mean_reuse_distance": 0.30,
    "reuse_histogram_emd": 1.5,
    "shared_region_fraction": 0.20,
    "store_fraction": 0.10,
}

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _mix64(values: np.ndarray, seed: int) -> np.ndarray:
    """SplitMix64 finalizer over uint64 values, folded with *seed*."""
    with np.errstate(over="ignore"):
        z = values.astype(np.uint64, copy=True)
        z += np.uint64((seed * 0x9E3779B97F4A7C15 + 1) & 0xFFFFFFFFFFFFFFFF)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


class SpatialSampler:
    """Deterministic hash-of-region-id modulo-*rate* sampler."""

    def __init__(
        self, rate: int, seed: int = 0, region_bytes: int = 512,
    ) -> None:
        if rate < 1:
            raise WorkloadError(f"sampling rate must be >= 1, got {rate}")
        if region_bytes <= 0 or region_bytes & (region_bytes - 1):
            raise WorkloadError(
                f"region_bytes must be a power of two, got {region_bytes}"
            )
        self.rate = rate
        self.seed = seed
        self.region_bytes = region_bytes
        self._region_shift = np.uint64(region_bytes.bit_length() - 1)

    def keep_mask(self, addresses: np.ndarray) -> np.ndarray:
        """Boolean mask of accesses whose region is kept."""
        regions = addresses.astype(np.uint64, copy=False) \
            >> self._region_shift
        return _mix64(regions, self.seed) % np.uint64(self.rate) == 0

    def keeps_region(self, region: int) -> bool:
        """Whether one region id is in the kept residue class."""
        return bool(self.keep_mask(
            np.array([region << int(self._region_shift)], dtype=np.uint64)
        )[0])

    # ------------------------------------------------------------------
    def sample_events(
        self, chunks: Iterable[EventChunk],
    ) -> Iterator[EventChunk]:
        """Filter an event stream; yields only non-empty chunks."""
        for chunk in chunks:
            if len(chunk) == 0:
                continue
            mask = self.keep_mask(chunk.addresses)
            if not mask.any():
                continue
            yield EventChunk(
                procs=chunk.procs[mask],
                ops=chunk.ops[mask],
                addresses=chunk.addresses[mask],
                gaps=chunk.gaps[mask],
            )

    def sample_workload(self, workload: MultiTrace) -> MultiTrace:
        """Filter a workload per processor (order within each preserved).

        Equivalent to filtering any interleaved event stream and
        materializing back: membership depends only on the address.
        """
        traces = []
        for trace in workload.per_processor:
            mask = self.keep_mask(trace.addresses)
            traces.append(Trace(
                ops=trace.ops[mask],
                addresses=trace.addresses[mask],
                gaps=trace.gaps[mask],
                name=trace.name,
            ))
        return MultiTrace(
            per_processor=traces,
            name=f"{workload.name}~1/{self.rate}",
        )


# ----------------------------------------------------------------------
# Sample + report
# ----------------------------------------------------------------------
def sample_file(
    src: Union[str, Path],
    dst: Union[str, Path],
    rate: int,
    seed: int = 0,
    region_bytes: int = 512,
    line_bytes: int = 64,
    chunk_records: int = 65_536,
    bounds: Optional[Mapping[str, float]] = None,
) -> Dict:
    """Sample a trace file and emit the sample-vs-full error report.

    Three streaming passes (full profile, filtered write, sampled
    profile). The write holds one reader chunk at a time; each profile
    grows with the trace it reads — 4 bytes per access for the
    profiler's Fenwick tree plus per-line and per-region state (see
    :mod:`repro.traces.profiler`). Returns the report dict; the caller
    decides where to persist it.
    """
    src, dst = Path(src), Path(dst)
    info = detect_format(src)
    if info.format == "npz":
        raise WorkloadError(
            f"{src}: sample .npz workloads via sample_workload(); the "
            f"file has no event order to stream"
        )
    sampler = SpatialSampler(rate, seed=seed, region_bytes=region_bytes)
    full = profile_events(
        read_events(src, chunk_records=chunk_records),
        line_bytes=line_bytes, region_bytes=region_bytes,
        num_processors=info.num_processors,
    )
    nprocs = info.num_processors
    if nprocs is None:
        nprocs = full.num_processors
    writer = write_csv if _wants_csv(dst) else write_binary
    kept = writer(
        dst,
        sampler.sample_events(read_events(src, chunk_records=chunk_records)),
        max(nprocs, 1),
    )
    sampled = profile_events(
        read_events(dst, chunk_records=chunk_records)
        if kept else iter(()),
        line_bytes=line_bytes, region_bytes=region_bytes,
        num_processors=nprocs, distance_scale=rate,
    )
    return build_error_report(
        full, sampled, rate=rate, seed=seed, bounds=bounds,
        source=str(src), sample=str(dst),
    )


def _wants_csv(path: Path) -> bool:
    name = path.name[:-3] if path.name.endswith(".gz") else path.name
    return name.endswith(".csv")


def build_error_report(
    full: TraceProfile,
    sampled: TraceProfile,
    rate: int,
    seed: int,
    bounds: Optional[Mapping[str, float]] = None,
    source: str = "",
    sample: str = "",
) -> Dict:
    """Compare two profiles metric by metric; see :data:`REPORT_SCHEMA`."""
    limits = dict(DEFAULT_BOUNDS)
    if bounds:
        limits.update(bounds)
    metrics: Dict[str, Dict] = {}

    def relative(name: str, got: float, want: float) -> None:
        error = abs(got - want) / abs(want) if want else abs(got)
        metrics[name] = {
            "full": want,
            "sampled": got,
            "abs_error": abs(got - want),
            "rel_error": error,
            "bound": limits[name],
            "kind": "relative",
            "within": error <= limits[name],
        }

    relative("fraction_unnecessary",
             sampled.oracle.fraction_unnecessary,
             full.oracle.fraction_unnecessary)
    relative("mean_reuse_distance", sampled.reuse.mean, full.reuse.mean)
    relative("shared_region_fraction",
             sampled.shared_region_fraction, full.shared_region_fraction)
    relative("store_fraction", sampled.store_fraction, full.store_fraction)

    emd = _earth_mover(full.reuse.shares(), sampled.reuse.shares())
    metrics["reuse_histogram_emd"] = {
        "full": 0.0,
        "sampled": emd,
        "abs_error": emd,
        "rel_error": emd,
        "bound": limits["reuse_histogram_emd"],
        "kind": "absolute",
        "within": emd <= limits["reuse_histogram_emd"],
    }

    report = {
        "schema": REPORT_SCHEMA,
        "source": source,
        "sample": sample,
        "rate": rate,
        "seed": seed,
        "region_bytes": full.region_bytes,
        "line_bytes": full.line_bytes,
        "accesses": {"full": full.accesses, "sampled": sampled.accesses},
        "regions": {"full": full.regions_touched,
                    "sampled": sampled.regions_touched},
        "metrics": metrics,
        "within_bounds": all(m["within"] for m in metrics.values()),
    }
    return report


def _earth_mover(
    a: Mapping[int, float], b: Mapping[int, float],
) -> float:
    """Earth-mover's distance between bucket-share distributions.

    Buckets are power-of-two distance classes, so the unit is octaves:
    an EMD of 1.0 means the sampled distribution sits one doubling away
    from the full one on average. For 1-D distributions EMD is the sum
    of absolute CDF differences — unlike total variation, a one-bucket
    shift (the signature of binomial thinning at small distances) costs
    1.0, not total disagreement.
    """
    if not a and not b:
        return 0.0
    top = max(list(a) + list(b))
    emd = cdf_a = cdf_b = 0.0
    for bucket in range(top + 1):
        cdf_a += a.get(bucket, 0.0)
        cdf_b += b.get(bucket, 0.0)
        emd += abs(cdf_a - cdf_b)
    return emd


def save_report(report: Mapping, path: Union[str, Path]) -> None:
    """Persist an error report as stable JSON."""
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )


def load_report(path: Union[str, Path]) -> Dict:
    """Read an error report back, validating the schema."""
    try:
        report = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise WorkloadError(f"{path}: unreadable error report: {exc}") \
            from None
    validate_report(report)
    return report


def validate_report(report: Mapping) -> None:
    """Schema check; raises :class:`WorkloadError` on shape problems."""
    if not isinstance(report, Mapping):
        raise WorkloadError("error report must be a JSON object")
    if report.get("schema") != REPORT_SCHEMA:
        raise WorkloadError(
            f"error report schema is {report.get('schema')!r}, expected "
            f"{REPORT_SCHEMA!r}"
        )
    for key in ("rate", "seed", "metrics", "within_bounds", "accesses",
                "regions"):
        if key not in report:
            raise WorkloadError(f"error report missing {key!r}")
    metrics = report["metrics"]
    if not isinstance(metrics, Mapping) or not metrics:
        raise WorkloadError("error report carries no metrics")
    for name, cell in metrics.items():
        for key in ("full", "sampled", "abs_error", "rel_error", "bound",
                    "kind", "within"):
            if key not in cell:
                raise WorkloadError(
                    f"error report metric {name!r} missing {key!r}"
                )
