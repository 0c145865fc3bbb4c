"""Materialized workload cache.

Trace generation is pure Python (episode machinery, per-record RNG
draws) and is repeated astonishingly often: every perf repeat, every
sweep cell, every conformance iteration and every parallel worker
regenerates the same ``(benchmark, processors, ops, seed)`` workload
from scratch — at 64 processors that is minutes of wall clock before a
single simulated cycle runs. This module persists generated
:class:`~repro.workloads.trace.MultiTrace` objects in a
content-addressed on-disk store so each distinct workload is generated
once per machine, ever.

An entry is keyed by a SHA-256 over everything that determines the
generated arrays:

* the generator name and the full profile (every
  :class:`~repro.workloads.generator.WorkloadProfile` field, via
  :func:`~repro.workloads.generator.profile_digest`),
* the machine size (``num_processors`` — streams are seeded per
  (seed, name, nprocs, proc), so a 4p and an 8p build share nothing),
* the operations per processor and the trace seed, and
* the **generator version** — a digest of the ``repro.workloads``
  sources plus the seed-derivation module, so editing the generator
  invalidates stale traces instead of silently replaying them.

Entries are directories holding one ``.npy`` per trace array plus a
``meta.json`` sidecar, written to a temporary directory and published
with one atomic ``os.replace`` — a worker dying mid-write never leaves
a partial entry, and concurrent writers race benignly (the loser's
bytes are identical). Loads memory-map the arrays (``mmap_mode="r"``),
so a 64-processor workload costs page-cache reads instead of
regeneration and the arrays are shared copy-on-write across forked
workers.

Activation is process-wide: :func:`set_workload_store` installs a
store for :func:`~repro.workloads.benchmarks.build_benchmark` (the
single funnel every harness layer builds workloads through), and the
``REPRO_WORKLOAD_CACHE`` environment variable installs one lazily for
processes nobody wired explicitly (forked pool workers inherit the
parent's store either way). ``hits``/``misses`` count this instance's
lookups; the harness layers report them to the run log as
``workload-cache`` records.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Dict, Optional, Union

from repro.common.digest import source_digest
from repro.workloads.trace import MultiTrace, Trace

#: Environment variable that activates a store for unwired processes.
STORE_ENV = "REPRO_WORKLOAD_CACHE"

#: Default directory when a store is constructed without one.
DEFAULT_STORE_DIR = Path(".repro-workloads")

_GENERATOR_VERSION: Dict[str, str] = {}


def generator_version() -> str:
    """Digest of the trace generator's sources (16 hex chars, memoised).

    Covers every module in ``repro.workloads`` plus
    ``repro.common.rng`` (seed derivation feeds every stream), but
    *not* the simulator: simulator edits change what happens to a
    trace, never the trace itself, so they must not invalidate the
    store.
    """
    import repro.common.rng as rng
    import repro.workloads as workloads

    root = Path(workloads.__file__).resolve().parent
    key = str(root)
    if key not in _GENERATOR_VERSION:
        files = list(root.glob("*.py")) + [Path(rng.__file__).resolve()]
        _GENERATOR_VERSION[key] = source_digest(files)
    return _GENERATOR_VERSION[key]


def workload_key(
    name: str,
    num_processors: int,
    ops_per_processor: int,
    seed: int,
    profile_digest: str,
    version: Optional[str] = None,
) -> str:
    """Content address of one generated workload (64 hex chars).

    ``version`` defaults to :func:`generator_version`; pass an explicit
    value to pin or test invalidation behaviour.
    """
    payload = {
        "name": name,
        "num_processors": int(num_processors),
        "ops_per_processor": int(ops_per_processor),
        "seed": int(seed),
        "profile": profile_digest,
        "generator_version": version if version is not None
        else generator_version(),
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class WorkloadStore:
    """Content-addressed store of generated workload traces.

    Entries live at ``<cache_dir>/<key[:2]>/<key>/`` as per-processor
    ``ops_<i>.npy`` / ``addresses_<i>.npy`` / ``gaps_<i>.npy`` files
    plus a ``meta.json`` describing the workload (name, processor
    count, per-trace names, and the human-readable key inputs for
    debugging). ``DiskCache``-style semantics: unreadable entries are
    misses and are dropped, ``enabled=False`` turns every operation
    into a no-op.
    """

    def __init__(
        self,
        cache_dir: Union[str, Path, None] = None,
        enabled: bool = True,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None \
            else DEFAULT_STORE_DIR
        self.enabled = enabled
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _entry_dir(self, key: str) -> Path:
        return self.cache_dir / key[:2] / key

    def contains(self, key: str) -> bool:
        return self.enabled and (self._entry_dir(key) / "meta.json").exists()

    def load(self, key: str) -> Optional[MultiTrace]:
        """The cached workload, or None on a miss (or unreadable entry).

        Arrays come back memory-mapped read-only: identical values to
        the generated originals (simulations are bit-identical either
        way — equivalence-tested), without the allocation or the
        generation cost.
        """
        if not self.enabled:
            return None
        import numpy as np

        entry = self._entry_dir(key)
        meta_path = entry / "meta.json"
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            traces = []
            for index in range(meta["num_processors"]):
                arrays = {
                    field: np.load(
                        entry / f"{field}_{index}.npy",
                        mmap_mode="r", allow_pickle=False,
                    )
                    for field in ("ops", "addresses", "gaps")
                }
                traces.append(Trace(
                    name=meta["trace_names"][index], **arrays
                ))
            workload = MultiTrace(per_processor=traces, name=meta["name"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, IndexError, TypeError,
                json.JSONDecodeError):
            # Truncated or stale entries are misses, not errors; drop
            # them so the regeneration overwrites cleanly.
            self.invalidate(key)
            self.misses += 1
            return None
        self.hits += 1
        return workload

    def store(
        self,
        key: str,
        workload: MultiTrace,
        metadata: Optional[Dict] = None,
    ) -> None:
        """Persist *workload* atomically (no-op if the entry exists)."""
        if not self.enabled:
            return
        entry = self._entry_dir(key)
        if (entry / "meta.json").exists():
            return
        import numpy as np

        entry.parent.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(
            dir=str(entry.parent), prefix=".staging-"))
        try:
            for index, trace in enumerate(workload.per_processor):
                np.save(staging / f"ops_{index}.npy",
                        np.asarray(trace.ops))
                np.save(staging / f"addresses_{index}.npy",
                        np.asarray(trace.addresses))
                np.save(staging / f"gaps_{index}.npy",
                        np.asarray(trace.gaps))
            meta = {
                "name": workload.name,
                "num_processors": workload.num_processors,
                "trace_names": [t.name for t in workload.per_processor],
            }
            if metadata:
                meta["inputs"] = metadata
            (staging / "meta.json").write_text(
                json.dumps(meta, sort_keys=True, default=str) + "\n",
                encoding="utf-8",
            )
            try:
                os.replace(staging, entry)
            except OSError:
                # Lost a race to a concurrent writer: the published
                # entry holds identical bytes (same content address).
                if not (entry / "meta.json").exists():
                    raise
        finally:
            shutil.rmtree(staging, ignore_errors=True)

    # ------------------------------------------------------------------
    def invalidate(self, key: str) -> bool:
        """Remove one entry; True if it existed."""
        entry = self._entry_dir(key)
        existed = entry.exists()
        shutil.rmtree(entry, ignore_errors=True)
        return existed

    def clear(self) -> int:
        """Remove every entry; returns how many were dropped."""
        dropped = 0
        if not self.cache_dir.exists():
            return dropped
        for meta in self.cache_dir.glob("*/*/meta.json"):
            shutil.rmtree(meta.parent, ignore_errors=True)
            dropped += 1
        return dropped

    def stats(self) -> Dict[str, int]:
        """This instance's lookup counters (for run-log records)."""
        return {"hits": self.hits, "misses": self.misses}

    def __len__(self) -> int:
        if not self.cache_dir.exists():
            return 0
        return sum(1 for _ in self.cache_dir.glob("*/*/meta.json"))


# ----------------------------------------------------------------------
# Process-wide activation
# ----------------------------------------------------------------------
_ACTIVE: Optional[WorkloadStore] = None
_RESOLVED = False


def set_workload_store(store: Optional[WorkloadStore]) -> None:
    """Install (or, with None, remove) the process-wide store.

    Explicit wiring always wins over the environment variable —
    ``set_workload_store(None)`` disables the store even when
    ``$REPRO_WORKLOAD_CACHE`` is set.
    """
    global _ACTIVE, _RESOLVED
    _ACTIVE = store
    _RESOLVED = True


def active_store() -> Optional[WorkloadStore]:
    """The process-wide store, if any.

    Resolved lazily on first call: an explicitly installed store, else
    one rooted at ``$REPRO_WORKLOAD_CACHE`` when the variable is set,
    else None (workloads regenerate as before).
    """
    global _ACTIVE, _RESOLVED
    if not _RESOLVED:
        _RESOLVED = True
        env = os.environ.get(STORE_ENV)
        if env:
            _ACTIVE = WorkloadStore(env)
    return _ACTIVE
