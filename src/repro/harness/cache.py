"""On-disk, content-addressed result cache.

:class:`RunCache` holds a sweep's results within one process; this
module persists them between processes and invocations. An entry is
keyed by a stable SHA-256 over everything that determines a run's
outcome:

* the full :class:`~repro.system.config.SystemConfig` (every field,
  recursively, via ``dataclasses.asdict``),
* the workload spec (benchmark name, operations per processor, trace
  seed),
* the run parameters (perturbation seed, warm-up fraction), and
* the **code version** — a digest of every ``repro`` source file, so
  editing the simulator invalidates stale results instead of silently
  replaying them.

Re-running a sweep therefore only executes changed cells. Entries are
pickled :class:`~repro.system.simulator.RunResult` objects written
atomically (temp file + ``os.replace``), so a worker dying mid-write
never corrupts the store; unreadable entries are treated as misses and
dropped. ``DiskCache(..., enabled=False)`` (the CLI's ``--no-cache``)
turns every operation into a no-op.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Dict, Optional, Union

import repro
from repro.common.digest import source_digest
from repro.system.config import SystemConfig
from repro.system.simulator import RunResult

#: Default store location; override per-instance or via $REPRO_CACHE_DIR.
DEFAULT_CACHE_DIR = Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))

_CODE_VERSION: Dict[str, str] = {}


def code_version() -> str:
    """Digest of every ``repro`` source file (16 hex chars, memoised).

    Hashing file contents rather than, say, a git SHA keeps the scheme
    working in exported trees and makes uncommitted edits invalidate the
    cache too.
    """
    root = Path(repro.__file__).resolve().parent
    key = str(root)
    if key not in _CODE_VERSION:
        _CODE_VERSION[key] = source_digest(root.rglob("*.py"), root=root)
    return _CODE_VERSION[key]


#: Fingerprints this process has computed, keyed by the configuration's
#: ``repr``: every field, nested ones included, in a form that tells
#: apart the values the digest tells apart (``1`` from ``1.0``). An
#: identity key would miss, because sweeps build a fresh config object
#: per cell; the config itself cannot be a key, because its latency
#: tables make it unhashable. Oldest entries go first past the limit.
_FINGERPRINTS: Dict[str, str] = {}
_FINGERPRINT_LIMIT = 1024


def config_fingerprint(config: SystemConfig) -> str:
    """Stable digest of every configuration field (16 hex chars).

    Computed once per distinct configuration in a process (about
    0.15 ms each); later calls cost one ``repr``.
    """
    key = repr(config)
    fingerprint = _FINGERPRINTS.get(key)
    if fingerprint is None:
        if len(_FINGERPRINTS) >= _FINGERPRINT_LIMIT:
            del _FINGERPRINTS[next(iter(_FINGERPRINTS))]
        fingerprint = _FINGERPRINTS[key] = _config_digest(config)
    return fingerprint


def _config_digest(config: SystemConfig) -> str:
    """:func:`config_fingerprint` without the memo."""
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True,
                         default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def cache_key(
    config: SystemConfig,
    benchmark: str,
    ops_per_processor: int,
    seed: int = 0,
    trace_seed: int = 0,
    warmup_fraction: float = 0.4,
    version: Optional[str] = None,
) -> str:
    """Content address of one run (64 hex chars).

    ``version`` defaults to :func:`code_version`; pass an explicit value
    to pin or test invalidation behaviour.
    """
    payload = {
        "benchmark": benchmark,
        "ops_per_processor": int(ops_per_processor),
        "seed": int(seed),
        "trace_seed": int(trace_seed),
        "warmup_fraction": float(warmup_fraction),
        "config": dataclasses.asdict(config),
        "code_version": version if version is not None else code_version(),
    }
    if benchmark.startswith("trace:"):
        # The name embeds a *path*, not content: fold the file's digest
        # in so editing the trace invalidates cached results.
        from repro.traces.reader import trace_file_digest

        payload["trace_digest"] = trace_file_digest(benchmark[len("trace:"):])
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class DiskCache:
    """Content-addressed store of pickled :class:`RunResult` objects.

    Entries live at ``<cache_dir>/<key[:2]>/<key>.pkl`` with an optional
    human-readable ``.json`` sidecar describing the run (for debugging
    and selective invalidation). ``hits``/``misses`` count this
    instance's lookups.
    """

    def __init__(
        self,
        cache_dir: Union[str, Path, None] = None,
        enabled: bool = True,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None \
            else DEFAULT_CACHE_DIR
        self.enabled = enabled
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.cache_dir / key[:2] / f"{key}.pkl"

    def contains(self, key: str) -> bool:
        return self.enabled and self._path(key).exists()

    def load(self, key: str) -> Optional[RunResult]:
        """The cached result, or None on a miss (or unreadable entry)."""
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                result = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            # A truncated or stale entry is a miss, not an error; drop it
            # so the rerun overwrites it cleanly.
            self.invalidate(key)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def store(self, key: str, result: RunResult,
              metadata: Optional[Dict] = None) -> None:
        """Persist *result* atomically; optionally write a JSON sidecar."""
        if not self.enabled:
            return
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        finally:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
        if metadata is not None:
            path.with_suffix(".json").write_text(
                json.dumps(metadata, sort_keys=True, default=str) + "\n",
                encoding="utf-8",
            )

    # ------------------------------------------------------------------
    def invalidate(self, key: str) -> bool:
        """Remove one entry (and its sidecar); True if it existed."""
        path = self._path(key)
        existed = path.exists()
        for victim in (path, path.with_suffix(".json")):
            try:
                victim.unlink()
            except FileNotFoundError:
                pass
        return existed

    def clear(self) -> int:
        """Remove every entry; returns how many were dropped."""
        dropped = 0
        if not self.cache_dir.exists():
            return dropped
        for path in self.cache_dir.rglob("*.pkl"):
            path.unlink()
            path.with_suffix(".json").unlink(missing_ok=True)
            dropped += 1
        return dropped

    def __len__(self) -> int:
        if not self.cache_dir.exists():
            return 0
        return sum(1 for _ in self.cache_dir.rglob("*.pkl"))
