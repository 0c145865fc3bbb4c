"""Deterministic random-number plumbing.

Reproducibility is a hard requirement: the paper averages several perturbed
runs per configuration (following Alameldeen et al. [27]), so the simulator
must be able to re-run any configuration bit-for-bit from a seed. All
randomness in the library flows through :func:`make_rng`, and independent
streams (one per processor, per workload, per perturbation source) are
derived with :func:`derive_seed` so adding a consumer never shifts the
stream seen by another.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def derive_seed(root_seed: int, *scope: object) -> int:
    """Derive a stable 63-bit child seed from *root_seed* and a scope path.

    The scope is an arbitrary tuple of hashable, ``str()``-able labels, e.g.
    ``derive_seed(42, "tpc-w", "processor", 3)``. Two distinct scopes give
    statistically independent streams; the same scope always gives the same
    seed, across processes and platforms.

    >>> derive_seed(42, "a") == derive_seed(42, "a")
    True
    >>> derive_seed(42, "a") != derive_seed(42, "b")
    True
    """
    text = repr((int(root_seed),) + tuple(str(part) for part in scope))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


def make_rng(root_seed: int, *scope: object) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for the given scope.

    Uses PCG64, NumPy's default bit generator, seeded via
    :func:`derive_seed`. numpy is imported here, not at module level:
    seed derivation is on every entry point's start-up path and needs
    none of it.
    """
    import numpy as np

    return np.random.default_rng(derive_seed(root_seed, *scope))
