"""Cache hierarchy substrate.

A generic set-associative array (:mod:`repro.cache.setassoc`) underlies
both the caches and the Region Coherence Array. On top of it sit the
write-back L1 instruction/data caches (:mod:`repro.cache.l1`, MSI) and the
unified write-back L2 (:mod:`repro.cache.l2`, MOESI) — the level the RCA
is attached to, with L1 ⊆ L2 inclusion enforced by back-invalidation.
"""

from repro.cache.l1 import L1Cache
from repro.cache.l2 import L2Cache, L2Line
from repro.cache.setassoc import SetAssociativeArray

__all__ = ["L1Cache", "L2Cache", "L2Line", "SetAssociativeArray"]
