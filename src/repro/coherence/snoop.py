"""Snoop responses and their combining.

In a broadcast system every coherence agent answers each snooped request;
the interconnect logically ORs the answers into a single combined response
the requestor acts on. :class:`LineSnoopResponse` is one agent's answer for
the *line*; region-level response bits live in :mod:`repro.rca.response`
(they are piggybacked on this same response packet, Section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional


@dataclass(frozen=True, slots=True)
class LineSnoopResponse:
    """One remote agent's line-level answer to a snooped request.

    Attributes
    ----------
    cached:
        The agent held a valid copy of the line when snooped.
    dirty:
        That copy was dirty (M or O) — the agent owns the data.
    supplied:
        The agent is sourcing the data to the requestor (cache-to-cache).
    """

    cached: bool = False
    dirty: bool = False
    supplied: bool = False

    def __post_init__(self) -> None:
        if self.dirty and not self.cached:
            raise ValueError("a dirty response implies a cached copy")
        if self.supplied and not self.cached:
            raise ValueError("only an agent with a copy can supply data")


@dataclass(frozen=True, slots=True)
class SnoopResult:
    """Combined (ORed) snoop response seen by the requestor.

    Attributes
    ----------
    shared:
        At least one other agent holds a valid copy.
    owned:
        At least one other agent holds a dirty (M/O) copy; memory is stale.
    supplier:
        Processor ID of the agent sourcing data cache-to-cache, if any.
    """

    shared: bool = False
    owned: bool = False
    supplier: Optional[int] = None

    @property
    def memory_sources_data(self) -> bool:
        """Whether memory (not a cache) supplies the data."""
        return self.supplier is None


#: The all-zeros answer of an agent holding no copy; shared so the
#: broadcast path never allocates a response for a known non-holder.
EMPTY_LINE_RESPONSE = LineSnoopResponse()

#: Every answer an agent holding a valid copy can give, keyed
#: ``(dirty, supplied)``. Together with :data:`EMPTY_LINE_RESPONSE`
#: these five singletons cover the whole legal response space, so the
#: snoop path never allocates a response object.
CACHED_LINE_RESPONSES = {
    (False, False): LineSnoopResponse(cached=True),
    (False, True): LineSnoopResponse(cached=True, supplied=True),
    (True, False): LineSnoopResponse(cached=True, dirty=True),
    (True, True): LineSnoopResponse(cached=True, dirty=True, supplied=True),
}

#: Synthetic combined results for requests that never snooped anyone:
#: direct/no-request routing derives the fill state from the region
#: state alone (shared ⇔ region not exclusive).
SNOOP_NOT_SHARED = SnoopResult(shared=False)
SNOOP_SHARED = SnoopResult(shared=True)

#: Interned combined results with an owner or a supplier, keyed
#: ``(shared, owned, supplier)`` (see :func:`combine_line_responses`).
_COMBINED: dict = {}


def combine_line_responses(
    responses: Iterable[tuple] # (proc_id, LineSnoopResponse)
) -> SnoopResult:
    """OR individual agents' responses into the combined snoop result.

    *responses* yields ``(processor_id, LineSnoopResponse)`` pairs for
    every agent other than the requestor. At most one agent may supply
    data (MOESI guarantees a single owner); a second supplier raises,
    because that would mean the single-owner invariant broke upstream.
    """
    shared = False
    owned = False
    supplier: Optional[int] = None
    for proc_id, response in responses:
        if response.cached:
            shared = True
        if response.dirty:
            owned = True
        if response.supplied:
            if supplier is not None:
                raise ValueError(
                    f"two agents ({supplier} and {proc_id}) tried to supply "
                    "the same line; MOESI single-owner invariant violated"
                )
            supplier = proc_id
    if supplier is None and not owned:
        # The two overwhelmingly common combined results are interned.
        return SNOOP_SHARED if shared else SNOOP_NOT_SHARED
    # So is every other result, on first use: a frozen value is as good
    # as a fresh one, and there are only a few per processor.
    key = (shared, owned, supplier)
    result = _COMBINED.get(key)
    if result is None:
        result = _COMBINED[key] = SnoopResult(
            shared=shared, owned=owned, supplier=supplier)
    return result
