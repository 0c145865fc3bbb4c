"""The region protocol: Figures 3–5 as pure transition functions.

The protocol observes the same request stream as the underlying MOESI
protocol and maintains one of the seven :class:`RegionState` values per
tracked region. Three kinds of events drive it:

* **Local requests** (:meth:`RegionProtocol.after_local_request`):
  Figure 3's allocations from INVALID and clean→dirty upgrades of the
  local letter (including the silent CI→DI transition), plus Figure 4's
  response-driven upgrades of the external letter — whenever a broadcast
  happens anyway, the fresh combined region response re-baselines what we
  know about other processors.

* **External requests** (:meth:`RegionProtocol.after_external_request`):
  Figure 5 (top). Another processor's broadcast into one of our regions
  can only make our knowledge of others *more* conservative: reads make
  an exclusive/unknown region externally clean (or externally dirty when
  the reader obtains an exclusive copy), invalidating requests make it
  externally dirty.

* **Snoops of our RCA** (:meth:`RegionProtocol.response_for`): what we
  contribute to the combined region response, including Figure 5
  (bottom)'s self-invalidation of regions whose line count reached zero.

The class is stateless; it exists (rather than free functions) to carry
the ``two_bit`` configuration — Section 3.4's scaled-back one-bit snoop
response — and to give the simulator a single injection point for
protocol variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.coherence.line_states import LineState
from repro.coherence.requests import RequestType
from repro.common.errors import ProtocolError
from repro.rca.response import (
    CLEAN_AND_DIRTY_COPIES,
    CLEAN_COPIES,
    DIRTY_COPIES,
    NO_COPIES,
    RegionSnoopResponse,
)
from repro.rca.states import ExternalPart, LocalPart, RegionState

#: Local-letter significance: these leave the processor with a copy that
#: is, or can silently become, modified — the region must report Dirty.
_MODIFIABLE_FILLS = (LineState.MODIFIED, LineState.EXCLUSIVE)

#: ``(response, external, local)`` tables per ``(two_bit,
#: self_invalidation)``, tabulated on first use (see
#: :meth:`RegionProtocol.__post_init__`).
_TABLES: Dict[Tuple[bool, bool], Tuple[tuple, tuple, tuple]] = {}


@dataclass(frozen=True)
class RegionProtocol:
    """Region protocol transition tables.

    Parameters
    ----------
    two_bit:
        True (default) for the full Region-Clean/Region-Dirty response
        pair; False for the scaled-back single-bit variant, in which any
        external copy reports as dirty and the externally-clean states
        (CC/DC) become unreachable.
    self_invalidation:
        True (default) enables Section 3.1's self-invalidation of
        regions whose line count reached zero; False is the ablation in
        which empty regions keep answering for lines they no longer
        cache, stranding remote regions in externally-dirty states.
    """

    two_bit: bool = True
    self_invalidation: bool = True
    #: Optional :class:`~repro.telemetry.registry.TransitionMatrix`; when
    #: set (see ``Machine.attach_telemetry``), every local and external
    #: transition the protocol computes is counted — BedRock-style
    #: coverage of the Figure 3–5 tables. Excluded from equality/hash so
    #: instrumented and plain protocols still compare equal.
    transitions: Optional[object] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        # The tables depend only on the two flags, so they are built once
        # per process and shared by every instance — every node of every
        # machine, and every ``dataclasses.replace`` copy (which re-runs
        # ``__init__``, e.g. when telemetry swaps in a recording
        # protocol). Nested tuples, so no holder can change what the
        # others read.
        key = (self.two_bit, self.self_invalidation)
        tables = _TABLES.get(key)
        if tables is None:
            tables = _TABLES[key] = self._tabulate()
        response_table, external_table, local_table = tables
        object.__setattr__(self, "_response_table", response_table)
        object.__setattr__(self, "_external_table", external_table)
        object.__setattr__(self, "_local_table", local_table)

    def _tabulate(self) -> Tuple[tuple, tuple, tuple]:
        """Transition tables over the finite input spaces.

        The transition functions are pure, so tabulating them is exact,
        and every input space is small enough to enumerate eagerly (the
        snoop response is one of four interned values, or None). The
        tables are dense ``state.index``/``request.index`` rows — the
        region snoop phase of every broadcast and every local fill reads
        them, and sequence indexing beats tuple-key hashing there. Error
        paths are never tabulated: a combination whose reference
        implementation raises is stored as ``None`` and re-dispatched to
        it on use, so it still raises.
        """
        response_table = tuple(
            (self._response_for_uncached(state, 1),
             self._response_for_uncached(state, 0))
            for state in RegionState
        )
        external_table = tuple(
            tuple(
                tuple(
                    self._tabulated(self._after_external_request,
                                    state, request, fills_exclusive)
                    for fills_exclusive in (None, True, False)
                )
                for request in RequestType
            )
            for state in RegionState
        )
        # Local-request transitions, indexed [state][request][fill_state]
        # [response] where the response slot is 0 for None and
        # ``1 + clean + 2*dirty`` for the four interned response values.
        local_table = tuple(
            tuple(
                tuple(
                    tuple(
                        self._tabulated(self._after_local_request,
                                        state, request, fill_state, response)
                        for response in (None, NO_COPIES, CLEAN_COPIES,
                                         DIRTY_COPIES, CLEAN_AND_DIRTY_COPIES)
                    )
                    for fill_state in LineState
                )
                for request in RequestType
            )
            for state in RegionState
        )
        return response_table, external_table, local_table

    @staticmethod
    def _tabulated(transition, *args) -> Optional[RegionState]:
        """One table cell: the reference result, or ``None`` if it raises."""
        try:
            return transition(*args)
        except ProtocolError:
            return None

    # ------------------------------------------------------------------
    # Local requests (Figures 3 and 4)
    # ------------------------------------------------------------------
    def after_local_request(
        self,
        state: RegionState,
        request: RequestType,
        fill_state: LineState,
        response: Optional[RegionSnoopResponse],
    ) -> RegionState:
        """Region state after one of *our* requests completes.

        Parameters
        ----------
        state:
            Current region state (INVALID if the region is untracked).
        request:
            The completed request.
        fill_state:
            MOESI state the line was installed in (INVALID for requests
            that do not allocate).
        response:
            Combined region snoop response when the request was
            broadcast; ``None`` when it went direct or completed with no
            external request. A broadcast *always* carries a response.

        Raises
        ------
        ProtocolError
            If called in a way that violates inclusion (e.g. an UPGRADE
            with no region entry — the upgraded line's residency implies
            a region entry exists).
        """
        new_state = self._local_table[state.index][request.index][
            fill_state.index][
            0 if response is None else 1 + response.clean + 2 * response.dirty]
        if new_state is None:  # tabulated error path: re-raise via reference
            new_state = self._after_local_request(state, request, fill_state,
                                                  response)
        if self.transitions is not None:
            self.transitions.record(state, f"local.{request.value}", new_state)
        return new_state

    def _after_local_request(
        self,
        state: RegionState,
        request: RequestType,
        fill_state: LineState,
        response: Optional[RegionSnoopResponse],
    ) -> RegionState:
        if response is not None and not self.two_bit:
            response = response.collapsed()

        if request is RequestType.WRITEBACK:
            # A castout never improves nor worsens what we know; the line
            # count (maintained by the array) records the departure.
            return state

        if request in (RequestType.DCBF, RequestType.DCBI):
            return self._after_local_dcb_flush(state, response)

        if request is RequestType.UPGRADE and state is RegionState.INVALID:
            raise ProtocolError(
                "UPGRADE with no region entry: an upgradable line is cached, "
                "so region⊇cache inclusion required an entry"
            )

        new_local = self._local_after_fill(state, request, fill_state)
        new_external = self._external_after_own_request(state, response)
        return RegionState.from_parts(new_local, new_external)

    def _after_local_dcb_flush(
        self, state: RegionState, response: Optional[RegionSnoopResponse]
    ) -> RegionState:
        """DCBF/DCBI leave no local copy behind and allocate nothing.

        An untracked region stays untracked. A tracked region keeps its
        local letter (other lines of the region may still be cached) but
        can harvest the free external-letter refresh when the operation
        was broadcast (Figure 4's principle).
        """
        if state is RegionState.INVALID:
            return state
        if response is None:
            return state
        return RegionState.from_parts(state.local_part, response.external_part)

    def _local_after_fill(
        self,
        state: RegionState,
        request: RequestType,
        fill_state: LineState,
    ) -> LocalPart:
        """New local letter after a fill/upgrade (Figure 3, left columns).

        The letter is sticky-dirty: once the processor may hold a
        modified line of the region, only region eviction clears it.
        MODIFIED and EXCLUSIVE fills both set it — an E copy can be
        modified silently, so the region must already answer Dirty
        (this is the CI→DI "silent" edge of Figure 3 when no broadcast
        was needed).
        """
        dirty_fill = fill_state in _MODIFIABLE_FILLS or request in (
            RequestType.UPGRADE,
            RequestType.DCBZ,
        )
        if state is RegionState.INVALID:
            return LocalPart.DIRTY if dirty_fill else LocalPart.CLEAN
        if state.local_part is LocalPart.DIRTY or dirty_fill:
            return LocalPart.DIRTY
        return LocalPart.CLEAN

    def _external_after_own_request(
        self,
        state: RegionState,
        response: Optional[RegionSnoopResponse],
    ) -> ExternalPart:
        """New external letter after our own request (Figure 4).

        A broadcast's combined response *re-baselines* the external
        letter — this is where CD can upgrade to DI when migratory data
        has left other caches. A direct request learns nothing, so the
        letter is unchanged (and must already have permitted the direct
        access; INVALID would be a routing bug).
        """
        if response is not None:
            return response.external_part
        if state is RegionState.INVALID:
            raise ProtocolError(
                "a request with no snoop response requires an existing "
                "region entry (INVALID regions must broadcast)"
            )
        return state.external_part

    # ------------------------------------------------------------------
    # External requests (Figure 5, top)
    # ------------------------------------------------------------------
    def after_external_request(
        self,
        state: RegionState,
        request: RequestType,
        requestor_fills_exclusive: Optional[bool] = None,
    ) -> RegionState:
        """Region state after another processor broadcasts into the region.

        Parameters
        ----------
        state:
            Our current state for the region (must be valid — untracked
            regions are unaffected by external traffic).
        request:
            The external processor's request.
        requestor_fills_exclusive:
            For read-like requests: whether the requestor obtained an
            exclusive (silently modifiable) copy. Known when the line
            snoop response is visible to the region protocol or when we
            cache the line ourselves (Section 3.1); ``None`` means
            unknown, which degrades conservatively to "dirty".
        """
        new_state = self._external_table[state.index][request.index][
            0 if requestor_fills_exclusive is None
            else 1 if requestor_fills_exclusive else 2
        ]
        if new_state is None:  # tabulated error path: re-raise from source
            new_state = self._after_external_request(
                state, request, requestor_fills_exclusive
            )
        if self.transitions is not None:
            self.transitions.record(
                state, f"external.{request.value}", new_state
            )
        return new_state

    def _after_external_request(
        self,
        state: RegionState,
        request: RequestType,
        requestor_fills_exclusive: Optional[bool] = None,
    ) -> RegionState:
        if state is RegionState.INVALID:
            return state

        local, external = state.parts

        if request in (RequestType.READ, RequestType.IFETCH, RequestType.PREFETCH):
            if requestor_fills_exclusive is None or requestor_fills_exclusive:
                gained = ExternalPart.DIRTY
            else:
                gained = ExternalPart.CLEAN
            if not self.two_bit:
                gained = ExternalPart.DIRTY
            return RegionState.from_parts(local, external.worse_of(gained))

        if request.invalidates_others and request is not RequestType.DCBF:
            if request is RequestType.DCBI:
                # The requestor ends up caching nothing; it learned about
                # the region but holds no copies. Treat like DCBF below.
                return state
            return RegionState.from_parts(local, ExternalPart.DIRTY)

        if request in (RequestType.DCBF, RequestType.WRITEBACK):
            # The requestor finishes holding no copy of the line; our
            # knowledge of other processors is unchanged.
            return state

        raise ProtocolError(f"unhandled external request {request}")

    # ------------------------------------------------------------------
    # Snoops of our RCA (Figure 5, bottom + Section 3.4)
    # ------------------------------------------------------------------
    def response_for(
        self, state: RegionState, line_count: int
    ) -> "RegionProbeOutcome":
        """Our contribution to the combined region snoop response.

        A tracked region with cached lines reports Region-Clean or
        Region-Dirty according to its local letter. A tracked region
        whose line count has dropped to zero *self-invalidates* and
        reports no copies — the transition that rescues migratory-data
        patterns from permanently externally-dirty states (Section 3.1).
        """
        if line_count < 0:
            raise ProtocolError(f"negative region line count: {line_count}")
        pair = self._response_table[state.index]
        return pair[1] if line_count == 0 else pair[0]

    def _response_for_uncached(
        self, state: RegionState, line_count: int
    ) -> "RegionProbeOutcome":
        """Reference implementation behind the tabulated responses."""
        if state is RegionState.INVALID:
            return RegionProbeOutcome(NO_COPIES, self_invalidate=False)
        if line_count == 0 and self.self_invalidation:
            return RegionProbeOutcome(NO_COPIES, self_invalidate=True)
        if state.local_part is LocalPart.DIRTY:
            response = DIRTY_COPIES
        else:
            response = CLEAN_COPIES
        if not self.two_bit:
            response = response.collapsed()
        return RegionProbeOutcome(response, self_invalidate=False)


@dataclass(frozen=True, slots=True)
class RegionProbeOutcome:
    """Result of snooping one processor's RCA for an external request."""

    response: RegionSnoopResponse
    self_invalidate: bool

