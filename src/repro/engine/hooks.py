"""Observability hooks for the reference engine.

The engine exposes the timed reference stream — every page-table, nested
page-table, permission-table and data reference — as a sequence of events.
Hooks are the pluggable observers of that stream:

* :class:`EngineHook` — the no-op base protocol.  Every callback has an
  empty default so a hook only overrides what it cares about; the engine
  dispatches each callback only to the hooks that override it, so the
  unused defaults are never even called (and with no hook installed the
  hot path pays one truthiness test on an empty tuple).
* :class:`RecordingHook` — captures every event verbatim; used by tests
  and by the trace recorder.
* :class:`HistogramHook` — aggregates the full stream into latency / refs
  histograms (see :class:`repro.common.stats.Histogram`), exported as JSON
  by :meth:`StatGroup.to_json <repro.common.stats.StatGroup.to_json>`.

There are no run-level events.  The run loop
(:meth:`Hart.access_run <repro.soc.machine.Hart.access_run>`) fuses a
chunk of references into one charge only while no hook overrides
``on_reference`` or ``on_access``, so a hook that overrides either sees
every reference or access individually.  A hook that overrides neither
keeps fusion on and sees the same events in both modes: a fused chunk
fills no TLB and raises no fault.

Event kinds (:class:`RefKind`) name *who issued* a memory reference — the
paper's central accounting (Fig 2's 4/12/6, Fig 13's 16/48/24/18):

========== ==========================================================
``PT``      stage-1 page-table reference (Sv39/48/57 walker)
``NPT``     nested (G-stage, Sv39x4) page-table reference
``GUEST_PT`` guest page-table reference (a GPA-addressed PT page)
``CHECKER`` permission-table reference issued by the isolation checker
``DATA``    the data reference itself
========== ==========================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from ..common.stats import StatGroup
from ..common.types import AccessType


class RefKind(enum.Enum):
    """Who issued a timed memory reference."""

    PT = "pt"
    NPT = "npt"
    GUEST_PT = "guest_pt"
    CHECKER = "checker"
    DATA = "data"


@dataclass(frozen=True)
class ReferenceEvent:
    """One recorded reference event (used by :class:`RecordingHook`).

    ``cycles`` is the latency charged for this reference.  Checker events
    are emitted one per permission-table reference; the first event of a
    check carries the whole check's latency and the rest carry 0, so the
    per-access sum of event cycles equals the walk+data latency.
    """

    kind: RefKind
    paddr: int
    cycles: int


class EngineHook:
    """No-op base class for engine observers.

    Subclass and override any subset of the callbacks.  Hooks must only
    observe: the engine guarantees that installing or removing hooks does
    not change cycle counts or reference counts.

    Dispatch is per callback: the engine only ever calls the callbacks a
    hook's class actually overrides, so leaving a callback at its default
    costs nothing on that event's path.  In particular, a hook that does
    not override :meth:`on_reference` keeps reference-free fast paths
    (the machine's inlined TLB hit) enabled.
    """

    def on_reference(self, kind: RefKind, paddr: int, cycles: int) -> None:
        """One timed memory reference was issued."""

    def on_access(self, va: int, access: AccessType, cycles: int, tlb_hit: bool, refs: int) -> None:
        """One full timed access completed (machine or guest)."""

    def on_tlb_fill(self, entry, which: str = "dtlb") -> None:
        """A TLB was filled (``which``: ``dtlb`` / ``combined`` / ``gstage``)."""

    def on_fault(self, exc: BaseException) -> None:
        """An access faulted (page fault, guest page fault or access fault)."""

    def on_checker(self, checker) -> None:
        """The engine's isolation checker was attached or replaced.

        Fired at install time with the current checker and again on every
        :meth:`~repro.engine.ReferenceEngine.set_checker` — machines build
        their engine before the isolation checker exists (the checker needs
        the machine's hierarchy), so a hook that wants the *real* checker
        must listen for the attach rather than read ``engine.checker`` at
        construction.  Never fired from the timed path.
        """


class RecordingHook(EngineHook):
    """Records the full event stream; test/debug aid."""

    def __init__(self) -> None:
        self.references: List[ReferenceEvent] = []
        self.accesses: List[Tuple[int, AccessType, int, bool, int]] = []
        self.tlb_fills: List[Tuple[object, str]] = []
        self.faults: List[BaseException] = []

    def on_reference(self, kind: RefKind, paddr: int, cycles: int) -> None:
        self.references.append(ReferenceEvent(kind, paddr, cycles))

    def on_access(self, va: int, access: AccessType, cycles: int, tlb_hit: bool, refs: int) -> None:
        self.accesses.append((va, access, cycles, tlb_hit, refs))

    def on_tlb_fill(self, entry, which: str = "dtlb") -> None:
        self.tlb_fills.append((entry, which))

    def on_fault(self, exc: BaseException) -> None:
        self.faults.append(exc)

    def references_of(self, kind: RefKind) -> List[ReferenceEvent]:
        return [event for event in self.references if event.kind is kind]

    def clear(self) -> None:
        self.references.clear()
        self.accesses.clear()
        self.tlb_fills.clear()
        self.faults.clear()


class HistogramHook(EngineHook):
    """Aggregates the reference stream into latency / refs histograms.

    Owns a :class:`~repro.common.stats.StatGroup` with:

    * ``access_cycles`` histogram — end-to-end latency per access;
    * ``refs_per_access`` histogram — memory references per access;
    * ``ref_cycles.<kind>`` histograms — latency per reference, by kind;
    * counters ``accesses``, ``tlb_hits``, ``faults`` and ``refs.<kind>``.
    """

    def __init__(self, name: str = "engine"):
        self.stats = StatGroup(name)

    def on_reference(self, kind: RefKind, paddr: int, cycles: int) -> None:
        self.stats.bump(f"refs.{kind.value}")
        self.stats.histogram(f"ref_cycles.{kind.value}").observe(cycles)

    def on_access(self, va: int, access: AccessType, cycles: int, tlb_hit: bool, refs: int) -> None:
        self.stats.bump("accesses")
        if tlb_hit:
            self.stats.bump("tlb_hits")
        self.stats.histogram("access_cycles").observe(cycles)
        self.stats.histogram("refs_per_access").observe(refs)

    def on_fault(self, exc: BaseException) -> None:
        self.stats.bump("faults")
