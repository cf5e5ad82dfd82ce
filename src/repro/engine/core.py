"""The reference engine: one timed memory-reference path for everything.

The paper's argument is an accounting of *who issues which memory
references* on a TLB miss (4 → 12 → 6 on Sv39; 16 → 48 → 24 → 18
virtualized).  :class:`ReferenceEngine` owns that accounting as a
composable check → charge → account pipeline over translation *steps*:

* **check** — validate the referenced physical address with the attached
  isolation checker (this is where a table-mode checker adds its extra
  dimension of page walks; the checker charges its own permission-table
  references through the shared hierarchy);
* **charge** — issue the reference itself through the cache hierarchy and
  collect its latency;
* **account** — accumulate cycles and per-kind reference counts into an
  :class:`Account`, and publish events to any installed
  :class:`~repro.engine.hooks.EngineHook`.

:class:`~repro.soc.machine.Machine` (Sv39/48/57 walker) and
:class:`~repro.virt.nested.VirtualMachine` (Sv39x4 nested walker) are thin
compositions of these stages: they yield steps, the engine prices them, one
implementation of the logic instead of two.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..common.types import AccessType, PrivilegeMode
from ..isolation.checker import CheckCost, IsolationChecker
from ..mem.hierarchy import MemoryHierarchy
from .hooks import EngineHook, RefKind

_READ = AccessType.READ
_SUPERVISOR = PrivilegeMode.SUPERVISOR

#: Factories called with each newly built engine; whatever hook they return
#: is installed immediately.  This is how process-wide observability opt-ins
#: (e.g. ``python -m repro <experiment> --selfcheck``) reach the engines that
#: experiments construct internally.  Empty by default: the common case pays
#: nothing.
_default_hook_factories: List = []


def register_default_hook_factory(factory) -> None:
    """Install ``factory(engine) -> EngineHook`` on every future engine."""
    if factory not in _default_hook_factories:
        _default_hook_factories.append(factory)


def unregister_default_hook_factory(factory) -> None:
    """Stop installing *factory* on future engines (no-op if absent)."""
    try:
        _default_hook_factories.remove(factory)
    except ValueError:
        pass


class Account:
    """Mutable per-access accumulator for the engine's account stage.

    ``walk_cycles`` collects translation latency (PT/NPT/guest-PT reads,
    checker work, TLB-structure probes charged by callers) so cores can
    apply out-of-order overlap to it separately from ``data_cycles``.

    Accounts are designed to be **pooled**: callers that price millions of
    accesses (the machine and VM hot paths) keep one instance and call
    :meth:`reset` instead of allocating per access.  The reset contract is
    that an account is fully re-zeroed — every field an access can read is
    restored to its initial state — and that a pooled account is never
    retained past the access it priced (nothing in the engine or its hooks
    holds an Account reference).
    """

    __slots__ = ("walk_cycles", "data_cycles", "table_refs", "checker_refs", "data_refs")

    def __init__(self) -> None:
        self.walk_cycles = 0
        self.data_cycles = 0
        self.table_refs = 0
        self.checker_refs = 0
        self.data_refs = 0

    def reset(self) -> "Account":
        """Zero every accumulator; returns self (for pooled reuse)."""
        self.walk_cycles = 0
        self.data_cycles = 0
        self.table_refs = 0
        self.checker_refs = 0
        self.data_refs = 0
        return self

    @property
    def total_refs(self) -> int:
        return self.table_refs + self.checker_refs + self.data_refs

    @property
    def cycles(self) -> int:
        return self.walk_cycles + self.data_cycles

    def __repr__(self) -> str:  # debug aid
        return (
            f"Account(walk={self.walk_cycles}, data={self.data_cycles}, "
            f"table_refs={self.table_refs}, checker_refs={self.checker_refs}, "
            f"data_refs={self.data_refs})"
        )


class ReferenceEngine:
    """Applies check → charge → account uniformly to translation steps.

    One engine exists per :class:`~repro.soc.machine.Machine`; the
    virtualized path shares it (same checker, same hierarchy), so every
    timed reference in the system flows through this object.

    Hooks installed with :meth:`install_hook` observe the reference
    stream.  The no-hook default is zero-cost: every emission site guards
    on the (empty-tuple) hook list before doing any work, and hooks can
    never alter timing — they observe after state is updated.

    Dispatch is partitioned per callback: each emission site iterates only
    the hooks that *override* that callback (``_ref_hooks``,
    ``_access_hooks``, ``_fill_hooks``, ...), and callers guard on those
    tuples.  So an access-level hook (one that overrides ``on_access`` but
    not ``on_reference``) adds nothing to the per-reference path: the
    scalar step still charges an inlined TLB hit's data reference without
    an :class:`Account` under it.
    """

    __slots__ = (
        "hierarchy",
        "checker",
        "hart_id",
        "_check",
        "_charge",
        "_hooks",
        "_ref_hooks",
        "_access_hooks",
        "_fill_hooks",
        "_fault_hooks",
        "_checker_hooks",
    )

    def __init__(self, hierarchy: MemoryHierarchy, checker: IsolationChecker, hart_id: int = 0):
        self.hierarchy = hierarchy
        self.checker = checker
        # Hart-indexed context: multi-hart machines build one engine per
        # hart, and hooks/StatGroups key their aggregation on this id so
        # per-hart streams merge deterministically (hart order, not
        # completion order).  Single-hart construction keeps the default 0.
        self.hart_id = hart_id
        # Hot-path bindings: the check and charge stages are invoked per
        # reference, so their bound methods are resolved once here (and in
        # set_checker) instead of via two attribute chains per call.
        self._check = checker.check
        self._charge = hierarchy.access
        self._hooks: Tuple[EngineHook, ...] = ()
        self._ref_hooks: Tuple[EngineHook, ...] = ()
        self._access_hooks: Tuple[EngineHook, ...] = ()
        self._fill_hooks: Tuple[EngineHook, ...] = ()
        self._fault_hooks: Tuple[EngineHook, ...] = ()
        self._checker_hooks: Tuple[EngineHook, ...] = ()
        for factory in _default_hook_factories:
            self.install_hook(factory(self))

    # -- observability ------------------------------------------------------

    @property
    def has_hooks(self) -> bool:
        return bool(self._hooks)

    @property
    def hooks(self) -> Tuple[EngineHook, ...]:
        return self._hooks

    def set_checker(self, checker: IsolationChecker) -> None:
        """Attach (or replace) the isolation checker and notify observers.

        Machines build their engine before the checker exists (the checker
        needs the machine's hierarchy), so attachment is an event hooks can
        watch via ``on_checker`` — the stats-harvesting telemetry in
        :mod:`repro.runner` depends on it.
        """
        self.checker = checker
        self._check = checker.check
        for hook in self._checker_hooks:
            hook.on_checker(checker)

    def install_hook(self, hook: EngineHook) -> EngineHook:
        """Install an observer; returns it (handy for chaining)."""
        if hook not in self._hooks:
            self._hooks = self._hooks + (hook,)
            self._repartition()
            if type(hook).on_checker is not EngineHook.on_checker:
                hook.on_checker(self.checker)
        return hook

    def remove_hook(self, hook: EngineHook) -> None:
        """Remove a previously installed observer (no-op if absent)."""
        self._hooks = tuple(h for h in self._hooks if h is not hook)
        self._repartition()

    def _repartition(self) -> None:
        """Recompute the per-callback dispatch lists from ``_hooks``.

        A hook is dispatched a callback only when its class overrides it
        (``type(hook).<cb> is not EngineHook.<cb>``), so base-class no-op
        calls are never paid on the hot path.
        """
        hooks = self._hooks
        base = EngineHook
        self._ref_hooks = tuple(h for h in hooks if type(h).on_reference is not base.on_reference)
        self._access_hooks = tuple(h for h in hooks if type(h).on_access is not base.on_access)
        self._fill_hooks = tuple(h for h in hooks if type(h).on_tlb_fill is not base.on_tlb_fill)
        self._fault_hooks = tuple(h for h in hooks if type(h).on_fault is not base.on_fault)
        self._checker_hooks = tuple(h for h in hooks if type(h).on_checker is not base.on_checker)

    # -- the pipeline stages -------------------------------------------------

    def step_ref(
        self,
        acct: Account,
        paddr: int,
        kind: RefKind = RefKind.PT,
        priv: PrivilegeMode = _SUPERVISOR,
    ) -> int:
        """Price one translation-structure reference (a walker step).

        check → charge → account: the checker validates the table page
        (possibly walking its own permission table), the reference is
        issued through the hierarchy, and cycles/refs land in *acct*.
        Returns the cycles charged.
        """
        fault_hooks = self._fault_hooks
        if fault_hooks:
            try:
                cost = self._check(paddr, _READ, priv)
            except BaseException as exc:
                for hook in fault_hooks:
                    hook.on_fault(exc)
                raise
        else:
            cost = self._check(paddr, _READ, priv)
        charged = self._charge(paddr)
        acct.walk_cycles += cost.cycles + charged
        acct.checker_refs += cost.refs
        acct.table_refs += 1
        ref_hooks = self._ref_hooks
        if ref_hooks:
            self._emit_check(ref_hooks, paddr, cost)
            for hook in ref_hooks:
                hook.on_reference(kind, paddr, charged)
        return cost.cycles + charged

    def leaf_check(
        self,
        acct: Account,
        paddr: int,
        access: AccessType,
        priv: PrivilegeMode = _SUPERVISOR,
    ) -> CheckCost:
        """Price the data-page permission check (fill time / non-inlined hit).

        Only the check runs here — the data reference itself is charged by
        :meth:`data_ref` so TLB fill can happen between them, exactly as
        the hardware orders it.
        """
        fault_hooks = self._fault_hooks
        if fault_hooks:
            try:
                cost = self._check(paddr, access, priv)
            except BaseException as exc:
                for hook in fault_hooks:
                    hook.on_fault(exc)
                raise
        else:
            cost = self._check(paddr, access, priv)
        acct.walk_cycles += cost.cycles
        acct.checker_refs += cost.refs
        if self._ref_hooks:
            self._emit_check(self._ref_hooks, paddr, cost)
        return cost

    def data_ref(self, acct: Account, paddr: int, instruction: bool = False) -> int:
        """Charge the data reference itself; returns the cycles charged."""
        charged = self._charge(paddr, instruction=instruction)
        acct.data_cycles += charged
        acct.data_refs += 1
        hooks = self._ref_hooks
        if hooks:
            for hook in hooks:
                hook.on_reference(RefKind.DATA, paddr, charged)
        return charged

    # -- event publication ---------------------------------------------------

    @staticmethod
    def _emit_check(hooks: Tuple[EngineHook, ...], paddr: int, cost: CheckCost) -> None:
        """Emit one CHECKER event per permission-table reference.

        The first event carries the whole check's latency (the checker
        reports an aggregate cost, not per-pmpte latencies) so summing
        event cycles stays meaningful.
        """
        cycles = cost.cycles
        for _ in range(cost.refs):
            for hook in hooks:
                hook.on_reference(RefKind.CHECKER, paddr, cycles)
            cycles = 0

    def access_done(self, va: int, access: AccessType, cycles: int, tlb_hit: bool, refs: int) -> None:
        """Publish a completed access (callers guard on ``_access_hooks``)."""
        for hook in self._access_hooks:
            hook.on_access(va, access, cycles, tlb_hit, refs)

    def tlb_filled(self, entry, which: str = "dtlb") -> None:
        """Publish a TLB fill (callers guard on ``_fill_hooks``)."""
        for hook in self._fill_hooks:
            hook.on_tlb_fill(entry, which)

    def fault(self, exc: BaseException) -> BaseException:
        """Publish a fault and hand the exception back to be raised.

        Usage: ``raise engine.fault(PageFault(...))``.
        """
        for hook in self._fault_hooks:
            hook.on_fault(exc)
        return exc
