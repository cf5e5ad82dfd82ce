"""The simulated SoC: TLBs + page-table walker + checker + cache hierarchy.

Two classes live here, split along the hardware's own ownership lines:

* :class:`Hart` — everything private to one core: L1/L2 TLB, L1D/L1I/L2
  caches, page-walk cache, reference engine (with its pooled account and
  hot-path bindings) and the per-hart deferred stats.
* :class:`Machine` — the SoC.  It *is* hart 0 (subclassing keeps the
  single-hart access path byte-identical and free of delegation overhead)
  and composes the secondary harts over the shared state: the last-level
  cache, DRAM, and — via the caller — frame allocators, page/permission
  tables, GMSs and the :class:`~repro.tee.monitor.SecureMonitor`.

:class:`Hart` implements the timed memory-access path of Figure 2:

1. TLB lookup (L1 then L2).  A hit with an inlined checker permission costs
   no isolation work at all (the paper's TLB-inlining optimization).
2. On a miss, the page-table walker resolves the VA, starting from the
   deepest page-walk-cache (PWC) prefix.  *Every* page-table reference is
   first validated by the attached isolation checker — this is where a
   table-mode checker adds its extra dimension of page walks — and then
   charged through the cache hierarchy.
3. The data page is validated (result inlined into the TLB entry) and the
   data reference itself is charged.

The check → charge → account stages themselves live in the shared
:class:`~repro.engine.ReferenceEngine` (``self.engine``): the machine yields
Sv39/48/57 walker steps and the engine prices them, the same pipeline the
virtualized (Sv39x4) path composes.  Observability hooks installed on the
engine see every reference; with no hooks installed the path stays as cheap
as a hand-rolled loop.

A hart has two timed entry points: ``Hart._access_core``, the one scalar
step for one reference (:meth:`Hart.access` wraps it in an
:class:`AccessResult`), and :meth:`Hart.access_run`, the one run loop for a
strided run.  :class:`~repro.virt.nested.VirtualMachine` runs both, with
its combined TLB in place of the hart's TLB and its 3D walk in place of
``Hart._walk``.

Out-of-order overlap is modelled by ``MachineParams.mlp_factor``: BOOM hides
part of the walk latency behind other work for loads; stores' permission
checks stay on the critical path (observed in the paper as larger ``sd``
deltas).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..common.errors import AccessFault, PageFault
from ..common.params import MachineParams
from ..common.stats import StatGroup
from ..common.types import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, AccessType, PrivilegeMode
from ..engine import Account, RefKind, ReferenceEngine
from ..isolation.checker import IsolationChecker
from ..isolation.factory import NullChecker
from ..mem.hierarchy import MemoryHierarchy
from ..mem.physical import PhysicalMemory
from ..paging.pagetable import PageTable
from ..paging.ptecache import PageWalkCache
from ..paging.tlb import TLB, TLBEntry

# Module constants: an enum member lookup (``AccessType.READ``) costs several
# times a global's.  The scalar step and run loop test the access type per
# reference; the walk tests the privilege mode and tags each step.
_READ = AccessType.READ
_WRITE = AccessType.WRITE
_FETCH = AccessType.FETCH
_PT = RefKind.PT
_USER = PrivilegeMode.USER


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one timed memory access."""

    cycles: int
    paddr: int
    tlb_hit: bool
    pt_refs: int  # page-table references (0 on TLB hit)
    checker_refs: int  # permission-table references
    data_refs: int  # always 1

    @property
    def total_refs(self) -> int:
        return self.pt_refs + self.checker_refs + self.data_refs


class Hart:
    """One simulated hart: the core-private half of the memory system.

    Parameters
    ----------
    params:
        Timing/geometry parameter set (``rocket()`` or ``boom()``).
    memory:
        Shared physical memory (created by the caller so page tables,
        permission tables and workloads agree on one address space).
    checker:
        Isolation checker; defaults to :class:`NullChecker` until
        ``attach_checker`` is called.
    hart_id:
        This hart's index in its machine (0 for single-hart machines).
    llc:
        A shared last-level cache to build the hierarchy over; ``None``
        (the single-hart default) creates a private LLC exactly as before.
    """

    #: What TLB-fill hooks are told was filled (``which``).
    _tlb_name = "dtlb"

    def __init__(
        self,
        params: MachineParams,
        memory: PhysicalMemory,
        checker: Optional[IsolationChecker] = None,
        hart_id: int = 0,
        llc=None,
    ):
        self.params = params
        self.memory = memory
        self.hart_id = hart_id
        self.hierarchy = MemoryHierarchy(params, llc=llc)
        self.tlb = TLB(params.l1_tlb, params.l2_tlb)
        self.pwc = PageWalkCache(params.ptecache_entries)
        self.engine = ReferenceEngine(
            self.hierarchy, checker if checker is not None else NullChecker(), hart_id=hart_id
        )
        # Deferred per-access statistics (published into ``stats`` on read)
        # and hot-path bindings: the TLB/hierarchy objects live as long as
        # the machine, so their bound methods are resolved once here.
        self._s_accesses = 0
        self._s_cycles = 0
        self._s_pt_refs = 0
        self._s_checker_refs = 0
        self._s_tlb_misses = 0
        self._s_fills = 0  # kept by the shared step; only the VM publishes it
        name = "machine" if hart_id == 0 else f"machine.hart{hart_id}"
        self.stats = StatGroup(name, sync=self._publish_stats)
        self._tlb_lookup = self.tlb.lookup
        self._hier_access = self.hierarchy.access
        # One pooled Account, reset per general-path access (see
        # engine.Account.reset): nothing retains it past the access.
        self._acct = Account()

    def _publish_stats(self) -> None:
        """Sync point: fold pending per-access deltas into the StatGroup.

        Every access contributes to all four always-bumped keys (the
        original path bumped ``pt_refs``/``checker_refs`` even with amount
        0), so the keys materialize together once any access ran.
        """
        if self._s_accesses:
            self.stats.bump("accesses", self._s_accesses)
            self._s_accesses = 0
            self.stats.bump("cycles", self._s_cycles)
            self._s_cycles = 0
            self.stats.bump("pt_refs", self._s_pt_refs)
            self._s_pt_refs = 0
            self.stats.bump("checker_refs", self._s_checker_refs)
            self._s_checker_refs = 0
        if self._s_tlb_misses:
            self.stats.bump("tlb_misses", self._s_tlb_misses)
            self._s_tlb_misses = 0

    @property
    def checker(self) -> IsolationChecker:
        """The isolation checker (owned by the shared reference engine)."""
        return self.engine.checker

    def attach_checker(self, checker: IsolationChecker) -> None:
        """Install the isolation checker (flushes stale inlined permissions)."""
        self.engine.set_checker(checker)
        self.tlb.flush()

    def install_selfcheck(self):
        """Install a shadow validator on this machine's engine and return it.

        The validator (:class:`repro.verify.SelfCheckHook`) re-derives every
        data-reference permission through a side-effect-free functional
        lookup and raises :class:`~repro.common.errors.VerificationError` on
        divergence.  Because it watches individual references, installing it
        routes warm hits through the general path (access-level hooks keep
        the inlined fast path) — but it never changes cycle or reference
        counts.
        """
        from ..verify.selfcheck import SelfCheckHook  # local: avoid cycle

        return self.engine.install_hook(SelfCheckHook(self.engine))

    # -- maintenance operations --------------------------------------------

    def sfence_vma(self, asid: Optional[int] = None) -> int:
        """Flush TLB (+PWC); returns the cycle cost charged."""
        self.tlb.flush(asid)
        self.pwc.flush()
        return self.params.tlb_flush_cycles

    def cold_boot(self) -> None:
        """Reset all cached state: caches, TLBs, PWC, checker caches."""
        self.hierarchy.flush()
        self.tlb.flush()
        self.pwc.flush()
        flush = getattr(self.checker, "flush_caches", None)
        if flush is not None:
            flush()

    # -- the timed access path ----------------------------------------------

    def _walk(
        self,
        acct: Account,
        page_table: PageTable,
        va: int,
        access: AccessType,
        priv: PrivilegeMode,
    ) -> TLBEntry:
        """Timed page-table walk: yield steps to the engine; build the entry.

        The functional walk of *va*'s page (its memo, while the tables are
        unchanged) supplies the steps; the walk re-times each one below the
        deepest page-walk-cache prefix.  Translation faults report the VA
        of the page.
        """
        engine = self.engine
        levels = page_table.levels
        root_pa = page_table.root_pa
        cached = self.pwc.lookup(root_pa, va, levels)
        start_level = levels - 1 if cached is None else cached[0]
        try:
            walk = page_table.walk(va & ~PAGE_MASK)
        except BaseException as exc:
            raise engine.fault(exc)
        step_ref = engine.step_ref  # bound once: the loop is the walk hot path
        pwc_insert = self.pwc.insert
        steps = walk.steps
        last = len(steps) - 1
        for i, step in enumerate(steps):
            if step.level > start_level:
                continue  # resolved by the PWC
            step_ref(acct, step.pte_addr, _PT, priv)
            if i < last:
                # A pointer PTE: remember the child table for future walks.
                pwc_insert(root_pa, va, step.level - 1, steps[i + 1].pte_addr & ~PAGE_MASK, levels)
        if not walk.perm.allows(access):
            raise engine.fault(PageFault(va, f"page permission {walk.perm} denies {access.value}"))
        if priv is _USER and not walk.user:
            raise engine.fault(PageFault(va, "user access to supervisor page"))
        return TLBEntry(va >> PAGE_SHIFT, walk.paddr >> PAGE_SHIFT, walk.perm, walk.user)

    def _access_core(
        self,
        page_table: PageTable,
        va: int,
        access: AccessType,
        priv: PrivilegeMode,
        asid: int,
    ) -> Tuple[int, int, bool, int, int]:
        """The one scalar step; returns (cycles, paddr, tlb_hit, table_refs, checker_refs).

        A TLB hit tests the page permission, then the checker permission the
        entry inlines; without one (TLB inlining off, or inlined permissions
        dropped) it re-checks the data page.  A miss runs the owner's
        ``_walk`` for the entry, checks the data page, inlines the result and
        fills the TLB.  Either way the data reference is charged last.

        :class:`~repro.virt.nested.VirtualMachine` runs this step too.  An
        owner provides ``engine``, ``params``, ``tlb`` (with its bound
        ``_tlb_lookup``), ``_hier_access``, the pooled ``_acct``, ``_walk``,
        ``_tlb_name`` and the deferred counters ``_s_accesses``,
        ``_s_cycles``, ``_s_tlb_misses``, ``_s_fills`` (completed misses),
        ``_s_pt_refs`` and ``_s_checker_refs``.
        """
        engine = self.engine
        self._s_accesses += 1
        entry, cycles = self._tlb_lookup(va, asid)
        tlb_inlining = self.params.tlb_inlining
        if entry is not None:
            # Permission.allows, unrolled: two method calls per reference
            # add up over multi-million-access workloads.
            perm = entry.perm
            checker_perm = entry.checker_perm if tlb_inlining else None
            if access is _READ:
                page_ok, checker_ok = perm.r, checker_perm is None or checker_perm.r
            elif access is _WRITE:
                page_ok, checker_ok = perm.w, checker_perm is None or checker_perm.w
            else:
                page_ok, checker_ok = perm.x, checker_perm is None or checker_perm.x
            if not page_ok:
                raise engine.fault(PageFault(va, f"page permission {perm} denies {access.value}"))
            if not checker_ok:
                raise engine.fault(
                    AccessFault(entry.ppn << PAGE_SHIFT, access.value, "inlined perm denies")
                )
            paddr = (entry.ppn << PAGE_SHIFT) | (va & PAGE_MASK)
            if checker_perm is not None and not engine._ref_hooks:
                # Only the data reference is left and no hook watches single
                # references: charge it without an Account.  Published state
                # is what the general path below would publish.
                cycles += self._hier_access(paddr, access is _FETCH)
                self._s_cycles += cycles
                if engine._access_hooks:
                    engine.access_done(va, access, cycles, True, 1)
                return cycles, paddr, True, 0, 0
            acct = self._acct.reset()
            if checker_perm is None:
                cost = engine.leaf_check(acct, entry.ppn << PAGE_SHIFT, access, priv)
                if tlb_inlining:
                    entry.checker_perm = cost.perm
            tlb_hit = True
        else:
            self._s_tlb_misses += 1
            acct = self._acct.reset()
            entry = self._walk(acct, page_table, va, access, priv)
            entry.asid = asid
            # Data-page check, inlined into the TLB entry at fill time.
            cost = engine.leaf_check(acct, entry.ppn << PAGE_SHIFT, access, priv)
            if tlb_inlining:
                entry.checker_perm = cost.perm
            self.tlb.fill(entry)
            self._s_fills += 1
            if engine._fill_hooks:
                engine.tlb_filled(entry, self._tlb_name)
            paddr = (entry.ppn << PAGE_SHIFT) | (va & PAGE_MASK)
            tlb_hit = False
        walk_cycles = acct.walk_cycles
        if walk_cycles:
            # Out-of-order overlap hides part of the walk behind other work;
            # store checks stay on the commit path.
            if access is not _WRITE:
                walk_cycles = round(walk_cycles * self.params.mlp_factor)
            cycles += walk_cycles
        engine.data_ref(acct, paddr, access is _FETCH)
        cycles += acct.data_cycles
        self._s_cycles += cycles
        self._s_pt_refs += acct.table_refs
        self._s_checker_refs += acct.checker_refs
        if engine._access_hooks:
            engine.access_done(va, access, cycles, tlb_hit, acct.total_refs)
        return cycles, paddr, tlb_hit, acct.table_refs, acct.checker_refs

    def access(
        self,
        page_table: PageTable,
        va: int,
        access: AccessType = AccessType.READ,
        priv: PrivilegeMode = PrivilegeMode.USER,
        asid: int = 0,
    ) -> AccessResult:
        """Perform one timed memory access through the full path."""
        cycles, paddr, tlb_hit, pt_refs, checker_refs = self._access_core(
            page_table, va, access, priv, asid
        )
        return AccessResult(cycles, paddr, tlb_hit, pt_refs, checker_refs, 1)

    def access_run(
        self,
        page_table: PageTable,
        va: int,
        stride: int,
        count: int,
        access: AccessType = AccessType.READ,
        priv: PrivilegeMode = PrivilegeMode.USER,
        asid: int = 0,
    ) -> Tuple[int, int, int, int]:
        """Charge *count* references at ``va, va+stride, ...`` in one call.

        Returns ``(cycles, tlb_hits, pt_refs, checker_refs)`` — exactly what
        *count* scalar :meth:`access` calls would have accumulated.  Each pass
        of the loop either takes one fused charge for every reference left on
        the current page or one scalar step.  The fused charge fires only in
        the invariant regime: an L1-TLB hit whose entry carries an inlined
        checker permission, page and checker permission both allowing the
        access; the per-line residency is handled by
        :meth:`~repro.mem.hierarchy.MemoryHierarchy.access_run`.  Everything
        else — a TLB miss, L2-only residency, a permission denial (whose
        fault the scalar step raises with exact scalar state), a lone
        reference on a page — is one scalar step, then the run resumes.  A
        zero-stride run takes the same branch with every reference left on
        its page: :meth:`~repro.mem.hierarchy.MemoryHierarchy.access_run`
        charges its first reference as one hierarchy access and the rest as
        MRU hits on that line.

        This is the only timed run loop.  Of ``self`` it reads only
        ``engine``, ``params``, ``tlb``, ``hierarchy``, the
        scalar step ``_access_core`` and the ``_s_accesses`` / ``_s_cycles``
        counters, so :class:`~repro.virt.nested.VirtualMachine` runs it on
        itself, with its combined TLB as ``tlb`` and the same scalar step,
        whose walk there is the 3D walk.
        """
        step = self._access_core
        engine = self.engine
        # The fuse guard, its only copy.  A negative stride would walk chunks
        # backwards through a line; without TLB inlining every hit re-checks
        # its page; a per-reference or per-access hook must see every one.
        fuse = (
            stride >= 0
            and self.params.tlb_inlining
            and not engine._ref_hooks
            and not engine._access_hooks
        )
        tlb = self.tlb
        is_fetch = access is _FETCH
        total = hits = pt_refs = checker_refs = 0
        i = 0
        while i < count:
            cur = va + i * stride
            if fuse:
                if stride:
                    # References still on cur's page: cur, cur+stride, ... < page end.
                    n = (PAGE_SIZE - (cur & PAGE_MASK) + stride - 1) // stride
                    if n > count - i:
                        n = count - i
                else:
                    n = count - i
                # A lone reference is cheaper as a scalar step.
                entry = tlb.peek_l1(cur, asid) if n > 1 else None
                if entry is not None and entry.checker_perm is not None:
                    perm = entry.perm
                    checker_perm = entry.checker_perm
                    if access is _READ:
                        ok = perm.r and checker_perm.r
                    elif access is _WRITE:
                        ok = perm.w and checker_perm.w
                    else:
                        ok = perm.x and checker_perm.x
                    if ok:
                        paddr = (entry.ppn << PAGE_SHIFT) | (cur & PAGE_MASK)
                        cyc = tlb.charge_l1_hits(cur, asid, n)
                        cyc += self.hierarchy.access_run(paddr, stride, n, is_fetch)
                        self._s_accesses += n
                        self._s_cycles += cyc
                        total += cyc
                        hits += n
                        i += n
                        continue
            c, _pa, h, p, k = step(page_table, cur, access, priv, asid)
            total += c
            pt_refs += p
            checker_refs += k
            if h:
                hits += 1
            i += 1
        return total, hits, pt_refs, checker_refs


class Machine(Hart):
    """The SoC: hart 0 plus optional secondary harts over shared state.

    A machine *is* its hart 0 — subclassing :class:`Hart` keeps every
    existing single-hart consumer (``machine.access``, ``machine.tlb``,
    ``machine.engine`` …) working unchanged with zero delegation overhead,
    and makes single-hart construction byte-identical to the pre-SMP
    machine (hart 0's hierarchy creates the LLC).

    A machine's behaviour depends only on its constructor arguments and
    the hooks installed on its engines: ``params`` is read, never
    reassigned, and every hart is built from the same object.

    Secondary harts share the LLC, DRAM and — through
    :meth:`attach_checker` — the isolation checker's architectural state
    (register file and bound tables), while owning private L1/L2 caches,
    TLBs, page-walk caches, engines and walker caches.  Scheduling of
    per-hart reference streams lives in :mod:`repro.soc.smp`; cross-hart
    TLB shootdown cost lives in the :class:`~repro.tee.monitor.SecureMonitor`.
    """

    def __init__(
        self,
        params: MachineParams,
        memory: PhysicalMemory,
        checker: Optional[IsolationChecker] = None,
        harts: int = 1,
    ):
        if harts < 1:
            raise ValueError(f"a machine needs at least one hart, got {harts}")
        super().__init__(params, memory, checker)
        self.llc = self.hierarchy.llc
        self.harts: List[Hart] = [self]
        for i in range(1, harts):
            hart = Hart(params, memory, hart_id=i, llc=self.llc)
            if checker is not None:
                hart.attach_checker(
                    checker.hart_view(hart.hierarchy, i)
                    if hasattr(checker, "hart_view")
                    else checker
                )
            self.harts.append(hart)

    @property
    def num_harts(self) -> int:
        return len(self.harts)

    def hart(self, index: int) -> Hart:
        """The hart at *index* (0 is the machine itself)."""
        return self.harts[index]

    def attach_checker(self, checker: IsolationChecker) -> None:
        """Install the checker on every hart (flushes all stale TLB state).

        Hart 0 gets *checker* itself (single-hart behaviour, unchanged).
        Secondary harts get a per-hart view when the checker supports one
        (``hart_view``: shared register file and tables, private walker
        state charging through that hart's hierarchy); register-only
        checkers (PMP, null) are shared as-is.
        """
        super().attach_checker(checker)
        for hart in self.harts[1:]:
            view = (
                checker.hart_view(hart.hierarchy, hart.hart_id)
                if hasattr(checker, "hart_view")
                else checker
            )
            hart.attach_checker(view)

    def cold_boot(self) -> None:
        """Reset cached state on every hart (and thus the shared LLC)."""
        super().cold_boot()
        for hart in self.harts[1:]:
            hart.cold_boot()

    def hart_stats(self) -> List[StatGroup]:
        """Per-hart ``machine`` stat groups, in hart order."""
        return [hart.stats for hart in self.harts]

    def merged_stats(self, name: str = "machine") -> StatGroup:
        """All harts' access stats folded into one group, hart-ordered.

        Deterministic by construction: snapshots are merged in hart-id
        order, and every counter is a plain sum, so the merged group is
        independent of interleaving decisions that didn't change the
        per-hart counts.
        """
        merged = StatGroup(name)
        for hart in self.harts:
            merged.merge(hart.stats.snapshot())
        return merged
