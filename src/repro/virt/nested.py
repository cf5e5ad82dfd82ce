"""Two-stage address translation (paper §6, Figures 8 and 13).

A guest virtual address goes through the guest page table (Sv39, holding
guest-physical addresses) and every guest-physical address — guest PT pages
included — goes through the nested page table (Sv39x4) to a host-physical
address.  With a 2-level permission table each of the 16 base references
gains 2 more (48 total); HPMP backs NPT pages with a segment (-24), and
HPMP-GPT additionally backs guest-PT pages (-6 more), leaving 2.

The timed path routes through the host machine's shared
:class:`~repro.engine.ReferenceEngine`: guest-PT steps, nested-PT steps and
the data reference are priced by the same check → charge → account pipeline
as the native path, tagged :data:`RefKind.GUEST_PT` / :data:`RefKind.NPT` /
:data:`RefKind.DATA` so observability hooks can attribute every reference
of the 3D walk.  The VM has two timed entry points, as a hart has:
:meth:`VirtualMachine.access` is the hart's scalar step,
``Hart._access_core``, for one reference, and
:meth:`VirtualMachine.access_run` the hart's run loop,
:meth:`Hart.access_run <repro.soc.machine.Hart.access_run>`, for a strided
run.  Both run on the VM: the combined TLB stands in for the hart's TLB and
the 3D walk, :meth:`VirtualMachine._walk`, for the hart's page-table walk.

``GuestMemoryView`` lets the stock :class:`~repro.paging.pagetable.PageTable`
build *guest* page tables: it looks like a physical memory addressed by GPA
but stores through the backing map to host memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..common.errors import AlignmentError, GuestPageFault, MemoryError_, PageFault
from ..common.stats import StatGroup
from ..common.types import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, AccessType, Permission, PrivilegeMode
from ..engine import Account, RefKind
from ..mem.physical import WORD_BYTES, PhysicalMemory
from ..paging.pagetable import PageTable
from ..paging.tlb import TLB, TLBEntry
from ..soc.machine import Hart
from ..soc.system import System

S = PrivilegeMode.SUPERVISOR
# Module constants: an enum member lookup costs several times a global's,
# and the 3D walk tags every step.
_NPT = RefKind.NPT
_GUEST_PT = RefKind.GUEST_PT

#: Guest-physical layout.
GUEST_DRAM_BASE = 0x0000_0000
GUEST_PT_AREA = 0x0800_0000  # guest PT pages allocated from here (GPA)


class GuestMemoryView:
    """Guest-physical address space backed page-wise by host memory.

    The nested page table is the architectural GPA→HPA map; this view keeps
    the same mapping as a dict for O(1) functional reads/writes (it is kept
    in sync by :class:`VirtualMachine`, which owns both).

    ``epoch`` is the view's write epoch, as on :class:`PhysicalMemory`: the
    host epoch plus the number of ``back_page`` calls.  Remapping a page
    changes what ``read64`` returns without any host write, so it must
    move the epoch too.
    """

    def __init__(self, host_memory: PhysicalMemory):
        self.host_memory = host_memory
        self.backing: Dict[int, int] = {}  # GPA page -> HPA page
        self._remaps = 0

    @property
    def epoch(self) -> int:
        return self.host_memory.epoch + self._remaps

    def back_page(self, gpa_page: int, hpa_page: int) -> None:
        self.backing[gpa_page] = hpa_page
        self._remaps += 1

    def hpa_of(self, gpa: int) -> int:
        hpa_page = self.backing.get(gpa & ~PAGE_MASK)
        if hpa_page is None:
            raise GuestPageFault(gpa, "unbacked guest-physical page")
        return hpa_page | (gpa & PAGE_MASK)

    def read64(self, gpa: int) -> int:
        return self.host_memory.read64(self.hpa_of(gpa))

    def write64(self, gpa: int, value: int) -> None:
        self.host_memory.write64(self.hpa_of(gpa), value)

    def fill(self, gpa: int, length: int, value64: int = 0) -> None:
        """Set every word in ``[gpa, gpa+length)`` to *value64*.

        The range is split at guest page boundaries and each piece is
        filled in the host frame that backs its page.  Alignment, length
        and backing are checked for the whole range before any word is
        written.
        """
        if gpa % WORD_BYTES or length % WORD_BYTES:
            raise AlignmentError(f"fill [{gpa:#x},+{length:#x}) not word-aligned")
        if length < 0:
            raise MemoryError_(f"fill [{gpa:#x},{length:+#x}) has a negative length")
        pieces = []
        addr, end = gpa, gpa + length
        while addr < end:
            piece_end = min((addr | PAGE_MASK) + 1, end)
            pieces.append((self.hpa_of(addr), piece_end - addr))
            addr = piece_end
        for hpa, size in pieces:
            self.host_memory.fill(hpa, size, value64)


@dataclass(frozen=True)
class GuestAccessResult:
    """Outcome of one timed guest access."""

    cycles: int
    hpa: int
    combined_tlb_hit: bool
    refs: int  # all memory references (guest PT + nested PT + checker + data)
    checker_refs: int


class VirtualMachine:
    """One guest VM on a simulated host machine.

    Parameters
    ----------
    system:
        Host system (its checker decides PMP / PMPT / HPMP behaviour).
    guest_pages:
        Guest DRAM size in 4 KiB pages.
    gpt_contiguous:
        Back guest-PT pages with frames from the host's contiguous PT region
        (the HPMP-GPT extension); otherwise they come from the host pool.
    fragmented_backing:
        Back guest data pages with scattered host frames (the §8.8 cases).
    """

    #: What TLB-fill hooks are told was filled (``which``).
    _tlb_name = "combined"

    def __init__(
        self,
        system: System,
        guest_pages: int = 1024,
        gpt_contiguous: bool = False,
        fragmented_backing: bool = False,
    ):
        self.system = system
        self.machine = system.machine
        self.engine = system.machine.engine  # the shared reference pipeline
        self.hierarchy = system.machine.hierarchy
        # The host's parameters (read by the step and the run loop).
        self.params = params = system.params
        self.view = GuestMemoryView(system.memory)
        self.gpt_contiguous = gpt_contiguous
        # The nested page table is a host page table over GPAs (Sv39x4 is
        # Sv39 with a widened root; the level count — what drives reference
        # counts — is identical).
        self.npt = PageTable(system.memory, system.alloc_pt_page, mode="sv39")
        self._alloc_host_frame = (
            system.data_frames.alloc_scattered if fragmented_backing else system.data_frames.alloc
        )
        # Back guest DRAM.
        for i in range(guest_pages):
            self._back(GUEST_DRAM_BASE + i * PAGE_SIZE)
        # Guest page table over the guest-physical view.
        self._next_gpt_page = GUEST_PT_AREA
        self.guest_pt = PageTable(self.view, self._alloc_gpt_page, mode="sv39")  # type: ignore[arg-type]
        # The combined VS-stage TLB (gva->hpa; the run loop's ``tlb``) and
        # the G-stage TLB (gpa->hpa).
        self.tlb = TLB(params.l1_tlb, params.l2_tlb)
        self.g_tlb = TLB(params.l1_tlb, params.l2_tlb)
        # What the hart's scalar step reads on its owner (see
        # Hart._access_core): deferred per-access statistics (published into
        # ``stats`` on read), hot-path bindings and one pooled Account.
        self._s_accesses = 0
        self._s_tlb_misses = 0
        self._s_fills = 0
        self._s_cycles = 0
        self._s_pt_refs = 0
        self._s_checker_refs = 0
        self.stats = StatGroup("vm", sync=self._publish_stats)
        self._tlb_lookup = self.tlb.lookup
        self._hier_access = self.hierarchy.access
        self._acct = Account()

    def _publish_stats(self) -> None:
        """Sync point: fold pending guest-access deltas into the StatGroup.

        ``refs`` is the table and checker references of the completed
        accesses plus one data reference per completed miss: a miss can
        only fault before its fill, so ``_s_fills`` counts exactly those.
        """
        if self._s_accesses:
            hits = self._s_accesses - self._s_tlb_misses
            self.stats.bump("accesses", self._s_accesses)
            self._s_accesses = 0
            self._s_tlb_misses = 0
            if hits:
                self.stats.bump("tlb_hits", hits)
        if self._s_cycles:
            self.stats.bump("cycles", self._s_cycles)
            self._s_cycles = 0
        refs = self._s_pt_refs + self._s_checker_refs + self._s_fills
        if refs:
            self.stats.bump("refs", refs)
            self._s_pt_refs = 0
            self._s_fills = 0
        if self._s_checker_refs:
            self.stats.bump("checker_refs", self._s_checker_refs)
            self._s_checker_refs = 0

    def _back(self, gpa_page: int, frame: Optional[int] = None) -> int:
        if frame is None:
            frame = self._alloc_host_frame()
        self.view.back_page(gpa_page, frame)
        self.npt.map_page(gpa_page, frame, Permission.rw(), user=True)
        return frame

    def _alloc_gpt_page(self) -> int:
        """Allocate a guest PT page (GPA), backing it per the GPT policy."""
        gpa = self._next_gpt_page
        self._next_gpt_page += PAGE_SIZE
        frame = self.system.pt_frames.alloc() if self.gpt_contiguous else self._alloc_host_frame()
        self._back(gpa, frame)
        return gpa

    # -- guest memory management ------------------------------------------------

    def guest_map(self, gva: int, gpa: int, perm: Permission = Permission.rw()) -> None:
        """Map a guest virtual page to a guest physical page."""
        self.guest_pt.map_page(gva, gpa, perm, user=True)

    def guest_map_range(self, gva: int, gpa: int, size: int, perm: Permission = Permission.rw()) -> None:
        for offset in range(0, size, PAGE_SIZE):
            self.guest_map(gva + offset, gpa + offset, perm)

    # -- fences ------------------------------------------------------------------

    # The 3D walk never reads the host's page-walk cache, so neither fence
    # touches it: a guest fence must not make the host's next walk dearer.

    def hfence_vvma(self) -> int:
        """Flush VS-stage (combined) translations; G-stage survives."""
        self.tlb.flush()
        return self.params.tlb_flush_cycles

    def hfence_gvma(self) -> int:
        """Flush G-stage translations (and therefore combined ones too)."""
        self.tlb.flush()
        self.g_tlb.flush()
        return self.params.tlb_flush_cycles

    # -- the timed two-stage access path -------------------------------------------

    def _nested_resolve(self, acct: Account, gpa: int) -> int:
        """GPA -> HPA through the G stage (with G-TLB); returns the HPA.

        G-TLB probe latency and nested-walk step costs accrue to *acct*;
        each Sv39x4 step is an engine :data:`RefKind.NPT` reference.
        """
        entry, cycles = self.g_tlb.lookup(gpa)
        acct.walk_cycles += cycles
        if entry is not None:
            return (entry.ppn << PAGE_SHIFT) | (gpa & PAGE_MASK)
        engine = self.engine
        walk = self.npt.walk(gpa & ~PAGE_MASK)  # the page-level memo
        step_ref = engine.step_ref
        for step in walk.steps:
            step_ref(acct, step.pte_addr, _NPT, S)
        entry = TLBEntry(gpa >> PAGE_SHIFT, walk.paddr >> PAGE_SHIFT, walk.perm, True)
        self.g_tlb.fill(entry)
        if engine._fill_hooks:
            engine.tlb_filled(entry, "gstage")
        return walk.paddr | (gpa & PAGE_MASK)

    def _walk(
        self,
        acct: Account,
        guest_pt: PageTable,
        gva: int,
        access: AccessType,
        priv: PrivilegeMode,
    ) -> TLBEntry:
        """The 3D walk: the counterpart of ``Hart._walk``; builds the combined entry.

        Every guest-PT step first resolves its own GPA through the G stage
        (:data:`RefKind.NPT` references), then is checked and read itself
        (:data:`RefKind.GUEST_PT`).  The guest PTE's R/W/X is checked against
        the access type, and the data GPA takes one more G-stage resolve.
        The shared step does the rest: the data-page check, the fill and
        the data reference.
        """
        engine = self.engine
        try:
            gwalk = guest_pt.walk(gva & ~PAGE_MASK)  # the page-level memo
        except BaseException as exc:
            raise engine.fault(exc)
        nested_resolve = self._nested_resolve  # bound once: the 3D-walk loop
        step_ref = engine.step_ref
        for step in gwalk.steps:
            # step.pte_addr is a GPA: translate it through the G stage...
            hpa_pte = nested_resolve(acct, step.pte_addr)
            # ...then check and read the guest PT page itself.
            step_ref(acct, hpa_pte, _GUEST_PT, priv)
        if not gwalk.perm.allows(access):
            raise engine.fault(PageFault(gva, f"page permission {gwalk.perm} denies {access.value}"))
        hpa_page = nested_resolve(acct, gwalk.paddr)
        return TLBEntry(gva >> PAGE_SHIFT, hpa_page >> PAGE_SHIFT, gwalk.perm, True)

    #: The hart's scalar step, run on this VM with :meth:`_walk` as its walk.
    _access_core = Hart._access_core

    def access(self, gva: int, access: AccessType = AccessType.READ) -> GuestAccessResult:
        """One timed guest memory access (the paper's hlv.d probe)."""
        cycles, hpa, hit, table_refs, checker_refs = self._access_core(self.guest_pt, gva, access, S, 0)
        return GuestAccessResult(cycles, hpa, hit, table_refs + checker_refs + 1, checker_refs)

    #: The hart's run loop, run on this VM (see :meth:`access_run`).
    _run = Hart.access_run

    def access_run(self, gva: int, stride: int, count: int, access: AccessType = AccessType.READ) -> int:
        """Charge *count* guest references at ``gva, gva+stride, ...``; returns cycles.

        State-identical to *count* :meth:`access` calls: this is
        :meth:`Hart.access_run <repro.soc.machine.Hart.access_run>`, run with
        the combined TLB as ``self.tlb`` and the shared scalar step, under
        the host machine's hook set.
        """
        return self._run(self.guest_pt, gva, stride, count, access, S)[0]

    #: Paper-compatible name for :meth:`access` (the hlv.d probe).
    guest_access = access
