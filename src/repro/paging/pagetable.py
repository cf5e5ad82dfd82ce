"""RISC-V radix page tables (Sv39 / Sv48 / Sv57).

Builds real page tables in simulated physical memory using the RISC-V PTE
layout, so the page-table walker performs genuine memory references against
genuine table pages.  Page-table pages are allocated through a caller-supplied
:class:`~repro.mem.allocator.FrameAllocator` — this is the hook Penglai-HPMP
uses to place all PT pages inside one contiguous "fast" GMS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..common.errors import ConfigurationError, PageFault
from ..common.types import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, AccessType, Permission
from ..mem.physical import PhysicalMemory

PTE_V = 1 << 0
PTE_R = 1 << 1
PTE_W = 1 << 2
PTE_X = 1 << 3
PTE_U = 1 << 4
PTE_G = 1 << 5
PTE_A = 1 << 6
PTE_D = 1 << 7
PTE_PPN_SHIFT = 10

VPN_BITS = 9
PTES_PER_PAGE = 1 << VPN_BITS

#: Supported translation modes -> number of radix levels.
MODES = {"sv39": 3, "sv48": 4, "sv57": 5}


def pte_encode(ppn: int, perm: Permission, user: bool = True, valid: bool = True) -> int:
    """Encode a leaf PTE from a physical page number and permission."""
    bits = (ppn << PTE_PPN_SHIFT) | PTE_A | PTE_D
    if valid:
        bits |= PTE_V
    if perm.r:
        bits |= PTE_R
    if perm.w:
        bits |= PTE_W
    if perm.x:
        bits |= PTE_X
    if user:
        bits |= PTE_U
    return bits


def pte_pointer(ppn: int) -> int:
    """Encode a non-leaf PTE pointing at the next-level table page."""
    return (ppn << PTE_PPN_SHIFT) | PTE_V


def pte_is_valid(pte: int) -> bool:
    return bool(pte & PTE_V)


def pte_is_leaf(pte: int) -> bool:
    """A valid PTE with any of R/W/X set is a leaf (RISC-V rule)."""
    return bool(pte & (PTE_R | PTE_W | PTE_X))


def pte_perm(pte: int) -> Permission:
    return Permission(r=bool(pte & PTE_R), w=bool(pte & PTE_W), x=bool(pte & PTE_X))


def pte_ppn(pte: int) -> int:
    return pte >> PTE_PPN_SHIFT


@dataclass(frozen=True)
class WalkStep:
    """One page-table reference made during a walk.

    ``level`` counts down: ``levels-1`` is the root, 0 the leaf level —
    note the paper's Figure 2 labels these L2/L1/L0 for Sv39.
    """

    level: int
    pte_addr: int
    pte: int


@dataclass(frozen=True)
class Translation:
    """The result of a successful walk: PA, permission, and the steps taken."""

    paddr: int
    perm: Permission
    user: bool
    page_size: int
    steps: Tuple[WalkStep, ...]


class PageTable:
    """A radix page table living in simulated physical memory.

    Parameters
    ----------
    memory:
        Backing physical memory that stores the table pages.
    alloc_pt_page:
        Callable returning the base PA of a fresh, zeroed 4 KiB frame for a
        page-table page.  Penglai-HPMP passes an allocator bound to the
        contiguous PT region.
    mode:
        ``"sv39"`` (default), ``"sv48"``, or ``"sv57"``.
    """

    def __init__(
        self,
        memory: PhysicalMemory,
        alloc_pt_page: Callable[[], int],
        mode: str = "sv39",
    ):
        if mode not in MODES:
            raise ConfigurationError(f"unknown translation mode {mode!r}; options: {sorted(MODES)}")
        self.memory = memory
        self.mode = mode
        self.levels = MODES[mode]
        self._alloc_pt_page = alloc_pt_page
        self.pt_pages: List[int] = []
        # VPN -> Translation memo for walk(), plus VPN -> the memory epoch at
        # which that entry was last validated.  A reuse at the same epoch
        # reads nothing; after any write it re-validates the cached PTE
        # values against memory, so no explicit invalidation is needed (or
        # possible to miss).  The epochs sit in a dict of their own so that
        # no memo entry gains an object the garbage collector tracks.
        self._walk_cache: Dict[int, Translation] = {}
        self._walk_epoch: Dict[int, int] = {}
        self.root_pa = self._new_table_page()

    # -- construction -----------------------------------------------------

    def _new_table_page(self) -> int:
        page = self._alloc_pt_page()
        if page % PAGE_SIZE:
            raise ConfigurationError(f"PT page {page:#x} not page aligned")
        self.memory.fill(page, PAGE_SIZE, 0)
        self.pt_pages.append(page)
        return page

    def _vpn(self, va: int, level: int) -> int:
        return (va >> (PAGE_SHIFT + VPN_BITS * level)) & (PTES_PER_PAGE - 1)

    def _pte_addr(self, table_pa: int, va: int, level: int) -> int:
        return table_pa + self._vpn(va, level) * 8

    def map_page(
        self,
        va: int,
        pa: int,
        perm: Permission = Permission.rw(),
        user: bool = True,
        level: int = 0,
    ) -> None:
        """Map one page at radix *level* (0 = 4 KiB; 1 = 2 MiB; 2 = 1 GiB).

        Intermediate table pages are allocated on demand.  Remapping an
        existing leaf overwrites it; mapping a huge page over an existing
        subtree raises :class:`ConfigurationError`.
        """
        page_size = PAGE_SIZE << (VPN_BITS * level)
        if va % page_size or pa % page_size:
            raise ConfigurationError(
                f"map_page: va={va:#x} pa={pa:#x} not aligned to level-{level} size {page_size:#x}"
            )
        table = self.root_pa
        for lvl in range(self.levels - 1, level, -1):
            pte_addr = self._pte_addr(table, va, lvl)
            pte = self.memory.read64(pte_addr)
            if not pte_is_valid(pte):
                next_table = self._new_table_page()
                self.memory.write64(pte_addr, pte_pointer(next_table >> PAGE_SHIFT))
                table = next_table
            elif pte_is_leaf(pte):
                raise ConfigurationError(
                    f"map_page: VA {va:#x} already covered by a level-{lvl} huge page"
                )
            else:
                table = pte_ppn(pte) << PAGE_SHIFT
        leaf_addr = self._pte_addr(table, va, level)
        self.memory.write64(leaf_addr, pte_encode(pa >> PAGE_SHIFT, perm, user=user))

    def map_range(
        self,
        va: int,
        pa: int,
        size: int,
        perm: Permission = Permission.rw(),
        user: bool = True,
    ) -> None:
        """Map a 4 KiB-granular identity-offset range."""
        if va % PAGE_SIZE or pa % PAGE_SIZE or size % PAGE_SIZE:
            raise ConfigurationError("map_range arguments must be page aligned")
        for offset in range(0, size, PAGE_SIZE):
            self.map_page(va + offset, pa + offset, perm, user=user)

    def unmap_page(self, va: int) -> bool:
        """Invalidate the leaf PTE for *va*; return True if it was mapped."""
        table = self.root_pa
        for lvl in range(self.levels - 1, -1, -1):
            pte_addr = self._pte_addr(table, va, lvl)
            pte = self.memory.read64(pte_addr)
            if not pte_is_valid(pte):
                return False
            if pte_is_leaf(pte):
                self.memory.write64(pte_addr, 0)
                return True
            table = pte_ppn(pte) << PAGE_SHIFT
        return False

    # -- walking -----------------------------------------------------------

    def walk(self, va: int) -> Translation:
        """Functional (untimed) walk; raises :class:`PageFault` on failure.

        Successful walks are memoised per VPN as the *page-level*
        translation: ``paddr`` is the PA of *va*'s 4 KiB page.  A walk of a
        page-aligned VA returns that memo object itself, with no allocation
        (the timed walkers walk ``va & ~PAGE_MASK`` and add the offset
        themselves); any other VA gets a copy carrying its offset.

        Memo entries are *validated* on reuse.  While the memory's write
        ``epoch`` is the one the entry was last validated at, nothing has
        been written and the entry is returned without a read.  After any
        write, the entry is returned only when every PTE it read still
        holds the value it read (and is then stamped with the new epoch),
        so any write to table memory — through this class or around it, or
        a guest view remapping a page — transparently forces a fresh walk.
        The timed walker re-issues the step references itself, so
        memoisation changes no cycle, reference or cache-state accounting.
        """
        vpn = va >> PAGE_SHIFT
        page = self._walk_cache.get(vpn)
        if page is not None:
            memory = self.memory
            epoch = memory.epoch
            if self._walk_epoch[vpn] != epoch:
                read64 = memory.read64
                if all(read64(s.pte_addr) == s.pte for s in page.steps):
                    self._walk_epoch[vpn] = epoch
                else:
                    page = None
        if page is None:
            page = self._walk_page(va)
        offset = va & PAGE_MASK
        if not offset:
            return page
        return Translation(page.paddr | offset, page.perm, page.user, page.page_size, page.steps)

    def _walk_page(self, va: int) -> Translation:
        """Read the radix tree for *va*'s page and memoise the page-level result."""
        steps: List[WalkStep] = []
        table = self.root_pa
        for lvl in range(self.levels - 1, -1, -1):
            pte_addr = self._pte_addr(table, va, lvl)
            pte = self.memory.read64(pte_addr)
            steps.append(WalkStep(lvl, pte_addr, pte))
            if not pte_is_valid(pte):
                raise PageFault(va, f"invalid PTE at level {lvl}")
            if pte_is_leaf(pte):
                page_size = PAGE_SIZE << (VPN_BITS * lvl)
                if (pte_ppn(pte) << PAGE_SHIFT) % page_size:
                    raise PageFault(va, f"misaligned level-{lvl} superpage")
                paddr = (pte_ppn(pte) << PAGE_SHIFT) | (va & (page_size - 1) & ~PAGE_MASK)
                page = Translation(paddr, pte_perm(pte), bool(pte & PTE_U), page_size, tuple(steps))
                vpn = va >> PAGE_SHIFT
                self._walk_cache[vpn] = page
                self._walk_epoch[vpn] = self.memory.epoch
                return page
            table = pte_ppn(pte) << PAGE_SHIFT
        raise PageFault(va, "no leaf PTE found")

    def translate(self, va: int, access: AccessType = AccessType.READ) -> int:
        """Translate *va* and check page permissions; return the PA."""
        result = self.walk(va)
        if not result.perm.allows(access):
            raise PageFault(va, f"page permission {result.perm} denies {access.value}")
        return result.paddr

    def mapped_vas(self) -> Iterator[int]:
        """Yield every mapped 4 KiB-aligned VA (test/debug helper)."""

        def recurse(table: int, level: int, va_prefix: int) -> Iterator[int]:
            for idx in range(PTES_PER_PAGE):
                pte = self.memory.read64(table + idx * 8)
                if not pte_is_valid(pte):
                    continue
                va = va_prefix | (idx << (PAGE_SHIFT + VPN_BITS * level))
                if pte_is_leaf(pte):
                    yield va
                else:
                    yield from recurse(pte_ppn(pte) << PAGE_SHIFT, level - 1, va)

        yield from recurse(self.root_pa, self.levels - 1, 0)

    def pt_page_count(self) -> int:
        """Number of page-table pages this table owns."""
        return len(self.pt_pages)

    def pt_region_bounds(self) -> Optional[Tuple[int, int]]:
        """(min, max+PAGE_SIZE) bounds over all PT pages, or None if empty."""
        if not self.pt_pages:
            return None
        return min(self.pt_pages), max(self.pt_pages) + PAGE_SIZE
