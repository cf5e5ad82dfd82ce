"""PMP Table — the in-DRAM radix permission table (paper §4.3, Figure 6).

A PMP Table maps a *physical* address (as an offset into the region its HPMP
entry covers) to an R/W/X permission:

* **Root table**: one 4 KiB page of 512 root pmptes; each root pmpte covers
  32 MiB.  A root pmpte with any of R/W/X set is a *huge* permission for the
  whole 32 MiB (the "huge page of a permission table" idea); with R=W=X=0 it
  points at a leaf table; with V=0 every access in its 32 MiB faults.
* **Leaf table**: one 4 KiB page of 512 leaf pmptes; each 64-bit leaf pmpte
  packs 4-bit R/W/X permissions for 16 × 4 KiB pages (64 KiB per pmpte).

A 2-level table therefore covers 16 GiB.  The offset into the region is split
(Figure 6-e) into OFF[1] (bits 33:25, root index), OFF[0] (bits 24:16, leaf
index), PageIndex (bits 15:12, nibble select) and the page offset.

For the table-depth ablation the class also supports 3-level tables (an extra
top level of 512 pointers, 8 TiB coverage, using a reserved Mode value) and
1-level flat tables (a contiguous leaf-pmpte array).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..common.errors import ConfigurationError
from ..common.types import PAGE_SHIFT, PAGE_SIZE, MemRegion, Permission
from ..mem.allocator import FrameAllocator
from ..mem.physical import PhysicalMemory

# Root pmpte layout (Figure 6-c): V bit 0, R/W/X bits 1..3, PPN from bit 14.
ROOT_V = 1 << 0
ROOT_R = 1 << 1
ROOT_W = 1 << 2
ROOT_X = 1 << 3
ROOT_PPN_SHIFT = 14

PAGES_PER_LEAF_PTE = 16  # one 64-bit leaf pmpte covers 16 x 4 KiB pages
LEAF_PTE_SPAN = PAGES_PER_LEAF_PTE * PAGE_SIZE  # 64 KiB
ENTRIES_PER_TABLE = 512
LEAF_TABLE_SPAN = ENTRIES_PER_TABLE * LEAF_PTE_SPAN  # 32 MiB per leaf table
ROOT_TABLE_SPAN = ENTRIES_PER_TABLE * LEAF_TABLE_SPAN  # 16 GiB per root table
TOP_TABLE_SPAN = ENTRIES_PER_TABLE * ROOT_TABLE_SPAN  # 8 TiB (3-level ablation)

#: Address-register Mode values (Figure 6-b).  0 = 2-level (architected);
#: 1 and 2 use reserved encodings for the depth ablation.
MODE_2LEVEL = 0
MODE_3LEVEL = 1
MODE_FLAT = 2


def root_pmpte_pointer(leaf_table_pa: int) -> int:
    """Encode a root pmpte pointing at a leaf table page."""
    return ROOT_V | ((leaf_table_pa >> PAGE_SHIFT) << ROOT_PPN_SHIFT)


def root_pmpte_huge(perm: Permission) -> int:
    """Encode a root pmpte carrying a final permission for its whole 32 MiB."""
    bits = ROOT_V
    if perm.r:
        bits |= ROOT_R
    if perm.w:
        bits |= ROOT_W
    if perm.x:
        bits |= ROOT_X
    return bits


def root_pmpte_is_valid(pmpte: int) -> bool:
    return bool(pmpte & ROOT_V)


def root_pmpte_is_huge(pmpte: int) -> bool:
    """Valid with any of R/W/X set -> final permission (huge-page analogue)."""
    return bool(pmpte & (ROOT_R | ROOT_W | ROOT_X))


def root_pmpte_perm(pmpte: int) -> Permission:
    return Permission(r=bool(pmpte & ROOT_R), w=bool(pmpte & ROOT_W), x=bool(pmpte & ROOT_X))


def root_pmpte_leaf_pa(pmpte: int) -> int:
    return (pmpte >> ROOT_PPN_SHIFT) << PAGE_SHIFT


def leaf_pmpte_set(pmpte: int, page_index: int, perm: Permission) -> int:
    """Return *pmpte* with page *page_index*'s 4-bit permission replaced."""
    if not 0 <= page_index < PAGES_PER_LEAF_PTE:
        raise ConfigurationError(f"page index {page_index} out of range")
    shift = page_index * 4
    return (pmpte & ~(0xF << shift)) | (perm.bits << shift)


def leaf_pmpte_get(pmpte: int, page_index: int) -> Permission:
    """Extract page *page_index*'s permission from a leaf pmpte.

    Reads the full 4-bit nibble (the same field width ``leaf_pmpte_set``
    clears); :meth:`Permission.from_bits` ignores the reserved bit 3, so a
    future 4th permission bit cannot alias between reads and writes.
    """
    if not 0 <= page_index < PAGES_PER_LEAF_PTE:
        raise ConfigurationError(f"page index {page_index} out of range")
    return Permission.from_bits((pmpte >> (page_index * 4)) & 0xF)


def leaf_pmpte_uniform(perm: Permission) -> int:
    """A leaf pmpte granting *perm* to all 16 pages."""
    return perm.bits * 0x1111_1111_1111_1111


def split_offset(offset: int) -> Tuple[int, int, int]:
    """Split a region offset into (OFF[1], OFF[0], PageIndex) per Figure 6-e."""
    page_index = (offset >> PAGE_SHIFT) & (PAGES_PER_LEAF_PTE - 1)
    off0 = (offset >> 16) & (ENTRIES_PER_TABLE - 1)
    off1 = (offset >> 25) & (ENTRIES_PER_TABLE - 1)
    return off1, off0, page_index


@dataclass(frozen=True)
class TableLookup:
    """Result of a functional PMP-table lookup.

    ``perm`` is None when the access faults (invalid root pmpte).
    ``pmpte_addrs`` lists the physical addresses of the table entries a
    hardware walker would read, in order — the timed walker charges one
    memory reference per element.
    """

    perm: Optional[Permission]
    pmpte_addrs: Tuple[int, ...]


class PMPTable:
    """A PMP Table instance rooted in simulated physical memory.

    Parameters
    ----------
    memory:
        Backing store for the table pages.
    allocator:
        Frame allocator for table pages (root, leaf, and — for the flat
        ablation — the contiguous array).
    region:
        The physical region this table manages permissions for.  Must fit
        the coverage of the selected mode (16 GiB for 2-level).
    mode:
        MODE_2LEVEL (architected, default), MODE_3LEVEL or MODE_FLAT
        (ablations using reserved Mode encodings).
    """

    def __init__(
        self,
        memory: PhysicalMemory,
        allocator: FrameAllocator,
        region: MemRegion,
        mode: int = MODE_2LEVEL,
    ):
        coverage = {MODE_2LEVEL: ROOT_TABLE_SPAN, MODE_3LEVEL: TOP_TABLE_SPAN, MODE_FLAT: ROOT_TABLE_SPAN}
        if mode not in coverage:
            raise ConfigurationError(f"unknown PMP-table mode {mode}")
        if region.base % PAGE_SIZE or region.size % PAGE_SIZE:
            raise ConfigurationError(f"PMP-table region {region} not page aligned")
        if region.size > coverage[mode]:
            raise ConfigurationError(
                f"region {region} exceeds mode-{mode} coverage {coverage[mode]:#x}"
            )
        self.memory = memory
        self.allocator = allocator
        self.region = region
        self.mode = mode
        self.table_pages: List[int] = []
        self.entry_writes = 0  # total 64-bit pmpte writes (monitor charges these)
        # page -> (TableLookup, pmpte words, memory epoch at which the entry
        # was last validated) memo for lookup(); reuse after a write is
        # validated against memory, so writes invalidate implicitly.
        self._lookup_cache: Dict[int, Tuple[TableLookup, Tuple[int, ...], int]] = {}
        if mode == MODE_FLAT:
            num_ptes = (region.size + LEAF_PTE_SPAN - 1) // LEAF_PTE_SPAN
            num_frames = max(1, (num_ptes * 8 + PAGE_SIZE - 1) // PAGE_SIZE)
            self.root_pa = allocator.alloc_contiguous(num_frames)
            for i in range(num_frames):
                page = self.root_pa + i * PAGE_SIZE
                memory.fill(page, PAGE_SIZE, 0)
                self.table_pages.append(page)
        else:
            self.root_pa = self._new_table_page()

    # -- internals ---------------------------------------------------------

    def _new_table_page(self) -> int:
        page = self.allocator.alloc()
        self.memory.fill(page, PAGE_SIZE, 0)
        self.table_pages.append(page)
        return page

    def _write(self, addr: int, value: int) -> None:
        self.memory.write64(addr, value)
        self.entry_writes += 1

    def _offset(self, paddr: int) -> int:
        if not self.region.contains(paddr):
            raise ConfigurationError(f"PA {paddr:#x} outside table region {self.region}")
        return paddr - self.region.base

    def _release_table_page(self, page: int) -> None:
        """Return a table page to the allocator and drop it from the footprint."""
        self.table_pages.remove(page)
        self.memory.fill(page, PAGE_SIZE, 0)
        self.allocator.free(page)

    def _root_table_for(self, offset: int, create: bool) -> Optional[int]:
        """Resolve (and optionally create) the root table covering *offset*.

        For 2-level and flat tables this is ``root_pa``; a 3-level table
        indirects through the top level, allocating the intermediate root
        page on demand.  Never touches leaf tables, so huge-pmpte writes can
        resolve their slot without allocating (or shattering) leaves.
        """
        if self.mode != MODE_3LEVEL:
            return self.root_pa
        top_idx = (offset >> 34) & (ENTRIES_PER_TABLE - 1)
        top_addr = self.root_pa + top_idx * 8
        top = self.memory.read64(top_addr)
        if not root_pmpte_is_valid(top):
            if not create:
                return None
            root_table = self._new_table_page()
            self._write(top_addr, root_pmpte_pointer(root_table))
            return root_table
        return root_pmpte_leaf_pa(top)

    def _leaf_table_for(self, offset: int, create: bool) -> Optional[int]:
        """Resolve (and optionally create) the leaf table covering *offset*.

        Shatters a huge root pmpte into a uniform leaf table when a
        finer-grained write lands inside it.
        """
        root_table = self._root_table_for(offset, create)
        if root_table is None:
            return None
        off1, _off0, _pidx = split_offset(offset)
        root_addr = root_table + off1 * 8
        root = self.memory.read64(root_addr)
        if not root_pmpte_is_valid(root):
            if not create:
                return None
            leaf = self._new_table_page()
            self._write(root_addr, root_pmpte_pointer(leaf))
            return leaf
        if root_pmpte_is_huge(root):
            if not create:
                return None
            leaf = self._new_table_page()
            self.memory.fill(leaf, PAGE_SIZE, leaf_pmpte_uniform(root_pmpte_perm(root)))
            self.entry_writes += ENTRIES_PER_TABLE
            self._write(root_addr, root_pmpte_pointer(leaf))
            return leaf
        return root_pmpte_leaf_pa(root)

    # -- mutation (monitor-only in a real system) ---------------------------

    def set_page_perm(self, paddr: int, perm: Permission) -> None:
        """Set one 4 KiB page's permission."""
        if paddr % PAGE_SIZE:
            raise ConfigurationError(f"PA {paddr:#x} not page aligned")
        offset = self._offset(paddr)
        if self.mode == MODE_FLAT:
            pte_addr = self.root_pa + (offset // LEAF_PTE_SPAN) * 8
            _off1, _off0, page_index = split_offset(offset)
            self._write(pte_addr, leaf_pmpte_set(self.memory.read64(pte_addr), page_index, perm))
            return
        leaf = self._leaf_table_for(offset, create=True)
        assert leaf is not None
        _off1, off0, page_index = split_offset(offset)
        pte_addr = leaf + off0 * 8
        self._write(pte_addr, leaf_pmpte_set(self.memory.read64(pte_addr), page_index, perm))

    def set_range(self, base: int, size: int, perm: Permission, huge_ok: bool = True) -> int:
        """Set a page-aligned range's permission; returns pmpte writes done.

        Uses huge root pmptes for fully-covered, 32 MiB-aligned chunks (the
        Figure 14-d optimization; disable with ``huge_ok=False`` to force
        page-granular leaf tables, as a system whose domains interleave at
        page granularity would have) and whole-leaf-pmpte writes for 64 KiB
        aligned spans; falls back to per-page nibble updates at the edges.
        Each run of whole leaf pmptes inside one leaf table (or the rest of
        the range, for a flat table) is stored with one memory fill, but
        still counts one write per pmpte: the return value and
        ``entry_writes`` are what the monitor charges.
        """
        if base % PAGE_SIZE or size % PAGE_SIZE:
            raise ConfigurationError("set_range arguments must be page aligned")
        if size == 0:
            return 0
        if not self.region.contains(base, size):
            raise ConfigurationError(f"range [{base:#x},+{size:#x}) outside {self.region}")
        writes_before = self.entry_writes
        addr = base
        end = base + size
        while addr < end:
            offset = self._offset(addr)
            if (
                huge_ok
                and self.mode != MODE_FLAT
                and offset % LEAF_TABLE_SPAN == 0
                and addr + LEAF_TABLE_SPAN <= end
            ):
                root_table = self._root_table_for(offset, create=True)
                off1, _o0, _pi = split_offset(offset)
                root_addr = root_table + off1 * 8
                old = self.memory.read64(root_addr)
                # A permission-less huge write must leave the pmpte invalid:
                # ROOT_V with R=W=X=0 would decode as a pointer to PPN 0.
                new = root_pmpte_huge(perm) if perm != Permission.none() else 0
                self._write(root_addr, new)
                if root_pmpte_is_valid(old) and not root_pmpte_is_huge(old):
                    # The slot pointed at a leaf table; the huge pmpte now
                    # covers its whole span, so reclaim the page.
                    self._release_table_page(root_pmpte_leaf_pa(old))
                addr += LEAF_TABLE_SPAN
                continue
            if offset % LEAF_PTE_SPAN == 0 and addr + LEAF_PTE_SPAN <= end:
                count = (end - addr) // LEAF_PTE_SPAN
                if self.mode == MODE_FLAT:
                    pte_addr = self.root_pa + (offset // LEAF_PTE_SPAN) * 8
                else:
                    leaf = self._leaf_table_for(offset, create=True)
                    assert leaf is not None
                    _o1, off0, _pi = split_offset(offset)
                    pte_addr = leaf + off0 * 8
                    count = min(count, ENTRIES_PER_TABLE - off0)
                self.memory.fill(pte_addr, count * 8, leaf_pmpte_uniform(perm))
                self.entry_writes += count
                addr += count * LEAF_PTE_SPAN
                continue
            self.set_page_perm(addr, perm)
            addr += PAGE_SIZE
        return self.entry_writes - writes_before

    def clear_range(self, base: int, size: int) -> int:
        """Revoke all permissions on a range (sets R=W=X=0 per page)."""
        return self.set_range(base, size, Permission.none())

    # -- lookup -------------------------------------------------------------

    def lookup(self, paddr: int) -> TableLookup:
        """Functional walk: permission for *paddr* plus the pmpte PAs read.

        Results are memoised per page together with the pmpte words they
        were derived from and the memory's write ``epoch``.  A reuse at the
        same epoch reads nothing, since nothing has been written.  After
        any write, the words are re-read and compared (and the entry
        stamped with the new epoch if they all match), so monitor writes
        (or table page recycling) can never serve a stale permission — the
        timed walker still charges every pmpte reference itself.
        """
        page = paddr >> PAGE_SHIFT
        memory = self.memory
        cached = self._lookup_cache.get(page)
        if cached is not None:
            result, values, epoch = cached
            if epoch == memory.epoch:
                return result
            read64 = memory.read64
            for addr, value in zip(result.pmpte_addrs, values):
                if read64(addr) != value:
                    break
            else:
                self._lookup_cache[page] = (result, values, memory.epoch)
                return result
        result = self._lookup_uncached(paddr)
        read64 = memory.read64
        self._lookup_cache[page] = (
            result,
            tuple(read64(addr) for addr in result.pmpte_addrs),
            memory.epoch,
        )
        return result

    def _lookup_uncached(self, paddr: int) -> TableLookup:
        offset = self._offset(paddr)
        addrs: List[int] = []
        if self.mode == MODE_FLAT:
            pte_addr = self.root_pa + (offset // LEAF_PTE_SPAN) * 8
            addrs.append(pte_addr)
            _o1, _o0, page_index = split_offset(offset)
            return TableLookup(leaf_pmpte_get(self.memory.read64(pte_addr), page_index), tuple(addrs))
        root_table = self.root_pa
        if self.mode == MODE_3LEVEL:
            top_idx = (offset >> 34) & (ENTRIES_PER_TABLE - 1)
            top_addr = self.root_pa + top_idx * 8
            addrs.append(top_addr)
            top = self.memory.read64(top_addr)
            if not root_pmpte_is_valid(top):
                return TableLookup(None, tuple(addrs))
            root_table = root_pmpte_leaf_pa(top)
        off1, off0, page_index = split_offset(offset)
        root_addr = root_table + off1 * 8
        addrs.append(root_addr)
        root = self.memory.read64(root_addr)
        if not root_pmpte_is_valid(root):
            return TableLookup(None, tuple(addrs))
        if root_pmpte_is_huge(root):
            return TableLookup(root_pmpte_perm(root), tuple(addrs))
        leaf_addr = root_pmpte_leaf_pa(root) + off0 * 8
        addrs.append(leaf_addr)
        return TableLookup(leaf_pmpte_get(self.memory.read64(leaf_addr), page_index), tuple(addrs))

    def footprint_bytes(self) -> int:
        """DRAM consumed by table pages."""
        return len(self.table_pages) * PAGE_SIZE


def tables_needed(total_size: int) -> int:
    """How many 2-level PMP Tables cover *total_size* bytes (paper §4.3)."""
    return max(1, (total_size + ROOT_TABLE_SPAN - 1) // ROOT_TABLE_SPAN)
