"""System builder: one-call construction of a complete simulated machine.

``System`` lays out physical memory (permission-table frames, a contiguous
NAPOT-aligned page-table region — the "fast" GMS — and a data pool), builds
the requested isolation checker, and exposes :class:`AddressSpace` for
workloads to map memory through.

This is the flat (single-domain) environment used by the microbenchmark and
application experiments; multi-domain TEE setups live in :mod:`repro.tee`.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..common.errors import ConfigurationError
from ..common.params import MachineParams, machine_params
from ..common.types import MIB, PAGE_SIZE, AccessType, MemRegion, Permission
from ..isolation.factory import CHECKER_KINDS, FlatSetup, make_flat_checker
from ..isolation.pmptable import MODE_2LEVEL
from ..mem.allocator import FrameAllocator
from ..mem.physical import PhysicalMemory
from ..paging.pagetable import PageTable
from .machine import Machine

DRAM_BASE = 0x8000_0000

# Default physical layout (offsets from DRAM base).
TABLE_FRAMES_MIB = 8  # permission-table pages (minimum; scales with DRAM)
RESERVED_MIB = 8  # monitor image, boot data (kept out of all pools)
PT_REGION_MIB = 16  # contiguous page-table region ("fast" GMS; NAPOT)


def _table_region_mib(mem_mib: int) -> int:
    """Permission-table pool size: enough for ~100 per-domain tables.

    One 2-level table over *mem_mib* MiB needs ``mem_mib/32`` leaf pages plus
    a root; keep a power-of-two MiB size so the monitor's NAPOT entry fits.
    """
    needed = max(TABLE_FRAMES_MIB, mem_mib // 16)
    return 1 << (needed - 1).bit_length()


class AddressSpace:
    """One process/domain address space over a :class:`System`.

    Provides page-table construction plus anonymous-mapping helpers that pull
    data frames from the system's data pool (contiguously or scattered, for
    the fragmentation experiments).
    """

    def __init__(self, system: "System", asid: int = 0, mode: str = "sv39"):
        self.system = system
        self.asid = asid
        self.page_table = PageTable(system.memory, system.alloc_pt_page, mode=mode)
        self._mappings: Dict[int, int] = {}  # va -> pa (page granular)
        self._owned_frames: set = set()  # frames we allocated (freed at unmap)

    def map(
        self,
        va: int,
        size: int,
        perm: Permission = Permission.rw(),
        user: bool = True,
        contiguous_pa: bool = True,
    ) -> None:
        """Map ``[va, va+size)`` to freshly allocated physical frames."""
        if va % PAGE_SIZE or size % PAGE_SIZE:
            raise ConfigurationError("map arguments must be page aligned")
        if contiguous_pa:
            base_pa = self.system.data_frames.alloc_contiguous(size // PAGE_SIZE)
            for offset in range(0, size, PAGE_SIZE):
                self.page_table.map_page(va + offset, base_pa + offset, perm, user=user)
                self._mappings[va + offset] = base_pa + offset
                self._owned_frames.add(base_pa + offset)
        else:
            for offset in range(0, size, PAGE_SIZE):
                pa = self.system.data_frames.alloc()
                self.page_table.map_page(va + offset, pa, perm, user=user)
                self._mappings[va + offset] = pa
                self._owned_frames.add(pa)

    def map_from(
        self,
        allocator: FrameAllocator,
        va: int,
        size: int,
        perm: Permission = Permission.rw(),
        user: bool = True,
    ) -> None:
        """Map ``[va, va+size)`` to frames drawn from *allocator* (non-owning).

        Used for enclave memory: the frames belong to a GMS whose lifetime
        the secure monitor manages, so unmap will not free them.
        """
        if va % PAGE_SIZE or size % PAGE_SIZE:
            raise ConfigurationError("map_from arguments must be page aligned")
        for offset in range(0, size, PAGE_SIZE):
            pa = allocator.alloc()
            self.page_table.map_page(va + offset, pa, perm, user=user)
            self._mappings[va + offset] = pa

    def map_shared(self, va: int, pa: int, size: int, perm: Permission = Permission.rw(), user: bool = True) -> None:
        """Map ``[va, va+size)`` onto existing physical frames (no allocation)."""
        self.page_table.map_range(va, pa, size, perm, user=user)
        for offset in range(0, size, PAGE_SIZE):
            self._mappings[va + offset] = pa + offset

    def unmap(self, va: int, size: int) -> None:
        """Unmap and free the frames backing ``[va, va+size)``."""
        for offset in range(0, size, PAGE_SIZE):
            pa = self._mappings.pop(va + offset, None)
            if pa is None:
                continue
            self.page_table.unmap_page(va + offset)
            if pa in self._owned_frames:
                self._owned_frames.discard(pa)
                self.system.data_frames.free(pa)

    def pa_of(self, va: int) -> Optional[int]:
        """The PA backing page-aligned *va*, if mapped by this space."""
        return self._mappings.get(va & ~(PAGE_SIZE - 1))

    @property
    def mapped_pages(self) -> int:
        return len(self._mappings)


class System:
    """A fully wired simulated machine.

    Parameters
    ----------
    machine:
        Preset name (``"rocket"`` / ``"boom"``) or a ``MachineParams``: the
        one source of the machine's timing and geometry, PMPTW-Cache and
        page-walk-cache settings included.
    checker_kind:
        One of ``("none", "pmp", "pmpt", "hpmp")``.
    mem_mib:
        Physical memory size in MiB (default 256).
    scatter_data_frames:
        Hand out data frames in shuffled order (fragmented-PA experiments).
    harts:
        Number of harts in the machine (default 1, the classic single-hart
        system — byte-identical construction).  Secondary harts get private
        L1/L2/TLB state over the shared LLC, and per-hart checker views of
        the one register file (see :meth:`Machine.attach_checker
        <repro.soc.machine.Machine.attach_checker>`).
    seed:
        Seeds the scattered data-frame order.
    """

    def __init__(
        self,
        machine: "str | MachineParams" = "rocket",
        checker_kind: str = "pmp",
        mem_mib: int = 256,
        scatter_data_frames: bool = False,
        table_mode: int = MODE_2LEVEL,
        pmp_entries: int = 16,
        seed: int = 0,
        harts: int = 1,
    ):
        if checker_kind not in CHECKER_KINDS:
            raise ConfigurationError(f"unknown checker kind {checker_kind!r}")
        # Where page-table pages live: "region" (the contiguous PT region,
        # the HPMP OS modification) for the hpmp checker, "pool" (the
        # general frame pool, interleaved with data, as an unmodified kernel
        # does) otherwise: the paper's Penglai-HPMP vs Penglai-PMP/PMPT.
        self.pt_placement = "region" if checker_kind == "hpmp" else "pool"
        self.pmp_entries = pmp_entries
        self.params = machine if isinstance(machine, MachineParams) else machine_params(machine)
        self.checker_kind = checker_kind
        self.memory = PhysicalMemory(mem_mib * MIB, base=DRAM_BASE)

        table_mib = _table_region_mib(mem_mib)
        table_base = DRAM_BASE
        # Pad the reserved area so the PT region stays NAPOT-aligned.
        reserved_mib = (16 - table_mib % 16) % 16
        if reserved_mib < RESERVED_MIB:
            reserved_mib += 16
        reserved_base = table_base + table_mib * MIB
        pt_base = reserved_base + reserved_mib * MIB
        data_base = pt_base + PT_REGION_MIB * MIB
        if data_base >= DRAM_BASE + mem_mib * MIB:
            raise ConfigurationError(f"mem_mib={mem_mib} too small for the default layout")

        self.table_region = MemRegion(table_base, table_mib * MIB)
        self.pt_region = MemRegion(pt_base, PT_REGION_MIB * MIB)
        self.data_region = MemRegion(data_base, DRAM_BASE + mem_mib * MIB - data_base)

        self.table_frames = FrameAllocator(self.table_region)
        self.pt_frames = FrameAllocator(self.pt_region)
        self.data_frames = FrameAllocator(self.data_region, scatter=scatter_data_frames, seed=seed)

        self.machine = Machine(self.params, self.memory, harts=harts)
        self.setup: FlatSetup = make_flat_checker(
            checker_kind,
            self.memory,
            self.machine.hierarchy,
            dram=self.memory.region,
            pt_region=self.pt_region,
            table_frames=self.table_frames,
            pmptw_cache_enabled=self.params.pmptw_cache_enabled,
            pmptw_cache_entries=self.params.pmptw_cache_entries,
            table_mode=table_mode,
            num_entries=pmp_entries,
        )
        self.machine.attach_checker(self.setup.checker)
        self._next_asid = 0

    @property
    def checker(self):
        return self.setup.checker

    def alloc_pt_page(self) -> int:
        """Allocate a page-table page per the configured placement policy.

        ``"pool"`` placement draws from scattered free-list positions — an
        unmodified kernel's PT pages are dispersed by buddy-allocator churn,
        which is exactly why their permission-table checks miss in caches.
        """
        if self.pt_placement == "region":
            return self.pt_frames.alloc()
        return self.data_frames.alloc_scattered()

    def new_address_space(self, mode: str = "sv39") -> AddressSpace:
        """Create a fresh address space with a unique ASID."""
        space = AddressSpace(self, asid=self._next_asid, mode=mode)
        self._next_asid += 1
        return space

    def access(self, space: AddressSpace, va: int, access: AccessType = AccessType.READ, **kwargs):
        """Convenience: one timed access through *space*'s page table."""
        return self.machine.access(space.page_table, va, access, asid=space.asid, **kwargs)
