"""A miniature OS-kernel model.

Provides just enough kernel behaviour to reproduce the paper's OS-level
experiments: a kernel address space with a huge-page *direct map* of all
physical memory (Linux-style), kernel text/heap regions, user processes with
demand paging, fork/exec, and context switches.  Every kernel action is
executed as real memory accesses on the simulated machine, so page-table
writes, copies and struct walks are all subject to the isolation checker —
which is precisely where PMP Table pays and HPMP saves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..common.errors import WorkloadError
from ..common.types import MIB, PAGE_SIZE, AccessType, Permission, PrivilegeMode
from ..soc.system import AddressSpace, System

#: Kernel virtual layout (Sv39 gives 256 GiB of kernel half; we use the top).
DIRECT_MAP_VA = 0x40_0000_0000  # VA = DIRECT_MAP_VA + (PA - dram_base)
KERNEL_TEXT_VA = 0x30_0000_0000
KERNEL_HEAP_VA = 0x31_0000_0000

#: User layout.
USER_TEXT_VA = 0x0000_1000_0000
USER_HEAP_VA = 0x0000_4000_0000
USER_STACK_VA = 0x0000_7000_0000

S = PrivilegeMode.SUPERVISOR
U = PrivilegeMode.USER


@dataclass
class Process:
    """A user process: an address space plus segment geometry."""

    pid: int
    space: AddressSpace
    text_pages: int
    heap_pages: int
    stack_pages: int
    resident: Dict[int, bool] = field(default_factory=dict)  # demand-paged VAs

    @property
    def footprint_pages(self) -> int:
        return self.text_pages + self.heap_pages + self.stack_pages


class KernelModel:
    """The kernel: owns the direct map and drives all privileged accesses.

    Parameters
    ----------
    system:
        The simulated machine (any checker kind).
    text_pages / heap_pages:
        Kernel image and kernel-heap sizes.  Kernel-struct accesses (dentry
        walks, fd tables...) are spread pseudo-randomly over the heap pages.
    """

    def __init__(self, system: System, text_pages: int = 64, heap_pages: int = 2048, seed: int = 0):
        self.system = system
        self.rng = random.Random(seed)
        self.kspace = system.new_address_space()
        self._map_direct_map()
        self.kspace.map(KERNEL_TEXT_VA, text_pages * PAGE_SIZE, Permission.rx(), user=False)
        self.kspace.map(KERNEL_HEAP_VA, heap_pages * PAGE_SIZE, Permission.rw(), user=False)
        self.text_pages = text_pages
        self.heap_pages = heap_pages
        self._next_pid = 1
        self.cycles = 0  # accumulated kernel cycles (reset between measurements)

    def _map_direct_map(self) -> None:
        """Map all of DRAM at DIRECT_MAP_VA using 2 MiB huge pages."""
        memory = self.system.memory
        huge = 2 * MIB
        base = memory.region.base
        size = (memory.region.size // huge) * huge
        for offset in range(0, size, huge):
            self.kspace.page_table.map_page(
                DIRECT_MAP_VA + offset, base + offset, Permission.rw(), user=False, level=1
            )

    # -- primitive kernel accesses -------------------------------------------

    def direct_va(self, pa: int) -> int:
        """Kernel direct-map VA for a physical address."""
        return DIRECT_MAP_VA + (pa - self.system.memory.region.base)

    def _access(self, space: AddressSpace, va: int, access: AccessType, priv: PrivilegeMode) -> int:
        cycles = self.system.machine._access_core(space.page_table, va, access, priv, space.asid)[0]
        self.cycles += cycles
        return cycles

    def _access_run(
        self, space: AddressSpace, va: int, stride: int, count: int, access: AccessType, priv: PrivilegeMode
    ) -> int:
        """A timed run of *count* accesses (one run-loop call); returns cycles."""
        cycles = self.system.machine.access_run(
            space.page_table, va, stride, count, access, priv, space.asid
        )[0]
        self.cycles += cycles
        return cycles

    def kfetch(self, instructions: int, pages: int = 2, page_offset: int = 0) -> int:
        """Fetch *instructions* kernel instructions across *pages* text pages.

        Sequential fetches share cache lines (16 RV64C instructions per line);
        one access is issued per 64-byte line reached.  Lines on one text
        page form a stride-64 run, so the fetch stream is a handful of run-loop
        calls rather than a per-line Python loop.
        """
        cycles = 0
        lines = max(1, instructions // 16)
        lines_per_page = PAGE_SIZE // 64
        line = 0
        while line < lines:
            page = (page_offset + line // lines_per_page) % self.text_pages
            within = line % lines_per_page
            count = min(lines - line, lines_per_page - within)
            va = KERNEL_TEXT_VA + page * PAGE_SIZE + within * 64
            cycles += self._access_run(self.kspace, va, 64, count, AccessType.FETCH, S)
            line += count
        return cycles

    def ktouch_structs(self, num_structs: int, reads_per_struct: int = 2, writes_per_struct: int = 0) -> int:
        """Walk *num_structs* kernel objects scattered over the kernel heap.

        The repeated reads (then writes) per struct are zero-stride runs; a
        group of one reference is one scalar step.
        """
        cycles = 0
        for _ in range(num_structs):
            page = self.rng.randrange(self.heap_pages)
            offset = self.rng.randrange(PAGE_SIZE // 64) * 64
            va = KERNEL_HEAP_VA + page * PAGE_SIZE + offset
            for count, access in ((reads_per_struct, AccessType.READ), (writes_per_struct, AccessType.WRITE)):
                if count == 1:
                    cycles += self._access(self.kspace, va, access, S)
                elif count:
                    cycles += self._access_run(self.kspace, va, 0, count, access, S)
        return cycles

    def copy_to_user(self, process: Process, user_va: int, nbytes: int) -> int:
        """Copy from a kernel buffer to user memory, 64 bytes per iteration."""
        return self._copy(process, user_va, nbytes, to_user=True)

    def copy_from_user(self, process: Process, user_va: int, nbytes: int) -> int:
        return self._copy(process, user_va, nbytes, to_user=False)

    def _copy(self, process: Process, user_va: int, nbytes: int, to_user: bool) -> int:
        cycles = 0
        kbuf_page = self.rng.randrange(self.heap_pages)
        for offset in range(0, max(nbytes, 64), 64):
            kva = KERNEL_HEAP_VA + kbuf_page * PAGE_SIZE + offset % PAGE_SIZE
            uva = user_va + offset
            if to_user:
                cycles += self._access(self.kspace, kva, AccessType.READ, S)
                cycles += self._access(process.space, uva, AccessType.WRITE, S)
            else:
                cycles += self._access(process.space, uva, AccessType.READ, S)
                cycles += self._access(self.kspace, kva, AccessType.WRITE, S)
        return cycles

    def write_pte(self, pt_page_pa: int, index: int = 0) -> int:
        """Timed store to a page-table entry through the direct map."""
        va = self.direct_va(pt_page_pa) + (index % 512) * 8
        return self._access(self.kspace, va, AccessType.WRITE, S)

    def write_pte_run(self, pt_page_pa: int, index: int, count: int) -> int:
        """Timed stores to *count* consecutive PTEs (wrapping at 512).

        Identical references, same order, as *count* :meth:`write_pte` calls
        with ``index, index+1, ...`` — chunked into stride-8 runs at each
        512-entry wrap of the table page.
        """
        base = self.direct_va(pt_page_pa)
        cycles = 0
        i = 0
        while i < count:
            start = (index + i) % 512
            n = min(count - i, 512 - start)
            cycles += self._access_run(self.kspace, base + start * 8, 8, n, AccessType.WRITE, S)
            i += n
        return cycles

    # -- process lifecycle ------------------------------------------------------

    def spawn(
        self,
        text_pages: int = 16,
        heap_pages: int = 32,
        stack_pages: int = 4,
        populate: bool = False,
    ) -> "tuple[Process, int]":
        """Create a process: build its page tables with timed PTE stores.

        Returns (process, cycles).  With ``populate=False`` only the text and
        stack are mapped eagerly; the heap is demand-paged via
        :meth:`handle_fault`.
        """
        space = self.system.new_address_space()
        process = Process(self._next_pid, space, text_pages, heap_pages, stack_pages)
        self._next_pid += 1
        cycles = self.kfetch(200)  # task creation path
        cycles += self.ktouch_structs(8, writes_per_struct=1)
        cycles += self._map_segment(process, USER_TEXT_VA, text_pages, Permission.rx())
        cycles += self._map_segment(process, USER_STACK_VA, stack_pages, Permission.rw())
        if populate:
            cycles += self._map_segment(process, USER_HEAP_VA, heap_pages, Permission.rw())
        return process, cycles

    def _map_segment(self, process: Process, va: int, pages: int, perm: Permission) -> int:
        """Map a segment with a timed PTE store per page.

        ``map`` finishes allocating table pages before any timed store, so
        ``pt_pages[-1]`` is the same page for every index and the per-page
        stores fold into one :meth:`write_pte_run` span.
        """
        space = process.space
        space.map(va, pages * PAGE_SIZE, perm)
        for i in range(pages):
            process.resident[va + i * PAGE_SIZE] = True
        return self.write_pte_run(space.page_table.pt_pages[-1], 0, pages)

    def handle_fault(self, process: Process, va: int) -> int:
        """Demand-page fault: trap, allocate, map, return."""
        page_va = va & ~(PAGE_SIZE - 1)
        if process.resident.get(page_va):
            raise WorkloadError(f"fault on resident page {page_va:#x}")
        cycles = self.kfetch(150)  # trap entry + fault handler
        cycles += self.ktouch_structs(3, writes_per_struct=1)
        process.space.map(page_va, PAGE_SIZE, Permission.rw())
        cycles += self.write_pte(process.space.page_table.pt_pages[-1])
        process.resident[page_va] = True
        return cycles

    def user_access(self, process: Process, va: int, access: AccessType = AccessType.READ) -> int:
        """A user-mode access with demand paging."""
        page_va = va & ~(PAGE_SIZE - 1)
        cycles = 0
        if not process.resident.get(page_va):
            cycles += self.handle_fault(process, va)
        cycles += self._access(process.space, va, access, U)
        return cycles

    def exit_process(self, process: Process) -> int:
        """Tear a process down: walk and free its pages.

        The per-page timed store hits the same root-table VA every time, so
        after the (untimed) unmaps it becomes one zero-stride run — unmap
        issues no timed references and no TLB flush, so hoisting it ahead of
        the stores leaves the reference stream unchanged.
        """
        cycles = self.kfetch(150)
        cycles += self.ktouch_structs(6, writes_per_struct=1)
        pages = list(process.resident)
        for page_va in pages:
            process.space.unmap(page_va, PAGE_SIZE)
        if pages:
            cycles += self._access_run(
                self.kspace,
                self.direct_va(process.space.page_table.root_pa),
                0,
                len(pages),
                AccessType.WRITE,
                S,
            )
        process.resident.clear()
        return cycles

    def fork(self, parent: Process) -> "tuple[Process, int]":
        """Fork: duplicate the parent's page tables (timed PTE reads+writes)."""
        space = self.system.new_address_space()
        child = Process(self._next_pid, space, parent.text_pages, parent.heap_pages, parent.stack_pages)
        self._next_pid += 1
        cycles = self.kfetch(400)
        cycles += self.ktouch_structs(12, writes_per_struct=2)
        for page_va, resident in parent.resident.items():
            if not resident:
                continue
            pa = parent.space.pa_of(page_va)
            child.space.map_shared(page_va, pa, PAGE_SIZE, Permission(r=True), user=True)
            child.resident[page_va] = True
            # Read the parent PTE, write the child PTE (COW setup).
            cycles += self._access(self.kspace, self.direct_va(parent.space.page_table.root_pa), AccessType.READ, S)
            cycles += self.write_pte(child.space.page_table.pt_pages[-1])
        return child, cycles

    def context_switch(self, to_process: Optional[Process] = None) -> int:
        """Process switch: scheduler walk + register state; ASIDs avoid flushes."""
        cycles = self.kfetch(250)
        cycles += self.ktouch_structs(6, writes_per_struct=1)
        return cycles
