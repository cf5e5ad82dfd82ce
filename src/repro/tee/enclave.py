"""Enclave runtime: launching applications inside Penglai domains.

Composes the secure monitor (domain + GMS management) with the host kernel
model (page-table construction) to reproduce the full enclave life cycle the
serverless experiments measure: create domain → grant memory → build the
enclave address space → switch in → run → switch out → destroy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..common.errors import MonitorError
from ..common.types import PAGE_SIZE, AccessType, MemRegion, Permission, PrivilegeMode
from ..mem.allocator import FrameAllocator
from ..soc.system import AddressSpace, System
from .gms import GMS
from .monitor import SecureMonitor

if TYPE_CHECKING:  # avoid a circular import with repro.workloads
    from ..workloads.kernel import KernelModel

ENCLAVE_TEXT_VA = 0x0000_1000_0000
ENCLAVE_HEAP_VA = 0x0000_4000_0000
ENCLAVE_STACK_VA = 0x0000_7000_0000

U = PrivilegeMode.USER


def _round_pow2(value: int) -> int:
    """Round up to a power of two (PMP regions must be NAPOT-shaped)."""
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()


@dataclass
class EnclaveHandle:
    """A launched enclave: its domain, memory, and address space."""

    domain_id: int
    gms: GMS
    space: AddressSpace
    frames: FrameAllocator
    launch_cycles: int
    alive: bool = True


class EnclaveRuntime:
    """Host-side driver for the enclave life cycle.

    Parameters
    ----------
    system / monitor / kernel:
        The simulated machine, its secure monitor, and the host kernel model
        (whose timed PTE stores account the page-table build cost).
    """

    def __init__(self, system: System, monitor: SecureMonitor, kernel: "KernelModel"):
        self.system = system
        self.monitor = monitor
        self.kernel = kernel

    def launch(
        self,
        name: str,
        text_pages: int,
        heap_pages: int,
        stack_pages: int = 4,
        label: str = "slow",
        reserve_pages: int = 0,
    ) -> EnclaveHandle:
        """Create, provision and enter a new enclave; returns its handle.

        ``launch_cycles`` covers the whole cold-start path: domain creation,
        GMS grant (permission-table writes), enclave page-table construction
        (timed PTE stores through the host direct map), and the switch in.
        ``reserve_pages`` enlarges the GMS for memory the application maps
        later (through ``handle.frames``) without mapping it eagerly.
        """
        total_pages = _round_pow2(text_pages + heap_pages + stack_pages + reserve_pages)
        domain = self.monitor.create_domain(name)
        gms, cycles = self.monitor.grant_region(
            domain.domain_id, total_pages * PAGE_SIZE, Permission.rwx(), label=label
        )
        frames = FrameAllocator(MemRegion(gms.region.base, gms.region.size))
        space = self.system.new_address_space()
        cycles += self._map_segment(space, frames, ENCLAVE_TEXT_VA, text_pages, Permission.rx())
        cycles += self._map_segment(space, frames, ENCLAVE_HEAP_VA, heap_pages, Permission.rw())
        cycles += self._map_segment(space, frames, ENCLAVE_STACK_VA, stack_pages, Permission.rw())
        cycles += self.monitor.switch_to(domain.domain_id)
        return EnclaveHandle(domain.domain_id, gms, space, frames, cycles)

    def _map_segment(
        self,
        space: AddressSpace,
        frames: FrameAllocator,
        va: int,
        pages: int,
        perm: Permission,
    ) -> int:
        if pages == 0:
            return 0
        space.map_from(frames, va, pages * PAGE_SIZE, perm)
        # map_from finishes before any timed store, so pt_pages[-1] is one
        # fixed page and the per-page PTE stores fold into one run.
        return self.kernel.write_pte_run(space.page_table.pt_pages[-1], 0, pages)

    def access(self, handle: EnclaveHandle, va: int, access: AccessType = AccessType.READ) -> int:
        """One timed user access inside the enclave; returns cycles."""
        if not handle.alive:
            raise MonitorError("enclave already destroyed")
        return self.system.machine._access_core(
            handle.space.page_table, va, access, U, handle.space.asid
        )[0]

    def access_run(
        self,
        handle: EnclaveHandle,
        va: int,
        stride: int,
        count: int,
        access: AccessType = AccessType.READ,
    ) -> int:
        """A timed run of *count* enclave accesses (one run-loop call)."""
        if not handle.alive:
            raise MonitorError("enclave already destroyed")
        return self.system.machine.access_run(
            handle.space.page_table, va, stride, count, access, U, handle.space.asid
        )[0]

    def destroy(self, handle: EnclaveHandle) -> int:
        """Exit and tear down the enclave; returns cycles spent."""
        cycles = 0
        if self.monitor.current_domain_id == handle.domain_id:
            cycles += self.monitor.switch_to(0)
        self.monitor.destroy_domain(handle.domain_id)
        handle.alive = False
        return cycles
