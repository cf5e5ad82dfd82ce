"""Virtualized environment: two-stage translation and 3D page walks."""

from .nested import GUEST_DRAM_BASE, GUEST_PT_AREA, GuestAccessResult, GuestMemoryView, VirtualMachine

__all__ = [
    "GUEST_DRAM_BASE",
    "GUEST_PT_AREA",
    "GuestAccessResult",
    "GuestMemoryView",
    "VirtualMachine",
]
