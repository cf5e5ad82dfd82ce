"""SoC model: the timed machine and the full-system builder."""

from .machine import AccessResult, Hart, Machine
from .smp import HartProgram, InterleaveResult, RoundRobinInterleaver, monitor_call
from .system import DRAM_BASE, AddressSpace, System

__all__ = [
    "AccessResult",
    "AddressSpace",
    "DRAM_BASE",
    "Hart",
    "HartProgram",
    "InterleaveResult",
    "Machine",
    "RoundRobinInterleaver",
    "System",
    "monitor_call",
]
