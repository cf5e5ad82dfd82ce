"""SoC model: the timed machine and the full-system builder."""

from .cpu import CPU, CPUResult, Instruction, assemble
from .machine import AccessResult, Hart, Machine
from .smp import HartProgram, InterleaveResult, RoundRobinInterleaver, monitor_call
from .system import DRAM_BASE, AddressSpace, System

__all__ = [
    "AccessResult",
    "AddressSpace",
    "CPU",
    "CPUResult",
    "DRAM_BASE",
    "Hart",
    "HartProgram",
    "Instruction",
    "InterleaveResult",
    "Machine",
    "RoundRobinInterleaver",
    "System",
    "assemble",
    "monitor_call",
]
