"""Core value types shared across the simulator.

Addresses are plain ``int`` (Python ints are arbitrary precision); this module
provides the enums and small value objects that give them meaning: access
types, privilege modes, permissions, and page-size constants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


class AccessType(enum.Enum):
    """The kind of memory access being performed.

    ``FETCH`` is an instruction fetch; ``READ``/``WRITE`` are data accesses.
    Page-table-walker reads are issued as ``READ`` accesses tagged by the
    walker itself.
    """

    READ = "r"
    WRITE = "w"
    FETCH = "x"


class PrivilegeMode(enum.IntEnum):
    """RISC-V privilege modes (subset used by the simulator)."""

    USER = 0
    SUPERVISOR = 1
    MACHINE = 3


# Module constants: an enum member lookup (``AccessType.READ``) costs several
# times a global's, and ``Permission.allows`` runs once per checker check.
_READ = AccessType.READ
_WRITE = AccessType.WRITE


@dataclass(frozen=True)
class Permission:
    """An R/W/X permission triple.

    Immutable; combine with ``&`` (intersection) and compare with ``allows``.
    """

    r: bool = False
    w: bool = False
    x: bool = False

    def allows(self, access: AccessType) -> bool:
        """Return True if this permission permits *access*."""
        if access is _READ:
            return self.r
        if access is _WRITE:
            return self.w
        return self.x

    def __and__(self, other: "Permission") -> "Permission":
        return Permission(self.r and other.r, self.w and other.w, self.x and other.x)

    def __or__(self, other: "Permission") -> "Permission":
        return Permission(self.r or other.r, self.w or other.w, self.x or other.x)

    @property
    def bits(self) -> int:
        """Encode as the RISC-V R/W/X bit layout (R=bit0, W=bit1, X=bit2)."""
        return (1 if self.r else 0) | (2 if self.w else 0) | (4 if self.x else 0)

    @classmethod
    def from_bits(cls, bits: int) -> "Permission":
        """Decode from the RISC-V R/W/X bit layout."""
        return cls(r=bool(bits & 1), w=bool(bits & 2), x=bool(bits & 4))

    @classmethod
    def none(cls) -> "Permission":
        return cls(False, False, False)

    @classmethod
    def rw(cls) -> "Permission":
        return cls(True, True, False)

    @classmethod
    def rx(cls) -> "Permission":
        return cls(True, False, True)

    @classmethod
    def rwx(cls) -> "Permission":
        return cls(True, True, True)

    def __str__(self) -> str:
        return ("r" if self.r else "-") + ("w" if self.w else "-") + ("x" if self.x else "-")


@dataclass(frozen=True)
class MemRegion:
    """A physical memory region ``[base, base+size)``."""

    base: int
    size: int

    def __post_init__(self) -> None:
        if self.base < 0 or self.size < 0:
            raise ValueError(f"negative region: base={self.base:#x} size={self.size:#x}")

    @property
    def end(self) -> int:
        """Exclusive end address."""
        return self.base + self.size

    def contains(self, addr: int, length: int = 1) -> bool:
        """Return True if ``[addr, addr+length)`` lies entirely inside; a
        negative *length* names no range and is never contained."""
        return self.base <= addr and length >= 0 and addr + length <= self.end

    def overlaps(self, other: "MemRegion") -> bool:
        """Return True if the two regions share at least one byte."""
        return self.base < other.end and other.base < self.end

    def __str__(self) -> str:
        return f"[{self.base:#x}, {self.end:#x})"


def page_align_down(addr: int) -> int:
    """Round *addr* down to a 4 KiB page boundary."""
    return addr & ~PAGE_MASK


def page_align_up(addr: int) -> int:
    """Round *addr* up to a 4 KiB page boundary."""
    return (addr + PAGE_MASK) & ~PAGE_MASK


def is_pow2(n: int) -> bool:
    """Return True if *n* is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0
