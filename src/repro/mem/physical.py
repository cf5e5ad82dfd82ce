"""Sparse physical memory.

The simulator stores memory as a sparse mapping of 8-byte-aligned words to
values, so a 16 GiB address space costs only what is actually touched.  All
page-table, permission-table, and data contents live here; the cache
hierarchy (:mod:`repro.mem.hierarchy`) models only timing and occupancy.
"""

from __future__ import annotations

from typing import Dict

from ..common.errors import AlignmentError, MemoryError_
from ..common.types import MemRegion

WORD_BYTES = 8


class PhysicalMemory:
    """A sparse 64-bit-word-addressable physical memory.

    Parameters
    ----------
    size:
        Total physical memory size in bytes.  Accesses outside
        ``[base, base+size)`` raise :class:`MemoryError_`.
    base:
        Base physical address of DRAM (default 0x8000_0000, the conventional
        RISC-V DRAM base).
    """

    def __init__(self, size: int, base: int = 0x8000_0000):
        if size <= 0:
            raise MemoryError_(f"memory size must be positive, got {size}")
        self.region = MemRegion(base, size)
        self._words: Dict[int, int] = {}
        # Write epoch: bumped by every write64 and every fill that writes a
        # word.  A reader that remembers the epoch it last read at knows
        # nothing has changed while the epoch is the same.
        self.epoch = 0

    @property
    def base(self) -> int:
        return self.region.base

    @property
    def size(self) -> int:
        return self.region.size

    def _check(self, paddr: int, length: int) -> None:
        if paddr % length != 0:
            raise AlignmentError(f"unaligned {length}-byte access at {paddr:#x}")
        if not self.region.contains(paddr, length):
            raise MemoryError_(f"PA {paddr:#x} (+{length}) outside DRAM {self.region}")

    def read64(self, paddr: int) -> int:
        """Read an aligned 64-bit word; untouched memory reads as zero."""
        self._check(paddr, WORD_BYTES)
        return self._words.get(paddr, 0)

    def write64(self, paddr: int, value: int) -> None:
        """Write an aligned 64-bit word (value truncated to 64 bits)."""
        self._check(paddr, WORD_BYTES)
        self._words[paddr] = value & 0xFFFF_FFFF_FFFF_FFFF
        self.epoch += 1

    def fill(self, paddr: int, length: int, value64: int = 0) -> None:
        """Set every word in ``[paddr, paddr+length)`` to *value64*.

        The whole range is validated before any word is written.  A fill
        of at least one word bumps ``epoch`` once.
        """
        if paddr % WORD_BYTES or length % WORD_BYTES:
            raise AlignmentError(f"fill [{paddr:#x},+{length:#x}) not word-aligned")
        if not self.region.contains(paddr, length):
            raise MemoryError_(f"fill [{paddr:#x},+{length:#x}) outside DRAM {self.region}")
        if length:
            self.epoch += 1
        if value64 == 0:
            for addr in range(paddr, paddr + length, WORD_BYTES):
                self._words.pop(addr, None)
        else:
            for addr in range(paddr, paddr + length, WORD_BYTES):
                self._words[addr] = value64 & 0xFFFF_FFFF_FFFF_FFFF

    def touched_words(self) -> int:
        """Number of words that have ever been written non-zero."""
        return len(self._words)

    def contains(self, paddr: int, length: int = 1) -> bool:
        """Return True if the byte range lies inside DRAM."""
        return self.region.contains(paddr, length)
