"""Sparse physical memory.

The simulator stores memory sparsely, so a 16 GiB address space costs only
what is actually touched.  Words are kept per 4 KiB page, as
``{page number: {word address: value}}``: a zero fill of a whole page (how
every page-table, permission-table and GPT page is cleared) drops the page's
dict in one step instead of visiting its 512 words.  The layout is private
to this module; every other module reads and writes words through
:class:`PhysicalMemory`'s methods, which keep the write epoch honest.  All
page-table, permission-table, and data contents live here; the cache
hierarchy (:mod:`repro.mem.hierarchy`) models only timing and occupancy.
"""

from __future__ import annotations

from typing import Dict

from ..common.errors import AlignmentError, MemoryError_
from ..common.types import PAGE_SHIFT, PAGE_SIZE, MemRegion

WORD_BYTES = 8
_WORD_MASK = 0xFFFF_FFFF_FFFF_FFFF


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
        # Stored words by page number; a page with no stored word has no dict.
        self._pages: Dict[int, Dict[int, int]] = {}
        # Lowest and highest word address an access may use.
        self._first_word = base
        self._last_word = base + size - WORD_BYTES
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
        if paddr & 7 or not self._first_word <= paddr <= self._last_word:
            self._check(paddr, WORD_BYTES)
        page = self._pages.get(paddr >> PAGE_SHIFT)
        return page.get(paddr, 0) if page else 0

    def write64(self, paddr: int, value: int) -> None:
        """Write an aligned 64-bit word (value truncated to 64 bits)."""
        if paddr & 7 or not self._first_word <= paddr <= self._last_word:
            self._check(paddr, WORD_BYTES)
        page = self._pages.get(paddr >> PAGE_SHIFT)
        if page is None:
            self._pages[paddr >> PAGE_SHIFT] = {paddr: value & _WORD_MASK}
        else:
            page[paddr] = value & _WORD_MASK
        self.epoch += 1

    def fill(self, paddr: int, length: int, value64: int = 0) -> None:
        """Set every word in ``[paddr, paddr+length)`` to *value64*.

        The whole range is validated before any word is written.  A fill
        of at least one word bumps ``epoch`` once.  The range is filled one
        page piece at a time: a zero fill drops a whole page's dict and
        deletes a partial piece's stored words; any other value writes each
        piece with one ``dict.update``.
        """
        if paddr % WORD_BYTES or length % WORD_BYTES:
            raise AlignmentError(f"fill [{paddr:#x},+{length:#x}) not word-aligned")
        if not self.region.contains(paddr, length):
            raise MemoryError_(
                f"fill [{paddr:#x},{length:+#x}) has a negative length or leaves DRAM {self.region}"
            )
        if not length:
            return
        self.epoch += 1
        pages = self._pages
        stored = value64 & _WORD_MASK
        addr, end = paddr, paddr + length
        while addr < end:
            number = addr >> PAGE_SHIFT
            piece_end = min((number + 1) << PAGE_SHIFT, end)
            words = range(addr, piece_end, WORD_BYTES)
            if value64:
                pages.setdefault(number, {}).update(dict.fromkeys(words, stored))
            elif piece_end - addr == PAGE_SIZE:
                pages.pop(number, None)
            elif number in pages:
                page = pages[number]
                for word in words:
                    page.pop(word, None)
                if not page:
                    del pages[number]
            addr = piece_end

    def touched_words(self) -> int:
        """Number of words stored: every word ``write64`` stored (zeros
        included) or a non-zero ``fill`` set, less those a zero fill removed.
        """
        return sum(map(len, self._pages.values()))

    def contains(self, paddr: int, length: int = 1) -> bool:
        """Return True if the byte range lies inside DRAM."""
        return self.region.contains(paddr, length)
