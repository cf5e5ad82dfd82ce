"""Page-walk cache (the paper's "PTECache" / PWC).

Caches intermediate walk state keyed by the translation prefix, so a walk can
skip the upper radix levels it has recently resolved (Table 2's per-level
PWC hit/miss states).  Fully associative, LRU, 8 entries by default
(Table 1); Figure 17 sweeps the entry count.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from ..common.stats import StatGroup


class PageWalkCache:
    """Longest-prefix page-walk cache.

    An entry maps ``(root_pa, level, vpn_prefix)`` to the PA of the level-
    *level* table page that the walk would reach after resolving all levels
    above *level*.  ``lookup`` returns the deepest cached entry so the walker
    resumes as low in the tree as possible.
    """

    def __init__(self, entries: int = 8):
        self.capacity = entries
        self._entries: OrderedDict = OrderedDict()
        # Deferred hit/miss counts, published into ``stats`` on read
        # (lookup runs once per TLB miss — the page-walk hot path).
        self._s_hits = 0
        self._s_misses = 0
        self.stats = StatGroup("pwc", sync=self._publish_stats)

    def _publish_stats(self) -> None:
        """Sync point: fold pending lookup outcomes into the StatGroup."""
        if self._s_hits:
            self.stats.bump("hit", self._s_hits)
            self._s_hits = 0
        if self._s_misses:
            self.stats.bump("miss", self._s_misses)
            self._s_misses = 0

    def lookup(self, root_pa: int, va: int, levels: int) -> Optional[Tuple[int, int]]:
        """Return ``(level, table_pa)`` for the deepest cached prefix, or None.

        ``level`` is the radix level the walker should continue at (it still
        has to read the PTE at that level).  The key's prefix for *level* is
        the VPN bits above it, ``va >> (12 + 9 * (level + 1))``.
        """
        if self.capacity == 0:
            return None
        entries = self._entries
        for level in range(0, levels - 1):  # deepest-first: level 0 has the longest prefix
            key = (root_pa, level, va >> (21 + 9 * level))
            table_pa = entries.get(key)
            if table_pa is not None:
                entries.move_to_end(key)
                self._s_hits += 1
                return level, table_pa
        self._s_misses += 1
        return None

    def insert(self, root_pa: int, va: int, level: int, table_pa: int, levels: int) -> None:
        """Record that the level-*level* table page for *va*'s prefix is *table_pa*."""
        if self.capacity == 0:
            return
        entries = self._entries
        key = (root_pa, level, va >> (21 + 9 * level))
        if key in entries:
            entries.move_to_end(key)
        elif len(entries) >= self.capacity:
            entries.popitem(last=False)
        entries[key] = table_pa

    def flush(self) -> None:
        """Drop all entries (e.g. on sfence.vma)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
