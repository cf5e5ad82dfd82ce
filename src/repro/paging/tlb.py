"""Two-level TLB with permission inlining.

The L1 TLB is fully associative (LRU); the L2 TLB is direct-mapped
(Table 1: 32-entry L1, 1024-entry direct-mapped L2).  Entries can carry an
*inlined* physical-memory-protection permission — the paper's "TLB inlining"
optimization (§2.2, Implication-2): the checker result for the data page is
cached at fill time so a TLB hit performs no permission-table walk.

Updating isolation state (PMP/HPMP registers or PMP-table contents) must be
followed by a TLB flush, which the secure monitor performs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..common.params import TLBParams
from ..common.stats import StatGroup
from ..common.types import PAGE_SHIFT, Permission


@dataclass(slots=True)
class TLBEntry:
    """One cached translation.

    ``checker_perm`` is the inlined physical-protection permission for the
    mapped frame (None when inlining is disabled or not yet resolved).
    """

    vpn: int
    ppn: int
    perm: Permission
    user: bool
    asid: int = 0
    checker_perm: Optional[Permission] = None


class TLB:
    """The composed L1+L2 TLB.

    The L1 is an ``OrderedDict`` keyed by ``(asid, vpn)`` in LRU order
    (oldest first); the direct-mapped L2 maps a set index,
    ``(vpn ^ asid) % entries``, to its one ``(key, entry)`` slot.
    ``lookup`` returns ``(entry, latency_cycles)``; an L2 hit is promoted to
    the L1.  ``fill`` installs into both levels.
    """

    def __init__(self, l1: TLBParams, l2: TLBParams):
        self.l1_params = l1
        self.l2_params = l2
        self._l1: OrderedDict = OrderedDict()
        self._l2: Dict[int, Tuple[Tuple[int, int], TLBEntry]] = {}
        # Deferred hot-path counters (published into ``stats`` on read) and
        # geometry / latency constants resolved once: ``lookup`` runs per
        # memory access.
        self._s_l1_hits = 0
        self._s_l2_hits = 0
        self._s_misses = 0
        self.stats = StatGroup("tlb", sync=self._publish_stats)
        self._l1_entries = l1.entries
        self._l2_entries = l2.entries
        self._l1_lat = l1.hit_latency
        self._l2_lat = l2.hit_latency

    def _publish_stats(self) -> None:
        """Sync point: fold the pending lookup outcomes into the StatGroup."""
        if self._s_l1_hits:
            self.stats.bump("l1_hit", self._s_l1_hits)
            self._s_l1_hits = 0
        if self._s_l2_hits:
            self.stats.bump("l2_hit", self._s_l2_hits)
            self._s_l2_hits = 0
        if self._s_misses:
            self.stats.bump("miss", self._s_misses)
            self._s_misses = 0

    @staticmethod
    def vpn(va: int) -> int:
        return va >> PAGE_SHIFT

    def lookup(self, va: int, asid: int = 0) -> Tuple[Optional[TLBEntry], int]:
        """Probe L1 then L2 for *va*; return (entry-or-None, cycles)."""
        vpn = va >> PAGE_SHIFT
        key = (asid, vpn)
        l1 = self._l1
        entry = l1.get(key)
        if entry is not None:
            l1.move_to_end(key)
            self._s_l1_hits += 1
            return entry, self._l1_lat
        slot = self._l2.get((vpn ^ asid) % self._l2_entries)
        if slot is not None and slot[0] == key:
            entry = slot[1]
            self._s_l2_hits += 1
            # Promote; the key just missed the L1, so only capacity matters.
            if len(l1) >= self._l1_entries:
                l1.popitem(last=False)
            l1[key] = entry
            return entry, self._l1_lat + self._l2_lat
        self._s_misses += 1
        return None, self._l1_lat + self._l2_lat

    def peek_l1(self, va: int, asid: int = 0) -> Optional[TLBEntry]:
        """Stat-free, recency-free L1 probe (bulk-path eligibility check).

        Returns the resident L1 entry or None without touching LRU order or
        any counter, so a caller can decide between the fused bulk charge
        and the scalar path without perturbing observable state.  An entry
        resident only in the L2 returns None — the scalar path must run so
        the promotion (and its latency) happens exactly as usual.
        """
        return self._l1.get((asid, va >> PAGE_SHIFT))

    def charge_l1_hits(self, va: int, asid: int, count: int) -> int:
        """Account *count* L1 hits on one entry; returns the cycles charged.

        State-identical to *count* :meth:`lookup` L1 hits on the same key:
        ``move_to_end`` is idempotent, so one call equals N, and the hit
        counter and latency are linear.  Only valid when :meth:`peek_l1`
        just returned the entry (the key must be L1-resident).
        """
        self._l1.move_to_end((asid, va >> PAGE_SHIFT))
        self._s_l1_hits += count
        return count * self._l1_lat

    def fill(self, entry: TLBEntry) -> None:
        """Install a translation into both levels."""
        vpn = entry.vpn
        asid = entry.asid
        key = (asid, vpn)
        l1 = self._l1
        if key in l1:
            l1.move_to_end(key)
        elif len(l1) >= self._l1_entries:
            l1.popitem(last=False)
        l1[key] = entry
        self._l2[(vpn ^ asid) % self._l2_entries] = (key, entry)

    def _invalidate(self, match) -> None:
        """Drop every entry whose key satisfies *match*, from both levels."""
        l1, l2 = self._l1, self._l2
        for key in [k for k in l1 if match(k)]:
            del l1[key]
        for index in [i for i, (k, _entry) in l2.items() if match(k)]:
            del l2[index]

    def flush(self, asid: Optional[int] = None) -> None:
        """Flush everything, or only entries belonging to *asid*."""
        if asid is None:
            self._l1.clear()
            self._l2.clear()
        else:
            self._invalidate(lambda k: k[0] == asid)

    def flush_page(self, va: int, asid: Optional[int] = None) -> None:
        """Flush the entry covering *va* (sfence.vma with an address)."""
        vpn = self.vpn(va)
        self._invalidate(lambda k: k[1] == vpn and (asid is None or k[0] == asid))

    def resident_entries(self):
        """Yield every resident entry as ``(level, (asid, vpn), entry)``.

        Level is ``"l1"`` or ``"l2"``; an entry promoted into both levels
        is yielded twice (same object).  Read-only and side-effect free —
        no LRU movement, no counters — so verifiers can scan the whole TLB
        (e.g. the interleaved fuzzer's "no revoked page reachable from any
        hart" temporal invariant) without perturbing the timed state.
        """
        for key, entry in self._l1.items():
            yield "l1", key, entry
        for key, entry in self._l2.values():
            yield "l2", key, entry

    def occupancy(self) -> Tuple[int, int]:
        """(L1 entries, L2 entries) currently resident."""
        return len(self._l1), len(self._l2)
