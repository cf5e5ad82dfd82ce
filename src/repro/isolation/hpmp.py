"""HPMP — Hybrid Physical Memory Protection (paper §4.2).

HPMP reuses the PMP register file.  Each entry's config register gains a
``T`` bit (reserved bit 5): with ``T=0`` the entry is a classic segment;
with ``T=1`` the entry's region is permission-managed by a PMP Table whose
base address lives in the *next* entry's addr register (Mode in bits 63:62,
PPN in bits 43:0 — Figure 6-b).  Entries keep PMP's static priority: the
lowest-numbered matching entry decides an access.

The checker charges every pmpte read through the shared cache hierarchy, so
permission-table walks compete with data for cache capacity.  An optional
PMPTW-Cache (8 entries by default, fully associative LRU — §8.9) caches hot
pmptes and skips their memory references.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from ..common.errors import AccessFault, ConfigurationError
from ..common.stats import StatGroup
from ..common.types import AccessType, PrivilegeMode
from ..mem.hierarchy import MemoryHierarchy
from .checker import ZERO_COST, ZERO_COSTS, CheckCost
from .pmp import AddrMatch, PMPEntry, PMPRegisterFile
from .pmptable import PMPTable

ADDR_MODE_SHIFT = 62
ADDR_PPN_MASK = (1 << 44) - 1

#: Fixed logic latency charged per table-walk level resolved from the
#: PMPTW-Cache instead of memory.
PMPTW_CACHE_HIT_CYCLES = 1

# A module constant: an enum member lookup costs several times a global's,
# and ``check`` runs once per checked reference.
_MACHINE = PrivilegeMode.MACHINE


def encode_table_addr(root_pa: int, mode: int) -> int:
    """Encode a PMP-table base into the successor entry's addr register."""
    if root_pa % 4096:
        raise ConfigurationError(f"table base {root_pa:#x} not page aligned")
    return (mode << ADDR_MODE_SHIFT) | ((root_pa >> 12) & ADDR_PPN_MASK)


def decode_table_addr(addr: int) -> "tuple[int, int]":
    """Decode an addr register into (root_pa, mode)."""
    return ((addr & ADDR_PPN_MASK) << 12), (addr >> ADDR_MODE_SHIFT) & 0x3


class PMPTWCache:
    """Dedicated cache for PMP-table walker entries (paper §8.9).

    Fully associative, LRU, keyed by pmpte physical address; a hit removes
    that level's memory reference from the walk.
    """

    def __init__(self, entries: int = 8):
        self.capacity = entries
        self._entries: OrderedDict = OrderedDict()
        # Deferred hit/miss counts, published into ``stats`` on read
        # (probe runs once per pmpte on every table walk).
        self._s_hits = 0
        self._s_misses = 0
        self.stats = StatGroup("pmptw_cache", sync=self._publish_stats)

    def _publish_stats(self) -> None:
        """Sync point: fold pending probe outcomes into the StatGroup."""
        if self._s_hits:
            self.stats.bump("hit", self._s_hits)
            self._s_hits = 0
        if self._s_misses:
            self.stats.bump("miss", self._s_misses)
            self._s_misses = 0

    def probe(self, pmpte_addr: int) -> bool:
        if self.capacity == 0:
            return False
        if pmpte_addr in self._entries:
            self._entries.move_to_end(pmpte_addr)
            self._s_hits += 1
            return True
        self._s_misses += 1
        return False

    def insert(self, pmpte_addr: int) -> None:
        if self.capacity == 0:
            return
        if pmpte_addr in self._entries:
            self._entries.move_to_end(pmpte_addr)
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[pmpte_addr] = None

    def flush(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class HPMPRegisterFile(PMPRegisterFile):
    """PMP register file extended with table-mode entry bindings.

    ``bind_table(i, table)`` puts entry *i* in table mode and programs entry
    *i+1*'s addr register with the table base (the simulator additionally
    keeps the :class:`PMPTable` object so the walker can reuse its decoding
    logic; the register encoding is kept consistent and is what tests check).
    """

    def __init__(self, num_entries: int = 16):
        super().__init__(num_entries)
        self._tables: Dict[int, PMPTable] = {}

    def bind_table(self, index: int, entry: PMPEntry, table: PMPTable) -> None:
        """Program entry *index* in table mode backed by *table*."""
        if index + 1 >= len(self.entries):
            raise ConfigurationError("the last HPMP entry cannot be in table mode")
        region = table.region
        if entry.match is AddrMatch.OFF:
            raise ConfigurationError("table-mode entry must have an active address match")
        entry.table = True
        self.set_entry(index, entry)
        base_holder = PMPEntry(addr=encode_table_addr(table.root_pa, table.mode))
        self.set_entry(index + 1, base_holder)
        self._tables[index] = table
        # Sanity: the entry's matched region must not exceed the table's.
        decoded = self.region(index)
        if decoded is not None and not (
            region.base <= decoded.base and decoded.end <= region.end
        ):
            raise ConfigurationError(
                f"entry {index} region {decoded} outside table region {region}"
            )

    def unbind_table(self, index: int) -> None:
        """Return entry *index* (and its base-holder successor) to OFF."""
        self._tables.pop(index, None)
        self.clear_entry(index)
        if index + 1 < len(self.entries):
            self.clear_entry(index + 1)

    def table_for(self, index: int) -> PMPTable:
        try:
            return self._tables[index]
        except KeyError:
            raise ConfigurationError(f"entry {index} has no bound PMP table") from None

    def set_entry(self, index: int, entry: PMPEntry) -> None:
        super().set_entry(index, entry)
        if not entry.table:
            self._tables.pop(index, None)


class HPMPChecker:
    """The hybrid checker: segment entries are free, table entries walk DRAM."""

    def __init__(
        self,
        regfile: Optional[HPMPRegisterFile] = None,
        hierarchy: Optional[MemoryHierarchy] = None,
        pmptw_cache_entries: int = 8,
        pmptw_cache_enabled: bool = False,
        name: str = "hpmp",
    ):
        self.name = name
        self.regfile = regfile if regfile is not None else HPMPRegisterFile()
        self.hierarchy = hierarchy
        self.pmptw_cache = PMPTWCache(pmptw_cache_entries if pmptw_cache_enabled else 0)
        # Deferred hot-path counters (published into ``stats`` on read):
        # ``check`` runs once per timed reference under table-backed configs.
        self._s_checks = 0
        self._s_faults = 0
        self._s_seg_checks = 0
        self._s_table_walks = 0
        self._s_pmpte_refs = 0
        self.stats = StatGroup(name, sync=self._publish_stats)

    def _publish_stats(self) -> None:
        """Sync point: fold pending check/walk deltas into the StatGroup.

        ``table_walks`` and ``pmpte_refs`` publish together (the eager code
        bumped them as a pair, materializing ``pmpte_refs`` even at 0).
        """
        if self._s_checks:
            self.stats.bump("checks", self._s_checks)
            self._s_checks = 0
        if self._s_faults:
            self.stats.bump("faults", self._s_faults)
            self._s_faults = 0
        if self._s_seg_checks:
            self.stats.bump("seg_checks", self._s_seg_checks)
            self._s_seg_checks = 0
        if self._s_table_walks:
            self.stats.bump("table_walks", self._s_table_walks)
            self._s_table_walks = 0
            self.stats.bump("pmpte_refs", self._s_pmpte_refs)
            self._s_pmpte_refs = 0

    def check(
        self,
        paddr: int,
        access: AccessType,
        priv: PrivilegeMode = PrivilegeMode.SUPERVISOR,
    ) -> CheckCost:
        """Validate the access; raise :class:`AccessFault` if denied.

        A segment entry (or M-mode) costs nothing and returns a shared
        result; a table entry walks the PMP table bound to it, charging each
        pmpte read through the hierarchy unless the PMPTW-Cache holds it.
        """
        self._s_checks += 1
        regfile = self.regfile
        index = regfile.match(paddr)
        cost = None
        if index is None:
            if priv is _MACHINE:
                return ZERO_COST
        else:
            entry = regfile.entries[index]
            if priv is _MACHINE and not entry.locked:
                return ZERO_COST
            if entry.table:
                # table_for raises the ConfigurationError for an unbound entry.
                table = regfile._tables.get(index) or regfile.table_for(index)
                lookup = table.lookup(paddr)
                cycles = refs = 0
                pmptw_cache = self.pmptw_cache
                cache_on = pmptw_cache.capacity > 0
                hierarchy = self.hierarchy
                for pmpte_addr in lookup.pmpte_addrs:
                    if cache_on and pmptw_cache.probe(pmpte_addr):
                        cycles += PMPTW_CACHE_HIT_CYCLES
                        continue
                    refs += 1
                    if hierarchy is not None:
                        cycles += hierarchy.access(pmpte_addr)
                    if cache_on:
                        pmptw_cache.insert(pmpte_addr)
                self._s_table_walks += 1
                self._s_pmpte_refs += refs
                if lookup.perm is not None:  # None: an invalid pmpte faults
                    cost = CheckCost(cycles, refs, lookup.perm)
            else:
                self._s_seg_checks += 1
                perm = entry.perm
                cost = ZERO_COSTS[perm.r, perm.w, perm.x]
        if cost is None or not cost.perm.allows(access):
            self._s_faults += 1
            raise AccessFault(paddr, access.value, f"{self.name} denied ({priv.name})")
        return cost

    def flush_caches(self) -> None:
        """Drop walker caches (monitor calls this when tables change)."""
        self.pmptw_cache.flush()

    def hart_view(self, hierarchy: MemoryHierarchy, hart_id: int) -> "HPMPChecker":
        """A per-hart view of this checker.

        The register file (and through it the bound PMP tables) is the
        architectural state — shared by every hart, programmed once by the
        monitor.  The walker's micro-architectural state is per hart: each
        view charges pmpte reads through its own hart's cache hierarchy and
        keeps a private PMPTW-Cache (same geometry), so permission-table
        walks on different harts contend for the shared LLC but not for
        each other's L1/L2 or walker cache.  Stats accumulate in the view's
        own group (named ``<name>.hart<k>``) and merge hart-ordered.
        """
        return HPMPChecker(
            regfile=self.regfile,
            hierarchy=hierarchy,
            pmptw_cache_entries=self.pmptw_cache.capacity,
            pmptw_cache_enabled=self.pmptw_cache.capacity > 0,
            name=f"{self.name}.hart{hart_id}",
        )
