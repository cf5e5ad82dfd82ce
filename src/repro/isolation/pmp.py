"""RISC-V Physical Memory Protection (PMP) — segment-based isolation.

Implements the privileged-spec PMP semantics the paper builds on (§4.1):
up to 16 entries, each an ``addr`` register (PA >> 2) plus a ``config``
register with R/W/X permission bits, an address-matching mode
(OFF/TOR/NA4/NAPOT), and a lock bit.  Entries are statically prioritized —
the lowest-numbered entry covering an access decides it.  S/U-mode accesses
not covered by any entry are denied; M-mode accesses are allowed unless a
locked entry denies them.

HPMP (:mod:`repro.isolation.hpmp`) extends this register file with the
``T`` (table-mode) bit in the reserved bit 5 of the config register.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..common.errors import AccessFault, ConfigurationError
from ..common.stats import StatGroup
from ..common.types import AccessType, MemRegion, Permission, PrivilegeMode
from .checker import ZERO_COST, ZERO_COSTS, CheckCost

PMP_ENTRIES = 16

# A module constant: an enum member lookup costs several times a global's,
# and ``PMPChecker.check`` runs once per checked reference.
_MACHINE = PrivilegeMode.MACHINE


class AddrMatch(enum.IntEnum):
    """PMP address-matching modes (config A field)."""

    OFF = 0
    TOR = 1
    NA4 = 2
    NAPOT = 3


@dataclass
class PMPEntry:
    """One PMP/HPMP entry: a config register and an addr register.

    ``addr`` holds the architectural pmpaddr value (PA >> 2) — except when
    the *previous* entry is in table mode, in which case this entry's addr
    register holds the PMP-table base (see :mod:`repro.isolation.pmptable`).
    """

    perm: Permission = field(default_factory=Permission.none)
    match: AddrMatch = AddrMatch.OFF
    locked: bool = False
    table: bool = False  # HPMP T bit (always False for classic PMP)
    addr: int = 0


def napot_addr(base: int, size: int) -> int:
    """Encode a naturally-aligned power-of-two region into a pmpaddr value."""
    if size < 8 or size & (size - 1):
        raise ConfigurationError(f"NAPOT size must be a power of two >= 8, got {size}")
    if base % size:
        raise ConfigurationError(f"NAPOT base {base:#x} not aligned to size {size:#x}")
    return (base >> 2) | ((size // 8) - 1)


def napot_decode(addr: int) -> Tuple[int, int]:
    """Decode a NAPOT pmpaddr value into (base, size)."""
    trailing_ones = 0
    probe = addr
    while probe & 1:
        trailing_ones += 1
        probe >>= 1
    size = 8 << trailing_ones
    base = (addr & ~((1 << (trailing_ones + 1)) - 1)) << 2
    return base, size


class PMPRegisterFile:
    """The bank of PMP entries with RISC-V priority/matching semantics."""

    def __init__(self, num_entries: int = PMP_ENTRIES):
        if num_entries <= 0:
            raise ConfigurationError("PMP needs at least one entry")
        self.entries: List[PMPEntry] = [PMPEntry() for _ in range(num_entries)]
        self._decoded: Optional[List[Tuple[MemRegion, int]]] = None
        # Precomputed sorted-range match table (see _match_table): built
        # lazily, invalidated with _decoded on every entry write.  Building
        # it only pays off once several matches happen against the same
        # programming, so reprogram-heavy phases (domain switches, enclave
        # create/destroy) stay on the linear scan until the register file
        # settles.
        self._bounds: Optional[List[int]] = None
        self._winners: List[int] = []
        self._matches_since_write = 0

    def __len__(self) -> int:
        return len(self.entries)

    def set_entry(self, index: int, entry: PMPEntry) -> None:
        """Program entry *index* (M-mode CSR writes; locked entries refuse)."""
        if self.entries[index].locked:
            raise ConfigurationError(f"PMP entry {index} is locked")
        self.entries[index] = entry
        self._decoded = None
        self._bounds = None
        self._matches_since_write = 0

    def clear_entry(self, index: int) -> None:
        self.set_entry(index, PMPEntry())

    def region(self, index: int) -> Optional[MemRegion]:
        """Decode the physical region entry *index* covers (None if OFF)."""
        entry = self.entries[index]
        if entry.match is AddrMatch.OFF:
            return None
        if entry.match is AddrMatch.TOR:
            lower = self.entries[index - 1].addr << 2 if index > 0 else 0
            upper = entry.addr << 2
            if upper <= lower:
                return None
            return MemRegion(lower, upper - lower)
        if entry.match is AddrMatch.NA4:
            return MemRegion(entry.addr << 2, 4)
        base, size = napot_decode(entry.addr)
        return MemRegion(base, size)

    def _decoded_regions(self) -> List[Tuple[MemRegion, int]]:
        """Decoded (region, index) pairs in priority order, cached."""
        if self._decoded is None:
            self._decoded = []
            for index in range(len(self.entries)):
                region = self.region(index)
                if region is not None:
                    self._decoded.append((region, index))
        return self._decoded

    def _match_table(self) -> Tuple[List[int], List[int]]:
        """The precomputed sorted-range table: ``(bounds, winners)``.

        Every region edge becomes a boundary; between two consecutive
        boundaries no region starts or ends, so each *elementary interval*
        is either fully inside or fully outside every decoded region.  The
        winning (lowest-numbered) entry is therefore a constant per
        interval, computed once here; ``match`` reduces to one bisect.
        ``winners[i]`` covers ``bounds[i] <= paddr < bounds[i+1]`` and is
        -1 where no entry matches.
        """
        if self._bounds is None:
            regions = self._decoded_regions()
            points = sorted({edge for region, _ in regions for edge in (region.base, region.end)})
            winners: List[int] = []
            for i in range(len(points) - 1):
                low = points[i]
                winner = -1
                for region, index in regions:
                    if region.base <= low < region.end:
                        winner = index
                        break
                winners.append(winner)
            self._bounds = points
            self._winners = winners
        return self._bounds, self._winners

    def match(self, paddr: int, size: int = 8) -> Optional[int]:
        """Index of the lowest-numbered entry covering the access, or None.

        Per the spec, an access that only partially matches an entry fails;
        we treat partial overlap as a match that will then be permission-
        checked (and our monitor never creates partial overlaps).

        The common case — the access sits inside one elementary interval of
        the sorted-range table — resolves with a single bisect.  Accesses
        spanning a boundary (possible only when region edges are not
        access-aligned) fall back to the generic priority scan, which is the
        semantic reference.
        """
        bounds = self._bounds
        if bounds is None:
            # Don't rebuild the table for a programming that may be gone
            # after a handful of checks; the linear scan is cheaper until
            # the same register-file state has served several matches.
            if self._matches_since_write < 16:
                self._matches_since_write += 1
                for region, index in self._decoded_regions():
                    if region.contains(paddr, size):
                        return index
                return None
            bounds, winners = self._match_table()
        else:
            winners = self._winners
        slot = bisect_right(bounds, paddr) - 1
        if 0 <= slot < len(winners) and paddr + size <= bounds[slot + 1]:
            winner = winners[slot]
            return winner if winner >= 0 else None
        for region, index in self._decoded_regions():
            if region.contains(paddr, size):
                return index
        return None

    def active_entries(self) -> List[int]:
        """Indices of entries whose matching mode is not OFF."""
        return [i for i, e in enumerate(self.entries) if e.match is not AddrMatch.OFF]


class PMPChecker:
    """Segment-based checker: permissions live in registers, zero extra refs."""

    name = "pmp"

    def __init__(self, regfile: Optional[PMPRegisterFile] = None):
        self.regfile = regfile if regfile is not None else PMPRegisterFile()
        # Deferred check/fault counts (published into ``stats`` on read):
        # ``check`` runs once per untimed reference on the segment fast path.
        self._s_checks = 0
        self._s_faults = 0
        self.stats = StatGroup("pmp", sync=self._publish_stats)

    def _publish_stats(self) -> None:
        """Sync point: fold pending check outcomes into the StatGroup."""
        if self._s_checks:
            self.stats.bump("checks", self._s_checks)
            self._s_checks = 0
        if self._s_faults:
            self.stats.bump("faults", self._s_faults)
            self._s_faults = 0

    def check(
        self,
        paddr: int,
        access: AccessType,
        priv: PrivilegeMode = PrivilegeMode.SUPERVISOR,
    ) -> CheckCost:
        """Validate the access; segment checks cost no memory references.

        S/U accesses no entry covers are denied; M-mode is allowed unless a
        locked entry covers the access and denies it.
        """
        self._s_checks += 1
        regfile = self.regfile
        index = regfile.match(paddr)
        if index is None:
            if priv is _MACHINE:
                return ZERO_COST
        else:
            entry = regfile.entries[index]
            if priv is _MACHINE and not entry.locked:
                return ZERO_COST
            perm = entry.perm
            cost = ZERO_COSTS[perm.r, perm.w, perm.x]
            if cost.perm.allows(access):
                return cost
        self._s_faults += 1
        raise AccessFault(paddr, access.value, f"PMP denied ({priv.name})")
