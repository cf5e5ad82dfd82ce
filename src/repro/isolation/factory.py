"""Checker construction helpers.

``make_flat_checker`` builds the three isolation schemes the paper compares,
each configured so S/U-mode software can access all of DRAM — the setup the
microbenchmarks (Figures 10, 15, 16) use:

* ``"pmp"``      — one segment entry over DRAM (zero-cost checks).
* ``"pmpt"``     — one table-mode entry over DRAM, permissions held at page
  granularity in leaf tables (the paper's "PMP Table" baseline: 2 extra
  references per checked access).
* ``"hpmp"``     — a segment entry over the page-table region ("fast" GMS)
  with priority, plus a table-mode entry over DRAM for everything else.
* ``"none"``     — a null checker (no confidential computing, Figure 2-a).

Full TEE setups with domains are built by :mod:`repro.tee` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..common.errors import ConfigurationError
from ..common.types import AccessType, MemRegion, Permission, PrivilegeMode
from ..mem.allocator import FrameAllocator
from ..mem.hierarchy import MemoryHierarchy
from ..mem.physical import PhysicalMemory
from .checker import ZERO_COST, CheckCost
from .hpmp import HPMPChecker, HPMPRegisterFile
from .pmp import AddrMatch, PMPChecker, PMPEntry, PMPRegisterFile, napot_addr
from .pmptable import MODE_2LEVEL, PMPTable

CHECKER_KINDS = ("none", "pmp", "pmpt", "hpmp")


class NullChecker:
    """No physical memory protection at all (non-confidential baseline)."""

    name = "none"

    def check(
        self,
        paddr: int,
        access: AccessType,
        priv: PrivilegeMode = PrivilegeMode.SUPERVISOR,
    ) -> CheckCost:
        return ZERO_COST


Checker = Union[NullChecker, PMPChecker, HPMPChecker]


def segment_entry(region: MemRegion, perm: Permission, prev_addr: int = 0) -> PMPEntry:
    """Build a segment-mode PMP entry covering *region*.

    Uses NAPOT when the region is naturally aligned, TOR otherwise (in which
    case the caller must ensure the previous entry's addr register equals
    ``region.base >> 2`` — pass it via set-up; this helper encodes NAPOT only
    and raises for non-NAPOT shapes to keep monitor code explicit).
    """
    size = region.size
    if size >= 8 and size & (size - 1) == 0 and region.base % size == 0:
        return PMPEntry(perm=perm, match=AddrMatch.NAPOT, addr=napot_addr(region.base, size))
    raise ConfigurationError(
        f"region {region} is not NAPOT-encodable; use an explicit TOR pair"
    )


def tor_pair(region: MemRegion, perm: Permission) -> "tuple[PMPEntry, PMPEntry]":
    """Build an (lower-bound, TOR) entry pair covering an arbitrary region."""
    lower = PMPEntry(addr=region.base >> 2)  # OFF entry holding the lower bound
    upper = PMPEntry(perm=perm, match=AddrMatch.TOR, addr=region.end >> 2)
    return lower, upper


@dataclass
class FlatSetup:
    """A checker plus the structures backing it (for inspection by tests)."""

    checker: Checker
    table: Optional[PMPTable] = None
    table_allocator: Optional[FrameAllocator] = None


def make_flat_checker(
    kind: str,
    memory: PhysicalMemory,
    hierarchy: Optional[MemoryHierarchy],
    dram: Optional[MemRegion] = None,
    pt_region: Optional[MemRegion] = None,
    table_frames: Optional[FrameAllocator] = None,
    pmptw_cache_enabled: bool = False,
    pmptw_cache_entries: int = 8,
    table_mode: int = MODE_2LEVEL,
    num_entries: int = 16,
) -> FlatSetup:
    """Build one of the paper's three isolation schemes over all of DRAM.

    Parameters
    ----------
    kind:
        One of ``CHECKER_KINDS``.
    memory / hierarchy:
        The backing memory and the cache hierarchy table walks charge into.
    dram:
        Region the checker governs; defaults to the whole physical memory.
    pt_region:
        For ``"hpmp"``: the contiguous page-table region to protect with a
        segment entry (must be NAPOT-shaped).
    table_frames:
        Allocator providing frames for permission-table pages; required for
        ``"pmpt"`` and ``"hpmp"``.
    """
    if kind not in CHECKER_KINDS:
        raise ConfigurationError(f"unknown checker kind {kind!r}; options: {CHECKER_KINDS}")
    dram = dram if dram is not None else memory.region

    if kind == "none":
        return FlatSetup(NullChecker())

    if kind == "pmp":
        regfile = PMPRegisterFile(num_entries)
        lower, upper = tor_pair(dram, Permission.rwx())
        regfile.set_entry(0, lower)
        regfile.set_entry(1, upper)
        return FlatSetup(PMPChecker(regfile))

    if table_frames is None:
        raise ConfigurationError(f"checker kind {kind!r} needs a table_frames allocator")

    regfile = HPMPRegisterFile(num_entries)
    table = PMPTable(memory, table_frames, dram, mode=table_mode)
    # Page-granular grant over all of DRAM: forces leaf-level walks, the
    # behaviour of a real system whose domains interleave at page granularity.
    table.set_range(dram.base, dram.size, Permission.rwx(), huge_ok=False)

    next_entry = 0
    if kind == "hpmp":
        if pt_region is None:
            raise ConfigurationError("hpmp checker needs a pt_region for the fast GMS")
        regfile.set_entry(next_entry, segment_entry(pt_region, Permission.rwx()))
        next_entry += 1
    # Table-mode entry covering DRAM; its successor holds the table base.
    lower, upper = tor_pair(dram, Permission.none())
    if dram.base != 0:
        regfile.set_entry(next_entry, lower)
        next_entry += 1
    regfile.bind_table(next_entry, upper, table)

    checker = HPMPChecker(
        regfile,
        hierarchy,
        pmptw_cache_entries=pmptw_cache_entries,
        pmptw_cache_enabled=pmptw_cache_enabled,
        name=kind,
    )
    return FlatSetup(checker, table=table, table_allocator=table_frames)
