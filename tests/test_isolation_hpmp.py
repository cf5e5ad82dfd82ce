"""Unit tests for HPMP: hybrid segment + table checking."""

import pytest

from repro.common.errors import AccessFault, ConfigurationError
from repro.common.params import rocket
from repro.common.types import MIB, PAGE_SIZE, AccessType, MemRegion, Permission, PrivilegeMode
from repro.isolation.hpmp import (
    HPMPChecker,
    HPMPRegisterFile,
    PMPTWCache,
    decode_table_addr,
    encode_table_addr,
)
from repro.isolation.pmp import AddrMatch, PMPEntry, napot_addr
from repro.isolation.pmptable import MODE_2LEVEL, PMPTable
from repro.mem.allocator import FrameAllocator
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.physical import PhysicalMemory

BASE = 0x8000_0000


@pytest.fixture
def env():
    mem = PhysicalMemory(128 * MIB, base=BASE)
    alloc = FrameAllocator(MemRegion(BASE, 16 * MIB))
    hierarchy = MemoryHierarchy(rocket())
    return mem, alloc, hierarchy


def build(env, pmptw_cache=False):
    """HPMP with entry 0 = segment over [16M,32M), entry 1 = table over [32M,128M)."""
    mem, alloc, hierarchy = env
    regfile = HPMPRegisterFile()
    seg_region = MemRegion(BASE + 16 * MIB, 16 * MIB)
    regfile.set_entry(
        0, PMPEntry(perm=Permission.rwx(), match=AddrMatch.NAPOT, addr=napot_addr(seg_region.base, seg_region.size))
    )
    table_region = MemRegion(BASE + 32 * MIB, 96 * MIB)
    table = PMPTable(mem, alloc, table_region)
    table.set_range(table_region.base, table_region.size, Permission.rw(), huge_ok=False)
    # NAPOT over 96M starting at +32M is not aligned; use a TOR pair instead.
    regfile.set_entry(1, PMPEntry(addr=table_region.base >> 2))
    tor_entry = PMPEntry(match=AddrMatch.TOR, addr=table_region.end >> 2)
    regfile.bind_table(2, tor_entry, table)
    checker = HPMPChecker(regfile, hierarchy, pmptw_cache_enabled=pmptw_cache)
    return checker, table, seg_region, table_region


class TestAddrEncoding:
    def test_roundtrip(self):
        addr = encode_table_addr(BASE, MODE_2LEVEL)
        assert decode_table_addr(addr) == (BASE, MODE_2LEVEL)

    def test_unaligned_rejected(self):
        with pytest.raises(ConfigurationError):
            encode_table_addr(BASE + 1, MODE_2LEVEL)


class TestPMPTWCache:
    def test_probe_insert(self):
        cache = PMPTWCache(2)
        assert not cache.probe(0x100)
        cache.insert(0x100)
        assert cache.probe(0x100)

    def test_lru_eviction(self):
        cache = PMPTWCache(2)
        cache.insert(0x100)
        cache.insert(0x200)
        cache.probe(0x100)
        cache.insert(0x300)  # evicts 0x200
        assert cache.probe(0x100)
        assert not cache.probe(0x200)

    def test_zero_capacity(self):
        cache = PMPTWCache(0)
        cache.insert(0x100)
        assert not cache.probe(0x100)

    def test_flush(self):
        cache = PMPTWCache(4)
        cache.insert(0x100)
        cache.flush()
        assert not cache.probe(0x100)


class TestHPMPRegisterFile:
    def test_bind_table_sets_t_bit_and_base(self, env):
        mem, alloc, _ = env
        regfile = HPMPRegisterFile()
        region = MemRegion(BASE + 32 * MIB, 32 * MIB)
        table = PMPTable(mem, alloc, region)
        entry = PMPEntry(match=AddrMatch.NAPOT, addr=napot_addr(region.base, region.size))
        regfile.bind_table(0, entry, table)
        assert regfile.entries[0].table
        root_pa, mode = decode_table_addr(regfile.entries[1].addr)
        assert root_pa == table.root_pa and mode == MODE_2LEVEL
        assert regfile.table_for(0) is table

    def test_last_entry_cannot_be_table(self, env):
        mem, alloc, _ = env
        regfile = HPMPRegisterFile()
        region = MemRegion(BASE + 32 * MIB, 32 * MIB)
        table = PMPTable(mem, alloc, region)
        entry = PMPEntry(match=AddrMatch.NAPOT, addr=napot_addr(region.base, region.size))
        with pytest.raises(ConfigurationError):
            regfile.bind_table(len(regfile) - 1, entry, table)

    def test_unbind(self, env):
        mem, alloc, _ = env
        regfile = HPMPRegisterFile()
        region = MemRegion(BASE + 32 * MIB, 32 * MIB)
        table = PMPTable(mem, alloc, region)
        entry = PMPEntry(match=AddrMatch.NAPOT, addr=napot_addr(region.base, region.size))
        regfile.bind_table(0, entry, table)
        regfile.unbind_table(0)
        assert regfile.entries[0].match is AddrMatch.OFF
        with pytest.raises(ConfigurationError):
            regfile.table_for(0)


class TestHPMPChecker:
    def test_segment_check_is_free(self, env):
        checker, _table, seg, _tr = build(env)
        cost = checker.check(seg.base, AccessType.READ)
        assert cost.refs == 0 and cost.cycles == 0

    def test_table_check_costs_two_refs(self, env):
        checker, _table, _seg, tr = build(env)
        cost = checker.check(tr.base, AccessType.READ)
        assert cost.refs == 2  # root + leaf pmpte

    def test_table_check_perm_enforced(self, env):
        checker, _table, _seg, tr = build(env)
        with pytest.raises(AccessFault):
            checker.check(tr.base, AccessType.FETCH)  # table grants rw only

    def test_revoked_page_faults(self, env):
        checker, table, _seg, tr = build(env)
        table.set_page_perm(tr.base, Permission.none())
        with pytest.raises(AccessFault):
            checker.check(tr.base, AccessType.READ)

    def test_unmatched_supervisor_denied(self, env):
        checker, _t, _s, _tr = build(env)
        with pytest.raises(AccessFault):
            checker.check(BASE, AccessType.READ)  # allocator region: no entry

    def test_machine_mode_bypasses(self, env):
        checker, _t, _s, tr = build(env)
        cost = checker.check(tr.base, AccessType.FETCH, PrivilegeMode.MACHINE)
        assert cost.refs == 0 and cost.perm == Permission.rwx()

    def test_priority_segment_over_table(self, env):
        """If a segment and a table entry overlap, the lower index wins."""
        mem, alloc, hierarchy = env
        regfile = HPMPRegisterFile()
        region = MemRegion(BASE + 32 * MIB, 32 * MIB)
        # Entry 0: segment granting rwx over the same region the table denies.
        regfile.set_entry(
            0, PMPEntry(perm=Permission.rwx(), match=AddrMatch.NAPOT, addr=napot_addr(region.base, region.size))
        )
        table = PMPTable(mem, alloc, region)  # all-invalid table
        entry = PMPEntry(match=AddrMatch.NAPOT, addr=napot_addr(region.base, region.size))
        regfile.bind_table(1, entry, table)
        checker = HPMPChecker(regfile, hierarchy)
        cost = checker.check(region.base, AccessType.FETCH)
        assert cost.refs == 0  # decided by the segment, no table walk

    def test_pmptw_cache_removes_refs(self, env):
        checker, _t, _s, tr = build(env, pmptw_cache=True)
        first = checker.check(tr.base, AccessType.READ)
        second = checker.check(tr.base, AccessType.READ)
        assert first.refs == 2
        assert second.refs == 0  # both pmptes cached

    def test_pmptw_cache_partial_hit(self, env):
        checker, _t, _s, tr = build(env, pmptw_cache=True)
        checker.check(tr.base, AccessType.READ)
        # A page 128 KiB away shares the same root pmpte (32 MiB span) but
        # lives in a different leaf pmpte (64 KiB span).
        distant = tr.base + 128 * 1024
        cost = checker.check(distant, AccessType.READ)
        assert cost.refs == 1

    def test_flush_caches(self, env):
        checker, _t, _s, tr = build(env, pmptw_cache=True)
        checker.check(tr.base, AccessType.READ)
        checker.flush_caches()
        assert checker.check(tr.base, AccessType.READ).refs == 2

    def test_check_returns_full_perm(self, env):
        """A read returns the entry's whole R/W/X, which TLB inlining caches
        so the entry also serves later writes to the page."""
        checker, _t, seg, tr = build(env)
        assert checker.check(tr.base, AccessType.READ).perm == Permission.rw()
        assert checker.check(seg.base, AccessType.READ).perm == Permission.rwx()

    def test_stats_track_walks(self, env):
        checker, _t, _s, tr = build(env)
        checker.check(tr.base, AccessType.READ)
        assert checker.stats["table_walks"] == 1
        assert checker.stats["pmpte_refs"] == 2
