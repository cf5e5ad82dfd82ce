"""Tests for the checker factory and flat setups."""

import pytest

from repro.common.errors import AccessFault, ConfigurationError
from repro.common.types import MIB, AccessType, MemRegion, Permission, PrivilegeMode
from repro.isolation.factory import (
    CHECKER_KINDS,
    NullChecker,
    make_flat_checker,
    segment_entry,
    tor_pair,
)
from repro.isolation.pmp import AddrMatch
from repro.mem.allocator import FrameAllocator
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.physical import PhysicalMemory
from repro.common.params import rocket

BASE = 0x8000_0000


@pytest.fixture
def env():
    memory = PhysicalMemory(128 * MIB, base=BASE)
    hierarchy = MemoryHierarchy(rocket())
    table_frames = FrameAllocator(MemRegion(BASE, 8 * MIB))
    return memory, hierarchy, table_frames


class TestHelpers:
    def test_segment_entry_napot(self):
        entry = segment_entry(MemRegion(BASE, 16 * MIB), Permission.rwx())
        assert entry.match is AddrMatch.NAPOT

    def test_segment_entry_rejects_non_napot(self):
        with pytest.raises(ConfigurationError):
            segment_entry(MemRegion(BASE + 4096, 12 * MIB), Permission.rwx())

    def test_tor_pair_covers_arbitrary_region(self):
        region = MemRegion(BASE + 4096, 3 * 4096)
        lower, upper = tor_pair(region, Permission.rw())
        assert lower.addr << 2 == region.base
        assert upper.addr << 2 == region.end
        assert upper.match is AddrMatch.TOR


class TestNullChecker:
    def test_always_allows(self):
        checker = NullChecker()
        cost = checker.check(0xDEAD_BEE8, AccessType.WRITE, PrivilegeMode.USER)
        assert cost.refs == 0 and cost.perm == Permission.rwx()


class TestMakeFlatChecker:
    def test_unknown_kind(self, env):
        memory, hierarchy, frames = env
        with pytest.raises(ConfigurationError):
            make_flat_checker("tdx", memory, hierarchy)

    def test_kinds_constant_is_complete(self):
        assert set(CHECKER_KINDS) == {"none", "pmp", "pmpt", "hpmp"}

    def test_pmpt_requires_table_frames(self, env):
        memory, hierarchy, _ = env
        with pytest.raises(ConfigurationError):
            make_flat_checker("pmpt", memory, hierarchy)

    def test_hpmp_requires_pt_region(self, env):
        memory, hierarchy, frames = env
        with pytest.raises(ConfigurationError):
            make_flat_checker("hpmp", memory, hierarchy, table_frames=frames)

    def test_pmp_setup_grants_dram_to_supervisor(self, env):
        memory, hierarchy, _ = env
        setup = make_flat_checker("pmp", memory, hierarchy)
        cost = setup.checker.check(BASE + 64 * MIB, AccessType.READ, PrivilegeMode.SUPERVISOR)
        assert cost.refs == 0

    def test_pmpt_setup_walks_leaf_tables(self, env):
        memory, hierarchy, frames = env
        setup = make_flat_checker("pmpt", memory, hierarchy, table_frames=frames)
        cost = setup.checker.check(BASE + 64 * MIB, AccessType.READ)
        assert cost.refs == 2  # huge entries disabled: leaf-granular

    def test_outside_dram_denied(self, env):
        memory, hierarchy, frames = env
        setup = make_flat_checker("pmpt", memory, hierarchy, table_frames=frames)
        with pytest.raises(AccessFault):
            setup.checker.check(BASE - 4096, AccessType.READ)

    def test_hpmp_setup_pt_region_is_free(self, env):
        memory, hierarchy, frames = env
        pt_region = MemRegion(BASE + 16 * MIB, 16 * MIB)
        setup = make_flat_checker("hpmp", memory, hierarchy, pt_region=pt_region, table_frames=frames)
        assert setup.checker.check(pt_region.base, AccessType.READ).refs == 0
        assert setup.checker.check(BASE + 64 * MIB, AccessType.READ).refs == 2

    def test_setup_exposes_table_for_inspection(self, env):
        memory, hierarchy, frames = env
        setup = make_flat_checker("pmpt", memory, hierarchy, table_frames=frames)
        assert setup.table is not None
        assert setup.table.lookup(BASE + 64 * MIB).perm == Permission.rwx()
