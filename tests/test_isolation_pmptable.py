"""Unit tests for the PMP Table structure (paper Figure 6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.types import GIB, KIB, MIB, PAGE_SIZE, MemRegion, Permission
from repro.isolation.pmptable import (
    ENTRIES_PER_TABLE,
    LEAF_PTE_SPAN,
    LEAF_TABLE_SPAN,
    MODE_2LEVEL,
    MODE_3LEVEL,
    MODE_FLAT,
    PAGES_PER_LEAF_PTE,
    ROOT_TABLE_SPAN,
    PMPTable,
    leaf_pmpte_get,
    leaf_pmpte_set,
    leaf_pmpte_uniform,
    root_pmpte_huge,
    root_pmpte_is_huge,
    root_pmpte_is_valid,
    root_pmpte_leaf_pa,
    root_pmpte_perm,
    root_pmpte_pointer,
    split_offset,
    tables_needed,
)
from repro.mem.allocator import FrameAllocator
from repro.mem.physical import PhysicalMemory
from repro.verify.oracle import ShadowPermissionOracle, TableWriteModel

BASE = 0x8000_0000


@pytest.fixture
def env():
    mem = PhysicalMemory(128 * MIB, base=BASE)
    alloc = FrameAllocator(MemRegion(BASE, 32 * MIB))
    region = MemRegion(BASE + 32 * MIB, 96 * MIB)
    return mem, alloc, region


def make_table(env, mode=MODE_2LEVEL):
    mem, alloc, region = env
    return PMPTable(mem, alloc, region, mode=mode)


class TestEncodings:
    def test_geometry_constants_match_paper(self):
        # One leaf pmpte: 16 x 4 KiB pages = 64 KiB; one leaf table: 32 MiB;
        # a 2-level table: 16 GiB (paper section 4.3).
        assert PAGES_PER_LEAF_PTE == 16
        assert LEAF_PTE_SPAN == 64 * KIB
        assert LEAF_TABLE_SPAN == 32 * MIB
        assert ROOT_TABLE_SPAN == 16 * GIB

    def test_root_pointer_roundtrip(self):
        pmpte = root_pmpte_pointer(BASE + 4 * PAGE_SIZE)
        assert root_pmpte_is_valid(pmpte)
        assert not root_pmpte_is_huge(pmpte)
        assert root_pmpte_leaf_pa(pmpte) == BASE + 4 * PAGE_SIZE

    def test_root_huge_roundtrip(self):
        pmpte = root_pmpte_huge(Permission.rx())
        assert root_pmpte_is_valid(pmpte)
        assert root_pmpte_is_huge(pmpte)
        assert root_pmpte_perm(pmpte) == Permission.rx()

    def test_invalid_root(self):
        assert not root_pmpte_is_valid(0)

    @given(st.integers(0, 15), st.integers(0, 7))
    def test_leaf_set_get_property(self, index, bits):
        perm = Permission.from_bits(bits)
        pmpte = leaf_pmpte_set(0, index, perm)
        assert leaf_pmpte_get(pmpte, index) == perm
        # Other slots untouched.
        for other in range(16):
            if other != index:
                assert leaf_pmpte_get(pmpte, other) == Permission.none()

    def test_leaf_uniform(self):
        pmpte = leaf_pmpte_uniform(Permission.rw())
        assert all(leaf_pmpte_get(pmpte, i) == Permission.rw() for i in range(16))

    def test_leaf_index_bounds(self):
        with pytest.raises(ConfigurationError):
            leaf_pmpte_get(0, 16)
        with pytest.raises(ConfigurationError):
            leaf_pmpte_set(0, -1, Permission.rw())

    def test_split_offset_fields(self):
        offset = (3 << 25) | (7 << 16) | (5 << 12) | 0xABC
        off1, off0, page_index = split_offset(offset)
        assert (off1, off0, page_index) == (3, 7, 5)

    def test_tables_needed(self):
        assert tables_needed(16 * GIB) == 1
        assert tables_needed(16 * GIB + 1) == 2
        assert tables_needed(128 * GIB) == 8  # paper: 16 entries -> 8 tables -> 128 GiB


class TestPMPTable:
    def test_lookup_unset_page_faults(self, env):
        table = make_table(env)
        lookup = table.lookup(table.region.base)
        assert lookup.perm is None
        assert len(lookup.pmpte_addrs) == 1  # root read is enough to fault

    def test_set_then_lookup(self, env):
        table = make_table(env)
        pa = table.region.base + 4 * PAGE_SIZE
        table.set_page_perm(pa, Permission.rw())
        lookup = table.lookup(pa)
        assert lookup.perm == Permission.rw()
        assert len(lookup.pmpte_addrs) == 2  # root + leaf: the paper's 2 refs

    def test_neighbor_page_has_no_perm(self, env):
        table = make_table(env)
        pa = table.region.base
        table.set_page_perm(pa, Permission.rw())
        assert table.lookup(pa + PAGE_SIZE).perm == Permission.none()

    def test_set_range_page_granular(self, env):
        table = make_table(env)
        base = table.region.base
        table.set_range(base, 8 * PAGE_SIZE, Permission.rwx())
        for i in range(8):
            assert table.lookup(base + i * PAGE_SIZE).perm == Permission.rwx()
        assert table.lookup(base + 8 * PAGE_SIZE).perm == Permission.none()

    def test_huge_root_entry_single_ref(self, env):
        mem, alloc, _ = env
        region = MemRegion(BASE + 32 * MIB, 64 * MIB)
        table = PMPTable(mem, alloc, region)
        table.set_range(region.base, LEAF_TABLE_SPAN, Permission.rw())  # one 32 MiB chunk
        lookup = table.lookup(region.base + 5 * PAGE_SIZE)
        assert lookup.perm == Permission.rw()
        assert len(lookup.pmpte_addrs) == 1  # huge pmpte: root only

    def test_huge_disabled_forces_leaf_walk(self, env):
        mem, alloc, _ = env
        region = MemRegion(BASE + 32 * MIB, 64 * MIB)
        table = PMPTable(mem, alloc, region)
        table.set_range(region.base, LEAF_TABLE_SPAN, Permission.rw(), huge_ok=False)
        assert len(table.lookup(region.base).pmpte_addrs) == 2

    def test_huge_shatters_on_finer_write(self, env):
        mem, alloc, _ = env
        region = MemRegion(BASE + 32 * MIB, 64 * MIB)
        table = PMPTable(mem, alloc, region)
        table.set_range(region.base, LEAF_TABLE_SPAN, Permission.rw())
        table.set_page_perm(region.base + PAGE_SIZE, Permission.none())
        assert table.lookup(region.base).perm == Permission.rw()
        assert table.lookup(region.base + PAGE_SIZE).perm == Permission.none()
        assert len(table.lookup(region.base).pmpte_addrs) == 2  # now a leaf walk

    def test_write_counts_for_64k_region(self, env):
        table = make_table(env)
        writes = table.set_range(table.region.base, 64 * KIB, Permission.rw())
        # One uniform leaf pmpte + the root pointer created on demand.
        assert writes == 2
        writes = table.set_range(table.region.base, 64 * KIB, Permission.none())
        assert writes == 1  # leaf table already exists

    def test_clear_range(self, env):
        table = make_table(env)
        base = table.region.base
        table.set_range(base, 4 * PAGE_SIZE, Permission.rwx())
        table.clear_range(base, 4 * PAGE_SIZE)
        assert table.lookup(base).perm == Permission.none()

    def test_outside_region_rejected(self, env):
        table = make_table(env)
        with pytest.raises(ConfigurationError):
            table.lookup(BASE)  # allocator region, not table region
        with pytest.raises(ConfigurationError):
            table.set_page_perm(BASE, Permission.rw())

    def test_unaligned_rejected(self, env):
        table = make_table(env)
        with pytest.raises(ConfigurationError):
            table.set_page_perm(table.region.base + 1, Permission.rw())
        with pytest.raises(ConfigurationError):
            table.set_range(table.region.base, 100, Permission.rw())

    def test_negative_range_rejected_before_writing(self, env):
        table = make_table(env)
        base = table.region.base + 8 * PAGE_SIZE
        table.set_range(base, 4 * PAGE_SIZE, Permission.rwx())
        writes = table.entry_writes
        with pytest.raises(ConfigurationError):
            table.set_range(base, -4 * PAGE_SIZE, Permission.rw())
        assert table.entry_writes == writes
        assert table.lookup(base - PAGE_SIZE).perm == Permission.none()
        assert table.lookup(base).perm == Permission.rwx()

    def test_monitor_domain_rejects_negative_range(self):
        from repro.soc.system import System
        from repro.tee.monitor import SecureMonitor

        system = System(checker_kind="hpmp", mem_mib=128)
        domain = SecureMonitor(system).create_domain("d")
        with pytest.raises(ConfigurationError):
            domain.table.set_range(system.data_region.base, -4 * PAGE_SIZE, Permission.rw())

    def test_region_too_large_rejected(self, env):
        mem, alloc, _ = env
        with pytest.raises(ConfigurationError):
            PMPTable(mem, alloc, MemRegion(0, 17 * GIB))

    def test_footprint_grows_with_leaf_tables(self, env):
        table = make_table(env)
        before = table.footprint_bytes()
        table.set_page_perm(table.region.base, Permission.rw())
        table.set_page_perm(table.region.base + LEAF_TABLE_SPAN, Permission.rw())
        assert table.footprint_bytes() == before + 2 * PAGE_SIZE

    def test_flat_mode_single_ref(self, env):
        table = make_table(env, mode=MODE_FLAT)
        pa = table.region.base + 3 * PAGE_SIZE
        table.set_page_perm(pa, Permission.rw())
        lookup = table.lookup(pa)
        assert lookup.perm == Permission.rw()
        assert len(lookup.pmpte_addrs) == 1

    def test_3level_mode_three_refs(self, env):
        table = make_table(env, mode=MODE_3LEVEL)
        pa = table.region.base
        table.set_page_perm(pa, Permission.rw())
        lookup = table.lookup(pa)
        assert lookup.perm == Permission.rw()
        assert len(lookup.pmpte_addrs) == 3

    @settings(max_examples=20)
    @given(st.integers(0, 96 * MIB // PAGE_SIZE - 1), st.integers(0, 7))
    def test_set_lookup_property(self, page_index, bits):
        mem = PhysicalMemory(128 * MIB, base=BASE)
        alloc = FrameAllocator(MemRegion(BASE, 32 * MIB))
        region = MemRegion(BASE + 32 * MIB, 96 * MIB)
        table = PMPTable(mem, alloc, region)
        perm = Permission.from_bits(bits)
        pa = region.base + page_index * PAGE_SIZE
        table.set_page_perm(pa, perm)
        assert table.lookup(pa).perm == perm


MODES = pytest.mark.parametrize(
    "mode", [MODE_2LEVEL, MODE_3LEVEL, MODE_FLAT], ids=["2level", "3level", "flat"]
)


class TestLookupMemo:
    """lookup()'s memo is never served stale, whoever writes the table."""

    @MODES
    def test_raw_write64_to_pmpte_is_seen(self, env, mode):
        table = make_table(env, mode=mode)
        pa = table.region.base + 3 * PAGE_SIZE
        table.set_page_perm(pa, Permission.rw())
        first = table.lookup(pa)
        assert first.perm == Permission.rw()
        table.memory.write64(first.pmpte_addrs[-1], leaf_pmpte_uniform(Permission.rx()))
        assert table.lookup(pa).perm == Permission.rx()

    @MODES
    def test_set_range_over_pmpte_is_seen(self, env, mode):
        table = make_table(env, mode=mode)
        pa = table.region.base + 3 * PAGE_SIZE
        table.set_page_perm(pa, Permission.rw())
        assert table.lookup(pa).perm == Permission.rw()
        # A whole 64 KiB pmpte: set_range stores it with one memory fill.
        table.set_range(table.region.base, LEAF_PTE_SPAN, Permission.rx())
        assert table.lookup(pa).perm == Permission.rx()


# Offsets into the 96 MiB fixture region, whose leaf-table boundaries fall at
# 32 and 64 MiB.  Each case is (ops applied to both tables with set_range,
# ops applied with set_range to one table and page by page to its twin).
_K = LEAF_PTE_SPAN
_T = LEAF_TABLE_SPAN
_P = PAGE_SIZE
RUN_CASES = {
    "mid-pmpte-start-and-end": ([], [(_K + 3 * _P, 5 * _K + 7 * _P, Permission.rw(), True)]),
    "end-on-leaf-table-boundary": ([], [(_T - 7 * _K - 2 * _P, 7 * _K + 2 * _P, Permission.rwx(), True)]),
    "cross-one-boundary": ([], [(_T - 3 * _K - _P, 6 * _K + 2 * _P, Permission.rx(), False)]),
    "cross-two-boundaries": ([], [(_T - 2 * _K - 5 * _P, _T + 4 * _K + 9 * _P, Permission.rw(), False)]),
    "shatter-huge-root": (
        [(_T, _T, Permission.rw(), True)],
        [(_T + 5 * _K + _P, 9 * _K, Permission.rx(), True)],
    ),
    "none-run-over-leaves": (
        [(0, 2 * _T, Permission.rwx(), False)],
        [(_T - 4 * _K - 3 * _P, 8 * _K + 6 * _P, Permission.none(), False)],
    ),
    "none-run-onto-huge-root": (
        [(0, _T, Permission.rw(), True)],
        [(3 * _P, 20 * _K, Permission.none(), True)],
    ),
    "none-run-on-empty-table": ([], [(_T - _K, 2 * _K, Permission.none(), False)]),
}


def _table_words(table):
    return {
        page: [table.memory.read64(page + i * 8) for i in range(ENTRIES_PER_TABLE)]
        for page in table.table_pages
    }


class TestRunBoundaries:
    """set_range's leaf-run writes against a page-by-page twin table."""

    @pytest.mark.parametrize("case", sorted(RUN_CASES))
    @MODES
    def test_set_range_matches_per_page_twin(self, mode, case):
        region = MemRegion(BASE + 32 * MIB, 96 * MIB)

        def fresh():
            mem = PhysicalMemory(128 * MIB, base=BASE)
            return PMPTable(mem, FrameAllocator(MemRegion(BASE, 32 * MIB)), region, mode=mode)

        table, twin = fresh(), fresh()
        model = TableWriteModel(region, mode)
        shadow = ShadowPermissionOracle(region)  # catches faults both tables share
        setup, ops = RUN_CASES[case]
        for offset, size, perm, huge_ok in setup:
            base = region.base + offset
            expected = model.set_range(base, size, perm, huge_ok)
            assert table.set_range(base, size, perm, huge_ok) == expected
            twin.set_range(base, size, perm, huge_ok)
            shadow.set_range(base, size, perm)
        for offset, size, perm, huge_ok in ops:
            base = region.base + offset
            expected = model.set_range(base, size, perm, huge_ok)
            assert table.set_range(base, size, perm, huge_ok) == expected
            for pa in range(base, base + size, PAGE_SIZE):
                twin.set_page_perm(pa, perm)
            shadow.set_range(base, size, perm)
            lo = max(base - LEAF_PTE_SPAN, region.base)
            hi = min(base + size + LEAF_PTE_SPAN, region.end)
            for pa in range(lo, hi, PAGE_SIZE):
                got = table.lookup(pa).perm
                assert got == twin.lookup(pa).perm, hex(pa)
                assert (got or Permission.none()) == shadow.perm_at(pa), hex(pa)
        assert _table_words(table) == _table_words(twin)
