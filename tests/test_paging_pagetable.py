"""Unit tests for the RISC-V page-table builder and functional walker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, PageFault
from repro.common.types import GIB, MIB, PAGE_SIZE, AccessType, MemRegion, Permission
from repro.mem.allocator import FrameAllocator
from repro.mem.physical import PhysicalMemory
from repro.paging.pagetable import (
    PageTable,
    pte_encode,
    pte_is_leaf,
    pte_is_valid,
    pte_perm,
    pte_pointer,
    pte_ppn,
)

BASE = 0x8000_0000


@pytest.fixture
def env():
    mem = PhysicalMemory(64 * MIB, base=BASE)
    alloc = FrameAllocator(MemRegion(BASE, 16 * MIB))
    return mem, alloc


def make_pt(env, mode="sv39"):
    mem, alloc = env
    return PageTable(mem, alloc.alloc, mode=mode)


class TestPTEEncoding:
    def test_leaf_roundtrip(self):
        pte = pte_encode(0x12345, Permission.rw(), user=True)
        assert pte_is_valid(pte)
        assert pte_is_leaf(pte)
        assert pte_ppn(pte) == 0x12345
        assert pte_perm(pte) == Permission.rw()

    def test_pointer_is_not_leaf(self):
        pte = pte_pointer(0x99)
        assert pte_is_valid(pte)
        assert not pte_is_leaf(pte)
        assert pte_ppn(pte) == 0x99

    def test_invalid(self):
        pte = pte_encode(0x1, Permission.rw(), valid=False)
        assert not pte_is_valid(pte)


class TestPageTable:
    def test_sv39_walk_depth(self, env):
        pt = make_pt(env)
        pt.map_page(0x4000_0000, BASE + 32 * MIB)
        result = pt.walk(0x4000_0000)
        assert len(result.steps) == 3
        assert result.paddr == BASE + 32 * MIB

    def test_sv48_and_sv57_walk_depth(self, env):
        for mode, depth in [("sv48", 4), ("sv57", 5)]:
            pt = make_pt(env, mode=mode)
            pt.map_page(0x4000_0000, BASE + 32 * MIB)
            assert len(pt.walk(0x4000_0000).steps) == depth

    def test_offset_preserved(self, env):
        pt = make_pt(env)
        pt.map_page(0x4000_0000, BASE + 32 * MIB)
        assert pt.walk(0x4000_0ABC).paddr == BASE + 32 * MIB + 0xABC

    def test_unmapped_faults(self, env):
        pt = make_pt(env)
        with pytest.raises(PageFault):
            pt.walk(0x4000_0000)

    def test_translate_checks_permission(self, env):
        pt = make_pt(env)
        pt.map_page(0x4000_0000, BASE + 32 * MIB, Permission(r=True))
        assert pt.translate(0x4000_0000, AccessType.READ) == BASE + 32 * MIB
        with pytest.raises(PageFault):
            pt.translate(0x4000_0000, AccessType.WRITE)

    def test_pt_page_sharing_within_2mib(self, env):
        """Adjacent 4 KiB pages share the same leaf PT page."""
        pt = make_pt(env)
        pt.map_page(0x4000_0000, BASE + 32 * MIB)
        pages_before = pt.pt_page_count()
        pt.map_page(0x4000_1000, BASE + 33 * MIB)
        assert pt.pt_page_count() == pages_before

    def test_distant_vas_need_new_tables(self, env):
        pt = make_pt(env)
        pt.map_page(0x0000_0000, BASE + 32 * MIB)
        pages_before = pt.pt_page_count()
        pt.map_page(0x40_0000_0000 - PAGE_SIZE, BASE + 33 * MIB)  # other L2 slot
        assert pt.pt_page_count() > pages_before

    def test_huge_page_2mib(self, env):
        pt = make_pt(env)
        pt.map_page(0x4000_0000, BASE + 32 * MIB, level=1)
        result = pt.walk(0x4000_0000 + 5 * PAGE_SIZE + 12)
        assert result.page_size == 2 * MIB
        assert result.paddr == BASE + 32 * MIB + 5 * PAGE_SIZE + 12
        assert len(result.steps) == 2  # walk stops at level 1

    def test_huge_page_1gib(self, env):
        pt = make_pt(env)
        pt.map_page(0x4000_0000, 0x8000_0000, level=2)
        assert pt.walk(0x4000_0000).page_size == 1 * GIB

    def test_huge_page_alignment_enforced(self, env):
        pt = make_pt(env)
        with pytest.raises(ConfigurationError):
            pt.map_page(0x4000_0000 + PAGE_SIZE, BASE, level=1)

    def test_map_over_huge_page_rejected(self, env):
        pt = make_pt(env)
        pt.map_page(0x4000_0000, BASE + 32 * MIB, level=1)
        with pytest.raises(ConfigurationError):
            pt.map_page(0x4000_0000, BASE + 40 * MIB)

    def test_unmap(self, env):
        pt = make_pt(env)
        pt.map_page(0x4000_0000, BASE + 32 * MIB)
        assert pt.unmap_page(0x4000_0000)
        with pytest.raises(PageFault):
            pt.walk(0x4000_0000)
        assert not pt.unmap_page(0x4000_0000)

    def test_map_range(self, env):
        pt = make_pt(env)
        pt.map_range(0x4000_0000, BASE + 32 * MIB, 16 * PAGE_SIZE)
        for i in range(16):
            assert pt.walk(0x4000_0000 + i * PAGE_SIZE).paddr == BASE + 32 * MIB + i * PAGE_SIZE

    def test_mapped_vas_enumeration(self, env):
        pt = make_pt(env)
        vas = [0x4000_0000, 0x4000_1000, 0x8000_0000]
        for i, va in enumerate(vas):
            pt.map_page(va, BASE + (32 + i) * MIB)
        assert sorted(pt.mapped_vas()) == sorted(vas)

    def test_pt_region_bounds_cover_all_pages(self, env):
        pt = make_pt(env)
        pt.map_page(0x4000_0000, BASE + 32 * MIB)
        low, high = pt.pt_region_bounds()
        assert all(low <= p < high for p in pt.pt_pages)

    def test_user_bit(self, env):
        pt = make_pt(env)
        pt.map_page(0x4000_0000, BASE + 32 * MIB, user=False)
        assert not pt.walk(0x4000_0000).user

    def test_unknown_mode_rejected(self, env):
        mem, alloc = env
        with pytest.raises(ConfigurationError):
            PageTable(mem, alloc.alloc, mode="sv64")

    @settings(max_examples=20)
    @given(st.integers(0, (1 << 27) - 1))
    def test_walk_matches_map_property(self, page_index):
        """Any VA mapped within a 512 GiB space walks back to its PA."""
        mem = PhysicalMemory(64 * MIB, base=BASE)
        alloc = FrameAllocator(MemRegion(BASE, 16 * MIB))
        pt = PageTable(mem, alloc.alloc)
        va = page_index * PAGE_SIZE
        pa = BASE + 32 * MIB
        pt.map_page(va, pa)
        assert pt.walk(va).paddr == pa


class TestWalkMemo:
    """walk()'s memo is never served stale, whoever writes table memory,
    and costs no memory read while nothing has been written."""

    VA = 0x4000_0000

    def _mapped(self, env):
        pt = make_pt(env)
        pt.map_page(self.VA, BASE + 32 * MIB)
        return env[0], pt, pt.walk(self.VA)

    def test_raw_write64_to_leaf_pte_is_seen(self, env):
        mem, pt, first = self._mapped(env)
        leaf_addr = first.steps[-1].pte_addr
        mem.write64(leaf_addr, pte_encode((BASE + 40 * MIB) >> 12, Permission.rw()))
        assert pt.walk(self.VA).paddr == BASE + 40 * MIB

    def test_fill_zeroing_leaf_pt_page_is_seen(self, env):
        mem, pt, first = self._mapped(env)
        leaf_page = first.steps[-1].pte_addr & ~(PAGE_SIZE - 1)
        mem.fill(leaf_page, PAGE_SIZE, 0)
        with pytest.raises(PageFault):
            pt.walk(self.VA)

    def test_reuse_without_a_write_reads_nothing(self, env, monkeypatch):
        mem, pt, first = self._mapped(env)
        reads = []
        real_read64 = mem.read64

        def spy(paddr):
            reads.append(paddr)
            return real_read64(paddr)

        monkeypatch.setattr(mem, "read64", spy)
        assert pt.walk(self.VA + 0x18).paddr == first.paddr + 0x18
        assert pt.walk(self.VA) is first
        assert reads == []
        # An unrelated write forces one word-by-word re-validation, which
        # stamps the entry with the new epoch: the next reuse reads nothing.
        mem.write64(BASE + 48 * MIB, 1)
        assert pt.walk(self.VA) is first
        assert reads == [step.pte_addr for step in first.steps]
        reads.clear()
        assert pt.walk(self.VA) is first
        assert reads == []
