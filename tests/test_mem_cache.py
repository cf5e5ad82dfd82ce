"""Unit tests for the cache and hierarchy timing models."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.params import CacheParams, rocket
from repro.mem.cache import Cache
from repro.mem.hierarchy import MemoryHierarchy


def small_hierarchy(size=1024, ways=2, latency=2):
    """Rocket's hierarchy with a small L1D: the cache level under test."""
    return MemoryHierarchy(rocket().with_(l1d=CacheParams("test", size, ways=ways, hit_latency=latency)))


def resident(cache, paddr):
    """Whether the line holding *paddr* is in *cache*; changes nothing."""
    shifted = paddr >> cache._line_shift
    return shifted << cache._line_shift in cache._sets[shifted & cache._set_mask]


def resident_lines(cache):
    return sum(len(s) for s in cache._sets)


class TestCache:
    """One level's sets, LRU order and counters, driven through the
    hierarchy's L1D (``MemoryHierarchy.access`` is the only lookup)."""

    def test_miss_then_hit(self):
        h = small_hierarchy()
        assert not resident(h.l1d, 0x1000)
        h.access(0x1000)
        assert resident(h.l1d, 0x1000)
        assert h.access(0x1000) == 2  # the L1 hit latency

    def test_same_line_hits(self):
        h = small_hierarchy()
        h.access(0x1000)
        assert h.access(0x1038) == 2  # same 64B line

    def test_different_line_misses(self):
        h = small_hierarchy()
        h.access(0x1000)
        assert not resident(h.l1d, 0x1040)
        assert h.access(0x1040) > 2

    def test_lru_eviction_order(self):
        h = small_hierarchy(size=256, ways=2)  # 2 sets of 2 ways
        sets = h.l1d.num_sets
        a, b, c = (0x0, sets * 64, 2 * sets * 64)  # all map to set 0
        for paddr in (a, b, a, c):  # a becomes MRU before c fills the set
            h.access(paddr)
        assert resident(h.l1d, a) and resident(h.l1d, c)
        assert not resident(h.l1d, b)
        assert h.l1d.stats["eviction"] == 1

    def test_eviction_only_within_set(self):
        h = small_hierarchy(size=256, ways=2)
        h.access(0x0)
        h.access(64)  # different set
        assert resident_lines(h.l1d) == 2

    def test_flush(self):
        h = small_hierarchy()
        for i in range(8):
            h.access(i * 64)
        h.l1d.flush()
        assert resident_lines(h.l1d) == 0

    def test_stats(self):
        h = small_hierarchy()
        h.access(0)
        h.access(0)
        assert h.l1d.stats["miss"] == 1
        assert h.l1d.stats["hit"] == 1

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            Cache(CacheParams("bad", 1000, ways=3, line_bytes=64))

    @settings(max_examples=25)
    @given(st.lists(st.integers(0, 2**20), min_size=1, max_size=200))
    def test_occupancy_bounded_by_capacity(self, addrs):
        h = small_hierarchy(size=512, ways=2)
        for addr in addrs:
            h.access(addr)
        assert resident_lines(h.l1d) <= h.l1d.num_sets * h.l1d.params.ways


class TestMemoryHierarchy:
    def test_latency_ordering_cold_then_warm(self):
        h = MemoryHierarchy(rocket())
        cold = h.access(0x8000_0000)
        warm = h.access(0x8000_0000)
        assert cold > warm
        assert warm == h.l1d.params.hit_latency

    def test_cold_latency_is_sum_of_levels_plus_dram(self):
        p = rocket()
        h = MemoryHierarchy(p)
        expected = (
            p.l1d.hit_latency + p.l2.hit_latency + p.llc.hit_latency + p.dram_latency
        )
        assert h.access(0x8000_0000) == expected

    def test_l2_hit_after_l1_eviction(self):
        p = rocket()
        h = MemoryHierarchy(p)
        base = 0x8000_0000
        h.access(base)
        # Evict the line from L1 by filling its set (L1 is 4-way here).
        l1_span = h.l1d.num_sets * 64
        for i in range(1, h.l1d.params.ways + 1):
            h.access(base + i * l1_span)
        latency = h.access(base)
        assert latency == p.l1d.hit_latency + p.l2.hit_latency

    def test_flush_selective(self):
        p = rocket()
        h = MemoryHierarchy(p)
        h.access(0x8000_0000)
        h.flush("l1")
        assert h.access(0x8000_0000) == p.l1d.hit_latency + p.l2.hit_latency

    def test_instruction_side_is_separate(self):
        p = rocket()
        h = MemoryHierarchy(p)
        h.access(0x8000_0000, instruction=False)
        # L1I miss, but L2 now hits.
        assert h.access(0x8000_0000, instruction=True) == p.l1i.hit_latency + p.l2.hit_latency

    def test_dram_ref_counting(self):
        h = MemoryHierarchy(rocket())
        h.access(0x8000_0000)
        h.access(0x8000_0000)
        assert h.stats["dram_refs"] == 1
        assert h.stats["refs"] == 2

    def test_mixed_line_sizes_rejected(self):
        """``access`` computes one line address for every level."""
        p = rocket()
        with pytest.raises(ConfigurationError, match="line size"):
            MemoryHierarchy(p.with_(l2=replace(p.l2, line_bytes=128)))
        with pytest.raises(ConfigurationError, match="line size"):
            MemoryHierarchy(p, llc=Cache(replace(p.llc, line_bytes=128)))
