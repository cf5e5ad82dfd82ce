"""Unit tests for the cache and hierarchy timing models."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.params import CacheParams, rocket
from repro.mem.cache import Cache
from repro.mem.hierarchy import MemoryHierarchy


def small_cache(size=1024, ways=2, line=64, latency=2):
    return Cache(CacheParams("test", size, ways=ways, line_bytes=line, hit_latency=latency))


class TestCache:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.probe(0x1000)
        cache.insert(0x1000)
        assert cache.probe(0x1000)

    def test_same_line_hits(self):
        cache = small_cache()
        cache.insert(0x1000)
        assert cache.probe(0x1038)  # same 64B line

    def test_different_line_misses(self):
        cache = small_cache()
        cache.insert(0x1000)
        assert not cache.probe(0x1040)

    def test_lru_eviction_order(self):
        cache = small_cache(size=256, ways=2)  # 2 sets of 2 ways
        sets = cache.num_sets
        a, b, c = (0x0, sets * 64, 2 * sets * 64)  # all map to set 0
        cache.insert(a)
        cache.insert(b)
        cache.probe(a)  # a becomes MRU
        victim = cache.insert(c)
        assert victim == b

    def test_eviction_only_within_set(self):
        cache = small_cache(size=256, ways=2)
        cache.insert(0x0)
        cache.insert(64)  # different set
        assert cache.resident_lines() == 2

    def test_invalidate(self):
        cache = small_cache()
        cache.insert(0x1000)
        assert cache.invalidate(0x1000)
        assert not cache.probe(0x1000)
        assert not cache.invalidate(0x1000)

    def test_flush(self):
        cache = small_cache()
        for i in range(8):
            cache.insert(i * 64)
        cache.flush()
        assert cache.resident_lines() == 0

    def test_stats(self):
        cache = small_cache()
        cache.probe(0)
        cache.insert(0)
        cache.probe(0)
        assert cache.stats["miss"] == 1
        assert cache.stats["hit"] == 1

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            Cache(CacheParams("bad", 1000, ways=3, line_bytes=64))

    @settings(max_examples=25)
    @given(st.lists(st.integers(0, 2**20), min_size=1, max_size=200))
    def test_occupancy_bounded_by_capacity(self, addrs):
        cache = small_cache(size=512, ways=2)
        for addr in addrs:
            cache.insert(addr)
        max_lines = cache.num_sets * cache.params.ways
        assert cache.resident_lines() <= max_lines


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

    def test_peek_does_not_disturb_state(self):
        h = MemoryHierarchy(rocket())
        lat1 = h.peek_latency(0x8000_0000)
        lat2 = h.access(0x8000_0000)
        assert lat1 == lat2  # peek did not install the line

    def test_warm_installs_everywhere(self):
        p = rocket()
        h = MemoryHierarchy(p)
        h.warm(0x8000_0000)
        assert h.access(0x8000_0000) == p.l1d.hit_latency

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
