"""Property tests for the cache model against reference implementations.

A cache level is driven as the L1D of a rocket hierarchy, since
``MemoryHierarchy.access`` is a level's only lookup.  The set-by-set
comparison against composed reference caches lives in
``test_hotpath_flatten.py`` (``TestCacheEquivalence``).
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import CacheParams, rocket
from repro.mem.hierarchy import MemoryHierarchy


class ReferenceLRUCache:
    """Trivially correct set-associative LRU model."""

    def __init__(self, sets: int, ways: int, line: int = 64):
        self.sets = sets
        self.ways = ways
        self.line = line
        self.state = [OrderedDict() for _ in range(sets)]

    def _set(self, addr):
        return (addr // self.line) % self.sets

    def _tag(self, addr):
        return addr // self.line

    def contains(self, addr) -> bool:
        return self._tag(addr) in self.state[self._set(addr)]

    def probe(self, addr) -> bool:
        cset = self.state[self._set(addr)]
        tag = self._tag(addr)
        if tag in cset:
            cset.move_to_end(tag)
            return True
        return False

    def insert(self, addr) -> None:
        cset = self.state[self._set(addr)]
        tag = self._tag(addr)
        if tag in cset:
            cset.move_to_end(tag)
            return
        if len(cset) >= self.ways:
            cset.popitem(last=False)
        cset[tag] = None


def l1d_hierarchy(size, ways):
    """Rocket's hierarchy with a *size*-byte, *ways*-way L1D."""
    base = rocket()
    return MemoryHierarchy(base.with_(l1d=CacheParams("t", size, ways=ways, hit_latency=base.l1d.hit_latency)))


def resident(cache, addr) -> bool:
    """Whether the line holding *addr* is in *cache*; changes nothing."""
    shifted = addr >> cache._line_shift
    return shifted << cache._line_shift in cache._sets[shifted & cache._set_mask]


ops_strategy = st.lists(
    st.tuples(st.sampled_from(["access", "probe_only"]), st.integers(0, 1 << 16)),
    min_size=1,
    max_size=300,
)


class TestCacheVsReference:
    @settings(max_examples=40, deadline=None)
    @given(ops_strategy)
    def test_hit_miss_sequence_matches(self, operations):
        hierarchy = l1d_hierarchy(2048, ways=2)
        cache = hierarchy.l1d
        reference = ReferenceLRUCache(cache.num_sets, 2)
        for op, addr in operations:
            if op == "access":
                expected = reference.probe(addr)
                reference.insert(addr)
                got = hierarchy.access(addr) == cache.params.hit_latency
            else:
                expected = reference.contains(addr)
                got = resident(cache, addr)
            assert got == expected, (op, hex(addr))
        # The same lines stay resident, so every victim matched too.
        lines = sorted(tag * reference.line for cset in reference.state for tag in cset)
        assert sorted(line for cset in cache._sets for line in cset) == lines

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 1 << 18), min_size=1, max_size=200))
    def test_occupancy_matches(self, addrs):
        hierarchy = l1d_hierarchy(4096, ways=4)
        cache = hierarchy.l1d
        reference = ReferenceLRUCache(cache.num_sets, 4)
        for addr in addrs:
            hierarchy.access(addr)
            reference.insert(addr)
        assert sum(len(s) for s in cache._sets) == sum(len(s) for s in reference.state)


class TestHierarchyInvariants:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 1 << 22).map(lambda x: 0x8000_0000 + x), min_size=1, max_size=150))
    def test_latency_bounded_and_monotone_warm(self, addrs):
        """Every access costs at least an L1 hit and at most a full miss;
        re-accessing immediately always costs exactly an L1 hit."""
        params = rocket()
        hierarchy = MemoryHierarchy(params)
        full_miss = (
            params.l1d.hit_latency + params.l2.hit_latency + params.llc.hit_latency + params.dram_latency
        )
        for addr in addrs:
            latency = hierarchy.access(addr)
            assert params.l1d.hit_latency <= latency <= full_miss
            assert hierarchy.access(addr) == params.l1d.hit_latency

    def test_dram_count_never_exceeds_refs(self):
        hierarchy = MemoryHierarchy(rocket())
        for i in range(64):
            hierarchy.access(0x8000_0000 + i * 64)
        assert hierarchy.stats["dram_refs"] <= hierarchy.stats["refs"]
