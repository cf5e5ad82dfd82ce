"""Histogram count-observation merge semantics and multi-source hook rollups.

The multi-hart engine aggregates per-hart HistogramHook groups into one
deterministic report; these tests pin the algebra that rollup relies on:
merging (live objects, snapshots, payloads, in any order) must be
associative and lossless over counts, totals, extrema and bucket shapes,
whatever order the samples were observed in.
"""

import random

from repro.common.stats import Histogram, StatGroup
from repro.common.types import AccessType
from repro.engine.hooks import HistogramHook, RefKind


class TestObserveCountMerge:
    def test_count_observation_equals_repeats_under_merge(self):
        # The same samples, observed value by value and interleaved.
        repeats, counted = Histogram("a"), Histogram("b")
        for value, n in ((3, 5), (17, 2), (400, 1)):
            for _ in range(n):
                repeats.observe(value)
        for value in (3, 17, 3, 400, 3, 17, 3, 3):
            counted.observe(value)
        target_a, target_b = Histogram("m"), Histogram("m")
        target_a.merge(repeats)
        target_b.merge(counted)
        assert target_a.snapshot() == target_b.snapshot()

    def test_merge_is_associative_over_count_batches(self):
        parts = []
        for seed_value in (1, 9, 120):
            h = Histogram()
            for _ in range(seed_value):
                h.observe(seed_value)
            parts.append(h)
        left = Histogram("l")
        for h in parts:
            left.merge(h)
        right = Histogram("r")
        for h in reversed(parts):
            right.merge(h.snapshot())  # snapshot form, reverse order
        assert left.snapshot()["raw"] == right.snapshot()["raw"]
        assert (left.count, left.total, left.min, left.max) == (
            right.count,
            right.total,
            right.min,
            right.max,
        )

    def test_from_snapshot_round_trips_counts(self):
        h = Histogram("lat")
        for _ in range(3):
            h.observe(12)
        for _ in range(2):
            h.observe(100)
        clone = Histogram.from_snapshot(h.snapshot(), name="clone")
        assert clone.snapshot() == h.snapshot()
        assert clone.percentile(50) == h.percentile(50)

    def test_merged_percentiles_respect_counts(self):
        fast, slow = Histogram(), Histogram()
        for _ in range(99):
            fast.observe(1)
        slow.observe(1024)
        merged = Histogram("m")
        merged.merge(fast)
        merged.merge(slow)
        assert merged.count == 100
        assert merged.percentile(50) == 1
        assert merged.mean == (99 + 1024) / 100


class TestSubShardMergeAlgebra:
    """Randomized partitions: folding per-part stats back together in
    *any* order or grouping must equal the aggregate of the whole.  This is
    the algebra a cloud cell relies on when it folds its epochs' SLO
    histograms into one rollup (``SLOAccount.from_snapshots``), and the
    campaign summary when it sums every cell's telemetry."""

    @staticmethod
    def _observations(rng, n):
        return [(rng.randint(0, 4000), rng.randint(1, 5)) for _ in range(n)]

    @staticmethod
    def _partition(rng, obs, k):
        shards = [[] for _ in range(k)]
        for item in obs:
            shards[rng.randrange(k)].append(item)
        return shards

    def test_histogram_merge_order_independent_over_random_partitions(self):
        rng = random.Random(7)
        obs = self._observations(rng, 60)
        whole = Histogram("whole")
        for value, count in obs:
            for _ in range(count):
                whole.observe(value)
        for trial in range(10):
            shards = []
            for i, chunk in enumerate(self._partition(rng, obs, rng.randint(2, 6))):
                h = Histogram(f"s{i}")
                for value, count in chunk:
                    for _ in range(count):
                        h.observe(value)
                shards.append(h)
            rng.shuffle(shards)  # merge order must not matter
            merged = Histogram("m")
            for h in shards:
                merged.merge(h.snapshot() if trial % 2 else h)  # both forms
            assert merged.snapshot() == whole.snapshot()

    def test_histogram_merge_associative(self):
        rng = random.Random(11)
        parts = []
        for i, chunk in enumerate(self._partition(rng, self._observations(rng, 40), 3)):
            h = Histogram(f"p{i}")
            for value, count in chunk:
                for _ in range(count):
                    h.observe(value)
            parts.append(h)
        a, b, c = parts
        left = Histogram("l")  # (a + b) + c
        left.merge(a)
        left.merge(b)
        left.merge(c)
        bc = Histogram("bc")  # a + (b + c)
        bc.merge(b)
        bc.merge(c)
        right = Histogram("r")
        right.merge(a)
        right.merge(bc.snapshot())
        assert left.snapshot() == right.snapshot()

    def test_statgroup_rollup_order_independent_over_random_partitions(self):
        rng = random.Random(13)
        obs = self._observations(rng, 50)
        whole = StatGroup("whole")
        for value, count in obs:
            whole.bump("refs", count)
            for _ in range(count):
                whole.observe("lat", value)
        for _trial in range(8):
            groups = []
            for i, chunk in enumerate(self._partition(rng, obs, rng.randint(2, 5))):
                g = StatGroup(f"shard{i}")
                for value, count in chunk:
                    g.bump("refs", count)
                    for _ in range(count):
                        g.observe("lat", value)
                groups.append(g)
            rng.shuffle(groups)
            merged = StatGroup("cell")
            for g in groups:
                merged.merge_payload(g.to_payload())
            assert merged.snapshot() == whole.snapshot()
            assert {k: h.snapshot() for k, h in merged.histograms().items()} == {
                k: h.snapshot() for k, h in whole.histograms().items()
            }


class TestHistogramHookAggregation:
    @staticmethod
    def _feed(hook: HistogramHook, latencies, kind=RefKind.DATA):
        for lat in latencies:
            hook.on_reference(kind, 0x8000_0000, lat)
            hook.on_access(0x40_0000, AccessType.READ, lat + 2, tlb_hit=lat % 2 == 0, refs=1)

    def test_two_sources_roll_up_losslessly(self):
        # Two hooks model two harts' private engines; the rollup is the
        # payload merge the multi-hart report uses.
        hart0, hart1 = HistogramHook("hart0"), HistogramHook("hart1")
        self._feed(hart0, (4, 4, 8))
        self._feed(hart1, (16, 32))
        merged = StatGroup("machine")
        merged.merge_payload(hart0.stats.to_payload())
        merged.merge_payload(hart1.stats.to_payload())
        assert merged["accesses"] == 5
        assert merged["refs.data"] == 5
        lat = merged.histogram("access_cycles")
        assert lat.count == 5
        assert lat.total == sum(v + 2 for v in (4, 4, 8, 16, 32))
        assert (lat.min, lat.max) == (6, 34)

    def test_rollup_order_independent(self):
        a, b = HistogramHook("a"), HistogramHook("b")
        self._feed(a, (5, 9), kind=RefKind.DATA)
        self._feed(b, (100,), kind=RefKind.PT)
        ab, ba = StatGroup("ab"), StatGroup("ba")
        for target, order in ((ab, (a, b)), (ba, (b, a))):
            for hook in order:
                target.merge_payload(hook.stats.to_payload())
        assert ab.snapshot() == ba.snapshot()
        assert {k: h.snapshot() for k, h in ab.histograms().items()} == {
            k: h.snapshot() for k, h in ba.histograms().items()
        }

    def test_sources_unchanged_by_rollup(self):
        hook = HistogramHook("h")
        self._feed(hook, (7,))
        before = hook.stats.to_payload()
        merged = StatGroup("m")
        merged.merge_payload(hook.stats.to_payload())
        merged.merge_payload(hook.stats.to_payload())  # double-merge doubles target
        assert hook.stats.to_payload() == before
        assert merged["accesses"] == 2 * hook.stats["accesses"]

    def test_fault_and_tlb_counters_aggregate(self):
        a, b = HistogramHook(), HistogramHook()
        self._feed(a, (2, 4))  # both even: 2 tlb hits
        self._feed(b, (3,))  # odd: no hit
        b.on_fault(RuntimeError("x"))
        merged = StatGroup("m")
        merged.merge_payload(a.stats.to_payload())
        merged.merge_payload(b.stats.to_payload())
        assert merged["tlb_hits"] == 2
        assert merged["faults"] == 1
