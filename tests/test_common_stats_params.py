"""Tests for stats counters, machine parameter presets, and report helpers."""

import math
import random

import pytest

from repro.common.params import CacheParams, boom, machine_params, rocket
from repro.common.stats import Histogram, StatGroup
from repro.experiments.report import format_table, geomean, normalize

import json


class TestStatGroup:
    def test_bump_and_read(self):
        stats = StatGroup("t")
        stats.bump("hit")
        stats.bump("hit", 4)
        assert stats["hit"] == 5
        assert stats["miss"] == 0

    def test_ratio(self):
        stats = StatGroup("t")
        stats.bump("hit", 3)
        stats.bump("miss", 1)
        assert stats.ratio("hit", "miss") == 0.75
        assert StatGroup("empty").ratio("a", "b") == 0.0

    def test_reset_and_snapshot(self):
        stats = StatGroup("t")
        stats.bump("x", 2)
        snap = stats.snapshot()
        stats.reset()
        assert snap == {"x": 2}
        assert stats["x"] == 0

    def test_merge(self):
        a, b = StatGroup("a"), StatGroup("b")
        a.bump("x")
        b.bump("x", 2)
        b.bump("y")
        a.merge(b.snapshot())
        assert a["x"] == 3 and a["y"] == 1

    def test_iteration_and_repr(self):
        stats = StatGroup("t")
        stats.bump("z")
        assert list(stats) == ["z"]
        assert "z=1" in repr(stats)

    def test_snapshot_merge_round_trip(self):
        a = StatGroup("a")
        a.bump("hit", 7)
        a.bump("miss", 3)
        b = StatGroup("b")
        b.merge(a.snapshot())
        assert b.snapshot() == a.snapshot()
        b.merge(a.snapshot())  # merging twice doubles every counter
        assert b["hit"] == 14 and b["miss"] == 6
        assert a.snapshot() == {"hit": 7, "miss": 3}  # source untouched

    def test_ratio_docstring_is_honest(self):
        # The documented example: hit=1, miss=2 -> hit/(hit+miss) = 1/3.
        s = StatGroup("tlb")
        s.bump("hit")
        s.bump("miss", 2)
        assert round(s.ratio("hit", "miss"), 4) == 0.3333

    def test_observe_and_histogram_access(self):
        stats = StatGroup("t")
        stats.observe("lat", 5)
        for _ in range(2):
            stats.observe("lat", 6)
        hist = stats.histogram("lat")
        assert hist.count == 3 and hist.total == 17
        assert stats.histograms() == {"lat": hist}
        stats.reset()
        assert hist.count == 0

    def test_to_json_includes_histograms(self):
        stats = StatGroup("t")
        stats.bump("hit")
        stats.observe("lat", 4)
        payload = json.loads(stats.to_json())
        assert payload["counters"] == {"hit": 1}
        assert payload["histograms"]["lat"]["count"] == 1


class TestHistogram:
    def test_power_of_two_buckets(self):
        h = Histogram("lat")
        for v in (0, 1, 2, 3, 4, 7, 8, 300):
            h.observe(v)
        assert h.buckets() == {"0": 1, "1": 1, "2-3": 2, "4-7": 2, "8-15": 1, "256-511": 1}
        assert (h.count, h.min, h.max) == (8, 0, 300)

    def test_mean_and_percentile(self):
        h = Histogram()
        assert h.percentile(50) is None and h.mean == 0.0
        for _ in range(99):
            h.observe(1)
        h.observe(1024)
        assert h.mean == (99 + 1024) / 100
        assert h.percentile(50) == 1
        assert h.percentile(99) == 1
        assert h.percentile(100) == 2047  # bucket upper bound

    def test_negative_clamped(self):
        h = Histogram()
        h.observe(-5)
        assert h.min == 0 and h.buckets() == {"0": 1}

    def test_merge_histogram_and_snapshot(self):
        a, b = Histogram("a"), Histogram("b")
        for v in (1, 2, 1000):
            a.observe(v)
        for v in (0, 4):
            b.observe(v)
        merged = Histogram("m")
        merged.merge(a)
        merged.merge(b.snapshot())  # snapshots merge the same as live objects
        assert merged.count == 5
        assert merged.total == a.total + b.total
        assert (merged.min, merged.max) == (0, 1000)
        assert merged.buckets() == {**a.buckets(), **b.buckets()}

    def test_snapshot_reset_round_trip(self):
        h = Histogram("lat")
        for _ in range(3):
            h.observe(12)
        snap = h.snapshot()
        assert snap["count"] == 3 and snap["raw"] == {"4": 3}
        h.reset()
        assert h.count == 0 and h.snapshot()["raw"] == {}
        h.merge(snap)
        assert h.snapshot() == snap


class TestPercentileNearestRank:
    """The percentile is nearest-rank — ``ceil(p/100 * n)``, clamped to
    [1, n] — reported as the containing bucket's upper bound.  Property-
    checked against a sorted-sample reference over randomized streams."""

    @staticmethod
    def _reference(values, p):
        ordered = sorted(values)
        rank = min(len(ordered), max(1, math.ceil(p / 100.0 * len(ordered))))
        v = ordered[rank - 1]
        return 0 if v == 0 else (1 << v.bit_length()) - 1

    def test_matches_sorted_sample_reference(self):
        rng = random.Random(20260809)
        for _trial in range(25):
            n = rng.randint(1, 200)
            values = [rng.randint(0, 5000) for _ in range(n)]
            h = Histogram()
            for v in values:
                h.observe(v)
            for p in (0, 1, 10, 25, 50, 75, 90, 95, 99, 100):
                assert h.percentile(p) == self._reference(values, p), (n, p)

    def test_half_integer_rank_rounds_up(self):
        # 10 samples at p=25: rank 2.5 must ceil to 3 (the first 8-15
        # sample), never round half-to-even down to 2 (a 1-bucket sample).
        h = Histogram()
        for _ in range(2):
            h.observe(1)
        for _ in range(8):
            h.observe(8)
        assert h.percentile(25) == 15

    def test_p100_is_the_max_bucket_not_a_fallthrough(self):
        h = Histogram()
        h.observe(3)
        h.observe(700)
        assert h.percentile(100) == 1023  # 700's bucket bound, not 2**buckets
        lone = Histogram()
        for _ in range(4):
            lone.observe(0)
        assert lone.percentile(100) == 0

    def test_single_sample_every_percentile(self):
        h = Histogram()
        h.observe(5)
        for p in (0, 1, 50, 99, 100):
            assert h.percentile(p) == 7  # the 4-7 bucket bound


class TestPercentilesOnePass:
    """``percentiles(*ps)`` walks the buckets once and must agree exactly
    with the sorted-sample reference for every ``p``, in argument order —
    property-checked against randomized streams.  ``percentile(p)`` is
    ``percentiles(p)[0]``, so these checks cover both."""

    def test_matches_repeated_percentile_and_reference(self):
        rng = random.Random(20260810)
        for _trial in range(25):
            n = rng.randint(1, 200)
            values = [rng.randint(0, 5000) for _ in range(n)]
            h = Histogram()
            for v in values:
                h.observe(v)
            ps = (0, 1, 10, 25, 50, 75, 90, 95, 99, 100)
            expected = [TestPercentileNearestRank._reference(values, p) for p in ps]
            assert h.percentiles(*ps) == expected
            assert [h.percentile(p) for p in ps] == expected

    def test_unsorted_percentile_order_preserved(self):
        values = (1, 10, 100, 1000)
        h = Histogram()
        for v in values:
            h.observe(v)
        # Results come back in argument order even though the walk
        # satisfies ranks in ascending order internally.
        reference = TestPercentileNearestRank._reference
        assert h.percentiles(99, 1, 50) == [reference(values, 99), reference(values, 1), reference(values, 50)]

    def test_empty_histogram_yields_nones(self):
        h = Histogram()
        assert h.percentiles(50, 99) == [None, None]
        assert h.summary() == {"count": 0, "p50": None, "p95": None, "p99": None, "max": None}

    def test_summary_is_the_tail_digest(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(v)
        digest = h.summary()
        assert digest == {
            "count": 100,
            "p50": h.percentile(50),
            "p95": h.percentile(95),
            "p99": h.percentile(99),
            "max": 100,
        }

    def test_duplicate_percentiles_agree(self):
        h = Histogram()
        for _ in range(9):
            h.observe(7)
        assert h.percentiles(50, 50, 100) == [7, 7, 7]


class TestMachineParams:
    def test_presets(self):
        assert machine_params("rocket").name == "rocket"
        assert machine_params("boom").freq_mhz == 3200
        with pytest.raises(KeyError):
            machine_params("sifive")

    def test_table1_geometry(self):
        r = rocket()
        assert r.l1d.size_bytes == 16 * 1024
        assert r.l2_tlb.entries == 1024 and r.l2_tlb.ways == 1
        assert r.ptecache_entries == 8
        b = boom()
        assert b.l1d.size_bytes == 32 * 1024 and b.l1d.ways == 8
        assert b.llc.size_bytes == 4 * 1024 * 1024

    def test_with_returns_modified_copy(self):
        r = rocket()
        r2 = r.with_(ptecache_entries=32)
        assert r2.ptecache_entries == 32
        assert r.ptecache_entries == 8  # original untouched

    def test_boom_overlaps_loads(self):
        assert boom().mlp_factor < rocket().mlp_factor == 1.0

    def test_cache_sets(self):
        params = CacheParams("c", 16 * 1024, ways=4, line_bytes=64)
        assert params.sets == 64


class TestReportHelpers:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [{"a": 1, "bb": 2.5}, {"a": 30, "bb": 4}])
        lines = text.splitlines()
        assert lines[0].startswith("a ")
        assert "2.5" in text and "30" in text

    def test_format_table_title_and_missing_cells(self):
        text = format_table(["x"], [{}], title="T")
        assert text.splitlines()[0] == "T"

    def test_normalize(self):
        rows = [{"name": "r", "a": 50.0, "b": 100.0}]
        out = normalize(rows, ["a", "b"], baseline_key="b")
        assert out[0]["a"] == 50.0 and out[0]["b"] == 100.0

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0
