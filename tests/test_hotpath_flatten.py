"""Tests for the flattened hot path: array-backed caches, deferred stats,
the PMP match table, deterministic workload hashing, and the profile CLI."""

import gc
import json
import random
import subprocess
import sys
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import MemoryError_
from repro.common.params import CacheParams, rocket
from repro.common.stats import StatGroup
from repro.common.types import PAGE_SIZE, AccessType, MemRegion, Permission, PrivilegeMode
from repro.isolation.pmp import AddrMatch, PMPEntry, PMPRegisterFile, napot_addr
from repro.mem.allocator import FrameAllocator
from repro.mem.cache import Cache
from repro.mem.hierarchy import MemoryHierarchy
from repro.runner.cli import bench_summary
from repro.runner.manifest import CellRecord, RunManifest
from repro.runner.store import ResultStore
from repro.workloads.harness import stable_hash


class ReferenceCache:
    """OrderedDict model of the pre-flattening Cache, including stats and
    victim selection (LRU order = dict order)."""

    def __init__(self, params: CacheParams):
        self.line = params.line_bytes
        self.ways = params.ways
        self.num_sets = params.size_bytes // (params.line_bytes * params.ways)
        self.sets = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _set(self, paddr):
        return self.sets[(paddr // self.line) % self.num_sets]

    def _line(self, paddr):
        return (paddr // self.line) * self.line

    def probe(self, paddr, update_lru=True):
        cset = self._set(paddr)
        line = self._line(paddr)
        if not update_lru:
            return line in cset
        if line in cset:
            cset.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, paddr):
        cset = self._set(paddr)
        line = self._line(paddr)
        if line in cset:
            cset.move_to_end(line)
            return None
        victim = None
        if len(cset) >= self.ways:
            victim = next(iter(cset))
            del cset[victim]
            self.evictions += 1
        cset[line] = None
        return victim

    def invalidate(self, paddr):
        cset = self._set(paddr)
        line = self._line(paddr)
        if line not in cset:
            return False
        del cset[line]
        return True

    def flush(self):
        for cset in self.sets:
            cset.clear()

    def resident(self):
        return sorted(line for cset in self.sets for line in cset)


class ReferenceHierarchy:
    """Three ``ReferenceCache`` models composed per side, as the hierarchy
    was before its level loop was fused: probe L1 → L2 → LLC with one
    ``probe`` per level, then ``insert`` into every level that missed on
    the way back."""

    def __init__(self, params):
        self.params = params
        self.l1d, self.l1i, self.l2, self.llc = (
            ReferenceCache(level) for level in (params.l1d, params.l1i, params.l2, params.llc)
        )
        self.refs = 0
        self.dram_refs = 0

    def access(self, paddr, instruction=False):
        self.refs += 1
        p = self.params
        l1, l1_params = (self.l1i, p.l1i) if instruction else (self.l1d, p.l1d)
        path = ((l1, l1_params.hit_latency), (self.l2, p.l2.hit_latency), (self.llc, p.llc.hit_latency))
        cycles = 0
        missed = []
        for cache, latency in path:
            cycles += latency
            if cache.probe(paddr):
                break
            missed.append(cache)
        else:
            cycles += p.dram_latency
            self.dram_refs += 1
        for cache in reversed(missed):
            cache.insert(paddr)
        return cycles

    def access_run(self, paddr, stride, count, instruction=False):
        return sum(self.access(paddr + i * stride, instruction) for i in range(count))


def _small_hierarchy_params():
    """Rocket's latencies over caches small enough for a short op stream to
    hit, miss and evict at every level (16/8/64/128 lines)."""
    base = rocket()
    return base.with_(
        l1d=CacheParams("l1d", 1024, ways=2, hit_latency=base.l1d.hit_latency),
        l1i=CacheParams("l1i", 512, ways=2, hit_latency=base.l1i.hit_latency),
        l2=CacheParams("l2", 4096, ways=4, hit_latency=base.l2.hit_latency),
        llc=CacheParams("llc", 8192, ways=8, hit_latency=base.llc.hit_latency),
    )


#: A single reference or a strided run, on either side, starting in the
#: first 16 KiB.
_HIERARCHY_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("access"), st.integers(0, (1 << 14) - 1), st.booleans()),
        st.tuples(
            st.just("run"),
            st.integers(0, (1 << 14) - 1),
            st.booleans(),
            st.sampled_from([0, 8, 64, 4096]),
            st.integers(0, 40),
        ),
    ),
    min_size=1,
    max_size=200,
)


class TestCacheEquivalence:
    """The flat-list Cache is observationally identical to the OrderedDict
    model: hits, victims, evictions and residency all match under random
    probe / insert / invalidate / flush streams, and the hierarchy's fused
    level loop matches three of them composed."""

    # LRU is the only replacement policy; the parameter keeps the case ids.
    @pytest.mark.parametrize("replacement", ["lru"])
    @pytest.mark.parametrize(
        "seed, params, span",
        [(seed, CacheParams("t", 4096, ways=4, line_bytes=64), 1 << 16) for seed in (0, 1, 7, 42)]
        # The rocket LLC (8,192 sets) over 4 MiB: most operations land on
        # sets that were never filled or were just flushed.
        + [(0, rocket().llc, 1 << 22)]
        # An 8 KiB, 8-way, 16-set cache over 64 KiB: 64 lines compete for
        # each set, so most misses land in a full 8-way set and evict.
        + [(0, CacheParams("t", 8192, ways=8, line_bytes=64), 1 << 16)],
        ids=["0", "1", "7", "42", "rocket-llc", "8way-16set"],
    )
    def test_random_streams_match(self, replacement, seed, params, span):
        cache = Cache(params)
        reference = ReferenceCache(params)
        rng = random.Random(1000 + seed)
        for step in range(4000):
            op = rng.choices(
                ["probe", "peek", "insert", "invalidate", "flush"],
                weights=[20, 10, 20, 8, 2],
            )[0]
            paddr = rng.randrange(0, span)
            if op == "probe":
                assert cache.probe(paddr) == reference.probe(paddr), step
            elif op == "peek":
                got = cache.probe(paddr, update_lru=False)
                assert got == reference.probe(paddr, update_lru=False), step
            elif op == "insert":
                assert cache.insert(paddr) == reference.insert(paddr), step
            elif op == "invalidate":
                assert cache.invalidate(paddr) == reference.invalidate(paddr), step
            else:
                cache.flush()
                reference.flush()
        assert cache.resident_lines() == len(reference.resident())
        # Set by set, MRU first (an unfilled set is a tuple, an emptied one a list).
        assert [list(s) for s in cache._sets] == [list(reversed(s)) for s in reference.sets]
        for line in reference.resident():
            assert cache.probe(line, update_lru=False), hex(line)
        assert cache.stats["hit"] == reference.hits
        assert cache.stats["miss"] == reference.misses
        assert cache.stats["eviction"] == reference.evictions

    @settings(max_examples=60, deadline=None)
    @given(_HIERARCHY_OPS)
    def test_hierarchy_matches_composed_reference_caches(self, ops):
        params = _small_hierarchy_params()
        hierarchy = MemoryHierarchy(params)
        reference = ReferenceHierarchy(params)
        for step, op in enumerate(ops):
            if op[0] == "access":
                _, paddr, instruction = op
                got = hierarchy.access(paddr, instruction)
                assert got == reference.access(paddr, instruction), (step, op)
            else:
                _, paddr, instruction, stride, count = op
                got = hierarchy.access_run(paddr, stride, count, instruction)
                assert got == reference.access_run(paddr, stride, count, instruction), (step, op)
        assert hierarchy.stats["refs"] == reference.refs
        assert hierarchy.stats["dram_refs"] == reference.dram_refs
        for name in ("l1d", "l1i", "l2", "llc"):
            cache, model = getattr(hierarchy, name), getattr(reference, name)
            assert cache.stats["hit"] == model.hits, name
            assert cache.stats["miss"] == model.misses, name
            assert cache.stats["eviction"] == model.evictions, name
            # Set by set, MRU first.
            assert [list(s) for s in cache._sets] == [list(reversed(s)) for s in model.sets], name

    def test_hierarchy_build_tracks_few_objects(self):
        """Unfilled sets share one empty tuple, so building a hierarchy
        (8,192 LLC sets alone) hands the collector almost nothing to track."""
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            hierarchy = MemoryHierarchy(rocket())
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert hierarchy.llc.num_sets == 8192
        assert added < 200, added


class TestStatPurity:
    def test_probe_without_lru_update_leaves_stats_untouched(self):
        cache = Cache(CacheParams("t", 1024, ways=2, line_bytes=64))
        cache.insert(0x1000)
        baseline = cache.stats.snapshot()
        for paddr in (0x1000, 0x2000, 0x3000):
            cache.probe(paddr, update_lru=False)
        assert cache.stats.snapshot() == baseline

    def test_peek_latency_does_not_pollute_stats(self):
        hierarchy = MemoryHierarchy(rocket())
        for i in range(32):
            hierarchy.access(0x8000_0000 + i * 64)
        before = {
            "hier": hierarchy.stats.snapshot(),
            "l1d": hierarchy.l1d.stats.snapshot(),
            "l2": hierarchy.l2.stats.snapshot(),
            "llc": hierarchy.llc.stats.snapshot(),
        }
        for i in range(64):
            hierarchy.peek_latency(0x8000_0000 + i * 64)
            hierarchy.peek_latency(0x8000_0000 + i * 64, instruction=True)
        after = {
            "hier": hierarchy.stats.snapshot(),
            "l1d": hierarchy.l1d.stats.snapshot(),
            "l2": hierarchy.l2.stats.snapshot(),
            "llc": hierarchy.llc.stats.snapshot(),
        }
        assert before == after


class TestDeferredStats:
    def test_sync_callback_runs_before_every_read(self):
        pending = {"n": 0}
        group = StatGroup("g")
        group.set_sync(lambda: (group.bump("events", pending.pop("n", 0)), pending.update(n=0)))
        pending["n"] = 5
        assert group["events"] == 5
        pending["n"] = 2
        assert group.snapshot() == {"events": 7}
        pending["n"] = 1
        assert group.to_payload()["counters"] == {"events": 8}

    def test_sync_callback_may_read_its_own_group(self):
        group = StatGroup("g")
        state = {"pending": 3}

        def publish():
            # Reading the group from inside the callback must not recurse.
            _ = group["events"]
            group.bump("events", state["pending"])
            state["pending"] = 0

        group.set_sync(publish)
        assert group["events"] == 3

    def test_reset_discards_pending_deltas(self):
        state = {"pending": 4}
        group = StatGroup("g")

        def publish():
            group.bump("events", state["pending"])
            state["pending"] = 0

        group.set_sync(publish)
        group.reset()
        assert state["pending"] == 0  # pulled in (and zeroed at the source)...
        assert group["events"] == 0  # ...then discarded with the epoch

    def test_cache_counters_publish_on_read(self):
        hierarchy = MemoryHierarchy(rocket())
        hierarchy.access(0x1000)
        hierarchy.access(0x1000)
        assert hierarchy.l1d.stats["miss"] == 1
        assert hierarchy.l1d.stats["hit"] == 1
        assert hierarchy.stats["refs"] == 2


class TestPMPMatchTable:
    @staticmethod
    def _reference_match(regfile, paddr, size):
        for index in range(len(regfile)):
            region = regfile.region(index)
            if region is not None and region.contains(paddr, size):
                return index
        return None

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_linear_scan_on_random_configs(self, seed):
        rng = random.Random(seed)
        regfile = PMPRegisterFile(16)
        # Overlapping NAPOT regions at random bases/sizes plus one TOR pair.
        for index in range(0, 12, 2):
            size = 1 << rng.randrange(12, 21)
            base = rng.randrange(0, 1 << 26) // size * size
            regfile.set_entry(
                index,
                PMPEntry(perm=Permission.rwx(), match=AddrMatch.NAPOT, addr=napot_addr(base, size)),
            )
        lower = rng.randrange(0, 1 << 24) // 4096 * 4096
        upper = lower + rng.randrange(1, 64) * 4096
        regfile.set_entry(13, PMPEntry(addr=lower >> 2))
        regfile.set_entry(
            14, PMPEntry(perm=Permission.rw(), match=AddrMatch.TOR, addr=upper >> 2)
        )
        probes = [rng.randrange(0, 1 << 27) for _ in range(2000)]
        # Also aim directly at region edges, the boundary-spanning cases.
        for region, _ in regfile._decoded_regions():
            probes += [region.base, region.base - 4, region.end - 8, region.end - 4, region.end]
        for paddr in probes:
            for size in (1, 4, 8, 16):
                assert regfile.match(paddr, size) == self._reference_match(
                    regfile, paddr, size
                ), (hex(paddr), size)

    def test_table_invalidated_on_entry_write(self):
        regfile = PMPRegisterFile(4)
        regfile.set_entry(
            0, PMPEntry(perm=Permission.rwx(), match=AddrMatch.NAPOT, addr=napot_addr(0x1000, 0x1000))
        )
        assert regfile.match(0x1800) == 0
        regfile.clear_entry(0)
        assert regfile.match(0x1800) is None


class ReferenceAllocator:
    """The pre-index FrameAllocator: rebuild-the-list semantics, kept as the
    behavioural reference for the tombstone/position-index implementation."""

    def __init__(self, region, scatter=False, seed=0):
        self.region = region
        self._free = list(range(region.base, region.end, PAGE_SIZE))
        if scatter:
            random.Random(seed).shuffle(self._free)
        self._free.reverse()
        self._allocated = set()
        self._rng = random.Random(seed ^ 0x5EED)

    @property
    def free_frames(self):
        return len(self._free)

    def alloc(self):
        frame = self._free.pop()
        self._allocated.add(frame)
        return frame

    def alloc_scattered(self):
        index = self._rng.randrange(len(self._free))
        self._free[index], self._free[-1] = self._free[-1], self._free[index]
        frame = self._free.pop()
        self._allocated.add(frame)
        return frame

    def alloc_contiguous(self, num_frames, align_frames=1):
        step = align_frames * PAGE_SIZE
        free_set = set(self._free)
        first_aligned = (self.region.base + step - 1) // step * step
        for base in range(first_aligned, self.region.end - num_frames * PAGE_SIZE + 1, step):
            if all(base + i * PAGE_SIZE in free_set for i in range(num_frames)):
                wanted = {base + i * PAGE_SIZE for i in range(num_frames)}
                self._free = [f for f in self._free if f not in wanted]
                self._allocated |= wanted
                return base
        raise MemoryError_(f"no contiguous run of {num_frames} frames in {self.region}")

    def free(self, frame):
        self._allocated.discard(frame)
        self._free.append(frame)

    def reserve(self, base, size):
        wanted = set(range(base, base + size, PAGE_SIZE))
        self._free = [f for f in self._free if f not in wanted]
        self._allocated |= wanted


class TestAllocatorEquivalence:
    """The indexed FrameAllocator hands out the exact same frame sequence as
    the rebuild-every-call reference, under interleaved alloc / scattered /
    contiguous / reserve / free streams on both fresh and fragmented pools."""

    @pytest.mark.parametrize("scatter", [False, True])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_random_streams_match(self, scatter, seed):
        region = MemRegion(0x8000_0000, 512 * PAGE_SIZE)
        fast = FrameAllocator(region, scatter=scatter, seed=seed)
        reference = ReferenceAllocator(region, scatter=scatter, seed=seed)
        rng = random.Random(2000 + seed)
        live = []
        for step in range(1200):
            op = rng.choices(
                ["alloc", "scattered", "contiguous", "reserve", "free"],
                weights=[30, 20, 15, 10, 25],
            )[0]
            try:
                if op == "alloc":
                    got = fast.alloc()
                    assert got == reference.alloc(), step
                    live.append((got, 1))
                elif op == "scattered":
                    got = fast.alloc_scattered()
                    assert got == reference.alloc_scattered(), step
                    live.append((got, 1))
                elif op == "contiguous":
                    frames = rng.choice([1, 2, 4, 8])
                    align = rng.choice([1, 1, frames])
                    got = fast.alloc_contiguous(frames, align_frames=align)
                    assert got == reference.alloc_contiguous(frames, align_frames=align), step
                    live.append((got, frames))
                elif op == "reserve":
                    # The reference does not check that the range is free, so
                    # the fast allocator goes first and a refusal skips both.
                    frames = rng.choice([1, 2, 4])
                    base = region.base + rng.randrange(512 - frames + 1) * PAGE_SIZE
                    fast.reserve(base, frames * PAGE_SIZE)
                    reference.reserve(base, frames * PAGE_SIZE)
                    live.append((base, frames))
                elif live:
                    base, frames = live.pop(rng.randrange(len(live)))
                    for i in range(frames):
                        fast.free(base + i * PAGE_SIZE)
                        reference.free(base + i * PAGE_SIZE)
            except MemoryError_:
                continue
            assert fast.free_frames == reference.free_frames, step
        # Drain both: the full remaining order must agree too.
        while reference.free_frames:
            assert fast.alloc() == reference.alloc()

    @pytest.mark.parametrize("scatter", [False, True])
    def test_index_built_from_tombstones_and_again_after_compaction(self, scatter):
        """The live index is built on the first scattered draw that finds
        tombstones, dropped by a compaction and built again by the next
        such draw; the frames handed out never differ from the reference."""
        region = MemRegion(0x8000_0000, 512 * PAGE_SIZE)
        fast = FrameAllocator(region, scatter=scatter, seed=5)
        reference = ReferenceAllocator(region, scatter=scatter, seed=5)
        rng = random.Random(77)
        held = []

        def both(op, *args):
            got = getattr(fast, op)(*args)
            assert got == getattr(reference, op)(*args), op
            return got

        def free_some(count):
            for _ in range(min(count, len(held))):
                base, frames = held.pop(rng.randrange(len(held)))
                for i in range(frames):
                    both("free", base + i * PAGE_SIZE)

        # Many contiguous allocations and frees, no scattered draw yet.
        for _ in range(60):
            frames = rng.choice([1, 2, 4])
            held.append((both("alloc_contiguous", frames), frames))
            if rng.random() < 0.4:
                free_some(1)
        assert fast._tombstones and fast._live is None
        for _ in range(30):
            held.append((both("alloc_scattered"), 1))
        assert fast._live is not None
        free_some(20)  # frees update the index once it exists
        # Contiguous runs until a compaction drops the index.
        while fast._live is not None:
            held.append((both("alloc_contiguous", 8), 8))
        assert not fast._tombstones
        held.append((both("alloc_scattered"), 1))
        assert fast._live is None  # no tombstones: the draw needs no index
        for _ in range(4):
            held.append((both("alloc_contiguous", 2), 2))
        assert fast._tombstones
        for _ in range(30):
            held.append((both("alloc_scattered"), 1))
        assert fast._live is not None
        free_some(len(held) // 2)
        for _ in range(30):
            held.append((both("alloc_scattered"), 1))
        while reference.free_frames:
            assert fast.alloc() == reference.alloc()

    def test_contiguous_reuses_lowest_freed_run(self):
        region = MemRegion(0x8000_0000, 64 * PAGE_SIZE)
        alloc = FrameAllocator(region)
        bases = [alloc.alloc_contiguous(8) for _ in range(8)]
        assert alloc.free_frames == 0
        for i in range(8):
            alloc.free(bases[2] + i * PAGE_SIZE)
        # The scan floor must drop back to the freed run, not stay past it.
        assert alloc.alloc_contiguous(8) == bases[2]

    def test_reserve_then_exhaust(self):
        region = MemRegion(0x8000_0000, 16 * PAGE_SIZE)
        alloc = FrameAllocator(region)
        alloc.reserve(region.base, 8 * PAGE_SIZE)
        with pytest.raises(MemoryError_):
            alloc.alloc_contiguous(9)
        assert alloc.alloc_contiguous(8) == region.base + 8 * PAGE_SIZE
        with pytest.raises(MemoryError_):
            alloc.alloc()


class TestStableHash:
    def test_known_values(self):
        # FNV-1a 32-bit test vectors; frozen so stored campaign baselines
        # stay valid across interpreter upgrades.
        assert stable_hash("") == 0x811C9DC5
        assert stable_hash("a") == 0xE40C292C
        assert stable_hash("key:1") == stable_hash("key:1")

    def test_independent_of_hash_randomization(self):
        code = (
            "import sys; sys.path.insert(0, 'src'); "
            "from repro.workloads.harness import stable_hash; "
            "print(stable_hash('key:123'))"
        )
        outs = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
                check=True,
            ).stdout.strip()
            for seed in ("1", "2")
        }
        assert len(outs) == 1


class TestSpeedupContext:
    def test_summary_records_clamp_context(self, tmp_path):
        manifest = RunManifest(
            jobs=4,
            effective_jobs=1,
            wall_s=100.0,
            cells=[
                CellRecord(
                    task_id="fig02/counts",
                    experiment="fig02",
                    shard="counts",
                    status="ok",
                    wall_s=99.0,
                    worker="1",
                )
            ],
        )
        summary = bench_summary(manifest, ResultStore(str(tmp_path)), generated_unix=0.0)
        context = summary["speedup"]
        assert context["requested_jobs"] == 4
        assert context["effective_jobs"] == 1
        assert context["clamped"] is True
        assert context["vs_sequential"] == summary["speedup_vs_sequential"]

    def test_summary_unclamped(self, tmp_path):
        manifest = RunManifest(jobs=2, effective_jobs=2, wall_s=50.0)
        summary = bench_summary(manifest, ResultStore(str(tmp_path)), generated_unix=0.0)
        assert summary["speedup"]["clamped"] is False

    def test_summary_per_cell_rates(self, tmp_path):
        cell = CellRecord("fig02/counts", "fig02", "counts", "ok", wall_s=2.0, telemetry={"hierarchy.refs": 1000})
        manifest = RunManifest(wall_s=2.0, cells=[cell])
        summary = bench_summary(manifest, ResultStore(str(tmp_path)), generated_unix=0.0)
        assert summary["cell_refs_per_s"] == {"fig02/counts": 500.0}
        assert summary["cell_ns_per_ref"] == {"fig02/counts": 2_000_000.0}
        assert "block_mode" not in summary and "vector_mode" not in summary


class TestProfileCLI:
    def test_json_report_parses(self, capsys):
        from repro.runner.profile import main as profile_main

        assert profile_main(["fig02/counts", "--json", "--top", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target"] == "fig02/counts"
        assert payload["total_calls"] > 0
        assert len(payload["functions"]) == 5
        for row in payload["functions"]:
            assert {"file", "line", "function", "ncalls", "tottime", "cumtime"} <= set(row)

    def test_unknown_cell_rejected(self):
        from repro.runner.profile import main as profile_main

        with pytest.raises(SystemExit):
            profile_main(["fig99/nope"])
