"""Unit tests for repro.mem.physical and repro.mem.allocator."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import AlignmentError, MemoryError_
from repro.common.types import MIB, PAGE_SIZE, MemRegion
from repro.mem.allocator import FrameAllocator
from repro.mem.physical import PhysicalMemory

BASE = 0x8000_0000


class TestPhysicalMemory:
    def test_reads_zero_by_default(self):
        mem = PhysicalMemory(1 * MIB, base=BASE)
        assert mem.read64(BASE) == 0
        assert mem.read64(BASE + 1 * MIB - 8) == 0

    def test_write_read_roundtrip(self):
        mem = PhysicalMemory(1 * MIB, base=BASE)
        mem.write64(BASE + 64, 0xDEAD_BEEF)
        assert mem.read64(BASE + 64) == 0xDEAD_BEEF

    def test_write_truncates_to_64_bits(self):
        mem = PhysicalMemory(1 * MIB, base=BASE)
        mem.write64(BASE, 1 << 80 | 5)
        assert mem.read64(BASE) == 5

    def test_unaligned_rejected(self):
        mem = PhysicalMemory(1 * MIB, base=BASE)
        with pytest.raises(AlignmentError):
            mem.read64(BASE + 4)
        with pytest.raises(AlignmentError):
            mem.write64(BASE + 1, 0)

    def test_out_of_range_rejected(self):
        mem = PhysicalMemory(1 * MIB, base=BASE)
        with pytest.raises(MemoryError_):
            mem.read64(BASE - 8)
        with pytest.raises(MemoryError_):
            mem.read64(BASE + 1 * MIB)

    def test_fill_zero_reclaims_storage(self):
        mem = PhysicalMemory(1 * MIB, base=BASE)
        mem.write64(BASE, 7)
        mem.fill(BASE, PAGE_SIZE, 0)
        assert mem.read64(BASE) == 0
        assert mem.touched_words() == 0

    def test_fill_value(self):
        mem = PhysicalMemory(1 * MIB, base=BASE)
        mem.fill(BASE, 64, 0xAA)
        assert all(mem.read64(BASE + i) == 0xAA for i in range(0, 64, 8))

    @pytest.mark.parametrize("value", [0, 0xAA])
    def test_fill_overrun_rejected_before_writing(self, value):
        mem = PhysicalMemory(1 * MIB, base=BASE)
        last = BASE + 1 * MIB - 8
        mem.write64(last, 5)
        with pytest.raises(MemoryError_):
            mem.fill(last, 16, value)  # second word lies past the end of DRAM
        assert mem.read64(last) == 5
        assert mem.touched_words() == 1

    @pytest.mark.parametrize("value", [0, 0xAA])
    def test_negative_fill_length_rejected_before_writing(self, value):
        mem = PhysicalMemory(1 * MIB, base=BASE)
        mem.write64(BASE, 5)
        epoch = mem.epoch
        with pytest.raises(MemoryError_):
            mem.fill(BASE + 8, -8, value)
        with pytest.raises(MemoryError_):
            mem.fill(BASE + PAGE_SIZE, -PAGE_SIZE, value)
        assert mem.epoch == epoch
        assert mem.read64(BASE) == 5
        assert mem.touched_words() == 1

    def test_negative_length_not_contained(self):
        mem = PhysicalMemory(1 * MIB, base=BASE)
        assert mem.contains(BASE, 8)
        assert not mem.contains(BASE, -8)
        assert not mem.contains(BASE + PAGE_SIZE, -PAGE_SIZE)

    def test_bad_size_rejected(self):
        with pytest.raises(MemoryError_):
            PhysicalMemory(0)

    @given(st.integers(0, (1 * MIB - 8) // 8), st.integers(0, 2**64 - 1))
    def test_sparse_roundtrip(self, word_index, value):
        mem = PhysicalMemory(1 * MIB, base=BASE)
        addr = BASE + word_index * 8
        mem.write64(addr, value)
        assert mem.read64(addr) == value


#: The differential test's memory: a few pages, so random ranges overlap.
_PAGES = 3
_WORDS_PER_PAGE = PAGE_SIZE // 8
_WORDS = _PAGES * _WORDS_PER_PAGE
_VALUES = st.one_of(st.just(0), st.just(2**64 - 1), st.integers(1, 2**64 - 1))


@st.composite
def _fill_range(draw):
    """``(first word, word count)`` of a fill: whole pages, part of one
    page, a range across a page boundary, or an empty range."""
    shape = draw(st.sampled_from(["pages", "partial", "crossing", "empty"]))
    if shape == "pages":
        first = draw(st.integers(0, _PAGES - 1))
        count = draw(st.integers(1, _PAGES - first))
        return first * _WORDS_PER_PAGE, count * _WORDS_PER_PAGE
    if shape == "partial":
        page = draw(st.integers(0, _PAGES - 1)) * _WORDS_PER_PAGE
        lo = draw(st.integers(0, _WORDS_PER_PAGE - 1))
        hi = draw(st.integers(lo + 1, _WORDS_PER_PAGE))
        return page + lo, hi - lo
    if shape == "crossing":
        boundary = draw(st.integers(1, _PAGES - 1)) * _WORDS_PER_PAGE
        lo = draw(st.integers(boundary - _WORDS_PER_PAGE, boundary - 1))
        hi = draw(st.integers(boundary + 1, min(_WORDS, boundary + _WORDS_PER_PAGE)))
        return lo, hi - lo
    return draw(st.integers(0, _WORDS)), 0


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, _WORDS - 1), _VALUES),
        st.tuples(st.just("fill"), _fill_range(), _VALUES),
        st.tuples(st.just("read"), st.integers(0, _WORDS - 1)),
    ),
    max_size=30,
)


class TestPageStoreDifferential:
    """The page-granular store against a flat ``{address: value}`` model:
    ``write64`` stores a word (a zero too), a non-zero ``fill`` stores its
    range, a zero ``fill`` removes its range, and every write64 or
    non-empty fill bumps ``epoch`` once."""

    @given(_OPS)
    def test_random_ops_match_a_flat_reference(self, ops):
        mem = PhysicalMemory(_PAGES * PAGE_SIZE, base=BASE)
        reference = {}
        epoch = 0
        touched = set()
        for op in ops:
            if op[0] == "write":
                _, word, value = op
                addr = BASE + 8 * word
                mem.write64(addr, value)
                reference[addr] = value
                epoch += 1
                touched.add(addr)
            elif op[0] == "fill":
                _, (word, count), value = op
                addrs = range(BASE + 8 * word, BASE + 8 * (word + count), 8)
                mem.fill(addrs.start, 8 * count, value)
                for addr in addrs:
                    if value:
                        reference[addr] = value
                    else:
                        reference.pop(addr, None)
                if count:
                    epoch += 1
                touched.update(addrs)
            else:
                addr = BASE + 8 * op[1]
                assert mem.read64(addr) == reference.get(addr, 0), op
                touched.add(addr)
            assert {addr: mem.read64(addr) for addr in touched} == {
                addr: reference.get(addr, 0) for addr in touched
            }, op
            assert mem.touched_words() == len(reference), op
            assert mem.epoch == epoch, op


class TestFrameAllocator:
    def region(self, mib=4):
        return MemRegion(BASE, mib * MIB)

    def test_sequential_alloc_is_contiguous(self):
        alloc = FrameAllocator(self.region())
        frames = [alloc.alloc() for _ in range(8)]
        assert frames == [BASE + i * PAGE_SIZE for i in range(8)]

    def test_scatter_alloc_is_not_contiguous(self):
        alloc = FrameAllocator(self.region(), scatter=True, seed=7)
        frames = [alloc.alloc() for _ in range(8)]
        deltas = {b - a for a, b in zip(frames, frames[1:])}
        assert deltas != {PAGE_SIZE}

    def test_scatter_is_deterministic(self):
        a = FrameAllocator(self.region(), scatter=True, seed=3)
        b = FrameAllocator(self.region(), scatter=True, seed=3)
        assert [a.alloc() for _ in range(16)] == [b.alloc() for _ in range(16)]

    def test_free_then_realloc(self):
        alloc = FrameAllocator(self.region(mib=1))
        frames = [alloc.alloc() for _ in range(alloc.free_frames)]
        assert alloc.free_frames == 0
        alloc.free(frames[0])
        assert alloc.alloc() == frames[0]

    def test_exhaustion_raises(self):
        alloc = FrameAllocator(MemRegion(BASE, PAGE_SIZE))
        alloc.alloc()
        with pytest.raises(MemoryError_):
            alloc.alloc()

    def test_double_free_rejected(self):
        alloc = FrameAllocator(self.region())
        frame = alloc.alloc()
        alloc.free(frame)
        with pytest.raises(MemoryError_):
            alloc.free(frame)

    def test_alloc_contiguous_on_scattered_pool(self):
        alloc = FrameAllocator(self.region(), scatter=True, seed=1)
        base = alloc.alloc_contiguous(16)
        assert base % PAGE_SIZE == 0
        # All 16 frames must now be allocated.
        assert all(alloc.owns(base + i * PAGE_SIZE) for i in range(16))

    def test_owns_outside_region(self):
        alloc = FrameAllocator(self.region())
        assert alloc.owns(BASE - PAGE_SIZE) is None

    def test_unaligned_region_rejected(self):
        with pytest.raises(MemoryError_):
            FrameAllocator(MemRegion(BASE + 1, PAGE_SIZE))


class TestFragmentationMetric:
    """``FrameAllocator.fragmentation()`` is a lazy read-only probe: span
    metrics must be right, and computing them must never perturb the
    allocation sequence."""

    def region(self, mib=1):
        return MemRegion(BASE, mib * MIB)

    def test_pristine_pool_is_one_span(self):
        alloc = FrameAllocator(self.region())
        frag = alloc.fragmentation()
        assert frag["free_frames"] == alloc.free_frames
        assert frag["allocated_frames"] == 0
        assert frag["spans"] == 1
        assert frag["largest_free_frames"] == alloc.free_frames
        assert frag["frag_pct"] == 0.0

    def test_holes_split_the_span(self):
        alloc = FrameAllocator(self.region())
        frames = [alloc.alloc() for _ in range(9)]
        # Hold frames 3 and 8; the rest go back: spans of 3 ([0-2]) and
        # 4 ([4-7]) ahead of the untouched tail from frame 9 on.
        for f in frames[:3] + frames[4:8]:
            alloc.free(f)
        frag = alloc.fragmentation()
        assert frag["allocated_frames"] == 2
        assert frag["spans"] == 3
        assert frag["largest_free_frames"] == alloc.free_frames - 3 - 4
        assert 0.0 < frag["frag_pct"] < 100.0

    def test_exhausted_pool(self):
        alloc = FrameAllocator(MemRegion(BASE, 2 * PAGE_SIZE))
        alloc.alloc()
        alloc.alloc()
        frag = alloc.fragmentation()
        assert frag["free_frames"] == 0
        assert frag["spans"] == 0
        assert frag["largest_free_frames"] == 0
        assert frag["frag_pct"] == 0.0

    def test_span_histogram_counts_spans(self):
        alloc = FrameAllocator(self.region())
        frames = [alloc.alloc() for _ in range(alloc.free_frames)]
        for f in frames[0:2] + frames[5:6] + frames[10:14]:
            alloc.free(f)
        frag = alloc.fragmentation()
        assert frag["spans"] == 3
        assert frag["span_hist"]["count"] == 3
        assert frag["largest_free_frames"] == 4

    @pytest.mark.parametrize("scatter", [False, True])
    def test_probe_never_perturbs_the_allocation_sequence(self, scatter):
        """Equivalence: an allocator probed between every operation hands
        out exactly the same frames as an unprobed twin."""
        probed = FrameAllocator(self.region(), scatter=scatter, seed=11)
        plain = FrameAllocator(self.region(), scatter=scatter, seed=11)
        rng = random.Random(42)
        held_p, held_q = [], []
        for step in range(200):
            probed.fragmentation()  # the probe under test
            if held_p and rng.random() < 0.4:
                i = rng.randrange(len(held_p))
                probed.free(held_p.pop(i))
                plain.free(held_q.pop(i))
            else:
                held_p.append(probed.alloc())
                held_q.append(plain.alloc())
            assert held_p == held_q, step
        assert probed.fragmentation() == plain.fragmentation()
