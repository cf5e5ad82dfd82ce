"""Unit tests for repro.common.types."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.types import (
    PAGE_SIZE,
    AccessType,
    MemRegion,
    Permission,
    is_pow2,
    page_align_down,
    page_align_up,
)


class TestPermission:
    def test_default_is_no_access(self):
        perm = Permission()
        assert not perm.r and not perm.w and not perm.x

    @pytest.mark.parametrize(
        "perm,access,expected",
        [
            (Permission(r=True), AccessType.READ, True),
            (Permission(r=True), AccessType.WRITE, False),
            (Permission(w=True), AccessType.WRITE, True),
            (Permission(x=True), AccessType.FETCH, True),
            (Permission(x=True), AccessType.READ, False),
            (Permission.rwx(), AccessType.FETCH, True),
            (Permission.none(), AccessType.READ, False),
        ],
    )
    def test_allows(self, perm, access, expected):
        assert perm.allows(access) is expected

    def test_bits_roundtrip_all_eight(self):
        for bits in range(8):
            assert Permission.from_bits(bits).bits == bits

    def test_intersection(self):
        assert (Permission.rw() & Permission.rx()) == Permission(r=True)

    def test_union(self):
        assert (Permission.rw() | Permission.rx()) == Permission.rwx()

    def test_str(self):
        assert str(Permission.rw()) == "rw-"
        assert str(Permission.none()) == "---"

    @given(st.integers(0, 7), st.integers(0, 7))
    def test_intersection_matches_bitwise_and(self, a, b):
        pa, pb = Permission.from_bits(a), Permission.from_bits(b)
        assert (pa & pb).bits == (a & b)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Permission().r = True


class TestMemRegion:
    def test_contains_boundaries(self):
        region = MemRegion(0x1000, 0x1000)
        assert region.contains(0x1000)
        assert region.contains(0x1FFF)
        assert not region.contains(0x2000)
        assert not region.contains(0xFFF)

    def test_contains_with_length(self):
        region = MemRegion(0x1000, 0x1000)
        assert region.contains(0x1000, 0x1000)
        assert not region.contains(0x1001, 0x1000)

    def test_negative_length_is_never_contained(self):
        region = MemRegion(0x1000, 0x1000)
        assert region.contains(0x1800, 0)
        assert not region.contains(0x1800, -8)
        assert not region.contains(0x2000, -0x1000)  # would end at base
        assert not region.contains(0x1000, -1)

    def test_overlaps(self):
        a = MemRegion(0, 0x100)
        assert a.overlaps(MemRegion(0x80, 0x100))
        assert not a.overlaps(MemRegion(0x100, 0x100))
        assert a.overlaps(MemRegion(0, 1))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MemRegion(-1, 10)

    @given(st.integers(0, 2**40), st.integers(1, 2**20))
    def test_end_consistency(self, base, size):
        region = MemRegion(base, size)
        assert region.end - region.base == size
        assert region.contains(region.end - 1)
        assert not region.contains(region.end)


class TestAlignment:
    @given(st.integers(0, 2**48))
    def test_align_down_up_bracket(self, addr):
        down, up = page_align_down(addr), page_align_up(addr)
        assert down <= addr <= up
        assert down % PAGE_SIZE == 0 and up % PAGE_SIZE == 0
        assert up - down in (0, PAGE_SIZE)

    def test_is_pow2(self):
        assert is_pow2(1) and is_pow2(4096)
        assert not is_pow2(0) and not is_pow2(3) and not is_pow2(-4)
