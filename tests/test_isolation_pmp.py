"""Unit tests for RISC-V PMP segment isolation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import AccessFault, ConfigurationError
from repro.common.types import AccessType, MemRegion, Permission, PrivilegeMode
from repro.isolation.pmp import (
    AddrMatch,
    PMPChecker,
    PMPEntry,
    PMPRegisterFile,
    napot_addr,
    napot_decode,
)


class TestNAPOT:
    @pytest.mark.parametrize("base,size", [(0x8000_0000, 0x1000), (0, 8), (0x1_0000_0000, 1 << 30)])
    def test_roundtrip(self, base, size):
        assert napot_decode(napot_addr(base, size)) == (base, size)

    def test_bad_size(self):
        with pytest.raises(ConfigurationError):
            napot_addr(0, 12)
        with pytest.raises(ConfigurationError):
            napot_addr(0, 4)

    def test_misaligned_base(self):
        with pytest.raises(ConfigurationError):
            napot_addr(0x1000, 0x2000)

    @settings(max_examples=50)
    @given(st.integers(3, 34), st.integers(0, 2**20))
    def test_roundtrip_property(self, log_size, chunk):
        size = 1 << log_size
        base = chunk * size
        assert napot_decode(napot_addr(base, size)) == (base, size)


class TestRegisterFile:
    def test_region_napot(self):
        rf = PMPRegisterFile()
        rf.set_entry(0, PMPEntry(perm=Permission.rw(), match=AddrMatch.NAPOT, addr=napot_addr(0x8000_0000, 0x1000)))
        assert rf.region(0) == MemRegion(0x8000_0000, 0x1000)

    def test_region_tor_uses_previous_addr(self):
        rf = PMPRegisterFile()
        rf.set_entry(0, PMPEntry(addr=0x8000_0000 >> 2))
        rf.set_entry(1, PMPEntry(perm=Permission.rw(), match=AddrMatch.TOR, addr=0x8001_0000 >> 2))
        assert rf.region(1) == MemRegion(0x8000_0000, 0x1_0000)

    def test_region_tor_entry0_starts_at_zero(self):
        rf = PMPRegisterFile()
        rf.set_entry(0, PMPEntry(perm=Permission.rw(), match=AddrMatch.TOR, addr=0x1000 >> 2))
        assert rf.region(0) == MemRegion(0, 0x1000)

    def test_region_tor_empty_when_inverted(self):
        rf = PMPRegisterFile()
        rf.set_entry(0, PMPEntry(addr=0x2000 >> 2))
        rf.set_entry(1, PMPEntry(perm=Permission.rw(), match=AddrMatch.TOR, addr=0x1000 >> 2))
        assert rf.region(1) is None

    def test_region_na4(self):
        rf = PMPRegisterFile()
        rf.set_entry(0, PMPEntry(perm=Permission.rw(), match=AddrMatch.NA4, addr=0x8000_0000 >> 2))
        assert rf.region(0) == MemRegion(0x8000_0000, 4)

    def test_match_priority_is_lowest_index(self):
        rf = PMPRegisterFile()
        rf.set_entry(2, PMPEntry(perm=Permission.none(), match=AddrMatch.NAPOT, addr=napot_addr(0x8000_0000, 0x1000)))
        rf.set_entry(5, PMPEntry(perm=Permission.rwx(), match=AddrMatch.NAPOT, addr=napot_addr(0x8000_0000, 0x10000)))
        assert rf.match(0x8000_0000) == 2
        assert rf.match(0x8000_2000) == 5

    def test_match_none(self):
        rf = PMPRegisterFile()
        assert rf.match(0x1234) is None

    def test_locked_entry_refuses_update(self):
        rf = PMPRegisterFile()
        rf.set_entry(0, PMPEntry(perm=Permission.rw(), match=AddrMatch.NA4, addr=1, locked=True))
        with pytest.raises(ConfigurationError):
            rf.set_entry(0, PMPEntry())

    def test_decoded_cache_invalidated_on_update(self):
        rf = PMPRegisterFile()
        rf.set_entry(0, PMPEntry(perm=Permission.rw(), match=AddrMatch.NAPOT, addr=napot_addr(0x8000_0000, 0x1000)))
        assert rf.match(0x8000_0000) == 0
        rf.clear_entry(0)
        assert rf.match(0x8000_0000) is None

    def test_config_byte_roundtrip(self):
        entry = PMPEntry(perm=Permission.rx(), match=AddrMatch.NAPOT, locked=True, table=True, addr=99)
        decoded = PMPEntry.from_config_byte(entry.config_byte, addr=99)
        assert decoded == entry

    def test_active_entries(self):
        rf = PMPRegisterFile()
        rf.set_entry(3, PMPEntry(perm=Permission.rw(), match=AddrMatch.NA4, addr=1))
        assert rf.active_entries() == [3]


class TestPMPChecker:
    def make(self):
        rf = PMPRegisterFile()
        rf.set_entry(0, PMPEntry(perm=Permission.rw(), match=AddrMatch.NAPOT, addr=napot_addr(0x8000_0000, 0x10000)))
        return PMPChecker(rf)

    def test_allowed_access_is_free(self):
        checker = self.make()
        cost = checker.check(0x8000_0000, AccessType.READ)
        assert cost.cycles == 0 and cost.refs == 0

    def test_denied_permission(self):
        checker = self.make()
        with pytest.raises(AccessFault):
            checker.check(0x8000_0000, AccessType.FETCH)

    def test_unmatched_supervisor_denied(self):
        checker = self.make()
        with pytest.raises(AccessFault):
            checker.check(0x9000_0000, AccessType.READ, PrivilegeMode.SUPERVISOR)

    def test_unmatched_machine_allowed(self):
        checker = self.make()
        cost = checker.check(0x9000_0000, AccessType.READ, PrivilegeMode.MACHINE)
        assert cost.perm == Permission.rwx()

    def test_machine_ignores_unlocked_entries(self):
        checker = self.make()
        cost = checker.check(0x8000_0000, AccessType.FETCH, PrivilegeMode.MACHINE)
        assert cost.perm == Permission.rwx()

    def test_machine_respects_locked_entries(self):
        rf = PMPRegisterFile()
        rf.set_entry(
            0,
            PMPEntry(perm=Permission(r=True), match=AddrMatch.NAPOT, addr=napot_addr(0x8000_0000, 0x1000), locked=True),
        )
        checker = PMPChecker(rf)
        with pytest.raises(AccessFault):
            checker.check(0x8000_0000, AccessType.WRITE, PrivilegeMode.MACHINE)

    def test_check_returns_full_permission(self):
        checker = self.make()
        cost = checker.check(0x8000_0000, AccessType.READ)
        assert cost.perm == Permission.rw()

    def test_fault_statistics(self):
        checker = self.make()
        with pytest.raises(AccessFault):
            checker.check(0x8000_0000, AccessType.FETCH)
        assert checker.stats["faults"] == 1
        assert checker.stats["checks"] == 1
