"""Integration tests for the timed machine access path."""

import pytest

from repro.common.errors import AccessFault, ConfigurationError, PageFault
from repro.common.types import PAGE_SIZE, AccessType, Permission, PrivilegeMode
from repro.soc.system import System

VA = 0x40_0000_0000


@pytest.fixture
def sys_pmp():
    return System(machine="rocket", checker_kind="pmp", mem_mib=128)


class TestAccessPath:
    def test_tlb_miss_then_hit(self, sys_pmp):
        space = sys_pmp.new_address_space()
        space.map(VA, PAGE_SIZE)
        first = sys_pmp.access(space, VA)
        second = sys_pmp.access(space, VA)
        assert not first.tlb_hit and second.tlb_hit
        assert second.cycles < first.cycles

    def test_unmapped_page_faults(self, sys_pmp):
        space = sys_pmp.new_address_space()
        with pytest.raises(PageFault):
            sys_pmp.access(space, VA)

    def test_page_permission_enforced_on_miss_and_hit(self, sys_pmp):
        space = sys_pmp.new_address_space()
        space.map(VA, PAGE_SIZE, Permission(r=True))
        with pytest.raises(PageFault):
            sys_pmp.access(space, VA, AccessType.WRITE)
        sys_pmp.access(space, VA, AccessType.READ)
        with pytest.raises(PageFault):  # now on the TLB-hit path
            sys_pmp.access(space, VA, AccessType.WRITE)

    def test_checker_fault_surfaces(self):
        system = System(machine="rocket", checker_kind="hpmp", mem_mib=128)
        space = system.new_address_space()
        space.map(VA, PAGE_SIZE)
        pa = space.pa_of(VA)
        system.setup.table.set_page_perm(pa, Permission.none())
        with pytest.raises(AccessFault):
            system.access(space, VA)

    def test_inlined_permission_blocks_other_access_type(self):
        system = System(machine="rocket", checker_kind="hpmp", mem_mib=128)
        space = system.new_address_space()
        space.map(VA, PAGE_SIZE, Permission.rw())
        pa = space.pa_of(VA)
        system.setup.table.set_page_perm(pa, Permission(r=True))
        system.access(space, VA, AccessType.READ)
        with pytest.raises(AccessFault):  # inlined perm check on the hit path
            system.access(space, VA, AccessType.WRITE)

    def test_supervisor_page_blocks_user(self, sys_pmp):
        space = sys_pmp.new_address_space()
        space.map(VA, PAGE_SIZE, user=False)
        with pytest.raises(PageFault):
            sys_pmp.access(space, VA, priv=PrivilegeMode.USER)
        sys_pmp.access(space, VA, priv=PrivilegeMode.SUPERVISOR)

    def test_sfence_restores_miss_path(self, sys_pmp):
        space = sys_pmp.new_address_space()
        space.map(VA, PAGE_SIZE)
        sys_pmp.access(space, VA)
        sys_pmp.machine.sfence_vma()
        assert not sys_pmp.access(space, VA).tlb_hit

    def test_pwc_shortens_adjacent_walk(self, sys_pmp):
        space = sys_pmp.new_address_space()
        space.map(VA, 2 * PAGE_SIZE)
        sys_pmp.machine.cold_boot()
        sys_pmp.access(space, VA)
        neighbor = sys_pmp.access(space, VA + PAGE_SIZE)
        assert neighbor.pt_refs == 1  # leaf level only, prefix from the PWC

    def test_asid_isolation_between_spaces(self, sys_pmp):
        space_a = sys_pmp.new_address_space()
        space_b = sys_pmp.new_address_space()
        space_a.map(VA, PAGE_SIZE)
        space_b.map(VA, PAGE_SIZE)
        sys_pmp.access(space_a, VA)
        result = sys_pmp.access(space_b, VA)
        assert not result.tlb_hit  # different ASID: no alias
        assert result.paddr == space_b.pa_of(VA)

    def test_fetch_routes_to_icache(self, sys_pmp):
        space = sys_pmp.new_address_space()
        space.map(VA, PAGE_SIZE, Permission.rx())
        sys_pmp.machine.cold_boot()
        sys_pmp.access(space, VA, AccessType.FETCH)
        assert sys_pmp.machine.hierarchy.l1i.resident_lines() > 0

    def test_write_mlp_not_applied_on_boom(self):
        """Store checks stay on the critical path on the OoO core."""
        results = {}
        for access in (AccessType.READ, AccessType.WRITE):
            system = System(machine="boom", checker_kind="pmpt", mem_mib=128)
            space = system.new_address_space()
            space.map(VA, PAGE_SIZE)
            system.machine.cold_boot()
            results[access] = system.access(space, VA, access).cycles
        assert results[AccessType.WRITE] > results[AccessType.READ]


class TestSystemConstruction:
    def test_bad_checker_kind(self):
        with pytest.raises(ConfigurationError):
            System(checker_kind="sgx")

    def test_too_small_memory(self):
        with pytest.raises(ConfigurationError):
            System(mem_mib=16)

    def test_default_pt_placement_follows_scheme(self):
        assert System(checker_kind="hpmp", mem_mib=128).pt_placement == "region"
        assert System(checker_kind="pmpt", mem_mib=128).pt_placement == "pool"

    def test_hpmp_pt_pages_inside_fast_region(self):
        system = System(checker_kind="hpmp", mem_mib=128)
        space = system.new_address_space()
        space.map(VA, PAGE_SIZE)
        for pt_page in space.page_table.pt_pages:
            assert system.pt_region.contains(pt_page, PAGE_SIZE)

    def test_pool_pt_pages_scattered(self):
        system = System(checker_kind="pmpt", mem_mib=128)
        spaces = [system.new_address_space() for _ in range(4)]
        for space in spaces:
            space.map(VA, PAGE_SIZE)
        roots = [s.page_table.root_pa for s in spaces]
        deltas = {b - a for a, b in zip(roots, roots[1:])}
        assert deltas != {PAGE_SIZE}

    def test_address_space_unmap_frees_frames(self):
        # hpmp systems draw PT pages from the separate PT region, so the data
        # pool must balance exactly across a map/unmap cycle.
        system = System(checker_kind="hpmp", mem_mib=128)
        space = system.new_address_space()
        free_before = system.data_frames.free_frames
        space.map(VA, 4 * PAGE_SIZE)
        space.unmap(VA, 4 * PAGE_SIZE)
        assert system.data_frames.free_frames == free_before
