"""Tests for the virtualized (two-stage) translation path."""

import pytest

from repro.common.errors import AccessFault, AlignmentError, GuestPageFault, MemoryError_, PageFault
from repro.common.params import rocket
from repro.common.types import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, AccessType, Permission
from repro.paging.pagetable import pte_encode
from repro.soc.system import System
from repro.virt.nested import GUEST_DRAM_BASE, GuestMemoryView, VirtualMachine

GVA = 0x40_0000_0000


def build(kind="pmp", gpt=False, guest_pages=128, machine="rocket"):
    system = System(machine=machine, checker_kind=kind, mem_mib=256)
    vm = VirtualMachine(system, guest_pages=guest_pages, gpt_contiguous=gpt)
    vm.guest_map_range(GVA - PAGE_SIZE, GUEST_DRAM_BASE + 8 * PAGE_SIZE, 2 * PAGE_SIZE)
    return system, vm


class TestGuestMemoryView:
    def test_read_write_through_backing(self):
        system = System(machine="rocket", checker_kind="pmp", mem_mib=128)
        view = GuestMemoryView(system.memory)
        frame = system.data_frames.alloc()
        view.back_page(0x1000, frame)
        view.write64(0x1008, 42)
        assert view.read64(0x1008) == 42
        assert system.memory.read64(frame + 8) == 42

    def test_unbacked_page_faults(self):
        system = System(machine="rocket", checker_kind="pmp", mem_mib=128)
        view = GuestMemoryView(system.memory)
        with pytest.raises(GuestPageFault):
            view.read64(0x5000)

    PATTERN = 0x5A5A_5A5A_5A5A_5A5A

    def _patterned_frames(self, count):
        system = System(machine="rocket", checker_kind="pmp", mem_mib=128)
        frames = [system.data_frames.alloc() for _ in range(count)]
        for frame in frames:
            system.memory.fill(frame, PAGE_SIZE, self.PATTERN)
        return system.memory, GuestMemoryView(system.memory), frames

    @staticmethod
    def _words(memory, frame):
        return [memory.read64(frame + offset) for offset in range(0, PAGE_SIZE, 8)]

    def test_fill_writes_only_its_range(self):
        memory, view, (frame,) = self._patterned_frames(1)
        view.back_page(0x0, frame)
        view.fill(0x40, 64, 0)
        assert self._words(memory, frame) == [self.PATTERN] * 8 + [0] * 8 + [self.PATTERN] * 496

    def test_page_fill_at_unaligned_gpa_follows_the_backing(self):
        """The second half lands in GPA page 1's frame, not in whatever frame
        sits physically after GPA page 0's."""
        memory, view, (page0, after0, page1) = self._patterned_frames(3)
        assert after0 == page0 + PAGE_SIZE != page1
        view.back_page(0x0, page0)
        view.back_page(0x1000, page1)
        view.fill(0x800, PAGE_SIZE, 0)
        assert self._words(memory, page0) == [self.PATTERN] * 256 + [0] * 256
        assert self._words(memory, page1) == [0] * 256 + [self.PATTERN] * 256
        assert self._words(memory, after0) == [self.PATTERN] * 512

    def test_bad_fill_rejected_before_any_write(self):
        memory, view, (frame,) = self._patterned_frames(1)
        view.back_page(0x0, frame)
        with pytest.raises(AlignmentError):
            view.fill(0x804, 16)
        with pytest.raises(AlignmentError):
            view.fill(0x800, 12)
        with pytest.raises(GuestPageFault):
            view.fill(0x800, PAGE_SIZE)  # runs into unbacked GPA page 1
        assert self._words(memory, frame) == [self.PATTERN] * 512

    @pytest.mark.parametrize("gpa", [0x800, 0x5000])  # backed, unbacked
    def test_negative_fill_length_rejected_before_any_write(self, gpa):
        memory, view, (frame,) = self._patterned_frames(1)
        view.back_page(0x0, frame)
        epoch = view.epoch
        with pytest.raises(MemoryError_):
            view.fill(gpa, -64, 0)
        with pytest.raises(MemoryError_):
            view.fill(gpa, -64, self.PATTERN ^ 1)
        assert view.epoch == epoch
        assert self._words(memory, frame) == [self.PATTERN] * 512

    def test_remap_of_guest_pt_page_is_seen_by_the_walk_memo(self):
        """back_page changes what read64 returns with no host write, so a
        memoised guest walk through the remapped leaf-PT page must redo it."""
        system, vm = build("pmp")
        memory = system.memory
        leaf_pte_gpa = vm.guest_pt.walk(GVA).steps[-1].pte_addr
        leaf_page_gpa = leaf_pte_gpa & ~PAGE_MASK
        old_frame = vm.view.backing[leaf_page_gpa]
        new_frame = system.data_frames.alloc()
        for offset in range(0, PAGE_SIZE, 8):
            memory.write64(new_frame + offset, memory.read64(old_frame + offset))
        new_gpa = GUEST_DRAM_BASE + 20 * PAGE_SIZE
        memory.write64(new_frame + (leaf_pte_gpa & PAGE_MASK), pte_encode(new_gpa >> PAGE_SHIFT, Permission.rw()))
        assert vm.guest_pt.walk(GVA).paddr == GUEST_DRAM_BASE + 9 * PAGE_SIZE
        vm.view.back_page(leaf_page_gpa, new_frame)
        assert vm.guest_pt.walk(GVA).paddr == new_gpa


class TestReferenceCounts:
    """Paper Figure 8 / §6: 16 base refs; PMPT 48; HPMP 24; HPMP-GPT 18."""

    @pytest.mark.parametrize(
        "kind,gpt,expected_refs,expected_checker",
        [
            ("pmp", False, 16, 0),
            ("pmpt", False, 48, 32),
            ("hpmp", False, 24, 8),
            ("hpmp", True, 18, 2),
        ],
    )
    def test_cold_counts(self, kind, gpt, expected_refs, expected_checker):
        system, vm = build(kind, gpt)
        system.machine.cold_boot()
        result = vm.guest_access(GVA)
        assert result.refs == expected_refs
        assert result.checker_refs == expected_checker

    def test_combined_tlb_hit_single_ref(self):
        system, vm = build("pmpt")
        vm.guest_access(GVA)
        result = vm.guest_access(GVA)
        assert result.combined_tlb_hit
        assert result.refs == 1


class TestFences:
    def test_hfence_vvma_keeps_g_stage(self):
        system, vm = build("pmp")
        system.machine.cold_boot()
        vm.guest_access(GVA)
        vm.hfence_vvma()
        result = vm.guest_access(GVA)
        # Only guest-PT reads + data: nested walks served by the G-TLB.
        assert result.refs == 4

    def test_hfence_gvma_flushes_everything(self):
        system, vm = build("pmp")
        system.machine.cold_boot()
        vm.guest_access(GVA)
        vm.hfence_gvma()
        result = vm.guest_access(GVA)
        assert result.refs == 16

    def test_latency_order_after_fences(self):
        system, vm = build("pmp")
        system.machine.cold_boot()
        cold = vm.guest_access(GVA).cycles
        vm.hfence_vvma()
        after_v = vm.guest_access(GVA).cycles
        vm.hfence_gvma()
        after_g = vm.guest_access(GVA).cycles
        hit = vm.guest_access(GVA).cycles
        assert cold > after_g > after_v > hit

    @pytest.mark.parametrize("fence", ["hfence_vvma", "hfence_gvma"])
    def test_guest_fence_keeps_host_page_walk_cache(self, fence):
        """The 3D walk never reads the host's PWC, so a guest fence must not
        flush it: the host's next walk still resumes at the leaf level."""
        system, vm = build("pmp")
        space = system.new_address_space()
        space.map(GVA, PAGE_SIZE)
        system.machine.cold_boot()
        assert system.access(space, GVA).pt_refs == 3
        system.machine.tlb.flush()  # host TLB only: the PWC stays warm
        assert system.access(space, GVA).pt_refs == 1
        system.machine.tlb.flush()
        getattr(vm, fence)()
        assert system.access(space, GVA).pt_refs == 1


class TestGuestSemantics:
    def test_data_round_trip(self):
        """A guest store lands in the right host frame."""
        system, vm = build("pmp")
        gpa = GUEST_DRAM_BASE + 9 * PAGE_SIZE  # GVA maps to the range's 2nd page
        vm.view.write64(gpa + 0x10, 0xABCD)
        result = vm.guest_access(GVA + 0x10)
        assert system.memory.read64(result.hpa) == 0xABCD

    def test_unmapped_gva_faults(self):
        system, vm = build("pmp")
        with pytest.raises(PageFault):
            vm.guest_access(GVA + 0x100000)

    def test_gpt_contiguous_places_guest_pt_in_fast_region(self):
        system, vm = build("hpmp", gpt=True)
        for gpa_page, hpa_page in vm.view.backing.items():
            if gpa_page >= 0x0800_0000:  # the guest PT area
                assert system.pt_region.contains(hpa_page, PAGE_SIZE)

    def test_npt_pages_follow_pt_placement(self):
        system, vm = build("hpmp")
        for page in vm.npt.pt_pages:
            assert system.pt_region.contains(page, PAGE_SIZE)

    def test_fragmented_backing_scatters_frames(self):
        system = System(machine="rocket", checker_kind="pmp", mem_mib=256)
        vm = VirtualMachine(system, guest_pages=64, fragmented_backing=True)
        frames = [vm.view.backing[GUEST_DRAM_BASE + i * PAGE_SIZE] for i in range(64)]
        deltas = {b - a for a, b in zip(frames, frames[1:])}
        assert deltas != {PAGE_SIZE}


class TestGuestPermissions:
    """The guest PTE's R/W/X, and the checker permission inlined into the
    combined-TLB entry, are checked against the access type."""

    def _build(self, perm):
        system = System(machine="rocket", checker_kind="hpmp", mem_mib=128)
        vm = VirtualMachine(system, guest_pages=128)
        vm.guest_map(GVA, GUEST_DRAM_BASE + 8 * PAGE_SIZE, perm)
        return system, vm

    def test_write_to_read_only_page_faults_on_miss(self):
        _, vm = self._build(Permission(r=True))
        with pytest.raises(PageFault, match="denies w"):
            vm.access(GVA, AccessType.WRITE)

    def test_write_to_read_only_page_faults_on_hit(self):
        _, vm = self._build(Permission(r=True))
        assert not vm.access(GVA).combined_tlb_hit
        with pytest.raises(PageFault, match="denies w"):
            vm.access(GVA, AccessType.WRITE)
        assert vm.access(GVA).combined_tlb_hit

    def test_write_run_to_read_only_page_faults(self):
        _, vm = self._build(Permission(r=True))
        with pytest.raises(PageFault, match="denies w"):
            vm.access_run(GVA, 8, 64, AccessType.WRITE)

    def test_fetch_from_non_executable_page_faults(self):
        _, vm = self._build(Permission.rw())
        with pytest.raises(PageFault, match="denies x"):
            vm.access(GVA, AccessType.FETCH)
        vm.access(GVA)
        with pytest.raises(PageFault, match="denies x"):
            vm.access(GVA, AccessType.FETCH)

    def test_inlined_checker_permission_denies_write_on_hit(self):
        system, vm = self._build(Permission.rw())
        hpa = vm.view.hpa_of(GUEST_DRAM_BASE + 8 * PAGE_SIZE)
        system.setup.table.set_page_perm(hpa, Permission(r=True))
        vm.access(GVA)  # the fill inlines the checker's r-- for the frame
        with pytest.raises(AccessFault, match="inlined perm denies"):
            vm.access(GVA, AccessType.WRITE)


class TestSchemeOrdering:
    def test_cold_latency_ordering(self):
        cycles = {}
        for label, kind, gpt in (("pmpt", "pmpt", False), ("hpmp", "hpmp", False), ("hpmp-gpt", "hpmp", True), ("pmp", "pmp", False)):
            system, vm = build(kind, gpt)
            system.machine.cold_boot()
            cycles[label] = vm.guest_access(GVA).cycles
        assert cycles["pmp"] < cycles["hpmp-gpt"] < cycles["hpmp"] < cycles["pmpt"]


class TestSharedStep:
    """A guest access is the hart's scalar step with the 3D walk as its walk,
    so TLB inlining and out-of-order overlap apply to it as to a native one."""

    def test_without_inlining_combined_hit_rechecks_data_page(self):
        # The guest twin of test_reference_counts'
        # test_without_inlining_hit_still_walks_table.
        _, vm = build("pmpt", machine=rocket().with_(tlb_inlining=False))
        vm.guest_access(GVA)
        result = vm.guest_access(GVA)
        assert result.combined_tlb_hit
        assert result.checker_refs == 2  # permission table walked on every hit

    @pytest.mark.parametrize("machine", ["rocket", "boom"])
    def test_cold_read_overlaps_its_walk_like_a_native_load(self, machine):
        cycles = {}
        for access in (AccessType.READ, AccessType.WRITE):
            system, vm = build("pmpt", machine=machine)
            system.machine.cold_boot()
            cycles[access] = vm.guest_access(GVA, access).cycles
        if machine == "boom":
            assert cycles[AccessType.READ] < cycles[AccessType.WRITE]
        else:
            assert cycles[AccessType.READ] == cycles[AccessType.WRITE]
