"""Differential tests for the flattened TLB-miss path.

The TLB, the page-walk cache and the page-level walk memo are hand-flattened
for speed; each is checked here against a deliberately plain model (or
against the functional translation) under seeded random streams.
"""

import random

import pytest

from repro.common.params import TLBParams
from repro.common.types import GIB, MIB, PAGE_SIZE, AccessType, Permission, PrivilegeMode
from repro.engine import RecordingHook, RefKind
from repro.isolation.checker import ZERO_COST, ZERO_COSTS, CheckCost
from repro.isolation.factory import NullChecker
from repro.paging.ptecache import PageWalkCache
from repro.paging.tlb import TLB, TLBEntry
from repro.soc.system import DRAM_BASE, System
from repro.virt.nested import GUEST_DRAM_BASE, VirtualMachine

L1_LAT, L2_LAT = 1, 4


class ReferenceTLB:
    """Plain two-level TLB: a fully associative LRU L1 kept as a list (least
    recently used first), a direct-mapped L2 kept as a list of slots, and
    promotion into the L1 on an L2 hit."""

    def __init__(self, l1_entries, l2_entries):
        self.l1_entries = l1_entries
        self.l1 = []  # [(key, entry)]
        self.l2 = [None] * l2_entries  # slot -> (key, entry) or None
        self.l1_hits = self.l2_hits = self.misses = 0

    def _slot(self, key):
        asid, vpn = key
        return (vpn ^ asid) % len(self.l2)

    def _l1_put(self, key, entry):
        keys = [k for k, _e in self.l1]
        if key in keys:
            del self.l1[keys.index(key)]
        elif len(self.l1) == self.l1_entries:
            del self.l1[0]
        self.l1.append((key, entry))

    def lookup(self, va, asid):
        key = (asid, va // PAGE_SIZE)
        for i, (k, entry) in enumerate(self.l1):
            if k == key:
                self.l1.append(self.l1.pop(i))
                self.l1_hits += 1
                return entry, L1_LAT
        slot = self.l2[self._slot(key)]
        if slot is not None and slot[0] == key:
            self.l2_hits += 1
            self._l1_put(key, slot[1])
            return slot[1], L1_LAT + L2_LAT
        self.misses += 1
        return None, L1_LAT + L2_LAT

    def fill(self, entry):
        key = (entry.asid, entry.vpn)
        self._l1_put(key, entry)
        self.l2[self._slot(key)] = (key, entry)

    def drop_where(self, doomed):
        self.l1 = [(k, e) for k, e in self.l1 if not doomed(k)]
        self.l2 = [None if s is not None and doomed(s[0]) else s for s in self.l2]

    def drop_inlined_permissions(self):
        for _k, entry in self.l1 + [s for s in self.l2 if s is not None]:
            entry.checker_perm = None


def _state(tlb):
    l1 = [(key, entry) for level, key, entry in tlb.resident_entries() if level == "l1"]
    l2 = {key: entry for level, key, entry in tlb.resident_entries() if level == "l2"}
    return l1, l2


class TestTLBAgainstModel:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_streams_match(self, seed):
        rng = random.Random(seed)
        tlb = TLB(TLBParams("l1", 4, 4, L1_LAT), TLBParams("l2", 16, 1, L2_LAT))
        model = ReferenceTLB(4, 16)
        perms = [None, Permission.rw(), Permission(r=True)]
        for step in range(3000):
            op = rng.choices(
                ["lookup", "fill", "flush_asid", "flush_all", "flush_page", "drop"],
                weights=[50, 30, 3, 1, 6, 2],
            )[0]
            asid = rng.randrange(3)
            vpn = rng.randrange(40)
            va = vpn * PAGE_SIZE + rng.randrange(PAGE_SIZE)
            if op == "lookup":
                got, got_lat = tlb.lookup(va, asid)
                want, want_lat = model.lookup(va, asid)
                assert (got, got_lat) == (want, want_lat), step
            elif op == "fill":
                fields = (vpn, rng.randrange(1 << 20), Permission.rw(), True, asid, rng.choice(perms))
                tlb.fill(TLBEntry(*fields))
                model.fill(TLBEntry(*fields))
            elif op == "flush_asid":
                tlb.flush(asid)
                model.drop_where(lambda key: key[0] == asid)
            elif op == "flush_all":
                tlb.flush()
                model.drop_where(lambda key: True)
            elif op == "flush_page":
                only = rng.choice([None, asid])
                tlb.flush_page(va, only)
                model.drop_where(lambda key: key[1] == vpn and only in (None, key[0]))
            else:
                tlb.drop_inlined_permissions()
                model.drop_inlined_permissions()
            l1, l2 = _state(tlb)
            assert l1 == model.l1, step  # same entries, same LRU order
            assert l2 == {s[0]: s[1] for s in model.l2 if s is not None}, step
        counts = tlb.stats.snapshot()
        assert counts.get("l1_hit", 0) == model.l1_hits
        assert counts.get("l2_hit", 0) == model.l2_hits
        assert counts.get("miss", 0) == model.misses
        assert tlb.occupancy() == (len(model.l1), sum(s is not None for s in model.l2))


class ReferencePWC:
    """Plain longest-prefix page-walk cache: a list of (key, table) pairs,
    least recently used first."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []
        self.hits = self.misses = 0

    @staticmethod
    def key(root, va, level):
        return (root, level, va >> (12 + 9 * (level + 1)))

    def lookup(self, root, va, levels):
        if not self.capacity:
            return None
        for level in range(levels - 1):
            key = self.key(root, va, level)
            for i, (k, table) in enumerate(self.entries):
                if k == key:
                    self.entries.append(self.entries.pop(i))
                    self.hits += 1
                    return level, table
        self.misses += 1
        return None

    def insert(self, root, va, level, table):
        if not self.capacity:
            return
        key = self.key(root, va, level)
        keys = [k for k, _t in self.entries]
        if key in keys:
            del self.entries[keys.index(key)]
        elif len(self.entries) == self.capacity:
            del self.entries[0]
        self.entries.append((key, table))


class TestPageWalkCacheAgainstModel:
    @pytest.mark.parametrize("seed, capacity", [(0, 8), (1, 8), (2, 3), (3, 1), (4, 0)])
    def test_prefix_hits_match(self, seed, capacity):
        rng = random.Random(seed)
        pwc = PageWalkCache(capacity)
        model = ReferencePWC(capacity)
        roots = (0x8000_0000, 0x8000_1000)
        for step in range(3000):
            root = rng.choice(roots)
            levels = rng.choice((3, 4))
            # VAs that share upper prefixes often: few choices per VPN field.
            va = (rng.randrange(2) << 39) | (rng.randrange(3) << 30) | (rng.randrange(3) << 21)
            va |= rng.randrange(4) << 12
            if rng.random() < 0.5:
                assert pwc.lookup(root, va, levels) == model.lookup(root, va, levels), step
            elif rng.random() < 0.02:
                pwc.flush()
                model.entries.clear()
            else:
                level = rng.randrange(levels - 1)
                table = rng.randrange(1 << 20) * PAGE_SIZE
                pwc.insert(root, va, level, table, levels)
                model.insert(root, va, level, table)
        assert list(pwc._entries.items()) == model.entries
        counts = pwc.stats.snapshot()
        assert (counts.get("hit", 0), counts.get("miss", 0)) == (model.hits, model.misses)


OFFSETS = (0x18, 0x0, 5 * PAGE_SIZE + 0x7F8, 3 * PAGE_SIZE, 511 * PAGE_SIZE + 0xFF8)


class TestHugePageWalks:
    """The walk memo holds one page-level translation per 4 KiB page; the
    timed walkers add the offset.  Huge pages are where a wrong page-level
    address would show, so walk several 4 KiB pages of each, each first
    reached at a non-zero offset, cold and warm."""

    VA = 0x40_0000_0000

    @pytest.mark.parametrize("level, pa", [(1, DRAM_BASE + 32 * MIB), (2, DRAM_BASE)])
    def test_hart_path(self, level, pa):
        system = System(machine="rocket", checker_kind="pmp", mem_mib=128)
        space = system.new_address_space()
        space.page_table.map_page(self.VA, pa, Permission.rw(), level=level)
        for offset in OFFSETS:
            system.machine.sfence_vma()
            cold = system.access(space, self.VA + offset, AccessType.WRITE)
            warm = system.access(space, self.VA + offset)
            assert not cold.tlb_hit and warm.tlb_hit
            assert cold.paddr == warm.paddr == pa + offset
            assert space.page_table.walk(self.VA + offset).paddr == pa + offset

    def test_vm_path_huge_guest_pages(self):
        """Each guest-PT reference also reads its own PTE's host word."""
        system = System(machine="rocket", checker_kind="pmp", mem_mib=256)
        vm = VirtualMachine(system, guest_pages=1024)
        vm.guest_pt.map_page(self.VA, GUEST_DRAM_BASE + 2 * MIB, Permission.rw(), level=1)
        vm.guest_pt.map_page(self.VA // 2, GUEST_DRAM_BASE, Permission.rw(), level=2)
        hook = system.machine.engine.install_hook(RecordingHook())
        for gva, gpa in ((self.VA, GUEST_DRAM_BASE + 2 * MIB), (self.VA // 2, GUEST_DRAM_BASE)):
            for offset in OFFSETS:
                vm.hfence_gvma()
                hook.clear()
                cold = vm.access(gva + offset, AccessType.WRITE)
                warm = vm.access(gva + offset)
                assert not cold.combined_tlb_hit and warm.combined_tlb_hit
                assert cold.hpa == warm.hpa == vm.view.hpa_of(gpa + offset)
                steps = vm.guest_pt.walk(gva + offset).steps
                pte_reads = [event.paddr for event in hook.references_of(RefKind.GUEST_PT)]
                assert pte_reads == [vm.view.hpa_of(step.pte_addr) for step in steps]

    def test_vm_path_huge_nested_page(self):
        """A 2 MiB G-stage page: each guest 4 KiB page inside it lands at its
        own offset into the host block."""
        system = System(machine="rocket", checker_kind="pmp", mem_mib=256)
        vm = VirtualMachine(system, guest_pages=16)
        gpa = 1 * GIB
        hpa = system.data_frames.alloc_contiguous(512, align_frames=512)
        vm.npt.map_page(gpa, hpa, Permission.rw(), level=1)
        for i in range(512):
            vm.view.back_page(gpa + i * PAGE_SIZE, hpa + i * PAGE_SIZE)
        vm.guest_map_range(self.VA, gpa, 2 * MIB)
        for offset in OFFSETS:
            vm.hfence_gvma()
            assert vm.access(self.VA + offset).hpa == hpa + offset
            assert vm.access(self.VA + offset, AccessType.WRITE).hpa == hpa + offset


class TestCheckCost:
    def test_value_equality_and_add(self):
        a = CheckCost(3, 1, Permission.rw())
        assert a == CheckCost(3, 1, Permission(r=True, w=True))
        assert a != CheckCost(3, 2, Permission.rw())
        assert a + CheckCost(4, 2, Permission.rx()) == CheckCost(7, 3, Permission(r=True))
        assert (a.cycles, a.refs, a.perm) == (3, 1, Permission.rw())

    def test_zero_cost_results_are_shared(self):
        assert ZERO_COST == CheckCost(0, 0, Permission.rwx())
        assert NullChecker().check(0x1000, AccessType.WRITE) is ZERO_COST
        system = System(machine="rocket", checker_kind="pmp", mem_mib=64)
        checker = system.machine.checker
        machine_mode = checker.check(DRAM_BASE, AccessType.FETCH, PrivilegeMode.MACHINE)
        assert machine_mode is ZERO_COST
        assert checker.check(DRAM_BASE, AccessType.READ) is ZERO_COSTS[True, True, True]
