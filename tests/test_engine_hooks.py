"""Engine observability-hook semantics.

Hooks observe the timed reference stream; they must never alter it.  The
contract tested here: a recording hook sees exactly ``total_refs`` events
per access, installing/removing hooks leaves every cycle and reference
count untouched, and the no-hook default costs nothing but a truthiness
test (the engine publishes only when ``has_hooks``).
"""

import pytest

from repro.common.errors import PageFault
from repro.common.types import PAGE_SIZE, AccessType, PrivilegeMode
from repro.engine import EngineHook, HistogramHook, RecordingHook, RefKind
from repro.soc.system import System
from repro.virt.nested import GUEST_DRAM_BASE, VirtualMachine

VA = 0x20_0000_0000
GVA = 0x40_0000_0000


def make_system(kind="pmpt", machine="rocket"):
    system = System(machine=machine, checker_kind=kind, mem_mib=128)
    space = system.new_address_space()
    space.map(VA, 4 * PAGE_SIZE)
    system.machine.cold_boot()
    return system, space


class TestEventStream:
    @pytest.mark.parametrize("kind", ["pmp", "pmpt", "hpmp"])
    def test_hook_sees_exactly_total_refs_events(self, kind):
        system, space = make_system(kind)
        hook = system.machine.engine.install_hook(RecordingHook())
        result = system.access(space, VA)
        assert len(hook.references) == result.total_refs
        assert len(hook.references_of(RefKind.PT)) == result.pt_refs
        assert len(hook.references_of(RefKind.CHECKER)) == result.checker_refs
        assert len(hook.references_of(RefKind.DATA)) == 1
        assert hook.references_of(RefKind.NPT) == []

    def test_warm_hit_emits_one_data_event(self):
        system, space = make_system("pmpt")
        system.access(space, VA)  # fill the TLB (and inline the check)
        hook = system.machine.engine.install_hook(RecordingHook())
        result = system.access(space, VA)
        assert result.tlb_hit
        assert [e.kind for e in hook.references] == [RefKind.DATA]

    def test_on_access_reports_outcome(self):
        system, space = make_system("pmpt")
        hook = system.machine.engine.install_hook(RecordingHook())
        result = system.access(space, VA)
        assert hook.accesses == [(VA, AccessType.READ, result.cycles, False, result.total_refs)]

    def test_on_tlb_fill_fires_on_miss_only(self):
        system, space = make_system("pmp")
        hook = system.machine.engine.install_hook(RecordingHook())
        system.access(space, VA)
        system.access(space, VA)
        assert len(hook.tlb_fills) == 1
        entry, which = hook.tlb_fills[0]
        assert which == "dtlb"
        assert entry.vpn == VA >> 12

    def test_on_fault_fires(self):
        system, space = make_system("pmp")
        hook = system.machine.engine.install_hook(RecordingHook())
        with pytest.raises(PageFault):
            system.machine.access(space.page_table, 0xDEAD_0000_0000, AccessType.READ,
                                  PrivilegeMode.USER, space.asid)
        assert len(hook.faults) == 1

    @pytest.mark.parametrize("kind,gpt", [("pmp", False), ("pmpt", False), ("hpmp", False), ("hpmp", True)])
    def test_guest_access_event_stream(self, kind, gpt):
        system = System(machine="rocket", checker_kind=kind, mem_mib=256)
        vm = VirtualMachine(system, guest_pages=64, gpt_contiguous=gpt)
        vm.guest_map(GVA, GUEST_DRAM_BASE)
        system.machine.cold_boot()
        hook = system.machine.engine.install_hook(RecordingHook())
        result = vm.access(GVA)
        assert len(hook.references) == result.refs
        # 3D-walk skeleton: 4 nested resolves x 3 NPT steps, 3 guest-PT
        # steps, 1 data reference; checker refs vary by scheme.
        assert len(hook.references_of(RefKind.NPT)) == 12
        assert len(hook.references_of(RefKind.GUEST_PT)) == 3
        assert len(hook.references_of(RefKind.DATA)) == 1
        assert len(hook.references_of(RefKind.CHECKER)) == result.checker_refs
        fills = [which for _, which in hook.tlb_fills]
        assert fills.count("combined") == 1
        assert fills.count("gstage") == 4


def cache_state(system):
    """Hierarchy stats plus every cache's resident lines and stats."""
    hier = system.machine.hierarchy
    caches = [([list(s) for s in c._sets], c.stats.snapshot()) for c in (hier.l1d, hier.l1i, hier.l2, hier.llc)]
    return hier.stats.snapshot(), caches


class TestHooksNeverAlterTiming:
    @pytest.mark.parametrize("kind,gpt", [("pmpt", False), ("hpmp", False), ("hpmp", True), ("pmp", False)])
    def test_guest_cycles_identical_with_and_without_hook(self, kind, gpt):
        """fig13's four schemes: cold, warm and run guest accesses."""

        def run(hooked):
            system = System(machine="rocket", checker_kind=kind, mem_mib=256)
            vm = VirtualMachine(system, guest_pages=64, gpt_contiguous=gpt)
            vm.guest_map_range(GVA, GUEST_DRAM_BASE, 6 * PAGE_SIZE)
            system.machine.cold_boot()
            hook = system.machine.engine.install_hook(RecordingHook()) if hooked else None
            pages = [GVA + i * PAGE_SIZE for i in range(4)]
            results = [vm.access(gva) for gva in pages]  # cold
            results += [vm.access(gva, AccessType.WRITE) for gva in pages]  # warm
            cycles = [
                vm.access_run(GVA + 2 * PAGE_SIZE, 64, 256),  # two warm pages, two cold
                vm.access_run(GVA, 0, 16, AccessType.WRITE),
            ]
            assert hook is None or len(hook.accesses) == 8 + 256 + 16
            return results, cycles, vm.stats.snapshot(), system.machine.stats.snapshot(), cache_state(system)

        assert run(hooked=True) == run(hooked=False)

    @pytest.mark.parametrize("kind", ["pmp", "pmpt", "hpmp"])
    def test_cycles_identical_with_and_without_hook(self, kind):
        bare_system, bare_space = make_system(kind)
        bare = [bare_system.access(bare_space, VA + i * PAGE_SIZE) for i in range(4)]

        hooked_system, hooked_space = make_system(kind)
        hooked_system.machine.engine.install_hook(RecordingHook())
        hooked = [hooked_system.access(hooked_space, VA + i * PAGE_SIZE) for i in range(4)]
        assert hooked == bare
        assert hooked_system.machine.stats.snapshot() == bare_system.machine.stats.snapshot()

    def test_install_remove_round_trip(self):
        system, space = make_system("pmpt")
        engine = system.machine.engine
        hook = RecordingHook()
        assert not engine.has_hooks
        assert engine.install_hook(hook) is hook
        engine.install_hook(hook)  # idempotent
        assert engine.hooks == (hook,)
        before = system.access(space, VA).cycles
        engine.remove_hook(hook)
        engine.remove_hook(hook)  # removing twice is a no-op
        assert not engine.has_hooks
        after = system.access(space, VA + PAGE_SIZE).cycles
        assert len(hook.references) > 0  # saw the first access only
        assert before > after  # cold miss vs PWC-warmed miss, not hook cost

    def test_access_cycles_matches_access(self):
        a_system, a_space = make_system("pmpt")
        b_system, b_space = make_system("pmpt")
        for i in range(4):
            va = VA + (i % 2) * PAGE_SIZE
            cycles = a_system.machine.access_run(
                a_space.page_table, va, 0, 1, AccessType.READ, PrivilegeMode.USER, a_space.asid
            )[0]
            assert cycles == b_system.access(b_space, va).cycles

    def test_access_run_result_matches_machine_stats(self):
        """Summed access_run tuples equal the machine's counters: 16 runs of
        one reference per page, then a stride-8 run that takes fused charges."""
        system, space = make_system("pmpt")
        machine = system.machine
        runs = [(VA, PAGE_SIZE, 4)] * 16 + [(VA, 8, 64)]
        total = (0, 0, 0, 0)
        for va, stride, count in runs:
            part = machine.access_run(
                space.page_table, va, stride, count, AccessType.READ, PrivilegeMode.USER, space.asid
            )
            total = tuple(a + b for a, b in zip(total, part))
        cycles, tlb_hits, pt_refs, checker_refs = total
        stats = machine.stats
        assert stats["accesses"] == 128
        assert cycles == stats["cycles"]
        assert pt_refs == stats["pt_refs"]
        assert checker_refs == stats["checker_refs"]
        assert tlb_hits == stats["accesses"] - stats["tlb_misses"]


class AccessCounter(EngineHook):
    """Overrides ``on_access`` only: an access-level observer."""

    def __init__(self):
        self.accesses = self.tlb_hits = self.refs = self.cycles = 0

    def on_access(self, va, access, cycles, tlb_hit, refs):
        self.accesses += 1
        self.tlb_hits += tlb_hit
        self.refs += refs
        self.cycles += cycles


class TestPartitionedDispatch:
    """The engine dispatches each callback only to hooks that override it."""

    def test_partition_membership_tracks_overrides(self):
        system, _ = make_system("pmpt")
        engine = system.machine.engine
        access_only = engine.install_hook(AccessCounter())
        assert engine._access_hooks == (access_only,) and not engine._ref_hooks
        recording = engine.install_hook(RecordingHook())
        assert engine._ref_hooks == engine._fill_hooks == (recording,)
        engine.remove_hook(recording)
        assert not engine._ref_hooks  # partition rebuilt on removal
        engine.remove_hook(access_only)
        assert not engine._access_hooks and not engine.has_hooks

    def test_access_level_hook_keeps_fast_path_and_sees_every_access(self):
        # An on_access-only hook must not force warm hits to charge their
        # data reference through an Account, and must still be fed each
        # completed access from that branch.
        system, space = make_system("pmpt")
        hook = system.machine.engine.install_hook(AccessCounter())
        acct = system.machine._acct
        results = [system.access(space, VA) for _ in range(3)]  # 1 miss + 2 inlined hits
        # The hits left the miss's Account as the miss left it.
        assert acct.table_refs == results[0].pt_refs > 0
        assert hook.accesses == 3
        assert hook.tlb_hits == 2
        assert hook.cycles == sum(r.cycles for r in results)
        assert hook.refs == sum(r.total_refs for r in results)

    def test_access_level_hook_matches_full_hook_event_stream(self):
        # Same workload observed by an access-level hook (data charged
        # without an Account on hits) and by HistogramHook (every reference
        # through the engine): identical access-level counts.
        a_system, a_space = make_system("pmpt")
        light = a_system.machine.engine.install_hook(AccessCounter())
        b_system, b_space = make_system("pmpt")
        full = b_system.machine.engine.install_hook(HistogramHook("t"))
        for i in range(6):
            va = VA + (i % 2) * PAGE_SIZE
            assert a_system.access(a_space, va) == b_system.access(b_space, va)
        assert light.accesses == full.stats["accesses"] == 6
        assert light.tlb_hits == full.stats["tlb_hits"]
        assert light.cycles == full.stats.histogram("access_cycles").total

    def test_on_checker_fires_at_install_and_attach(self):
        seen = []

        class CheckerWatcher(EngineHook):
            def on_checker(self, checker):
                seen.append(checker)

        system, _ = make_system("pmp")
        engine = system.machine.engine
        engine.install_hook(CheckerWatcher())
        assert seen == [engine.checker]  # install-time fire with current checker
        replacement = engine.checker
        system.machine.attach_checker(replacement)
        assert seen == [replacement, replacement]


class TestHistogramHook:
    def test_aggregates_stream(self):
        system, space = make_system("pmpt")
        hook = system.machine.engine.install_hook(HistogramHook("t"))
        results = [system.access(space, VA + i * PAGE_SIZE) for i in range(2)]
        results.append(system.access(space, VA))
        stats = hook.stats
        assert stats["accesses"] == 3
        assert stats["tlb_hits"] == 1
        assert stats["refs.data"] == 3
        assert stats["refs.checker"] == sum(r.checker_refs for r in results)
        hist = stats.histogram("access_cycles")
        assert hist.count == 3
        assert hist.total == sum(r.cycles for r in results)
        assert stats.histogram("refs_per_access").total == sum(r.total_refs for r in results)
