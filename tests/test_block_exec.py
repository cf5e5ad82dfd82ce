"""Differential proof that the run loop's fused charges equal the scalar step.

Every test here runs the same work twice — once free to take the fused
charges of ``Hart.access_run``, and once with an access-only engine hook on
every engine, which keeps each reference on the scalar step (its
inlined-hit fast path included) — and asserts the observable universe
matches: cycle totals, machine/TLB/hierarchy stat snapshots, raw cache
residency (the per-set line lists), fault identity, and workload-level
results.  This is the "proof by differential test" the fused charge's
equivalence argument rests on.
"""

import contextlib

import pytest

from repro.common.errors import AccessFault, PageFault
from repro.common.types import PAGE_SIZE, AccessType, Permission, PrivilegeMode
from repro.engine import EngineHook, register_default_hook_factory, unregister_default_hook_factory
from repro.soc.machine import Hart
from repro.soc.system import System

VA = 0x40_0000_0000
#: True: fused runs allowed; False: every reference takes the scalar step.
MODES = (True, False)


class _AccessCounter(EngineHook):
    """Overrides on_access only: its engine never fuses a run, but keeps
    the scalar step's inlined-hit fast path."""

    def __init__(self):
        self.accesses = 0

    def on_access(self, va, access, cycles, tlb_hit, refs):
        self.accesses += 1


@contextlib.contextmanager
def scalar_engines():
    """Install one :class:`_AccessCounter` on every engine built inside."""
    hook = _AccessCounter()

    def factory(engine):
        return hook

    register_default_hook_factory(factory)
    try:
        yield hook
    finally:
        unregister_default_hook_factory(factory)


def build_system(fused, kind="hpmp", machine="rocket", **kw):
    """A fresh System; unless *fused*, its engines are access-hooked."""
    with contextlib.nullcontext() if fused else scalar_engines():
        return System(machine=machine, checker_kind=kind, mem_mib=kw.pop("mem_mib", 128), **kw)


def state(system):
    """Everything observable about a system's timed state, hart by hart."""
    return [
        {
            "machine": hart.stats.snapshot(),
            "tlb": hart.tlb.stats.snapshot(),
            "hier": hart.hierarchy.stats.snapshot(),
            "caches": [
                ([list(s) for s in c._sets], c.stats.snapshot())
                for c in (hart.hierarchy.l1d, hart.hierarchy.l1i, hart.hierarchy.l2, hart.hierarchy.llc)
            ],
        }
        for hart in system.machine.harts
    ]


def scalar_loop(machine, pt, va, stride, count, access=AccessType.READ, asid=0):
    """What access_run must equal: count scalar accesses, summed."""
    cycles = hits = pt_refs = ck = 0
    for i in range(count):
        res = machine.access(pt, va + i * stride, access, PrivilegeMode.USER, asid)
        cycles += res.cycles
        pt_refs += res.pt_refs
        ck += res.checker_refs
        if res.tlb_hit:
            hits += 1
    return cycles, hits, pt_refs, ck


def run_spans(hart, space, spans, fused):
    """Charge *spans* on *hart* as access_run calls, or as scalar loops;
    returns the summed (cycles, tlb_hits, pt_refs, checker_refs)."""
    pt, asid = space.page_table, space.asid
    total = (0, 0, 0, 0)
    for va, stride, count, access in spans:
        if fused:
            part = hart.access_run(pt, va, stride, count, access, PrivilegeMode.USER, asid)
        else:
            part = scalar_loop(hart, pt, va, stride, count, access, asid)
        total = tuple(a + b for a, b in zip(total, part))
    return total


class TestAccessRunParity:
    @pytest.mark.parametrize("stride", [0, 8, 64, 256, 4096, 12288])
    def test_stride_parity_cold_and_warm(self, stride):
        """Same tuple and same final state for every run shape, from cold."""
        results = {}
        for mode in MODES:
            system = build_system(mode)
            space = system.new_address_space()
            space.map(VA, 64 * PAGE_SIZE, Permission.rw())
            pt, asid = space.page_table, space.asid
            if mode:
                got = system.machine.access_run(pt, VA, stride, 20, AccessType.READ, PrivilegeMode.USER, asid)
                # Re-run warm: the whole span is now TLB/cache resident.
                warm = system.machine.access_run(pt, VA, stride, 20, AccessType.READ, PrivilegeMode.USER, asid)
            else:
                got = scalar_loop(system.machine, pt, VA, stride, 20, asid=asid)
                warm = scalar_loop(system.machine, pt, VA, stride, 20, asid=asid)
            results[mode] = (got, warm, state(system))
        assert results[True] == results[False]

    @pytest.mark.parametrize("access", [AccessType.READ, AccessType.WRITE])
    @pytest.mark.parametrize("offset", [0, 512])
    def test_zero_stride_run_on_l1_tlb_hit_fuses_whole(self, offset, access):
        """A zero-stride run whose first reference hits in the L1 TLB is one
        fused charge, not a scalar step, and equals the scalar loop:
        cycles, counters, cache residency and TLB LRU order.  Offset 0
        re-reads the line the warm-up left in the L1; 512 starts on a cold
        line."""
        results = {}
        for mode in MODES:
            system = build_system(mode)
            space = system.new_address_space()
            space.map(VA, 4 * PAGE_SIZE, Permission.rw())
            pt, asid = space.page_table, space.asid
            machine = system.machine
            for page in (0, 1, 2):
                machine.access(pt, VA + page * PAGE_SIZE, AccessType.READ, PrivilegeMode.USER, asid)
            assert machine.tlb.peek_l1(VA, asid).checker_perm is not None
            steps = []
            scalar_step = machine._access_core

            def counting_step(*args):
                steps.append(args[1])
                return scalar_step(*args)

            machine._access_core = counting_step
            if mode:
                got = machine.access_run(pt, VA + offset, 0, 6, access, PrivilegeMode.USER, asid)
            else:
                got = scalar_loop(machine, pt, VA + offset, 0, 6, access, asid)
            assert len(steps) == (0 if mode else 6)
            results[mode] = (got, state(system), list(machine.tlb._l1))
        assert results[True] == results[False]

    def test_fetch_side_parity(self):
        results = {}
        for mode in MODES:
            system = build_system(mode)
            space = system.new_address_space()
            space.map(VA, 4 * PAGE_SIZE, Permission(r=True, x=True))
            pt, asid = space.page_table, space.asid
            if mode:
                got = system.machine.access_run(pt, VA, 64, 80, AccessType.FETCH, PrivilegeMode.USER, asid)
            else:
                got = scalar_loop(system.machine, pt, VA, 64, 80, AccessType.FETCH, asid)
            results[mode] = (got, state(system))
        assert results[True] == results[False]

    def test_fault_mid_run_leaves_identical_state(self):
        """A run crossing into an unmapped page faults with scalar state."""
        results = {}
        for mode in MODES:
            system = build_system(mode)
            space = system.new_address_space()
            space.map(VA, PAGE_SIZE, Permission.rw())
            pt, asid = space.page_table, space.asid
            count = PAGE_SIZE // 8 + 5  # walks off the mapped page
            with pytest.raises(PageFault):
                if mode:
                    system.machine.access_run(pt, VA, 8, count, AccessType.READ, PrivilegeMode.USER, asid)
                else:
                    scalar_loop(system.machine, pt, VA, 8, count, asid=asid)
            results[mode] = state(system)
        assert results[True] == results[False]

    def test_page_perm_denial_parity(self):
        results = {}
        for mode in MODES:
            system = build_system(mode)
            space = system.new_address_space()
            space.map(VA, PAGE_SIZE, Permission(r=True))
            pt, asid = space.page_table, space.asid
            # Warm the TLB with reads so the denial happens on the hit path.
            if mode:
                system.machine.access_run(pt, VA, 0, 4, AccessType.READ, PrivilegeMode.USER, asid)
            else:
                scalar_loop(system.machine, pt, VA, 0, 4, asid=asid)
            with pytest.raises(PageFault):
                if mode:
                    system.machine.access_run(pt, VA, 0, 4, AccessType.WRITE, PrivilegeMode.USER, asid)
                else:
                    scalar_loop(system.machine, pt, VA, 0, 4, AccessType.WRITE, asid)
            results[mode] = state(system)
        assert results[True] == results[False]

    def test_inlined_checker_denial_parity(self):
        """hpmp page perm denies writes: fused path must fault like scalar."""
        results = {}
        for mode in MODES:
            system = build_system(mode, kind="hpmp")
            space = system.new_address_space()
            space.map(VA, PAGE_SIZE, Permission.rw())
            system.setup.table.set_page_perm(space.pa_of(VA), Permission(r=True))
            pt, asid = space.page_table, space.asid
            if mode:
                system.machine.access_run(pt, VA, 0, 3, AccessType.READ, PrivilegeMode.USER, asid)
            else:
                scalar_loop(system.machine, pt, VA, 0, 3, asid=asid)
            with pytest.raises(AccessFault):
                if mode:
                    system.machine.access_run(pt, VA, 0, 3, AccessType.WRITE, PrivilegeMode.USER, asid)
                else:
                    scalar_loop(system.machine, pt, VA, 0, 3, AccessType.WRITE, asid)
            results[mode] = state(system)
        assert results[True] == results[False]

    def test_negative_stride_and_empty_run(self):
        system = build_system(True)
        space = system.new_address_space()
        space.map(VA, 2 * PAGE_SIZE, Permission.rw())
        machine = system.machine
        assert machine.access_run(space.page_table, VA, 8, 0) == (0, 0, 0, 0)
        # Negative stride takes the scalar loop; compare against access().
        down = machine.access_run(
            space.page_table, VA + 64, -8, 4, AccessType.READ, PrivilegeMode.USER, space.asid
        )
        assert down[0] > 0

    def test_mixed_runs_match_scalar_loops(self):
        runs = [
            (VA, 0, 2, AccessType.READ),
            (VA + 128, 0, 1, AccessType.READ),
            (VA + 128, 0, 1, AccessType.WRITE),
            (VA + 8 * PAGE_SIZE, 8, 600, AccessType.READ),
            (VA + 64, 0, 3, AccessType.WRITE),
        ]
        results = {}
        for mode in MODES:
            system = build_system(mode)
            space = system.new_address_space()
            space.map(VA, 16 * PAGE_SIZE, Permission.rw())
            results[mode] = (run_spans(system.machine, space, runs, mode), state(system))
        assert results[True] == results[False]


class _RefSpy(EngineHook):
    """Overrides on_reference: installing it must force the scalar path."""

    def __init__(self):
        self.refs = 0

    def on_reference(self, kind, paddr, cycles):
        self.refs += 1


class TestHookDiscipline:
    def test_warm_run_takes_fused_charge(self):
        """A warm stride-8 run over two pages is two fused chunks: no scalar step."""
        system = build_system(True)
        space = system.new_address_space()
        space.map(VA, 4 * PAGE_SIZE, Permission.rw())
        machine = system.machine
        run = (space.page_table, VA, 8, 1024, AccessType.READ, PrivilegeMode.USER, space.asid)
        machine.access_run(*run)  # cold: one walk per page
        steps = []
        scalar_step = machine._access_core

        def counting_step(*args):
            steps.append(args[1])
            return scalar_step(*args)

        machine._access_core = counting_step
        _, hits, _, _ = machine.access_run(*run)
        assert hits == 1024
        assert steps == []

    def test_reference_hook_forces_scalar(self):
        system = build_system(True)
        space = system.new_address_space()
        space.map(VA, 2 * PAGE_SIZE, Permission.rw())
        ref_spy = _RefSpy()
        system.machine.engine.install_hook(ref_spy)
        system.machine.access_run(
            space.page_table, VA, 8, 50, AccessType.READ, PrivilegeMode.USER, space.asid
        )
        system.machine.engine.remove_hook(ref_spy)
        assert ref_spy.refs >= 50  # every reference observed individually


class TestVirtParity:
    def _build(self, mode):
        from repro.virt.nested import GUEST_DRAM_BASE, VirtualMachine

        system = build_system(mode, kind="hpmp", mem_mib=256)
        vm = VirtualMachine(system, guest_pages=128)
        vm.guest_map_range(VA, GUEST_DRAM_BASE + 8 * PAGE_SIZE, 8 * PAGE_SIZE)
        return system, vm

    def test_vm_access_run_parity(self):
        results = {}
        for mode in MODES:
            system, vm = self._build(mode)
            if mode:
                cycles = vm.access_run(VA, 8, 700, AccessType.READ)
                cycles += vm.access_run(VA, 0, 9, AccessType.READ)
            else:
                cycles = sum(vm.access(VA + 8 * i, AccessType.READ).cycles for i in range(700))
                cycles += sum(vm.access(VA, AccessType.READ).cycles for _ in range(9))
            results[mode] = (cycles, state(system), vm.stats.snapshot())
        assert results[True] == results[False]

    def test_vm_mixed_runs_parity(self):
        results = {}
        for mode in MODES:
            system, vm = self._build(mode)
            if mode:
                cycles = vm.access_run(VA, 64, 32, AccessType.READ)
                cycles += vm.access_run(VA + PAGE_SIZE, 0, 4, AccessType.WRITE)
            else:
                cycles = sum(vm.access(VA + 64 * i, AccessType.READ).cycles for i in range(32))
                cycles += sum(vm.access(VA + PAGE_SIZE, AccessType.WRITE).cycles for _ in range(4))
            results[mode] = (cycles, state(system), vm.stats.snapshot())
        assert results[True] == results[False]

    def test_vm_write_run_to_read_only_page_faults_like_scalar(self):
        """A warm read-only guest page: the write run faults on its first
        reference in both modes, from identical state."""
        from repro.virt.nested import GUEST_DRAM_BASE, VirtualMachine

        results = {}
        for mode in MODES:
            system = build_system(mode, kind="hpmp", mem_mib=256)
            vm = VirtualMachine(system, guest_pages=128)
            vm.guest_map(VA, GUEST_DRAM_BASE + 8 * PAGE_SIZE, Permission(r=True))
            cycles = vm.access_run(VA, 8, 64, AccessType.READ)
            with pytest.raises(PageFault, match="denies w"):
                vm.access_run(VA, 8, 64, AccessType.WRITE)
            results[mode] = (cycles, state(system), vm.stats.snapshot())
        assert results[True] == results[False]

    def test_vm_fetch_run_parity_charges_l1i(self):
        from repro.virt.nested import GUEST_DRAM_BASE, VirtualMachine

        results = {}
        for mode in MODES:
            system = build_system(mode, kind="hpmp", mem_mib=256)
            vm = VirtualMachine(system, guest_pages=128)
            vm.guest_map(VA, GUEST_DRAM_BASE + 8 * PAGE_SIZE, Permission.rx())
            if mode:
                cycles = vm.access_run(VA, 4, 700, AccessType.FETCH)
            else:
                cycles = sum(vm.access(VA + 4 * i, AccessType.FETCH).cycles for i in range(700))
            results[mode] = (cycles, state(system), vm.stats.snapshot())
        assert results[True] == results[False]
        l1i = system.machine.hierarchy.l1i.stats
        assert l1i["hit"] + l1i["miss"] == 700  # every fetch probed the L1I


def _both_modes(fn):
    """Run *fn* plain, then with every engine access-hooked; return {mode: result}.

    A spy on ``Hart._access_core`` counts the plain side's hart steps.
    Fewer steps than the hooked side's accesses means that some references
    took a fused charge, so a case that cannot fuse fails here.
    """
    steps = 0
    step = Hart._access_core

    def counting_step(self, *args):
        nonlocal steps
        steps += 1
        return step(self, *args)

    Hart._access_core = counting_step
    try:
        plain = fn()
    finally:
        Hart._access_core = step
    with scalar_engines() as hook:
        hooked = fn()
    assert 0 < steps < hook.accesses
    return {True: plain, False: hooked}


class TestWorkloadParity:
    """Workload generators whose runs fuse, plain vs access-hooked, tiny configs."""

    def test_gap_bfs(self):
        from repro.workloads.gap import run_kernel

        results = _both_modes(lambda: run_kernel("bfs", "hpmp", machine="rocket", scale=8))
        assert results[True] == results[False]

    def test_redis_commands(self):
        from repro.workloads.redis import run_command

        def run():
            out = []
            for command in ("GET", "LPUSH", "LRANGE_100"):
                out.append(
                    run_command(command, "hpmp", machine="rocket", requests=4, warmup=1, num_keys=512)
                )
            return out

        results = _both_modes(run)
        assert results[True] == results[False]

    def test_lmbench_fork_exec(self):
        from repro.workloads.lmbench import run_syscall

        results = _both_modes(
            lambda: run_syscall(
                "fork+exec", "hpmp", machine="rocket", iterations=2, warmup=1,
                kernel_heap_pages=512, mem_mib=256,
            )
        )
        assert results[True] == results[False]

    def test_functionbench_matmul(self):
        from repro.workloads.functionbench import run_function

        results = _both_modes(lambda: run_function("matmul", "pmpt", machine="rocket"))
        assert results[True] == results[False]


class TestHookInvariance:
    """Workloads that take only scalar steps: an access hook changes nothing.

    ``run_fragmentation``'s strides (4 KiB, and 8 GiB + 4 KiB) put every
    reference alone on its page, and ``replay`` charges every trace entry
    with the scalar step, so neither fuses.  Each test runs the workload
    plain and with an access-only hook on every engine and asserts equal
    results: a hook observes and never alters timing.
    """

    def _plain_and_hooked(self, fn):
        plain = fn()
        with scalar_engines() as hook:
            hooked = fn()
        assert hook.accesses
        return plain, hooked

    def test_microbench_fragmentation(self):
        from repro.workloads.microbench import run_fragmentation

        plain, hooked = self._plain_and_hooked(
            lambda: run_fragmentation("hpmp", "Fragmented-VA", True, num_pages=24, passes=2)
        )
        assert plain == hooked

    def test_trace_record_and_replay(self):
        from repro.workloads.traces import Trace, replay

        trace = Trace()
        trace.require_mapping(VA, 4 * PAGE_SIZE)
        for i in range(256):
            trace.append(VA + 8 * i, AccessType.READ)
        for _ in range(16):
            trace.append(VA, AccessType.WRITE)
        plain, hooked = self._plain_and_hooked(lambda: replay(trace, "hpmp", machine="rocket"))
        assert plain == hooked


class TestRunnerIntegration:
    def test_execute_matches_access_hooked_execute(self):
        """A plain cell and the same cell under an access hook: equal rows
        and equal light telemetry."""
        from repro.experiments.report import rows_digest
        from repro.runner.tasks import campaign_tasks, execute

        spec = min(campaign_tasks(["fig02"]), key=lambda s: s.task_id)
        rows_plain, stats_plain = execute(spec, telemetry="light")
        with scalar_engines() as hook:
            rows_scalar, stats_scalar = execute(spec, telemetry="light")
        assert hook.accesses
        assert rows_digest(rows_plain) == rows_digest(rows_scalar)
        assert stats_plain.snapshot() == stats_scalar.snapshot()


class TestMultiHartParity:
    """Fused vs access-hooked scalar execution under 2-hart interleaving.

    The interleaver splits fused runs at every hart-switch quantum
    boundary, and each chunk's bulk path falls back to scalar at its
    edges — so even with interleaving, fused and scalar execution must
    stay byte-identical per hart.
    """

    def _interleave(self, fused, quantum):
        from repro.soc import HartProgram, RoundRobinInterleaver

        system = build_system(fused, harts=2)
        machine = system.machine
        programs = []
        for i in range(2):
            space = system.new_address_space()
            space.map(VA, 24 * PAGE_SIZE)
            programs.append(
                HartProgram(space.page_table, asid=space.asid)
                .run(VA, PAGE_SIZE, 24, AccessType.READ)
                .run(VA, 0, 40, AccessType.READ)  # stride-0 run: bulk-hit bait
                .run(VA, PAGE_SIZE, 24, AccessType.WRITE)
            )
        result = RoundRobinInterleaver(machine, quantum=quantum, seed=3).run(programs)
        return result, [
            (hart.stats.snapshot(), hart.tlb.stats.snapshot(), hart.hierarchy.stats.snapshot())
            for hart in machine.harts
        ]

    @pytest.mark.parametrize("quantum", (1, 7, 64))
    def test_block_matches_scalar_interleaved(self, quantum):
        fused_result, fused_state = self._interleave(True, quantum)
        scalar_result, scalar_state = self._interleave(False, quantum)
        assert [vars(h) for h in fused_result.harts] == [
            vars(h) for h in scalar_result.harts
        ]
        assert fused_state == scalar_state
