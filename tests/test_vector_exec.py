"""Differential proof that whole access programs are byte-identical to scalar.

:mod:`tests.test_block_exec` checks single runs (``access_run``).  This
module checks *programs*: several runs of mixed shape charged as
consecutive ``access_run`` calls — on the primary or a secondary hart,
under hpmp and pmpt, inside a virtual machine, and as emitted by the
workload generators — against the same work with an access hook on every
engine, which keeps each reference on the scalar step, cold and warm.  The
assertions cover cycle totals, machine/TLB/hierarchy stat snapshots, raw
cache residency, fault identity and workload results.  It
also pins what a program shows engine hooks, that a TLB flush or a
permission drop between or inside programs is never served from stale
state, and that the timed path runs without numpy.  (The module name dates
from a numpy program evaluator that has since been removed; the run loop
is the only bulk path.)
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.common.errors import AccessFault, PageFault
from repro.common.types import PAGE_SIZE, AccessType, Permission
from repro.engine import EngineHook

from .test_block_exec import (
    MODES,
    VA,
    _both_modes,
    _RefSpy,
    build_system,
    run_spans,
    state,
)

READ, WRITE, FETCH = AccessType.READ, AccessType.WRITE, AccessType.FETCH

#: Every run shape in one program: long strided, stride-0, single reference,
#: page and multi-page strides, both data access types.  Reaches page 17.
MIXED_SPANS = [
    (VA, 8, 300, READ),
    (VA + 2 * PAGE_SIZE, 0, 40, WRITE),
    (VA + 128, 0, 1, READ),
    (VA + 4 * PAGE_SIZE, 4096, 10, READ),
    (VA + 8 * PAGE_SIZE, 12288, 4, WRITE),
    (VA + 64, 64, 120, READ),
]


class TestProgramParity:
    @pytest.mark.parametrize("stride", [0, 8, -8, 256, 4096, 12288])
    def test_stride_parity_cold_and_warm(self, stride):
        base = VA + 16 * PAGE_SIZE if stride < 0 else VA
        spans = [(base, stride, 40, READ)]
        results = {}
        for mode in MODES:
            system = build_system(mode)
            space = system.new_address_space()
            space.map(VA, 128 * PAGE_SIZE, Permission.rw())  # 12288*39 spans 118 pages
            cold = run_spans(system.machine, space, spans, mode)
            warm = run_spans(system.machine, space, spans, mode)
            results[mode] = (cold, warm, state(system))
        assert results[True] == results[False]

    def test_mixed_program_parity(self):
        results = {}
        for mode in MODES:
            system = build_system(mode)
            space = system.new_address_space()
            space.map(VA, 64 * PAGE_SIZE, Permission.rw())
            cold = run_spans(system.machine, space, MIXED_SPANS, mode)
            warm = run_spans(system.machine, space, MIXED_SPANS, mode)
            results[mode] = (cold, warm, state(system))
        assert results[True] == results[False]

    def test_page_boundary_chunking(self):
        """Unaligned strides crossing several pages split on page edges."""
        spans = [(VA + 1000, 24, 600, READ), (VA + 3 * PAGE_SIZE - 8, 8, 4, WRITE)]
        results = {}
        for mode in MODES:
            system = build_system(mode)
            space = system.new_address_space()
            space.map(VA, 8 * PAGE_SIZE, Permission.rw())
            got = run_spans(system.machine, space, spans, mode)
            results[mode] = (got, state(system))
        assert results[True] == results[False]

    def test_fetch_side_parity(self):
        spans = [(VA, 64, 200, FETCH), (VA + PAGE_SIZE, 2048, 6, FETCH)]
        results = {}
        for mode in MODES:
            system = build_system(mode)
            space = system.new_address_space()
            space.map(VA, 8 * PAGE_SIZE, Permission(r=True, x=True))
            cold = run_spans(system.machine, space, spans, mode)
            warm = run_spans(system.machine, space, spans, mode)
            results[mode] = (cold, warm, state(system))
        assert results[True] == results[False]

    def test_pmpt_checker_parity(self):
        results = {}
        for mode in MODES:
            system = build_system(mode, kind="pmpt")
            space = system.new_address_space()
            space.map(VA, 64 * PAGE_SIZE, Permission.rw())
            got = run_spans(system.machine, space, MIXED_SPANS, mode)
            results[mode] = (got, state(system))
        assert results[True] == results[False]

    def test_fault_mid_program_leaves_identical_state(self):
        """A run walking off the mapping faults identically; later runs
        never execute in either mode."""
        count = PAGE_SIZE // 8 + 5
        spans = [(VA, 0, 8, READ), (VA, 8, count, READ), (VA, 0, 99, WRITE)]
        results = {}
        for mode in MODES:
            system = build_system(mode)
            space = system.new_address_space()
            space.map(VA, PAGE_SIZE, Permission.rw())
            with pytest.raises(PageFault):
                run_spans(system.machine, space, spans, mode)
            results[mode] = state(system)
        assert results[True] == results[False]

    def test_inlined_checker_denial_parity(self):
        """hpmp page perm denies writes: the program must fault like scalar."""
        results = {}
        for mode in MODES:
            system = build_system(mode, kind="hpmp")
            space = system.new_address_space()
            space.map(VA, PAGE_SIZE, Permission.rw())
            system.setup.table.set_page_perm(space.pa_of(VA), Permission(r=True))
            run_spans(system.machine, space, [(VA, 0, 3, READ)], mode)
            with pytest.raises(AccessFault):
                run_spans(system.machine, space, [(VA, 0, 3, WRITE)], mode)
            results[mode] = state(system)
        assert results[True] == results[False]


class _FlushOnFill(EngineHook):
    """Flushes the TLB from inside the *after*-th TLB fill."""

    def __init__(self, machine, after):
        self.machine = machine
        self.seen = 0
        self.after = after

    def on_tlb_fill(self, entry, which="dtlb"):
        self.seen += 1
        if self.seen == self.after:
            self.machine.tlb.flush()


class TestHookDiscipline:
    def test_reference_hook_forces_scalar(self):
        system = build_system(True)
        space = system.new_address_space()
        space.map(VA, 4 * PAGE_SIZE, Permission.rw())
        ref_spy = _RefSpy()
        system.machine.engine.install_hook(ref_spy)
        run_spans(system.machine, space, [(VA, 8, 2000, READ)], True)
        system.machine.engine.remove_hook(ref_spy)
        assert ref_spy.refs >= 2000  # every reference observed individually


class TestSnapshotInvalidation:
    def test_mid_program_tlb_flush_not_stale(self):
        """A TLB flush made by a hook mid-program reaches the rest of it.

        Each span covers one cold page: its first reference walks and fills,
        and the other 63 are one fused chunk.  A fill hook, which leaves
        fusion on, flushes the TLB from inside the fourth fill, so the rest
        of the program must walk again instead of charging hits to the
        flushed entries.  The same hook runs on the access-hooked scalar
        side, and both sides must end in the same state.
        """
        spans = [(VA + i * PAGE_SIZE, 8, 64, READ) for i in range(8)] * 3
        results = {}
        for mode in MODES:
            system = build_system(mode)
            space = system.new_address_space()
            space.map(VA, 16 * PAGE_SIZE, Permission.rw())
            hook = _FlushOnFill(system.machine, after=4)
            system.machine.engine.install_hook(hook)
            got = run_spans(system.machine, space, spans, mode)
            system.machine.engine.remove_hook(hook)
            assert hook.seen > 8  # the flush fired and forced re-walks
            results[mode] = (got, state(system))
        assert results[True] == results[False]

    def test_permission_mutation_between_programs(self):
        """A write permission revoked between two programs faults the second.

        The revocation is the monitor's shootdown path: the checker's page
        permission drops to read-only and the TLB's inlined copies are
        cleared, so the fused path must fault like scalar instead of hitting
        a stale inlined permission.
        """
        writes = [(VA, 0, 8, WRITE)]
        results = {}
        for mode in MODES:
            system = build_system(mode, kind="hpmp")
            space = system.new_address_space()
            space.map(VA, PAGE_SIZE, Permission.rw())
            first = run_spans(system.machine, space, writes, mode)
            system.setup.table.set_page_perm(space.pa_of(VA), Permission(r=True))
            for _level, _key, entry in system.machine.tlb.resident_entries():
                entry.checker_perm = None
            with pytest.raises(AccessFault):
                run_spans(system.machine, space, writes, mode)
            results[mode] = (first, state(system))
        assert results[True] == results[False]


class TestModeLatches:
    def test_no_numpy_fallback(self):
        """With numpy unimportable, a fresh interpreter imports repro and
        runs a program through the fused path."""
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None  # any 'import numpy' now fails\n"
            "import repro\n"
            "from repro.common.types import PAGE_SIZE, AccessType, Permission\n"
            "from repro.soc.system import System\n"
            "system = System(machine='rocket', checker_kind='hpmp', mem_mib=128)\n"
            "space = system.new_address_space()\n"
            f"space.map({VA}, 4 * PAGE_SIZE, Permission.rw())\n"
            f"cycles, hits, _, _ = system.machine.access_run(space.page_table, {VA}, 8, 2000, asid=space.asid)\n"
            "print(cycles, hits)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert out.returncode == 0, out.stderr
        cycles, hits = map(int, out.stdout.split())
        assert cycles > 0 and hits >= 2000 - 4  # at most one walk per page


class TestMultiHartParity:
    def test_secondary_hart_program_parity(self):
        """A program on hart 1 of a 2-hart machine."""
        results = {}
        for mode in MODES:
            system = build_system(mode, harts=2)
            space = system.new_address_space()
            space.map(VA, 32 * PAGE_SIZE, Permission.rw())  # MIXED_SPANS reaches page 17
            got = run_spans(system.machine.harts[1], space, MIXED_SPANS, mode)
            results[mode] = (got, state(system))
        assert results[True] == results[False]


class TestVirtParity:
    def _build(self, mode):
        from repro.virt.nested import GUEST_DRAM_BASE, VirtualMachine

        system = build_system(mode, kind="hpmp", mem_mib=256)
        vm = VirtualMachine(system, guest_pages=128)
        vm.guest_map_range(VA, GUEST_DRAM_BASE + 8 * PAGE_SIZE, 8 * PAGE_SIZE)
        return system, vm

    def test_vm_program_parity(self):
        """700 strided reads, 9 repeats, then 32 line-strided writes."""
        spans = [(VA, 8, 700, READ), (VA, 0, 9, READ), (VA + PAGE_SIZE, 64, 32, WRITE)]
        results = {}
        for mode in MODES:
            system, vm = self._build(mode)
            cycles = 0
            for va, stride, count, access in spans:
                if mode:
                    cycles += vm.access_run(va, stride, count, access)
                else:
                    cycles += sum(vm.access(va + stride * i, access).cycles for i in range(count))
            results[mode] = (cycles, state(system), vm.stats.snapshot())
        assert results[True] == results[False]


class TestWorkloadParity:
    """Workload generators whose programs tests/test_block_exec.py does not run."""

    def test_gap_bfs(self):
        from repro.workloads.gap import run_kernel

        results = _both_modes(lambda: run_kernel("bfs", "pmpt", machine="rocket", scale=8))
        assert results[True] == results[False]

    def test_redis_lrange(self):
        from repro.workloads.redis import run_command

        results = _both_modes(
            lambda: run_command("LRANGE_600", "hpmp", machine="rocket", requests=4, warmup=1, num_keys=512)
        )
        assert results[True] == results[False]

    def test_functionbench_gzip(self):
        from repro.workloads.functionbench import run_function

        results = _both_modes(lambda: run_function("gzip", "pmpt", machine="rocket"))
        assert results[True] == results[False]
