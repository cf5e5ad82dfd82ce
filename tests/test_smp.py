"""Multi-hart SoC: the Hart/Machine split, the interleaver, monitor concurrency.

Covers the determinism contract end to end: single-hart machines are
byte-identical to the pre-SMP world, interleaved schedules are a pure
function of (programs, quantum, seed), and the monitor's lock/shootdown
model bills only clocked multi-hart callers.
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.types import KIB, PAGE_SIZE, AccessType, Permission
from repro.soc import HartProgram, RoundRobinInterleaver, monitor_call
from repro.soc.hwcost import (
    IPI_DELIVERY_CYCLES,
    MONITOR_LOCK_ACQUIRE_CYCLES,
    lock_queue_delay,
)
from repro.soc.system import System
from repro.tee.monitor import HOST_DOMAIN_ID, SecureMonitor

WINDOW = 0x40_0000
PAGES = 16


def _mapped_system(harts=1, checker_kind="hpmp", seed=0):
    system = System(machine="rocket", checker_kind=checker_kind, harts=harts, seed=seed)
    spaces = []
    for _ in range(max(1, harts)):
        space = system.new_address_space()
        space.map(WINDOW, PAGES * PAGE_SIZE)
        spaces.append(space)
    return system, spaces


class TestMachineSplit:
    def test_hart_composition(self):
        system, _ = _mapped_system(harts=4)
        machine = system.machine
        assert machine.num_harts == 4
        assert machine.hart(0) is machine  # the machine IS hart 0
        assert [h.hart_id for h in machine.harts] == [0, 1, 2, 3]

    def test_llc_shared_l1_private(self):
        system, _ = _mapped_system(harts=3)
        machine = system.machine
        for hart in machine.harts[1:]:
            assert hart.hierarchy.llc is machine.hierarchy.llc
            assert hart.hierarchy.l1d is not machine.hierarchy.l1d
            assert hart.hierarchy.l2 is not machine.hierarchy.l2
            assert hart.tlb is not machine.tlb
            assert hart.engine is not machine.engine

    def test_checker_views_share_architectural_state(self):
        system, _ = _mapped_system(harts=2, checker_kind="hpmp")
        machine = system.machine
        view = machine.hart(1).engine.checker
        assert view is not machine.engine.checker
        assert view.regfile is machine.engine.checker.regfile
        # A walk by the view charges through hart 1's private hierarchy.
        assert view.hierarchy is machine.hart(1).hierarchy

    def test_register_only_checker_is_shared(self):
        system, _ = _mapped_system(harts=2, checker_kind="pmp")
        machine = system.machine
        assert machine.hart(1).engine.checker is machine.engine.checker

    def test_zero_harts_rejected(self):
        with pytest.raises(ValueError):
            System(harts=0)

    def test_merged_stats_sums_hart_counters(self):
        system, spaces = _mapped_system(harts=2)
        machine = system.machine
        machine.access(spaces[0].page_table, WINDOW, AccessType.READ, asid=spaces[0].asid)
        machine.hart(1).access(
            spaces[1].page_table, WINDOW, AccessType.READ, asid=spaces[1].asid
        )
        merged = machine.merged_stats()
        assert merged["accesses"] == sum(g["accesses"] for g in machine.hart_stats())
        assert merged["accesses"] == 2


class TestInterleaverDeterminism:
    def _run(self, harts, quantum, seed, checker_kind="hpmp"):
        system, spaces = _mapped_system(harts=harts, checker_kind=checker_kind)
        machine = system.machine
        programs = [
            HartProgram(spaces[i].page_table, asid=spaces[i].asid)
            .run(WINDOW, PAGE_SIZE, PAGES, AccessType.READ)
            .run(WINDOW, PAGE_SIZE, PAGES, AccessType.WRITE)
            for i in range(harts)
        ]
        result = RoundRobinInterleaver(machine, quantum=quantum, seed=seed).run(programs)
        return result, machine

    def test_same_seed_same_schedule(self):
        a, machine_a = self._run(harts=3, quantum=5, seed=11)
        b, machine_b = self._run(harts=3, quantum=5, seed=11)
        assert a.merged() == b.merged()
        assert [vars(x) for x in a.harts] == [vars(y) for y in b.harts]
        assert machine_a.merged_stats().snapshot() == machine_b.merged_stats().snapshot()

    def test_single_hart_equals_sequential(self):
        # Quantum boundaries must not change a single-hart run at all.
        result, machine = self._run(harts=1, quantum=3, seed=99)
        system, spaces = _mapped_system(harts=1)
        seq = system.machine
        cycles = 0
        for access in (AccessType.READ, AccessType.WRITE):
            c, _h, _p, _k = seq.access_run(
                spaces[0].page_table, WINDOW, PAGE_SIZE, PAGES, access, asid=spaces[0].asid
            )
            cycles += c
        assert result.harts[0].cycles == cycles
        assert machine.stats.snapshot() == seq.stats.snapshot()

    def test_idle_secondary_harts_do_not_perturb_hart0(self):
        # harts=2 with hart 1 idle must reproduce the harts=1 numbers.
        two, machine_two = self._run(harts=1, quantum=7, seed=5)  # baseline
        system, spaces = _mapped_system(harts=2)
        program = (
            HartProgram(spaces[0].page_table, asid=spaces[0].asid)
            .run(WINDOW, PAGE_SIZE, PAGES, AccessType.READ)
            .run(WINDOW, PAGE_SIZE, PAGES, AccessType.WRITE)
        )
        result = RoundRobinInterleaver(system.machine, quantum=7, seed=5).run([program])
        assert result.harts[0].cycles == two.harts[0].cycles
        assert system.machine.stats.snapshot() == machine_two.stats.snapshot()

    def test_quantum_choice_conserves_totals(self):
        # Different quanta reorder work but cannot change per-hart totals
        # of a contention-free workload (private windows, no monitor ops).
        a, _ = self._run(harts=2, quantum=1, seed=0)
        b, _ = self._run(harts=2, quantum=64, seed=0)
        assert a.merged()["refs"] == b.merged()["refs"]

    def test_bad_configs_rejected(self):
        system, spaces = _mapped_system(harts=1)
        with pytest.raises(ConfigurationError):
            RoundRobinInterleaver(system.machine, quantum=0)
        interleaver = RoundRobinInterleaver(system.machine)
        too_many = [HartProgram(spaces[0].page_table) for _ in range(2)]
        with pytest.raises(ConfigurationError):
            interleaver.run(too_many)

    def test_empty_and_no_programs(self):
        system, spaces = _mapped_system(harts=1)
        interleaver = RoundRobinInterleaver(system.machine)
        assert interleaver.run([]).harts == []
        result = interleaver.run([HartProgram(spaces[0].page_table)])
        assert result.harts[0].refs == 0


class TestMonitorConcurrency:
    def test_unclocked_callers_pay_nothing(self):
        system, _ = _mapped_system(harts=1)
        monitor = SecureMonitor(system)
        monitor.grant_region(HOST_DOMAIN_ID, 64 * KIB)
        assert monitor.stats.snapshot() == {}  # no lock, no shootdown bills

    def test_clocked_lock_queueing(self):
        system, _ = _mapped_system(harts=2)
        monitor = SecureMonitor(system)
        gms, cycles = monitor.grant_region(HOST_DOMAIN_ID, 64 * KIB, hart_id=0, now=0)
        assert cycles > MONITOR_LOCK_ACQUIRE_CYCLES
        # A second hart arriving mid-critical-section queues for the rest.
        before = monitor.stats["lock_wait_cycles"]
        monitor.revoke_region(HOST_DOMAIN_ID, gms, hart_id=1, now=0)
        assert monitor.stats["lock_waits"] == 1
        assert monitor.stats["lock_wait_cycles"] - before == cycles
        assert monitor.stats["lock_acquires"] == 2

    def test_late_arrival_does_not_queue(self):
        system, _ = _mapped_system(harts=2)
        monitor = SecureMonitor(system)
        gms, cycles = monitor.grant_region(HOST_DOMAIN_ID, 64 * KIB, hart_id=0, now=0)
        monitor.revoke_region(HOST_DOMAIN_ID, gms, hart_id=1, now=cycles + 1)
        assert monitor.stats["lock_waits"] == 0

    def test_shootdown_flushes_remote_tlbs(self):
        system, spaces = _mapped_system(harts=2)
        monitor = SecureMonitor(system)
        remote = system.machine.hart(1)
        remote.access(spaces[1].page_table, WINDOW, AccessType.READ, asid=spaces[1].asid)
        assert remote.tlb.occupancy() != (0, 0)
        monitor.grant_region(HOST_DOMAIN_ID, 64 * KIB)
        assert remote.tlb.occupancy() == (0, 0)
        assert monitor.stats["shootdowns"] == 1
        assert monitor.stats["shootdown_ipis"] == 1
        assert monitor.stats["shootdown_cycles"] >= IPI_DELIVERY_CYCLES

    def test_shootdown_disabled_leaves_remote_tlbs(self):
        system, spaces = _mapped_system(harts=2)
        monitor = SecureMonitor(system)
        monitor.shootdown_enabled = False
        remote = system.machine.hart(1)
        remote.access(spaces[1].page_table, WINDOW, AccessType.READ, asid=spaces[1].asid)
        occupancy = remote.tlb.occupancy()
        monitor.grant_region(HOST_DOMAIN_ID, 64 * KIB)
        assert remote.tlb.occupancy() == occupancy  # the stale window
        assert monitor.stats["shootdowns"] == 0

    def test_single_hart_never_bills_shootdowns(self):
        system, _ = _mapped_system(harts=1)
        monitor = SecureMonitor(system)
        monitor.grant_region(HOST_DOMAIN_ID, 64 * KIB, hart_id=0, now=0)
        assert monitor.stats["shootdowns"] == 0
        assert monitor.stats["shootdown_ipis"] == 0

    def test_monitor_call_adapter_charges_cycles(self):
        system, spaces = _mapped_system(harts=2)
        monitor = SecureMonitor(system)
        machine = system.machine
        seen = {}

        def probe_grant(hart, hart_id, now):
            gms, cycles = monitor.grant_region(
                HOST_DOMAIN_ID, 64 * KIB, hart_id=hart_id, now=now
            )
            seen["gms"] = gms
            return cycles

        program = HartProgram(spaces[0].page_table, asid=spaces[0].asid)
        program.run(WINDOW, PAGE_SIZE, 4).call(probe_grant)
        result = RoundRobinInterleaver(machine, quantum=2, seed=0).run([program])
        out = result.harts[0]
        assert out.calls == 1 and out.call_cycles > 0
        assert out.cycles == out.call_cycles + (out.cycles - out.call_cycles)
        # The adapter form threads hart_id/now the same way.
        program2 = HartProgram(spaces[1].page_table, asid=spaces[1].asid)
        program2.call(
            monitor_call(monitor.revoke_region, HOST_DOMAIN_ID, seen["gms"])
        )
        result2 = RoundRobinInterleaver(machine, quantum=2, seed=0).run([program2])
        assert result2.harts[0].call_cycles > 0


class TestHwcostSmp:
    def test_lock_queue_delay(self):
        assert lock_queue_delay(0, 100) == 100
        assert lock_queue_delay(100, 100) == 0
        assert lock_queue_delay(150, 100) == 0
