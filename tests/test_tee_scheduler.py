"""Tests for the round-robin domain scheduler."""

import pytest

from repro.common.errors import MonitorError
from repro.common.types import KIB, PAGE_SIZE, AccessType, PrivilegeMode
from repro.mem.allocator import FrameAllocator
from repro.common.types import MemRegion
from repro.soc.system import System
from repro.tee.monitor import SecureMonitor
from repro.tee.scheduler import RoundRobinScheduler

S = PrivilegeMode.SUPERVISOR


def make_node(scheme="hpmp", num_domains=3):
    system = System(machine="rocket", checker_kind=scheme, mem_mib=256)
    monitor = SecureMonitor(system)
    scheduler = RoundRobinScheduler(monitor)
    domains = []
    for i in range(num_domains):
        d = monitor.create_domain(f"d{i}")
        monitor.grant_region(d.domain_id, 64 * KIB)
        domains.append(d)
    return system, monitor, scheduler, domains


def counting_work(steps):
    remaining = [steps]

    def work():
        if remaining[0] == 0:
            return 0
        remaining[0] -= 1
        return 100

    return work


class TestScheduler:
    def test_runs_all_tasks_to_completion(self):
        _, _, scheduler, domains = make_node()
        tasks = [scheduler.add(d.domain_id, counting_work(4)) for d in domains]
        result = scheduler.run()
        assert all(t.done for t in tasks)
        assert scheduler.pending == 0
        assert result.work_cycles == 3 * 4 * 100

    def test_switch_cost_charged_between_domains(self):
        _, _, scheduler, domains = make_node(num_domains=2)
        for d in domains:
            scheduler.add(d.domain_id, counting_work(3))
        result = scheduler.run()
        assert result.switch_cycles > 0
        assert 0 < result.switch_overhead < 1

    def test_single_domain_switches_once(self):
        _, monitor, scheduler, domains = make_node(num_domains=1)
        scheduler.add(domains[0].domain_id, counting_work(5))
        result = scheduler.run()
        # One switch in, then consecutive quanta stay in the domain.
        assert result.switch_cycles == pytest.approx(result.switch_cycles)
        assert result.quanta == 6  # 5 work + 1 final "done" probe

    def test_unbalanced_tasks(self):
        _, _, scheduler, domains = make_node(num_domains=2)
        short = scheduler.add(domains[0].domain_id, counting_work(1), name="short")
        long = scheduler.add(domains[1].domain_id, counting_work(8), name="long")
        result = scheduler.run()
        assert result.per_task["long"] == 800
        assert result.per_task["short"] == 100
        assert long.quanta > short.quanta

    def test_quantum_budget_respected(self):
        _, _, scheduler, domains = make_node(num_domains=1)
        scheduler.add(domains[0].domain_id, counting_work(10_000))
        result = scheduler.run(max_quanta=50)
        assert result.quanta == 50
        assert scheduler.pending == 1

    def test_empty_schedule_rejected(self):
        _, _, scheduler, _ = make_node()
        with pytest.raises(MonitorError):
            scheduler.run()

    def test_unknown_domain_rejected(self):
        _, _, scheduler, _ = make_node()
        with pytest.raises(MonitorError):
            scheduler.add(999, counting_work(1))

    def test_domain_isolation_holds_per_quantum(self):
        """While a task runs, only its own memory is accessible."""
        system, monitor, scheduler, domains = make_node(scheme="hpmp", num_domains=2)
        regions = {d.domain_id: d.gmss[0].region for d in domains}
        observed = []

        def probing_work(domain_id, other_id):
            fired = [False]

            def work():
                if fired[0]:
                    return 0
                fired[0] = True
                system.checker.check(regions[domain_id].base, AccessType.READ, S)
                from repro.common.errors import AccessFault

                try:
                    system.checker.check(regions[other_id].base, AccessType.READ, S)
                    observed.append("leak")
                except AccessFault:
                    observed.append("isolated")
                return 10

            return work

        a, b = domains[0].domain_id, domains[1].domain_id
        scheduler.add(a, probing_work(a, b))
        scheduler.add(b, probing_work(b, a))
        scheduler.run()
        assert observed == ["isolated", "isolated"]

    def test_switch_overhead_grows_with_domain_count(self):
        results = {}
        for count in (2, 8):
            _, _, scheduler, domains = make_node(num_domains=count)
            for d in domains:
                scheduler.add(d.domain_id, counting_work(3))
            results[count] = scheduler.run().switch_cycles
        assert results[8] > results[2]


class TestSchedulerChurn:
    """Tenant-churn safety: retiring (a task marked done) and reaping under
    a live schedule (the cloud node's teardown path) plus mid-run queue
    growth."""

    def test_retire_mid_quantum_stops_the_victim(self):
        _, _, scheduler, domains = make_node(num_domains=2)
        victim = domains[1].domain_id
        victim_task = scheduler.add(victim, counting_work(50))
        fired = [False]

        def killer():
            if fired[0]:
                return 0
            fired[0] = True
            victim_task.done = True
            return 10

        scheduler.add(domains[0].domain_id, killer)
        result = scheduler.run()
        assert victim_task.done
        # The victim ran at most one quantum before the killer's first.
        assert victim_task.quanta <= 1
        assert result.quanta <= 3

    def test_retire_is_idempotent_and_scoped(self):
        _, _, scheduler, domains = make_node(num_domains=2)
        a, b = domains[0].domain_id, domains[1].domain_id
        retired = [scheduler.add(a, counting_work(2)), scheduler.add(a, counting_work(2))]
        survivor = scheduler.add(b, counting_work(1))
        for task in retired:
            task.done = True
        assert scheduler.reap() == retired  # both of a's tasks, nobody else's
        assert scheduler.reap() == []  # idempotent
        assert not survivor.done
        scheduler.run()
        assert survivor.done
        assert all(task.quanta == 0 for task in retired)

    def test_reap_drops_done_and_preserves_live_order(self):
        _, _, scheduler, domains = make_node(num_domains=3)
        first = scheduler.add(domains[0].domain_id, counting_work(1), "first")
        mid = scheduler.add(domains[1].domain_id, counting_work(1), "mid")
        last = scheduler.add(domains[2].domain_id, counting_work(1), "last")
        mid.done = True
        assert scheduler.reap() == [mid]
        assert scheduler.reap() == []  # nothing left to collect
        assert [t.name for t in scheduler._tasks] == ["first", "last"]
        scheduler.run()
        assert first.done and last.done
        assert {t.name for t in scheduler.reap()} == {"first", "last"}

    def test_empty_queue_after_reap_still_rejected(self):
        _, _, scheduler, domains = make_node(num_domains=1)
        task = scheduler.add(domains[0].domain_id, counting_work(1))
        scheduler.run()
        assert scheduler.reap() == [task]
        assert scheduler.pending == 0
        with pytest.raises(MonitorError):
            scheduler.run()

    def test_add_during_run_is_scheduled(self):
        _, _, scheduler, domains = make_node(num_domains=2)
        late = []
        fired = [False]

        def spawner():
            if fired[0]:
                return 0
            fired[0] = True
            late.append(scheduler.add(domains[1].domain_id, counting_work(3), "late"))
            return 10

        scheduler.add(domains[0].domain_id, spawner, "spawner")
        result = scheduler.run()
        assert late and late[0].done
        assert result.per_task["late"] == 3 * 100
