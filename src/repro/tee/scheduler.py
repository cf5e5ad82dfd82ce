"""Time-sliced scheduling of concurrent domains.

The paper's motivation is >100 instances per node (§1) and Figure 14-a
measures switches *while multiple domains run concurrently*.  This module
provides that execution model: a round-robin scheduler that interleaves
per-domain work quanta, charging the monitor's switch cost at every quantum
boundary, so node-level throughput under consolidation can be measured for
any scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..common.errors import MonitorError
from .monitor import SecureMonitor

#: A workload step: runs a quantum of work, returns cycles spent (0 = done).
WorkFn = Callable[[], int]


@dataclass
class ScheduledTask:
    """One domain's work queue entry."""

    domain_id: int
    work: WorkFn
    name: str = ""
    cycles_run: int = 0
    quanta: int = 0
    done: bool = False


@dataclass(frozen=True)
class ScheduleResult:
    """Aggregate outcome of a scheduling run."""

    total_cycles: int
    switch_cycles: int
    work_cycles: int
    quanta: int
    per_task: Dict[str, int]

    @property
    def switch_overhead(self) -> float:
        """Fraction of machine time spent inside the monitor switching."""
        return self.switch_cycles / self.total_cycles if self.total_cycles else 0.0


class RoundRobinScheduler:
    """Interleaves domain work quanta through the secure monitor."""

    def __init__(self, monitor: SecureMonitor):
        self.monitor = monitor
        self._tasks: List[ScheduledTask] = []

    def add(self, domain_id: int, work: WorkFn, name: str = "") -> ScheduledTask:
        """Register a domain's work function."""
        self.monitor.domain(domain_id)  # validate it exists and is alive
        task = ScheduledTask(domain_id, work, name or f"domain-{domain_id}")
        self._tasks.append(task)
        return task

    def run(self, max_quanta: int = 10_000) -> ScheduleResult:
        """Round-robin until every task reports done (or the budget ends).

        Each quantum: switch to the task's domain (monitor-charged), run one
        work step, continue.  Consecutive quanta of the same domain skip the
        switch, like a real scheduler would.
        """
        if not self._tasks:
            raise MonitorError("nothing scheduled")
        switch_cycles = 0
        work_cycles = 0
        quanta = 0
        while quanta < max_quanta and any(not t.done for t in self._tasks):
            for task in self._tasks:
                if task.done:
                    continue
                if quanta >= max_quanta:
                    break
                if self.monitor.current_domain_id != task.domain_id:
                    switch_cycles += self.monitor.switch_to(task.domain_id)
                spent = task.work()
                quanta += 1
                task.quanta += 1
                if spent <= 0:
                    task.done = True
                else:
                    task.cycles_run += spent
                    work_cycles += spent
        return ScheduleResult(
            total_cycles=switch_cycles + work_cycles,
            switch_cycles=switch_cycles,
            work_cycles=work_cycles,
            quanta=quanta,
            per_task={t.name: t.cycles_run for t in self._tasks},
        )

    def reap(self) -> List[ScheduledTask]:
        """Drop and return the done tasks from the queue.

        A long-horizon node runs thousands of short-lived tenants through
        one scheduler; without reaping, every quantum would still iterate
        the full graveyard of finished tasks.  Live tasks keep their
        relative order, so reaping between runs never changes which domain
        runs next.
        """
        done = [t for t in self._tasks if t.done]
        if done:
            self._tasks = [t for t in self._tasks if not t.done]
        return done

    @property
    def pending(self) -> int:
        return sum(1 for t in self._tasks if not t.done)
