"""Deterministic multi-hart scheduling: interleaving per-hart op streams.

The simulator is single-threaded; multi-hart execution is modelled by
*interleaving* per-hart operation streams over one :class:`~repro.soc
.machine.Machine`'s harts under a deterministic round-robin scheduler.
Each hart advances a private virtual clock (the cycles its own operations
cost), so concurrency effects — monitor-lock queueing, TLB shootdowns,
LLC contention — emerge from the ordering while every run stays exactly
reproducible.

Determinism contract
--------------------

* Same ``(programs, quantum, seed)`` ⇒ the identical schedule, cycle
  counts and final machine state, on any host, in any process layout
  (nothing here reads wall-clock time or unseeded randomness).
* One program ⇒ the schedule *is* the program: the ops run in order, and
  because :meth:`~repro.soc.machine.Hart.access_run` is state-identical
  under any chunking, quantum boundaries cannot change a single-hart
  run's cycles, stats or cache/TLB state — byte-identical to executing
  the stream without the interleaver.
* The quantum is counted in *references* (a monitor call consumes one
  budget unit), so schedules are a function of the workload alone.

Fused runs: a fused run is never allowed to cross a hart-switch quantum
boundary — the scheduler splits the run and each chunk re-enters
:meth:`~repro.soc.machine.Hart.access_run`, whose invariant-regime bulk
path falls back to the scalar step at every chunk edge.  That is what
keeps fused execution byte-identical to the scalar step under multi-hart
interleaving (``tests/test_block_exec.py`` proves it differentially,
against the same programs observed by an access hook, which keeps every
reference on the scalar step).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..common.errors import ConfigurationError
from ..common.types import AccessType, PrivilegeMode
from ..paging.pagetable import PageTable
from .machine import Hart, Machine

#: A monitor-call op: ``fn(hart, hart_id, now) -> cycles`` where *now* is the
#: issuing hart's virtual clock.  Returning None charges zero cycles.
MonitorFn = Callable[[Hart, int, int], object]


class HartProgram:
    """The operation stream one hart executes.

    Two op kinds, executed strictly in append order:

    * a *run* — ``count`` timed references starting at ``va`` stepping
      ``stride`` bytes, the arguments of
      :meth:`~repro.soc.machine.Hart.access_run`;
    * a *call* — a monitor (or other shared-state) operation, invoked with
      the hart, its id and its virtual clock so the callee can model
      cross-hart costs (lock queueing, shootdown IPIs).
    """

    def __init__(
        self,
        page_table: PageTable,
        priv: PrivilegeMode = PrivilegeMode.USER,
        asid: int = 0,
    ):
        self.page_table = page_table
        self.priv = priv
        self.asid = asid
        self.ops: List[Tuple] = []

    def run(
        self, va: int, stride: int, count: int, access: AccessType = AccessType.READ
    ) -> "HartProgram":
        """Append a reference run (no-op when ``count <= 0``); returns self."""
        if count > 0:
            self.ops.append(("run", va, stride, count, access))
        return self

    def access(self, va: int, access: AccessType = AccessType.READ) -> "HartProgram":
        """Append a single reference; returns self."""
        return self.run(va, 0, 1, access)

    def call(self, fn: MonitorFn) -> "HartProgram":
        """Append a monitor-call op; returns self."""
        self.ops.append(("call", fn))
        return self

    @property
    def refs(self) -> int:
        """Total references this program issues (calls count zero)."""
        return sum(op[3] for op in self.ops if op[0] == "run")


def monitor_call(method: Callable, *args, **kwargs) -> MonitorFn:
    """Adapt a :class:`~repro.tee.monitor.SecureMonitor` method into a call op.

    The wrapped call receives the issuing hart's id and virtual clock as
    ``hart_id=``/``now=`` keywords — the monitor uses them for lock
    queueing-delay and shootdown accounting — and the op charges the
    method's returned cycle cost to the hart's clock (methods returning
    ``(value, cycles)`` tuples charge the cycles; non-numeric returns
    charge nothing).
    """

    def fn(hart: Hart, hart_id: int, now: int):
        result = method(*args, hart_id=hart_id, now=now, **kwargs)
        if isinstance(result, tuple):
            result = result[-1]
        return result if isinstance(result, int) else 0

    return fn


@dataclass
class HartRun:
    """Aggregate outcome of one hart's stream."""

    hart_id: int
    refs: int = 0
    cycles: int = 0  # the hart's final virtual clock
    tlb_hits: int = 0
    pt_refs: int = 0
    checker_refs: int = 0
    calls: int = 0
    call_cycles: int = 0


@dataclass
class InterleaveResult:
    """Per-hart outcomes of one interleaved run, in hart order."""

    harts: List[HartRun] = field(default_factory=list)

    @property
    def total_refs(self) -> int:
        return sum(h.refs for h in self.harts)

    @property
    def total_cycles(self) -> int:
        """Summed per-hart cycles (the aggregate work)."""
        return sum(h.cycles for h in self.harts)

    @property
    def makespan(self) -> int:
        """The slowest hart's virtual clock (the run's modelled duration)."""
        return max((h.cycles for h in self.harts), default=0)

    def merged(self) -> dict:
        """Hart-ordered deterministic fold of every per-hart counter."""
        out = {"harts": len(self.harts)}
        for key in ("refs", "cycles", "tlb_hits", "pt_refs", "checker_refs", "calls", "call_cycles"):
            out[key] = sum(getattr(h, key) for h in self.harts)
        out["makespan"] = self.makespan
        return out


class RoundRobinInterleaver:
    """Seeded, quantum-based round-robin scheduler over a machine's harts.

    Program *i* runs on hart *i*.  Scheduling proceeds in rounds: each
    round visits every unfinished hart once, in an order drawn from the
    seeded RNG, and lets it consume up to ``quantum`` references (runs are
    split at the budget boundary; the remainder resumes on the hart's next
    turn).  A single-hart run therefore degenerates to sequential
    execution, and any fixed seed gives one fixed schedule.
    """

    def __init__(self, machine: Machine, quantum: int = 64, seed: int = 0):
        if quantum < 1:
            raise ConfigurationError(f"quantum must be >= 1 reference, got {quantum}")
        self.machine = machine
        self.quantum = quantum
        self.seed = seed

    def run(self, programs: Sequence[HartProgram]) -> InterleaveResult:
        """Execute *programs* interleaved; returns per-hart outcomes."""
        machine = self.machine
        n = len(programs)
        if n == 0:
            return InterleaveResult([])
        if n > machine.num_harts:
            raise ConfigurationError(
                f"{n} programs need {n} harts; machine has {machine.num_harts}"
            )
        rng = random.Random(self.seed)
        harts = [machine.hart(i) for i in range(n)]
        outcomes = [HartRun(hart_id=i) for i in range(n)]
        # Per-hart cursor: (next op index, references already consumed from it).
        cursors = [[0, 0] for _ in range(n)]
        live = [i for i in range(n) if programs[i].ops]
        quantum = self.quantum
        while live:
            order = list(live)
            rng.shuffle(order)
            for i in order:
                program, hart, out = programs[i], harts[i], outcomes[i]
                ops = program.ops
                cursor = cursors[i]
                budget = quantum
                while budget > 0 and cursor[0] < len(ops):
                    op = ops[cursor[0]]
                    if op[0] == "call":
                        cycles = op[1](hart, i, out.cycles) or 0
                        out.calls += 1
                        out.call_cycles += cycles
                        out.cycles += cycles
                        budget -= 1
                        cursor[0] += 1
                        continue
                    _tag, va, stride, count, access = op
                    done = cursor[1]
                    take = min(budget, count - done)
                    c, h, p, k = hart.access_run(
                        program.page_table,
                        va + done * stride,
                        stride,
                        take,
                        access,
                        program.priv,
                        program.asid,
                    )
                    out.refs += take
                    out.cycles += c
                    out.tlb_hits += h
                    out.pt_refs += p
                    out.checker_refs += k
                    budget -= take
                    done += take
                    if done >= count:
                        cursor[0] += 1
                        cursor[1] = 0
                    else:
                        cursor[1] = done
                if cursor[0] >= len(ops):
                    live.remove(i)
        return InterleaveResult(outcomes)
