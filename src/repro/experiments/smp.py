"""Hart-scaling experiment: monitor-lock and shootdown overhead vs harts.

The paper evaluates single-hart SoCs; a realistic deployment runs the
secure monitor on a multi-hart machine, where two concurrency costs
appear that no single-hart figure can show:

* **monitor-lock queueing** — every mutating monitor operation
  serializes behind one lock, so concurrent grant/revoke churn from
  several harts queues (cost model: :func:`~repro.soc.hwcost
  .lock_queue_delay` + the fixed acquire cost);
* **TLB shootdowns** — each isolation update IPIs every remote hart and
  pays its sfence-equivalent flush, and the flushed harts then re-walk
  their working sets.

Each cell interleaves identical per-hart workloads (reference runs with
periodic grant+revoke churn) over one machine at 1/2/4/8 harts and
reports throughput (references per kilocycle of makespan — the
simulated-time analogue of refs/s) next to the lock/shootdown cycle
bills.  Everything is virtual-time and seeded: rows are bit-identical
across hosts and ``--jobs`` layouts, so the campaign digest gate applies.
"""

from __future__ import annotations

from typing import Dict, List

from ..common.types import PAGE_SIZE
from ..soc.smp import HartProgram, RoundRobinInterleaver
from ..soc.system import System
from ..tee.monitor import HOST_DOMAIN_ID, SecureMonitor
from .report import RowsByCell, Table, format_table

SCHEMES = ("pmpt", "hpmp")
HART_COUNTS = (1, 2, 4, 8)

_WINDOW_PAGES = 64
_CHURN_PAGES = 16


def _churn_op(monitor: SecureMonitor):
    """A call op: grant a scratch region to the host and revoke it again.

    Both halves run under the issuing hart's virtual clock, so the second
    acquire queues behind the first critical section's end — and on a
    multi-hart machine each half shoots down every remote TLB.
    """

    def churn(hart, hart_id: int, now: int) -> int:
        gms, cycles = monitor.grant_region(
            HOST_DOMAIN_ID, _CHURN_PAGES * PAGE_SIZE, hart_id=hart_id, now=now
        )
        cycles += monitor.revoke_region(
            HOST_DOMAIN_ID, gms, hart_id=hart_id, now=now + cycles
        )
        return cycles

    return churn


def run_cell(
    scheme: str = "hpmp",
    harts: int = 2,
    refs_per_hart: int = 8000,
    churn_ops: int = 4,
    quantum: int = 64,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """One hart-count cell: interleave the workload, bill the concurrency."""
    system = System(machine="rocket", checker_kind=scheme, harts=harts, seed=seed)
    monitor = SecureMonitor(system)
    machine = system.machine
    programs = []
    for i in range(harts):
        space = system.new_address_space()
        va = 0x40_0000
        space.map(va, _WINDOW_PAGES * PAGE_SIZE)
        program = HartProgram(space.page_table, asid=space.asid)
        # churn_ops monitor calls evenly spaced through the reference stream.
        # Run ops sweep the window repeatedly (a run never strides past it).
        segments = churn_ops + 1
        chunk, leftover = divmod(refs_per_hart, segments)
        for segment in range(segments):
            take = chunk + (1 if segment < leftover else 0)
            while take > 0:
                sweep = min(take, _WINDOW_PAGES)
                program.run(va, PAGE_SIZE, sweep)
                take -= sweep
            if segment < churn_ops:
                program.call(_churn_op(monitor))
        programs.append(program)
    result = RoundRobinInterleaver(machine, quantum=quantum, seed=seed).run(programs)
    merged = result.merged()
    makespan = max(1, result.makespan)
    mstats = monitor.stats.snapshot()
    lock_wait = mstats.get("lock_wait_cycles", 0)
    shootdown = mstats.get("shootdown_cycles", 0)
    return [
        {
            "scheme": scheme,
            "harts": harts,
            "refs": merged["refs"],
            "makespan_cycles": makespan,
            "refs_per_kcycle": round(1000.0 * merged["refs"] / makespan, 3),
            "lock_acquires": mstats.get("lock_acquires", 0),
            "lock_wait_cycles": lock_wait,
            "shootdown_ipis": mstats.get("shootdown_ipis", 0),
            "shootdown_cycles": shootdown,
            "smp_overhead_pct": round(
                100.0 * (lock_wait + shootdown) / merged["cycles"], 3
            ),
        }
    ]


def run_hart_scaling(
    scheme: str = "hpmp",
    hart_counts=HART_COUNTS,
    refs_per_hart: int = 8000,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Hart-scaling sweep for one scheme (the headline table)."""
    rows: List[Dict[str, object]] = []
    for harts in hart_counts:
        rows.extend(run_cell(scheme=scheme, harts=harts, refs_per_hart=refs_per_hart, seed=seed))
    return rows


def run_smoke(harts: int = 2, seed: int = 0) -> List[Dict[str, object]]:
    """A cheap 2-hart cell for the PR-gate campaign smoke job."""
    return run_cell(scheme="hpmp", harts=harts, refs_per_hart=1500, churn_ops=2, seed=seed)


_COLUMNS = [
    "scheme",
    "harts",
    "refs",
    "makespan_cycles",
    "refs_per_kcycle",
    "lock_acquires",
    "lock_wait_cycles",
    "shootdown_ipis",
    "shootdown_cycles",
    "smp_overhead_pct",
]


def render(rows_by_cell: RowsByCell) -> List[Table]:
    """One hart-scaling table per scheme (the 2-hart smoke cell has none)."""
    return [
        Table(
            f"smp_hart_scaling_{scheme}",
            format_table(
                _COLUMNS,
                rows_by_cell[f"hart-scaling-{scheme}"],
                title=f"Hart scaling ({scheme}): throughput and SMP overhead vs harts "
                "(expect: overhead grows with harts; single hart bills zero)",
            ),
        )
        for scheme in SCHEMES
    ]
