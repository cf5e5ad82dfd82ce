"""Extension experiment: node throughput as domain count grows.

The paper's motivation (§1) is >100 fine-grained instances per node; this
experiment quantifies what that consolidation costs: aggregate work cycles
versus monitor switch cycles as the number of concurrently scheduled
domains grows, per scheme.  PMP simply stops scaling (no entries left);
table-backed schemes keep going with flat per-switch cost.
"""

from __future__ import annotations

from typing import Dict, List

from ..common.errors import OutOfResources
from ..common.types import KIB, AccessType, PrivilegeMode
from ..soc.system import System
from ..tee.monitor import SecureMonitor
from ..tee.scheduler import RoundRobinScheduler
from .report import Claim, RowsByCell, Table, format_table

S = PrivilegeMode.SUPERVISOR
SCHEMES = ("pmp", "pmpt", "hpmp")


def _node_throughput(scheme: str, num_domains: int, quanta_each: int = 4) -> Dict[str, object]:
    system = System(machine="rocket", checker_kind=scheme, mem_mib=512)
    monitor = SecureMonitor(system)
    scheduler = RoundRobinScheduler(monitor)
    try:
        for i in range(num_domains):
            domain = monitor.create_domain(f"d{i}")
            gms, _ = monitor.grant_region(domain.domain_id, 64 * KIB)
            remaining = [quanta_each]
            base = gms.region.base

            def work(base=base, remaining=remaining):
                if remaining[0] == 0:
                    return 0
                remaining[0] -= 1
                cycles = 0
                for k in range(8):
                    cycles += system.checker.check(base + (k * 4096) % (64 * KIB), AccessType.READ, S).cycles + 4
                return cycles
            scheduler.add(domain.domain_id, work)
    except OutOfResources:
        return {"status": "no available PMP"}
    result = scheduler.run()
    return {
        "status": "ok",
        "work_cycles": result.work_cycles,
        "switch_cycles": result.switch_cycles,
        "switch_overhead_%": round(100 * result.switch_overhead, 1),
    }


def run(domain_counts=(2, 8, 24, 64)) -> List[Dict[str, object]]:
    """Switch overhead % per (domain count × scheme), or the failure status
    once PMP runs out of entries."""
    rows = []
    for count in domain_counts:
        row: Dict[str, object] = {"domains": count}
        for scheme in SCHEMES:
            outcome = _node_throughput(scheme, count)
            ok = outcome["status"] == "ok"
            row[f"{scheme}_overhead_%"] = outcome["switch_overhead_%"] if ok else outcome["status"]
        rows.append(row)
    return rows


def render(rows_by_cell: RowsByCell) -> List[Table]:
    """The consolidation table from the ``consolidation`` cell."""
    rows = rows_by_cell["consolidation"]
    by = {row["domains"]: row for row in rows}
    hpmp_24 = by[24]["hpmp_overhead_%"]
    return [
        Table(
            "scalability_consolidation",
            format_table(
                ["domains", "pmp_overhead_%", "pmpt_overhead_%", "hpmp_overhead_%"],
                rows,
                title="Extension: switch overhead vs consolidation level "
                "(PMP hits its entry wall; table schemes stay flat per switch)",
            ),
            (
                Claim("consolidation: PMP has no entry left at 24 domains", "consolidation",
                      by[24]["pmp_overhead_%"] == "no available PMP"),
                Claim(
                    "consolidation: HPMP runs 24 domains within 5 points of its 8-domain overhead",
                    "consolidation",
                    isinstance(hpmp_24, float) and abs(hpmp_24 - by[8]["hpmp_overhead_%"]) < 5.0,
                ),
            ),
        )
    ]
