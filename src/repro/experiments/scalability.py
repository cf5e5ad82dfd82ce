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


def _overhead_value(scheme: str, count: int) -> object:
    """One (scheme × domain-count) point: the switch-overhead %% value, or
    the failure status string once PMP runs out of entries.  Shared by the
    unsharded row loop and the sub-shard slices, so both simulate and format
    the point identically."""
    outcome = _node_throughput(scheme, count)
    if outcome.get("status") != "ok":
        return outcome["status"]
    return outcome["switch_overhead_%"]


def run(domain_counts=(2, 8, 24, 64)) -> List[Dict[str, object]]:
    rows = []
    for count in domain_counts:
        row: Dict[str, object] = {"domains": count}
        for scheme in SCHEMES:
            row[f"{scheme}_overhead_%"] = _overhead_value(scheme, count)
        rows.append(row)
    return rows


def run_scheme_points(domain_counts=(2, 8, 24, 64), schemes=SCHEMES) -> List[Dict[str, object]]:
    """Raw (domain-count × scheme) points, one row each.

    The sub-shard slice of :func:`run`: every point builds its own fresh
    ``System``/monitor/scheduler, so any subset simulates exactly what the
    full sweep would for those points."""
    return [
        {"domains": count, "scheme": scheme, "overhead_%": _overhead_value(scheme, count)}
        for count in domain_counts
        for scheme in schemes
    ]


def partition_consolidation(domain_counts=(2, 8, 24, 64)):
    """Intra-cell sharding plan for :func:`run`: one sub-shard per
    (domain-count × scheme) point — 12 independently simulable slices for
    the default sweep, so the cell's critical path shrinks to its single
    heaviest point."""
    return [
        (f"d{count}-{scheme}", "run_scheme_points", {"domain_counts": [count], "schemes": [scheme]})
        for count in domain_counts
        for scheme in SCHEMES
    ]


def merge_consolidation(parts, domain_counts=(2, 8, 24, 64)) -> List[Dict[str, object]]:
    """Fold per-point sub-shard rows back into :func:`run`'s row shape."""
    points: Dict[object, Dict[str, object]] = {}
    for part in parts:
        for row in part:
            points[(row["domains"], row["scheme"])] = row["overhead_%"]
    rows = []
    for count in domain_counts:
        row: Dict[str, object] = {"domains": count}
        for scheme in SCHEMES:
            row[f"{scheme}_overhead_%"] = points[(count, scheme)]
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
