"""One-shot reproduction summary: checks the paper's headline claims.

Runs a fast subset of every claim family and grades each against the
paper's expected *shape* using :mod:`repro.analysis` — the programmatic
version of EXPERIMENTS.md's verdict column.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis import ShapeAssessment, compare
from ..common.types import KIB, PAGE_SIZE
from ..soc.system import System
from ..tee.monitor import SecureMonitor
from ..workloads.microbench import measure_latency
from .report import RowsByCell, Table, every, format_table


def _claim(name: str, ok: bool, detail: str) -> Dict[str, object]:
    return {"claim": name, "verdict": "PASS" if ok else "FAIL", "detail": detail}


def run() -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []

    # Claim 1: Sv39 reference counts 4 / 12 / 6.
    counts = {}
    for kind in ("pmp", "pmpt", "hpmp"):
        system = System(machine="rocket", checker_kind=kind, mem_mib=128)
        space = system.new_address_space()
        space.map(0x40_0000_0000, PAGE_SIZE)
        system.machine.cold_boot()
        counts[kind] = system.access(space, 0x40_0000_0000).total_refs
    ok = counts == {"pmp": 4, "pmpt": 12, "hpmp": 6}
    rows.append(_claim("Sv39 refs 4/12/6 (Fig 2)", ok, str(counts)))

    # Claim 2: 75% of the extra references validate PT pages.
    system = System(machine="rocket", checker_kind="pmpt", mem_mib=128)
    space = system.new_address_space()
    space.map(0x40_0000_0000, PAGE_SIZE)
    system.machine.cold_boot()
    result = system.access(space, 0x40_0000_0000)
    pt_check_refs = result.checker_refs - 2  # minus the data-page check
    fraction = pt_check_refs / result.checker_refs
    rows.append(_claim("75% of extra refs are PT checks (§3)", fraction == 0.75, f"{100 * fraction:.0f}%"))

    # Claim 3: cold-latency ladder + mitigation band (Fig 10, TC1 on BOOM).
    latencies = {}
    for kind in ("pmp", "pmpt", "hpmp"):
        latencies[kind] = float(
            measure_latency(System(machine="boom", checker_kind=kind, mem_mib=128), "TC1").cycles
        )
    shape = ShapeAssessment(
        compare("TC1 cycles", latencies),
        expected_order=("pmp", "hpmp", "pmpt"),
        mitigation_band=(23.1, 85.0),
    )
    ok = shape.evaluate()
    rows.append(_claim("latency ladder + mitigation (Fig 10)", ok, "; ".join(shape.notes)))

    # Claim 4: TLB-hit equivalence (TLB inlining).
    hot = {}
    for kind in ("pmp", "pmpt", "hpmp"):
        hot[kind] = measure_latency(System(machine="boom", checker_kind=kind, mem_mib=128), "TC4").cycles
    ok = len(set(hot.values())) == 1
    rows.append(_claim("TLB-hit cost identical (Impl-2)", ok, str(hot)))

    # Claim 5: PMP's scalability wall vs HPMP's 100+ domains (Fig 14).
    from ..common.errors import OutOfResources

    def capacity(scheme: str, limit: int = 40) -> int:
        monitor = SecureMonitor(System(machine="rocket", checker_kind=scheme, mem_mib=512))
        count = 0
        try:
            for i in range(limit):
                d = monitor.create_domain(f"d{i}")
                monitor.grant_region(d.domain_id, 64 * KIB)
                count += 1
        except OutOfResources:
            pass
        return count

    pmp_cap, hpmp_cap = capacity("pmp"), capacity("hpmp")
    ok = pmp_cap < 16 and hpmp_cap == 40
    rows.append(_claim("PMP wall <16, HPMP scales (Fig 14)", ok, f"pmp={pmp_cap}, hpmp={hpmp_cap}+"))

    # Claim 6: virtualization counts 16/48/24/18 (Fig 8/13).
    from ..virt.nested import GUEST_DRAM_BASE, VirtualMachine

    vcounts = {}
    for label, kind, gpt in (("pmp", "pmp", False), ("pmpt", "pmpt", False), ("hpmp", "hpmp", False), ("hpmp-gpt", "hpmp", True)):
        system = System(machine="rocket", checker_kind=kind, mem_mib=256)
        vm = VirtualMachine(system, guest_pages=64, gpt_contiguous=gpt)
        vm.guest_map(0x40_0000_0000, GUEST_DRAM_BASE)
        system.machine.cold_boot()
        vcounts[label] = vm.guest_access(0x40_0000_0000).refs
    ok = vcounts == {"pmp": 16, "pmpt": 48, "hpmp": 24, "hpmp-gpt": 18}
    rows.append(_claim("3D-walk refs 16/48/24/18 (§6)", ok, str(vcounts)))

    return rows


def render(rows_by_cell: RowsByCell) -> List[Table]:
    """The headline-claim table from the ``claims`` cell."""
    rows = rows_by_cell["claims"]
    return [
        Table(
            "summary",
            format_table(["claim", "verdict", "detail"], rows, title="Headline-claim reproduction summary"),
            (every("every headline claim PASSes", "claims", rows, lambda r: r["verdict"] == "PASS", "claim"),),
        )
    ]
