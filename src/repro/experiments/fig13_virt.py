"""Figure 13: memory-access latency in a virtualized environment.

Five system states: TC1 (cold), after hfence.vvma, after hfence.gvma, TC3
(adjacent page), TC4 (TLB hit), for PMPT / HPMP / HPMP-GPT / PMP.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..common.types import PAGE_SIZE, AccessType
from ..soc.system import System
from ..virt.nested import GUEST_DRAM_BASE, VirtualMachine
from .report import Claim, RowsByCell, Table, format_table

CASES = ("TC1", "after_hfence.v", "after_hfence.g", "TC3", "TC4")

#: (label, checker kind, gpt_contiguous)
SCHEMES: Tuple[Tuple[str, str, bool], ...] = (
    ("pmpt", "pmpt", False),
    ("hpmp", "hpmp", False),
    ("hpmp-gpt", "hpmp", True),
    ("pmp", "pmp", False),
)

PROBE_GVA = 0x40_0010_0000


def _build(kind: str, gpt: bool, machine: str) -> Tuple[System, VirtualMachine]:
    system = System(machine=machine, checker_kind=kind, mem_mib=256)
    vm = VirtualMachine(system, guest_pages=512, gpt_contiguous=gpt)
    vm.guest_map_range(PROBE_GVA - PAGE_SIZE, GUEST_DRAM_BASE + 64 * PAGE_SIZE, 2 * PAGE_SIZE)
    return system, vm


def _measure_case(system: System, vm: VirtualMachine, case: str) -> int:
    system.machine.cold_boot()
    if case == "TC1":
        pass
    elif case == "after_hfence.v":
        vm.guest_access(PROBE_GVA)
        vm.hfence_vvma()
    elif case == "after_hfence.g":
        vm.guest_access(PROBE_GVA)
        vm.hfence_gvma()
    elif case == "TC3":
        vm.guest_access(PROBE_GVA - PAGE_SIZE)
        vm.guest_access(PROBE_GVA)
        vm.combined_tlb.flush_page(PROBE_GVA)
    elif case == "TC4":
        vm.guest_access(PROBE_GVA)
        vm.guest_access(PROBE_GVA)
    return vm.guest_access(PROBE_GVA, AccessType.READ).cycles


def run(machine: str = "rocket") -> List[Dict[str, object]]:
    rows = []
    for label, kind, gpt in SCHEMES:
        row: Dict[str, object] = {"scheme": label}
        for case in CASES:
            system, vm = _build(kind, gpt, machine)
            row[case] = _measure_case(system, vm, case)
        rows.append(row)
    return rows


def reference_counts(machine: str = "rocket") -> List[Dict[str, object]]:
    """Cold-walk reference counts (paper: 48 / 24 / 18 / 16)."""
    rows = []
    for label, kind, gpt in SCHEMES:
        system, vm = _build(kind, gpt, machine)
        system.machine.cold_boot()
        result = vm.guest_access(PROBE_GVA)
        rows.append({"scheme": label, "refs": result.refs, "checker_refs": result.checker_refs})
    return rows


def render(rows_by_cell: RowsByCell) -> List[Table]:
    """Figure 13's latency table and the cold 3D-walk reference counts."""
    latency = rows_by_cell["latency"]
    tc1 = {row["scheme"]: row["TC1"] for row in latency}
    counts = {row["scheme"]: row["refs"] for row in rows_by_cell["counts"]}
    return [
        Table(
            "fig13_virtualization",
            format_table(
                ["scheme", *CASES],
                latency,
                title="Figure 13: virtualized access latency, cycles, rocket "
                "(paper: PMPT +89.9-155% over PMP; HPMP cuts to 29.7-75.6%; HPMP-GPT to 16.3-26.8%)",
            ),
            (
                Claim("TC1: pmp < hpmp-gpt < hpmp < pmpt", "latency", tc1["pmp"] < tc1["hpmp-gpt"] < tc1["hpmp"] < tc1["pmpt"]),
                Claim("TC4: all schemes equal", "latency", len({row["TC4"] for row in latency}) == 1),
            ),
        ),
        Table(
            "fig13_reference_counts",
            format_table(
                ["scheme", "refs", "checker_refs"],
                rows_by_cell["counts"],
                title="Cold 3D-walk reference counts (paper: 48 / 24 / 18 / 16)",
            ),
            (
                Claim(
                    "cold refs pmpt/hpmp/hpmp-gpt/pmp = 48/24/18/16",
                    "counts",
                    counts == {"pmpt": 48, "hpmp": 24, "hpmp-gpt": 18, "pmp": 16},
                    str(counts),
                ),
            ),
        ),
    ]
