"""Ablations for the design choices DESIGN.md §5 calls out.

* Permission-table depth: 1-level flat vs 2-level (architected) vs 3-level.
* TLB permission inlining on/off.
* PMPTW-Cache size sweep.
* Cache-style fast-GMS management: relabel cost registers-only vs
  table-rewrite (what a non-cache design would pay).
"""

from __future__ import annotations

from typing import Dict, List

from ..common.params import machine_params
from ..common.types import KIB, PAGE_SIZE
from ..isolation.pmptable import MODE_2LEVEL, MODE_3LEVEL, MODE_FLAT
from ..soc.system import System
from ..tee.monitor import SecureMonitor
from ..workloads.microbench import FRAGMENTED_VA_STRIDE, run_fragmentation
from .report import Claim, RowsByCell, Table, format_table

PROBE_VA = 0x40_0000_0000


def run_table_depth(machine: str = "rocket") -> List[Dict[str, object]]:
    """Cold-miss cost and checker references per table depth (pmpt scheme)."""
    rows = []
    for mode, label, coverage in (
        (MODE_FLAT, "1-level (flat)", "16 GiB / 2 MiB table"),
        (MODE_2LEVEL, "2-level (paper)", "16 GiB / 4 KiB root"),
        (MODE_3LEVEL, "3-level", "8 TiB"),
    ):
        system = System(machine=machine, checker_kind="pmpt", mem_mib=128, table_mode=mode)
        space = system.new_address_space()
        space.map(PROBE_VA, PAGE_SIZE)
        system.machine.cold_boot()
        result = system.access(space, PROBE_VA)
        rows.append(
            {
                "depth": label,
                "coverage": coverage,
                "total_refs": result.total_refs,
                "checker_refs": result.checker_refs,
                "cold_cycles": result.cycles,
                "table_bytes": system.setup.table.footprint_bytes(),
            }
        )
    return rows


def run_tlb_inlining(machine: str = "rocket", accesses: int = 64) -> List[Dict[str, object]]:
    """Steady-state cost of a hot loop with and without TLB inlining."""
    rows = []
    for inlining in (True, False):
        params = machine_params(machine).with_(tlb_inlining=inlining)
        system = System(machine=params, checker_kind="pmpt", mem_mib=128)
        space = system.new_address_space()
        space.map(PROBE_VA, 4 * PAGE_SIZE)
        system.machine.cold_boot()
        for _ in range(2):  # warm
            for i in range(4):
                system.access(space, PROBE_VA + i * PAGE_SIZE)
        total = 0
        for _ in range(accesses // 4):
            for i in range(4):
                total += system.access(space, PROBE_VA + i * PAGE_SIZE).cycles
        rows.append(
            {
                "tlb_inlining": "on" if inlining else "off",
                "hot_loop_cycles_per_access": total / accesses,
            }
        )
    return rows


def run_pmptw_cache_sweep(machine: str = "rocket", sizes=(0, 2, 4, 8, 16, 32)) -> List[Dict[str, object]]:
    """Fragmented-VA latency vs PMPTW-Cache entries (extends Figure 16)."""
    rows = []
    for entries in sizes:
        if entries > 0:
            # The exact size (run_fragmentation uses the params default of 8).
            params = machine_params(machine).with_(pmptw_cache_entries=entries, pmptw_cache_enabled=True)
            system = System(machine=params, checker_kind="pmpt", mem_mib=256, scatter_data_frames=True)
            space = system.new_address_space()
            vas = [0x10_0000_0000 + i * FRAGMENTED_VA_STRIDE for i in range(48)]
            for va in vas:
                space.map(va, PAGE_SIZE, contiguous_pa=False)
            system.machine.cold_boot()
            total = sum(system.access(space, va).cycles for va in vas)
            mean = total / len(vas)
        else:
            mean = run_fragmentation(
                "pmpt",
                "Fragmented-VA",
                pa_fragmented=True,
                machine=machine,
                num_pages=48,
                pmptw_cache_enabled=False,
            ).mean_cycles
        rows.append({"pmptw_cache_entries": entries, "mean_cycles_per_access": round(mean, 1)})
    return rows


def run_hint_ablation(machine: str = "rocket", pages: int = 16, rounds: int = 12) -> List[Dict[str, object]]:
    """§9's application hints: hot-array scan cost with and without a hint.

    The workload scans a hot array inside an enclave while sfence-heavy
    activity keeps forcing re-walks; the hint backs the array with a segment
    entry so its data-page checks vanish.
    """
    from ..common.types import PAGE_SIZE, PrivilegeMode
    from ..mem.allocator import FrameAllocator
    from ..common.types import MemRegion
    from ..tee.driver import TEEDriver

    system = System(machine=machine, checker_kind="hpmp", mem_mib=256)
    monitor = SecureMonitor(system)
    driver = TEEDriver(monitor)
    domain = monitor.create_domain("app")
    gms, _ = monitor.grant_region(domain.domain_id, 4 * pages * PAGE_SIZE)
    space = system.new_address_space()
    frames = FrameAllocator(MemRegion(gms.region.base, gms.region.size))
    va = 0x20_0000_0000
    space.map_from(frames, va, pages * PAGE_SIZE)
    monitor.switch_to(domain.domain_id)

    def scan() -> float:
        total = 0
        for _ in range(rounds):
            system.machine.sfence_vma()
            for i in range(pages):
                total += system.access(space, va + i * PAGE_SIZE, priv=PrivilegeMode.SUPERVISOR).cycles
        return total / (rounds * pages)

    scan()  # warm
    without = scan()
    driver.hint_create(domain.domain_id, space, va, pages * PAGE_SIZE)
    with_hint = scan()
    return [
        {"configuration": "no hint (table-checked data)", "cycles_per_access": round(without, 1)},
        {"configuration": "hot-range hint (segment-checked)", "cycles_per_access": round(with_hint, 1)},
    ]


def run_cache_style_management() -> List[Dict[str, object]]:
    """Relabel cost: cache-style (registers only) vs full table rewrite."""
    system = System(machine="rocket", checker_kind="hpmp", mem_mib=256)
    monitor = SecureMonitor(system)
    domain = monitor.create_domain("app")
    gms, _ = monitor.grant_region(domain.domain_id, 256 * KIB, label="slow")
    monitor.switch_to(domain.domain_id)
    cache_style = monitor.relabel(domain.domain_id, gms, "fast")
    # A non-cache design would rewrite the table on each label flip:
    writes_before = domain.table.entry_writes
    domain.table.set_range(gms.region.base, gms.region.size, gms.perm)
    rewrite_cost = monitor._charge_table_writes(domain.table, writes_before)
    rewrite_cost += monitor._charge_tlb_flush()
    return [
        {"strategy": "cache-style (paper)", "relabel_cycles": cache_style},
        {"strategy": "table-rewrite (ablated)", "relabel_cycles": rewrite_cost},
    ]


def render(rows_by_cell: RowsByCell) -> List[Table]:
    """One table per ablation cell."""
    depth = {row["depth"]: row for row in rows_by_cell["table-depth"]}
    inlining = {row["tlb_inlining"]: row["hot_loop_cycles_per_access"] for row in rows_by_cell["tlb-inlining"]}
    sweep = {row["pmptw_cache_entries"]: row["mean_cycles_per_access"] for row in rows_by_cell["pmptw-cache-sweep"]}
    style = {row["strategy"]: row["relabel_cycles"] for row in rows_by_cell["cache-style"]}
    hints = {row["configuration"]: row["cycles_per_access"] for row in rows_by_cell["hot-range-hints"]}
    flat, two, three = depth["1-level (flat)"], depth["2-level (paper)"], depth["3-level"]
    return [
        Table(
            "ablation_table_depth",
            format_table(
                ["depth", "coverage", "total_refs", "checker_refs", "cold_cycles", "table_bytes"],
                rows_by_cell["table-depth"],
                title="Ablation: permission-table depth (paper §4.3 motivates 2-level)",
            ),
            (
                Claim("table depth: checker refs flat < 2-level < 3-level", "table-depth",
                      flat["checker_refs"] < two["checker_refs"] < three["checker_refs"]),
                Claim("table depth: flat cold miss cheaper than 3-level", "table-depth",
                      flat["cold_cycles"] < three["cold_cycles"]),
            ),
        ),
        Table(
            "ablation_tlb_inlining",
            format_table(
                ["tlb_inlining", "hot_loop_cycles_per_access"],
                rows_by_cell["tlb-inlining"],
                title="Ablation: TLB permission inlining (paper Implication-2)",
            ),
            (Claim("TLB inlining: hot loop cheaper with it on", "tlb-inlining", inlining["on"] < inlining["off"]),),
        ),
        Table(
            "ablation_pmptw_cache_sweep",
            format_table(
                ["pmptw_cache_entries", "mean_cycles_per_access"],
                rows_by_cell["pmptw-cache-sweep"],
                title="Ablation: PMPTW-Cache size (extends Figure 16)",
            ),
            (Claim("PMPTW-Cache: 32 entries no slower than none", "pmptw-cache-sweep", sweep[32] <= sweep[0]),),
        ),
        Table(
            "ablation_cache_style",
            format_table(
                ["strategy", "relabel_cycles"],
                rows_by_cell["cache-style"],
                title="Ablation: cache-style fast-GMS management (paper §5)",
            ),
            (
                Claim("cache-style relabel <= table rewrite", "cache-style",
                      style["cache-style (paper)"] <= style["table-rewrite (ablated)"]),
            ),
        ),
        Table(
            "ablation_hot_range_hints",
            format_table(
                ["configuration", "cycles_per_access"],
                rows_by_cell["hot-range-hints"],
                title="Ablation: application hot-range hints (paper §9 ioctls)",
            ),
            (
                Claim("hints: hinted scan cheaper than unhinted", "hot-range-hints",
                      hints["hot-range hint (segment-checked)"] < hints["no hint (table-checked data)"]),
            ),
        ),
    ]
