"""Figures 15 and 16: memory fragmentation and permission-table caching."""

from __future__ import annotations

from typing import Dict, List

from ..workloads.microbench import run_fragmentation
from .report import Claim, RowsByCell, Table, every, format_table

KINDS = ("pmp", "pmpt", "hpmp")
VA_PATTERNS = ("Contiguous-VA", "Fragmented-VA")


def run_fig15(machine: str = "rocket", num_pages: int = 64) -> List[Dict[str, object]]:
    """The 2x2 fragmentation grid, mean cycles per access."""
    rows = []
    for pa_fragmented in (False, True):
        for va_pattern in VA_PATTERNS:
            row: Dict[str, object] = {
                "physical_pages": "fragmented" if pa_fragmented else "contiguous",
                "va_pattern": va_pattern,
            }
            for kind in KINDS:
                result = run_fragmentation(kind, va_pattern, pa_fragmented, machine=machine, num_pages=num_pages)
                row[kind] = round(result.mean_cycles, 1)
            rows.append(row)
    return rows


def run_fig15_virtualized(machine: str = "rocket", num_pages: int = 32) -> List[Dict[str, object]]:
    """Fragmentation cases 3/4 (paper §8.8) run in the *virtualized* setting:
    fragmented guest VAs over contiguous vs fragmented host physical pages."""
    from ..common.types import PAGE_SIZE
    from ..soc.system import System
    from ..virt.nested import GUEST_DRAM_BASE, VirtualMachine

    rows = []
    for backing in (False, True):
        row: Dict[str, object] = {
            "host_physical": "fragmented" if backing else "contiguous",
            "va_pattern": "Fragmented-gVA",
        }
        for kind in KINDS:
            system = System(machine=machine, checker_kind=kind, mem_mib=256)
            vm = VirtualMachine(system, guest_pages=max(64, num_pages), fragmented_backing=backing)
            stride = (8 << 30) + PAGE_SIZE  # the paper's 8 GiB + 4 KiB
            gvas = []
            for i in range(num_pages):
                gva = 0x10_0000_0000 + i * stride
                gva %= 1 << 38  # stay within Sv39's positive half
                gva &= ~(PAGE_SIZE - 1)
                vm.guest_map(gva, GUEST_DRAM_BASE + i * PAGE_SIZE)
                gvas.append(gva)
            system.machine.cold_boot()
            total = sum(vm.guest_access(gva).cycles for gva in gvas)
            row[kind] = round(total / num_pages, 1)
        rows.append(row)
    return rows


def run_fig16(machine: str = "rocket", num_pages: int = 64, pa_fragmented: bool = False) -> List[Dict[str, object]]:
    """Figure 16: PMPT / PMPT-Cache / HPMP / HPMP-Cache / PMP.

    Revisits the page set over several passes with the TLB flushed between
    them (§8.9), so the PMPTW-Cache's retained pmptes — including the
    data-page ones HPMP does not cover — show their value.
    """
    rows = []
    for va_pattern in VA_PATTERNS:
        row: Dict[str, object] = {"va_pattern": va_pattern}
        for kind, cache in (("pmpt", False), ("pmpt", True), ("hpmp", False), ("hpmp", True), ("pmp", False)):
            label = kind + ("-cache" if cache else "")
            result = run_fragmentation(
                kind,
                va_pattern,
                pa_fragmented,
                machine=machine,
                num_pages=num_pages,
                pmptw_cache_enabled=cache,
                passes=4,
                flush_tlb_between_passes=True,
            )
            row[label] = round(result.mean_cycles, 1)
        rows.append(row)
    return rows


def render(rows_by_cell: RowsByCell) -> List[Table]:
    """Figure 15's native and virtualized grids and Figure 16's cache table."""
    native = rows_by_cell["native"]
    grid = {(row["physical_pages"], row["va_pattern"]): row for row in native}
    virt = rows_by_cell["virtualized"]
    by_host = {row["host_physical"]: row for row in virt}
    cache = rows_by_cell["fig16-cache"]
    return [
        Table(
            "fig15_fragmentation",
            format_table(
                ["physical_pages", "va_pattern", *KINDS],
                native,
                title="Figure 15: fragmentation, mean cycles/access "
                "(paper: fragmented PA + fragmented VA worst; HPMP always beats PMPT)",
            ),
            (
                every("fragmentation: pmp <= hpmp <= pmpt", "native", native,
                      lambda r: r["pmp"] <= r["hpmp"] <= r["pmpt"], "physical_pages", "va_pattern"),
                Claim(
                    "fragmentation: fragmented VA costs more than contiguous VA",
                    "native",
                    all(grid["contiguous", "Fragmented-VA"][k] > grid["contiguous", "Contiguous-VA"][k] for k in KINDS),
                ),
                Claim(
                    "fragmentation: fragmented PA + VA is pmpt's worst quadrant",
                    "native",
                    grid["fragmented", "Fragmented-VA"]["pmpt"] == max(row["pmpt"] for row in native),
                ),
            ),
        ),
        Table(
            "fig15_fragmentation_virtualized",
            format_table(
                ["host_physical", "va_pattern", *KINDS],
                virt,
                title="Figure 15 (virtualized cases 3/4): fragmented guest VAs over "
                "contiguous vs fragmented host frames",
            ),
            (
                every("virtualized: pmp <= hpmp <= pmpt", "virtualized", virt,
                      lambda r: r["pmp"] <= r["hpmp"] <= r["pmpt"], "host_physical"),
                Claim("virtualized: fragmented host frames cost pmpt more", "virtualized",
                      by_host["fragmented"]["pmpt"] > by_host["contiguous"]["pmpt"]),
                Claim("virtualized: pmp unaffected by host fragmentation", "virtualized",
                      by_host["fragmented"]["pmp"] == by_host["contiguous"]["pmp"]),
            ),
        ),
        Table(
            "fig16_pmpt_cache",
            format_table(
                ["va_pattern", "pmpt", "pmpt-cache", "hpmp", "hpmp-cache", "pmp"],
                cache,
                title="Figure 16: PMPTW-Cache (paper: cache helps PMPT a lot on fragmented VA; "
                "HPMP-Cache is best everywhere)",
            ),
            (
                every("PMPTW-Cache: pmpt-cache <= pmpt", "fig16-cache", cache,
                      lambda r: r["pmpt-cache"] <= r["pmpt"], "va_pattern"),
                every("PMPTW-Cache: hpmp-cache <= hpmp", "fig16-cache", cache,
                      lambda r: r["hpmp-cache"] <= r["hpmp"], "va_pattern"),
                every("PMPTW-Cache: hpmp-cache <= pmpt-cache", "fig16-cache", cache,
                      lambda r: r["hpmp-cache"] <= r["pmpt-cache"], "va_pattern"),
                every("PMPTW-Cache: pmp <= hpmp-cache", "fig16-cache", cache,
                      lambda r: r["pmp"] <= r["hpmp-cache"], "va_pattern"),
            ),
        ),
    ]
