"""Table 3: LMBench OS-operation costs under PMP / PMPT / HPMP."""

from __future__ import annotations

from typing import Dict, List

from ..workloads.lmbench import SYSCALLS, run_table3
from .report import Claim, RowsByCell, Table, format_table


def run(machine: str = "boom", iterations: int = 10, syscalls=SYSCALLS, kernel_heap_pages: int = 16384) -> List[Dict[str, object]]:
    rows = run_table3(machine=machine, iterations=iterations, syscalls=syscalls, kernel_heap_pages=kernel_heap_pages)
    for row in rows:
        for kind in ("pmp", "pmpt", "hpmp"):
            row[kind] = round(float(row[kind]), 1)
    return rows


def render(rows_by_cell: RowsByCell) -> List[Table]:
    """Table 3 from its three syscall-group cells, in declaration order."""
    rows = [row for cell in ("null-read-write", "stat-fstat-open", "pipe-fork-exec") for row in rows_by_cell[cell]]
    by = {row["syscall"]: row for row in rows}
    total = {kind: sum(row[kind] for row in rows) for kind in ("pmp", "pmpt", "hpmp")}
    pmp = [row["pmp"] for row in rows]
    ratios = [row["pmpt/hpmp"] for row in rows]
    text = format_table(
        ["syscall", "pmp", "pmpt", "hpmp", "pmpt/hpmp"],
        rows,
        title="Table 3: OS-operation cycles, BOOM (paper: PMPT/HPMP avg 128.4%, PMPT up to 60% over PMP)",
    )
    text += f"\nAvg PMPT/HPMP: {sum(ratios) / len(ratios):.1f}%"
    return [
        Table(
            "table3_os_operations",
            text,
            (
                Claim("LMBench: total pmp < hpmp < pmpt", "", total["pmp"] < total["hpmp"] < total["pmpt"]),
                Claim("LMBench: null is the cheapest operation", "null-read-write", by["null"]["pmp"] == min(pmp)),
                Claim("LMBench: fork+exec is the dearest operation", "pipe-fork-exec", by["fork+exec"]["pmp"] == max(pmp)),
            ),
        )
    ]
