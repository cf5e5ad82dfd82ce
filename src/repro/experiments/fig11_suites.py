"""Figure 11: RV8 (RocketCore) and GAP (RocketCore + BOOM) suites."""

from __future__ import annotations

from typing import Dict, List

from ..common.params import machine_params
from ..workloads.gap import KERNELS, run_kernel
from ..workloads.rv8 import PROGRAMS, run_program
from .report import RowsByCell, Table, every, format_table

KINDS = ("pmp", "pmpt", "hpmp")


def run_rv8(machine: str = "rocket", scale: float = 1.0, programs=PROGRAMS) -> List[Dict[str, object]]:
    """Figure 11-a rows: execution time (seconds) per program per scheme."""
    freq = machine_params(machine).freq_mhz
    rows = []
    for program in programs:
        row: Dict[str, object] = {"program": program}
        for kind in KINDS:
            result = run_program(program, kind, machine=machine, scale=scale)
            row[kind] = result.seconds(freq) * 1e3  # milliseconds at sim scale
        row["pmpt_overhead_%"] = 100.0 * (float(row["pmpt"]) / float(row["pmp"]) - 1.0)
        row["hpmp_overhead_%"] = 100.0 * (float(row["hpmp"]) / float(row["pmp"]) - 1.0)
        rows.append(row)
    return rows


def run_gap(machine: str = "rocket", scale: int = 12, kernels=KERNELS) -> List[Dict[str, object]]:
    """Figure 11-b/c rows: normalized latency (%) per kernel per scheme."""
    rows = []
    for kernel in kernels:
        cycles = {kind: run_kernel(kernel, kind, machine=machine, scale=scale).cycles for kind in KINDS}
        rows.append(
            {
                "kernel": f"{kernel}-kron",
                "pmp": 100.0,
                "pmpt": 100.0 * cycles["pmpt"] / cycles["pmp"],
                "hpmp": 100.0 * cycles["hpmp"] / cycles["pmp"],
            }
        )
    return rows


def render(rows_by_cell: RowsByCell) -> List[Table]:
    """Figure 11's RV8 table and one GAP table per machine."""
    rv8 = rows_by_cell["rv8-rocket"]
    tables = [
        Table(
            "fig11a_rv8_rocket",
            format_table(
                ["program", "pmp", "pmpt", "hpmp", "pmpt_overhead_%", "hpmp_overhead_%"],
                rv8,
                title="Figure 11-a: RV8 on RocketCore, ms (paper: PMPT +0.0-1.7%, HPMP +0.0-0.5%)",
            ),
            (
                every("RV8: hpmp overhead <= pmpt overhead + 0.5", "rv8-rocket", rv8,
                      lambda r: r["hpmp_overhead_%"] <= r["pmpt_overhead_%"] + 0.5, "program"),
                every("RV8: pmpt overhead < 15%", "rv8-rocket", rv8, lambda r: r["pmpt_overhead_%"] < 15.0, "program"),
            ),
        )
    ]
    for machine, panel in (("rocket", "b"), ("boom", "c")):
        cell = f"gap-{machine}"
        rows = rows_by_cell[cell]
        tables.append(
            Table(
                f"fig11_gap_{machine}",
                format_table(
                    ["kernel", *KINDS],
                    rows,
                    title=f"Figure 11-{panel}: GAP normalized latency (%), {machine} "
                    "(paper: PMPT +1.2-6.7% rocket / +1.8-9.6% boom)",
                ),
                (
                    every("GAP: pmpt >= 100%", cell, rows, lambda r: r["pmpt"] >= 100.0, "kernel"),
                    every("GAP: hpmp <= pmpt + 0.2", cell, rows, lambda r: r["hpmp"] <= r["pmpt"] + 0.2, "kernel"),
                ),
            )
        )
    return tables
