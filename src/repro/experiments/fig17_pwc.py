"""Figure 17: FunctionBench under different page-walk-cache sizes (Rocket)."""

from __future__ import annotations

from typing import Dict, List

from ..common.params import machine_params
from ..workloads.functionbench import FUNCTIONS, run_function
from .report import RowsByCell, Table, every, format_table

KINDS = ("pmp", "pmpt", "hpmp")
PWC_SIZES = (8, 32)


def run(machine: str = "rocket", functions=FUNCTIONS, pwc_sizes=PWC_SIZES) -> List[Dict[str, object]]:
    """Normalized latency (%) per function for every (scheme, PWC size)."""
    rows = []
    for function in functions:
        cycles: Dict[str, int] = {}
        for pwc in pwc_sizes:
            params = machine_params(machine).with_(ptecache_entries=pwc)
            for kind in KINDS:
                result = run_function(function, kind, machine=machine, params_override=params)
                cycles[f"{kind}({pwc})"] = result.total_cycles
        base = cycles[f"pmp({pwc_sizes[0]})"]
        row: Dict[str, object] = {"function": function}
        for label, value in cycles.items():
            row[label] = 100.0 * value / base
        rows.append(row)
    return rows


def render(rows_by_cell: RowsByCell) -> List[Table]:
    """Figure 17's table from the ``pwc-sweep`` cell."""
    rows = rows_by_cell["pwc-sweep"]
    return [
        Table(
            "fig17_pwc_sweep",
            format_table(
                ["function"] + [f"{k}({p})" for p in PWC_SIZES for k in KINDS],
                rows,
                title="Figure 17: FunctionBench with 8- vs 32-entry PWC, rocket, normalized % "
                "(paper: larger PWC helps somewhat; HPMP still beats PMPT at any PWC size)",
            ),
            (
                every("PWC: hpmp <= pmpt at every PWC size", "pwc-sweep", rows,
                      lambda r: all(r[f"hpmp({p})"] <= r[f"pmpt({p})"] for p in PWC_SIZES), "function"),
                every("PWC: pmpt(32) <= 1.03 * pmpt(8)", "pwc-sweep", rows,
                      lambda r: r["pmpt(32)"] <= r["pmpt(8)"] * 1.03, "function"),
            ),
        )
    ]
