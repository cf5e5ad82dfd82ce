"""Table 4: hardware resource costs (analytical substitution).

The paper synthesizes RTL and reports Vivado LUT/FF; we count architectural
state bits and a logic-complexity proxy instead (see DESIGN.md §2).  The
reproduced claim is the *shape*: HPMP costs ≲1 % of the top module, slightly
more with the hypervisor extension.
"""

from __future__ import annotations

from typing import Dict, List

from ..common.params import boom
from ..soc.hwcost import cost_report
from .report import RowsByCell, Table, every, format_table


def run() -> List[Dict[str, object]]:
    rows = []
    plain = cost_report(boom(), hypervisor=False)
    hyper = cost_report(boom(), hypervisor=True)
    for resource in plain:
        rows.append(
            {
                "resource": resource,
                "baseline": plain[resource]["baseline"],
                "hpmp": plain[resource]["hpmp"],
                "cost_%": round(plain[resource]["cost_%"], 2),
                "baseline+H": hyper[resource]["baseline"],
                "hpmp+H": hyper[resource]["hpmp"],
                "cost+H_%": round(hyper[resource]["cost_%"], 2),
            }
        )
    return rows


def render(rows_by_cell: RowsByCell) -> List[Table]:
    """Table 4 from the ``hw-cost`` cell."""
    rows = rows_by_cell["hw-cost"]
    return [
        Table(
            "table4_hw_cost",
            format_table(
                ["resource", "baseline", "hpmp", "cost_%", "baseline+H", "hpmp+H", "cost+H_%"],
                rows,
                title="Table 4 (analytical): HPMP hardware cost "
                "(paper FPGA: +0.94%/+1.18% LUT, +0.16%/+0.78% FF, 0 BRAM/DSP)",
            ),
            (
                every("hw cost: 0 < cost_% < 2", "hw-cost", rows, lambda r: 0.0 < r["cost_%"] < 2.0, "resource"),
                every("hw cost: cost+H_% <= cost_% + 0.5", "hw-cost", rows,
                      lambda r: r["cost+H_%"] <= r["cost_%"] + 0.5, "resource"),
            ),
        )
    ]
