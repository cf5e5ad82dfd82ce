"""Figure 2 / §3: memory-reference counts per isolation scheme.

The paper's headline arithmetic: RISC-V Sv39, TLB miss, no caching of walk
state — 4 references bare, 12 with a 2-level permission table, 6 with HPMP.
"""

from __future__ import annotations

from typing import Dict, List

from ..common.types import PAGE_SIZE
from ..soc.system import System
from .report import Claim, RowsByCell, Table, format_table

MODES = ("sv39", "sv48", "sv57")
KINDS = ("pmp", "pmpt", "hpmp")
PROBE_VA = 0x40_0000_0000


def run(modes=MODES, kinds=KINDS) -> List[Dict[str, object]]:
    """One row per translation mode with per-scheme reference counts."""
    rows: List[Dict[str, object]] = []
    for mode in modes:
        row: Dict[str, object] = {"mode": mode}
        for kind in kinds:
            system = System(machine="rocket", checker_kind=kind, mem_mib=128)
            space = system.new_address_space(mode=mode)
            space.map(PROBE_VA, PAGE_SIZE)
            system.machine.cold_boot()
            result = system.access(space, PROBE_VA)
            row[kind] = result.total_refs
        rows.append(row)
    return rows


def render(rows_by_cell: RowsByCell) -> List[Table]:
    """Figure 2's table from the ``counts`` cell."""
    rows = rows_by_cell["counts"]
    sv39 = next(row for row in rows if row["mode"] == "sv39")
    counts = tuple(sv39[kind] for kind in KINDS)
    return [
        Table(
            "fig02_reference_counts",
            format_table(
                ["mode", *KINDS],
                rows,
                title="Figure 2: memory references per TLB-missing access (paper: sv39 = 4 / 12 / 6)",
            ),
            (Claim("sv39 pmp/pmpt/hpmp refs = 4/12/6", "counts", counts == (4, 12, 6), str(counts)),),
        )
    ]
