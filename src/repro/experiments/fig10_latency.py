"""Figure 10 / Table 2: ld/sd latency under TC1-TC4 on Rocket and BOOM."""

from __future__ import annotations

from typing import Dict, List

from ..common.types import AccessType
from ..workloads.microbench import TEST_CASES, latency_sweep
from .report import Claim, RowsByCell, Table, format_table

KINDS = ("pmpt", "hpmp", "pmp")


def run(machine: str = "rocket", access: AccessType = AccessType.READ) -> List[Dict[str, object]]:
    """Rows: one per checker, columns TC1..TC4 (cycles)."""
    sweep = latency_sweep(machine, kinds=KINDS, access=access)
    rows = []
    for kind in KINDS:
        row: Dict[str, object] = {"checker": kind}
        for case in TEST_CASES:
            row[case] = sweep[kind][case].cycles
        rows.append(row)
    return rows


#: JSON-safe names for the access axis, used by the campaign shards.
OPS = {"ld": AccessType.READ, "sd": AccessType.WRITE}


def run_cell(machine: str = "rocket", op: str = "ld") -> List[Dict[str, object]]:
    """Shard entry point: like :func:`run` but *op* is the string ``ld``/``sd``."""
    return run(machine, OPS[op])


def mitigation(rows: List[Dict[str, object]]) -> Dict[str, float]:
    """Fraction of PMPT's extra cost that HPMP removes, per test case."""
    by = {str(r["checker"]): r for r in rows}
    out = {}
    for case in TEST_CASES:
        extra_pmpt = float(by["pmpt"][case]) - float(by["pmp"][case])  # type: ignore[arg-type]
        extra_hpmp = float(by["hpmp"][case]) - float(by["pmp"][case])  # type: ignore[arg-type]
        out[case] = 100.0 * (1.0 - extra_hpmp / extra_pmpt) if extra_pmpt > 0 else 0.0
    return out


def render(rows_by_cell: RowsByCell) -> List[Table]:
    """Figure 10's four tables, one per ``<machine>-<op>`` cell."""
    tables = []
    for machine in ("rocket", "boom"):
        for op in OPS:
            cell = f"{machine}-{op}"
            rows = rows_by_cell[cell]
            by = {row["checker"]: row for row in rows}
            mit = mitigation(rows)
            text = format_table(
                ["checker", *TEST_CASES],
                rows,
                title=f"Figure 10: {op} latency (cycles), {machine} (paper: PMPT > HPMP > PMP, equal at TC4)",
            )
            text += (
                "\n\nHPMP mitigates of PMPT extra cost: "
                + ", ".join(f"{c}={v:.0f}%" for c, v in mit.items() if c != "TC4")
                + "  (paper: 23.1%-73.1% on BOOM)"
            )
            ladder = all(
                by["pmp"][case] < by["hpmp"][case] < by["pmpt"][case] and 15.0 <= mit[case] <= 85.0
                for case in TEST_CASES[:3]
            )
            tables.append(
                Table(
                    f"fig10_{op}_{machine}",
                    text,
                    (
                        Claim("TC1-TC3: pmp < hpmp < pmpt, HPMP mitigates 15-85%", cell, ladder),
                        Claim("TC4: all schemes equal", cell, by["pmp"]["TC4"] == by["hpmp"]["TC4"] == by["pmpt"]["TC4"]),
                    ),
                )
            )
    return tables
