"""Figure 3: preview of Segment vs Table on BOOM — avg and worst cases.

Four panels: (a) single-ld latency, (b) GAP, (c) serverless image
processing, (d) Redis RPS.  All normalized to the Segment (PMP) value.
"""

from __future__ import annotations

from typing import Dict, List

from ..common.types import AccessType
from ..workloads.functionbench import run_function
from ..workloads.gap import run_kernel
from ..workloads.microbench import TEST_CASES, latency_sweep
from ..workloads.redis import run_redis_benchmark
from .report import Claim, RowsByCell, Table, format_table


def _avg_worst(ratios: List[float]) -> Dict[str, float]:
    return {"avg": sum(ratios) / len(ratios), "worst": max(ratios)}


def run(machine: str = "boom", gap_scale: int = 11, redis_requests: int = 30) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []

    # (a) single-ld latency over the TC states.
    sweep = latency_sweep(machine, kinds=("pmp", "pmpt"), access=AccessType.READ)
    ld_ratios = [
        100.0 * sweep["pmpt"][case].cycles / sweep["pmp"][case].cycles
        for case in TEST_CASES
        if sweep["pmp"][case].cycles
    ]
    rows.append({"panel": "ld latency", "segment": 100.0, **_avg_worst(ld_ratios)})

    # (b) GAP.
    gap_ratios = []
    for kernel in ("bfs", "pr", "cc"):
        pmp = run_kernel(kernel, "pmp", machine=machine, scale=gap_scale).cycles
        pmpt = run_kernel(kernel, "pmpt", machine=machine, scale=gap_scale).cycles
        gap_ratios.append(100.0 * pmpt / pmp)
    rows.append({"panel": "GAP", "segment": 100.0, **_avg_worst(gap_ratios)})

    # (c) serverless (image processing function).
    sv_ratios = []
    for function in ("image", "chameleon", "matmul"):
        pmp = run_function(function, "pmp", machine=machine).total_cycles
        pmpt = run_function(function, "pmpt", machine=machine).total_cycles
        sv_ratios.append(100.0 * pmpt / pmp)
    rows.append({"panel": "serverless", "segment": 100.0, **_avg_worst(sv_ratios)})

    # (d) Redis RPS (lower ratio = table is slower; report RPS%).
    redis = run_redis_benchmark(
        machine=machine,
        kinds=("pmp", "pmpt"),
        commands=("GET", "SET", "LRANGE_100", "LRANGE_600"),
        requests=redis_requests,
    )
    rps_ratios = [
        100.0 * row["pmp"].mean_cycles / row["pmpt"].mean_cycles for row in redis.values()
    ]
    rows.append(
        {"panel": "Redis RPS", "segment": 100.0, "avg": sum(rps_ratios) / len(rps_ratios), "worst": min(rps_ratios)}
    )
    return rows


def render(rows_by_cell: RowsByCell) -> List[Table]:
    """Figure 3's table from the ``preview`` cell."""
    rows = rows_by_cell["preview"]
    by_panel = {row["panel"]: row for row in rows}
    ld, rps = by_panel["ld latency"], by_panel["Redis RPS"]
    return [
        Table(
            "fig03_preview",
            format_table(
                ["panel", "segment", "avg", "worst"],
                rows,
                title="Figure 3: Table normalized to Segment, BOOM "
                "(paper: ld +63.4% avg/+91.1% worst; GAP +5.2%/+9.6%; serverless up to +20.3%; Redis down to 68.2%)",
            ),
            (
                Claim("ld latency avg > 100%", "preview", ld["avg"] > 100.0),
                Claim("ld latency worst >= avg", "preview", ld["worst"] >= ld["avg"]),
                Claim("Redis RPS avg < 100%", "preview", rps["avg"] < 100.0),
            ),
        )
    ]
