"""Figure 12: FunctionBench (a/b), the image chain (c), and Redis (d/e)."""

from __future__ import annotations

from typing import Dict, List

from ..common.params import machine_params
from ..workloads.functionbench import FUNCTIONS, run_function
from ..workloads.redis import COMMANDS, RedisResult, run_redis_benchmark
from ..workloads.serverless_chain import IMAGE_SIZES, run_chain
from .report import Claim, RowsByCell, Table, every, format_table

KINDS = ("pmp", "pmpt", "hpmp")


def run_functionbench_rows(
    machine: str = "boom", include_host: bool = True, functions=FUNCTIONS
) -> List[Dict[str, object]]:
    """Normalized latency (%) per function; PL-PMP = 100."""
    rows = []
    for function in functions:
        cycles: Dict[str, int] = {}
        if include_host:
            cycles["host-pmp"] = run_function(function, "pmp", machine=machine, secure=False).total_cycles
        for kind in KINDS:
            cycles[kind] = run_function(function, kind, machine=machine, secure=True).total_cycles
        base = cycles["pmp"]
        row: Dict[str, object] = {"function": function, "pl-pmp_kcycles": base / 1000.0}
        for label, value in cycles.items():
            if label != "pmp":
                row[label] = 100.0 * value / base
        row["pl-pmp"] = 100.0
        rows.append(row)
    return rows


def run_chain_rows(machine: str = "boom", sizes=IMAGE_SIZES) -> List[Dict[str, object]]:
    """Normalized end-to-end chain latency per image size; PL-PMP = 100."""
    rows = []
    for size in sizes:
        cycles = {kind: run_chain(kind, size, machine=machine).total_cycles for kind in KINDS}
        rows.append(
            {
                "image_size": size,
                "pl-pmp_kcycles": cycles["pmp"] / 1000.0,
                "pl-pmp": 100.0,
                "pl-pmpt": 100.0 * cycles["pmpt"] / cycles["pmp"],
                "pl-hpmp": 100.0 * cycles["hpmp"] / cycles["pmp"],
            }
        )
    return rows


def run_redis_rows(
    machine: str = "rocket", commands=COMMANDS, requests: int = 50, num_keys: int = 32768
) -> List[Dict[str, object]]:
    """Normalized RPS (%) per command; Penglai-PMP = 100 (higher is better)."""
    parts = [run_redis_kind_rows(machine, kind, commands, requests, num_keys) for kind in KINDS]
    return merge_redis_rows(parts, machine, commands)


def run_redis_kind_rows(
    machine: str = "rocket",
    kind: str = "pmp",
    commands=COMMANDS,
    requests: int = 50,
    num_keys: int = 32768,
) -> List[Dict[str, object]]:
    """One isolation scheme's server and request stream: mean request
    cycles per command, as raw rows for :func:`merge_redis_rows`.

    One long-running server per scheme serves every command (see
    ``run_redis_benchmark``), so a scheme is the unit a redis cell
    simulates, one after another."""
    results = run_redis_benchmark(
        machine=machine, kinds=(kind,), commands=tuple(commands), requests=requests, num_keys=num_keys
    )
    return [
        {
            "command": command,
            "kind": kind,
            "mean_cycles": results[command][kind].mean_cycles,
            "requests": requests,
        }
        for command in commands
    ]


def merge_redis_rows(
    parts, machine: str = "rocket", commands=COMMANDS, requests: int = 50, num_keys: int = 32768
) -> List[Dict[str, object]]:
    """Fold per-scheme rows (:func:`run_redis_kind_rows`) into normalized-RPS
    rows, one per command.  It takes the cell's kwargs, but only *machine*
    and *commands* shape the fold."""
    results: Dict[str, Dict[str, RedisResult]] = {command: {} for command in commands}
    for part in parts:
        for row in part:
            results[str(row["command"])][str(row["kind"])] = RedisResult(
                str(row["command"]), str(row["kind"]), float(row["mean_cycles"]), int(row["requests"])
            )
    freq = machine_params(machine).freq_mhz
    rows = []
    for command in commands:
        base_rps = results[command]["pmp"].rps(freq)
        rows.append(
            {
                "command": command,
                "pmp_rps": round(base_rps),
                "pmp": 100.0,
                "pmpt": 100.0 * results[command]["pmpt"].rps(freq) / base_rps,
                "hpmp": 100.0 * results[command]["hpmp"].rps(freq) / base_rps,
            }
        )
    return rows


def _avg(rows: List[Dict[str, object]], key: str) -> float:
    return sum(row[key] for row in rows) / len(rows)


def render(rows_by_cell: RowsByCell) -> List[Table]:
    """Figure 12's FunctionBench (a/b), image-chain (c) and Redis (d/e) tables."""
    tables = []
    for machine, panel in (("rocket", "a"), ("boom", "b")):
        cell = f"functionbench-{machine}"
        rows = rows_by_cell[cell]
        tables.append(
            Table(
                f"fig12_functionbench_{machine}",
                format_table(
                    ["function", "pl-pmp_kcycles", "host-pmp", "pl-pmp", "pmpt", "hpmp"],
                    rows,
                    title=f"Figure 12-{panel}: FunctionBench normalized latency (%), {machine} "
                    "(paper boom: PMPT +5.5-20.3%, HPMP +0.0-6.4%)",
                ),
                (
                    every("FunctionBench: pmpt >= 100%", cell, rows, lambda r: r["pmpt"] >= 100.0, "function"),
                    every("FunctionBench: hpmp <= pmpt", cell, rows, lambda r: r["hpmp"] <= r["pmpt"], "function"),
                    every("FunctionBench: host-pmp within 25% of pl-pmp", cell, rows,
                          lambda r: abs(r["host-pmp"] - 100.0) < 25.0, "function"),
                    Claim("FunctionBench: avg hpmp < avg pmpt", cell, _avg(rows, "hpmp") < _avg(rows, "pmpt")),
                ),
            )
        )
    chain = rows_by_cell["image-chain"]
    latencies = [row["pl-pmp_kcycles"] for row in chain]
    tables.append(
        Table(
            "fig12c_image_chain",
            format_table(
                ["image_size", "pl-pmp_kcycles", "pl-pmp", "pl-pmpt", "pl-hpmp"],
                chain,
                title="Figure 12-c: image chain (paper: PMPT +29.7%→+1.6% as size grows; HPMP +0.3-6.7%)",
            ),
            (
                Claim("image chain: pmpt overhead shrinks with size", "image-chain", chain[0]["pl-pmpt"] > chain[-1]["pl-pmpt"]),
                every("image chain: pl-hpmp <= pl-pmpt", "image-chain", chain, lambda r: r["pl-hpmp"] <= r["pl-pmpt"], "image_size"),
                Claim("image chain: latency grows with size", "image-chain", latencies == sorted(latencies)),
            ),
        )
    )
    for machine, panel in (("rocket", "d"), ("boom", "e")):
        cell = f"redis-{machine}"
        rows = rows_by_cell[cell]
        tables.append(
            Table(
                f"fig12_redis_{machine}",
                format_table(
                    ["command", "pmp_rps", "pmp", "pmpt", "hpmp"],
                    rows,
                    title=f"Figure 12-{panel}: Redis normalized RPS (%), {machine} "
                    "(paper: PMPT -5.9..-18% rocket / -10.8..-31.8% boom; HPMP -3.3% / -4.5% avg)",
                ),
                (
                    every("Redis: pmpt <= 100.5%", cell, rows, lambda r: r["pmpt"] <= 100.5, "command"),
                    every("Redis: hpmp >= pmpt - 0.5", cell, rows, lambda r: r["hpmp"] >= r["pmpt"] - 0.5, "command"),
                    Claim("Redis: avg hpmp > avg pmpt", cell, _avg(rows, "hpmp") > _avg(rows, "pmpt")),
                ),
            )
        )
    return tables
