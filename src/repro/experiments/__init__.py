"""Experiment reproductions: one module per paper table/figure.

Each module exposes row functions (``run*``) plus one ``render(rows_by_cell)``
that builds its tables from its ``SHARDS`` cells' rows, with the paper's
expected shape in each title and the shape claims checked next to each table
(:mod:`.report`).  Cells are the only producer of rows: ``python -m repro
report`` renders every table from a campaign's results store, and
``python -m repro <id>`` runs one experiment's cells in-process and prints
the same render.

``SHARDS`` additionally slices every experiment into independently runnable
cells (figure × machine × workload), mirroring how the paper's artifact fans
its evaluation matrix out over FireSim instances.  ``repro.runner`` schedules
these cells across a process pool; each shard names a row-producing function
on its experiment module plus JSON-safe keyword arguments, so a cell can be
dispatched to a worker, cached content-addressed, and diffed mechanically.
"""

from typing import Dict, NamedTuple, Tuple

from . import (
    ablations,
    cloud_node,
    fig02_counts,
    fig03_preview,
    fig10_latency,
    fig11_suites,
    fig12_apps,
    fig13_virt,
    fig14_tee,
    fig15_frag,
    fig17_pwc,
    scalability,
    smp,
    summary,
    table3_os,
    table4_hw,
)

class Shard(NamedTuple):
    """One independently runnable cell of an experiment's evaluation matrix.

    ``func`` names a ``run*``-style callable on the experiment's module that
    returns ``list[dict]`` rows; ``kwargs`` must stay JSON-safe (they are
    hashed into the cell's results-store key and shipped to worker
    processes).

    A heavy cell may additionally declare an *intra-cell* sharding plan —
    ``partition`` and ``merge`` name callables on the same module (see
    :mod:`repro.runner.shard`): ``partition(**kwargs)`` splits the cell's
    workload stream into independently simulable ``(name, func, kwargs)``
    sub-shards (each building its own systems and seeded RNGs), and
    ``merge(parts, **kwargs)`` purely folds the sub-shard row lists back
    into **exactly** the rows ``func`` emits unsharded — byte-identical
    canonical JSON is the contract, held by ``tests/test_subshard.py``.
    Both must be set for a cell to shard; quick cells leave them empty.
    """

    name: str
    func: str
    kwargs: Dict[str, object]
    partition: str = ""
    merge: str = ""


ALL_EXPERIMENTS = {
    "fig02": fig02_counts,
    "fig03": fig03_preview,
    "fig10": fig10_latency,
    "fig11": fig11_suites,
    "fig12": fig12_apps,
    "fig13": fig13_virt,
    "fig14": fig14_tee,
    "fig15": fig15_frag,
    "fig17": fig17_pwc,
    "table3": table3_os,
    "scalability": scalability,
    "summary": summary,
    "table4": table4_hw,
    "ablations": ablations,
    "smp": smp,
    "cloud": cloud_node,
}

#: The campaign matrix: every experiment sliced into parallelizable cells.
#: Long-running figures split along their natural axes (machine × workload ×
#: access type); quick ones stay whole.  Shard names join with the experiment
#: id into task ids like ``fig11/gap-boom``.
SHARDS: Dict[str, Tuple[Shard, ...]] = {
    "fig02": (Shard("counts", "run", {}),),
    "fig03": (Shard("preview", "run", {}),),
    "fig10": tuple(
        Shard(f"{machine}-{op}", "run_cell", {"machine": machine, "op": op})
        for machine in ("rocket", "boom")
        for op in ("ld", "sd")
    ),
    "fig11": (
        Shard("rv8-rocket", "run_rv8", {"machine": "rocket"}, partition="partition_rv8", merge="concat_rows"),
        Shard("gap-rocket", "run_gap", {"machine": "rocket", "scale": 12}, partition="partition_gap", merge="concat_rows"),
        Shard("gap-boom", "run_gap", {"machine": "boom", "scale": 12}, partition="partition_gap", merge="concat_rows"),
    ),
    "fig12": (
        Shard(
            "functionbench-rocket",
            "run_functionbench_rows",
            {"machine": "rocket"},
            partition="partition_functionbench",
            merge="concat_rows",
        ),
        Shard(
            "functionbench-boom",
            "run_functionbench_rows",
            {"machine": "boom"},
            partition="partition_functionbench",
            merge="concat_rows",
        ),
        Shard("image-chain", "run_chain_rows", {"machine": "boom"}, partition="partition_chain", merge="concat_rows"),
        Shard("redis-rocket", "run_redis_rows", {"machine": "rocket"}, partition="partition_redis", merge="merge_redis_rows"),
        Shard("redis-boom", "run_redis_rows", {"machine": "boom"}, partition="partition_redis", merge="merge_redis_rows"),
    ),
    "fig13": (
        Shard("latency", "run", {"machine": "rocket"}),
        Shard("counts", "reference_counts", {"machine": "rocket"}),
    ),
    "fig14": (
        Shard("domain-switch", "run_domain_switch", {}),
        Shard("region-alloc-release", "run_region_alloc_release", {}),
        Shard("alloc-sizes", "run_alloc_sizes", {}),
    ),
    "fig15": (
        Shard("native", "run_fig15", {}),
        Shard("virtualized", "run_fig15_virtualized", {}),
        Shard("fig16-cache", "run_fig16", {}),
    ),
    "fig17": (Shard("pwc-sweep", "run", {}),),
    "table3": (
        Shard("null-read-write", "run", {"syscalls": ["null", "read", "write"]}),
        Shard("stat-fstat-open", "run", {"syscalls": ["stat", "fstat", "open/close"]}),
        Shard("pipe-fork-exec", "run", {"syscalls": ["pipe", "fork+exit", "fork+exec"]}),
    ),
    "scalability": (
        Shard("consolidation", "run", {}, partition="partition_consolidation", merge="merge_consolidation"),
    ),
    "summary": (Shard("claims", "run", {}),),
    "table4": (Shard("hw-cost", "run", {}),),
    "smp": (
        Shard("hart-scaling-pmpt", "run_hart_scaling", {"scheme": "pmpt"}),
        Shard("hart-scaling-hpmp", "run_hart_scaling", {"scheme": "hpmp"}),
        Shard("smoke-2hart", "run_smoke", {}),
    ),
    "cloud": (
        Shard(
            "churn-pmpt",
            "run_cloud",
            {"scheme": "pmpt", "profile": "poisson", "tenants": 1024, "slices": 8, "seed": 7,
             "machine": "rocket", "mem_mib": 64, "frag_every": 64},
            partition="partition_cloud",
            merge="merge_cloud",
        ),
        Shard(
            "churn-hpmp",
            "run_cloud",
            {"scheme": "hpmp", "profile": "poisson", "tenants": 1024, "slices": 8, "seed": 7,
             "machine": "rocket", "mem_mib": 64, "frag_every": 64},
            partition="partition_cloud",
            merge="merge_cloud",
        ),
        Shard(
            "frag-horizon",
            "run_cloud",
            {"scheme": "pmpt", "profile": "frag", "tenants": 1024, "slices": 8, "seed": 11,
             "machine": "rocket", "mem_mib": 64, "frag_every": 32},
            partition="partition_cloud",
            merge="merge_cloud",
        ),
        Shard(
            "tenant-mix-adversarial",
            "run_cloud",
            {"scheme": "hpmp", "profile": "adversarial", "tenants": 1024, "slices": 8, "seed": 13,
             "machine": "rocket", "mem_mib": 64, "frag_every": 64},
            partition="partition_cloud",
            merge="merge_cloud",
        ),
    ),
    "ablations": (
        Shard("table-depth", "run_table_depth", {}),
        Shard("tlb-inlining", "run_tlb_inlining", {}),
        Shard("pmptw-cache-sweep", "run_pmptw_cache_sweep", {}),
        Shard("hot-range-hints", "run_hint_ablation", {}),
        Shard("cache-style", "run_cache_style_management", {}),
    ),
}

__all__ = ["ALL_EXPERIMENTS", "SHARDS", "Shard"]
