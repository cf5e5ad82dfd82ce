"""Cloud-node cells: tenant-scale enclave churn with per-class SLO rollups.

The paper evaluates single enclaves and small consolidation sweeps; this
module runs the deployment shape those numbers are meant to justify — a
confidential node absorbing ~1k enclave lifecycles from a trace-driven
arrival process (:mod:`repro.cloud`), per scheme, with fragmentation and
fast-segment pressure tracked across the horizon.

Four campaign cells:

* ``cloud/churn-pmpt`` / ``cloud/churn-hpmp`` — the stable Poisson mix on
  each table scheme (same trace, so scheme columns compare like-for-like);
* ``cloud/frag-horizon`` — interleaved pin/elephant allocators hunting the
  fragmentation wall;
* ``cloud/tenant-mix-adversarial`` — pins + elephants + relabel-churning
  revokers against the hpmp segment pool.

Sharding: the horizon splits into contiguous trace *epochs*
(:func:`repro.cloud.slice_trace`), each simulated on its own fresh node —
the sub-shards are embarrassingly parallel and :func:`merge_cloud` folds
their rows back purely (SLO histograms merge via
:meth:`~repro.cloud.SLOAccount.from_snapshots`; counters sum; pressure
gauges take min/max).  ``run_cloud`` *is* that same fold over inline slice
results, so sharded and unsharded canonical row JSON is byte-identical by
construction.

Serialization note (load-bearing): sub-shard rows round-trip through the
results store, whose ``rows_to_jsonable`` stringifies any non-scalar value
with ``str()``.  Slice rows therefore carry every nested payload (SLO
snapshots, fragmentation dicts, event counters) as *canonical JSON
strings* — identical whether the merge sees live rows (unsharded) or
store-round-tripped rows (pooled), which is what keeps the parity contract
byte-exact.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Sequence

from ..cloud import (
    CloudNode,
    SLOAccount,
    adversarial_trace,
    frag_trace,
    poisson_trace,
    slice_trace,
)
from ..common.errors import WorkloadError
from ..common.params import machine_params
from .report import RowsByCell, Table, format_table

#: Row columns of the per-class rollup table :func:`render` writes.
CLASS_COLUMNS = [
    "tenant_class",
    "tenants",
    "rejected",
    "refs",
    "refs_per_s",
    "launch_p50",
    "launch_p99",
    "work_p50",
    "work_p99",
    "teardown_p99",
]

#: The traces a cell can request, by profile name.
PROFILES = {
    "poisson": poisson_trace,
    "frag": frag_trace,
    "adversarial": adversarial_trace,
}


def _canon(value: object) -> str:
    """Canonical JSON encoding for nested payloads embedded in rows."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _trace(profile: str, tenants: int, seed: int):
    maker = PROFILES.get(profile)
    if maker is None:
        raise WorkloadError(f"unknown trace profile {profile!r}; options: {sorted(PROFILES)}")
    return maker(tenants, seed)


def _min_opt(values) -> object:
    present = [v for v in values if v is not None]
    return min(present) if present else None


def run_cloud_slice(
    scheme: str = "pmpt",
    profile: str = "poisson",
    tenants: int = 1024,
    slices: int = 8,
    slice_index: int = 0,
    seed: int = 7,
    machine: str = "rocket",
    mem_mib: int = 64,
    frag_every: int = 64,
) -> List[Dict[str, object]]:
    """Simulate one trace epoch on a fresh node; returns its single row.

    The full trace is regenerated from ``(profile, tenants, seed)`` and the
    epoch is its ``slice_index``-th contiguous chunk, so a sub-shard needs
    no data from its siblings — only the cell kwargs it already has.
    """
    specs = slice_trace(_trace(profile, tenants, seed), slices, slice_index)
    node = CloudNode(scheme=scheme, machine=machine, mem_mib=mem_mib, seed=seed, frag_every=frag_every)
    report = node.run_trace(specs)
    frag_final = dict(report["frag_final"])
    frag_final.pop("span_hist", None)
    return [
        {
            "slice": slice_index,
            "kind": "epoch",
            "tenants": len(specs),
            "admitted": report["admitted"],
            "rejected": report["rejected"],
            "completed": report["completed"],
            "peak_live": report["peak_live"],
            "peak_gms": report["peak_gms"],
            "quanta": report["quanta"],
            "switch_cycles": report["switch_cycles"],
            "work_cycles": report["work_cycles"],
            "monitor_cycles": report["monitor_cycles"],
            "min_free_pmp_entries": report["min_free_pmp_entries"],
            "min_free_segment_entries": report["min_free_segment_entries"],
            "final_frag_pct": frag_final["frag_pct"],
            "largest_free_frames": frag_final["largest_free_frames"],
            "slo_json": _canon(report["slo"]),
            "frag_json": _canon({"final": frag_final, "samples": report["frag_samples"]}),
            "events_json": _canon(report["monitor_events"]),
        }
    ]


def merge_cloud(parts: Sequence[List[Dict[str, object]]], **kwargs: object) -> List[Dict[str, object]]:
    """Pure fold of epoch rows into the cell's full row set.

    Emits the epoch rows (sorted by slice), one ``kind="class"`` SLO rollup
    row per tenant class, and one ``kind="node"`` row with the
    horizon-level counters the benchmark summary surfaces (peak tenants,
    final fragmentation).  Reads only *parts* and the cell kwargs —
    simulates nothing — per the intra-cell sharding contract.
    """
    epochs = sorted((dict(row) for part in parts for row in part), key=lambda r: int(r["slice"]))
    if not epochs:
        return []
    account = SLOAccount.from_snapshots(json.loads(r["slo_json"]) for r in epochs)
    events: Counter = Counter()
    for row in epochs:
        events.update(json.loads(row["events_json"]))
    frag = [json.loads(r["frag_json"]) for r in epochs]
    peak_frag = 0.0
    for blob in frag:
        peak_frag = max(peak_frag, blob["final"]["frag_pct"], *(s["frag_pct"] for s in blob["samples"]), 0.0)
    freq_mhz = machine_params(str(kwargs.get("machine", "rocket"))).freq_mhz
    class_rows: List[Dict[str, object]] = [
        {"slice": "all", "kind": "class", **row} for row in account.rows(freq_mhz)
    ]
    last_final = frag[-1]["final"]
    node_row: Dict[str, object] = {
        "slice": "all",
        "kind": "node",
        "scheme": kwargs.get("scheme", "pmpt"),
        "machine": kwargs.get("machine", "rocket"),
        "profile": kwargs.get("profile", "poisson"),
        "mem_mib": kwargs.get("mem_mib", 64),
        "seed": kwargs.get("seed", 7),
        "tenants": sum(r["tenants"] for r in epochs),
        "lifecycles": sum(r["completed"] for r in epochs),
        "admitted": sum(r["admitted"] for r in epochs),
        "rejected": sum(r["rejected"] for r in epochs),
        "peak_tenants": max(r["peak_live"] for r in epochs),
        "peak_gms": max(r["peak_gms"] for r in epochs),
        "quanta": sum(r["quanta"] for r in epochs),
        "switch_cycles": sum(r["switch_cycles"] for r in epochs),
        "work_cycles": sum(r["work_cycles"] for r in epochs),
        "monitor_cycles": sum(r["monitor_cycles"] for r in epochs),
        "min_free_pmp_entries": _min_opt(r["min_free_pmp_entries"] for r in epochs),
        "min_free_segment_entries": _min_opt(r["min_free_segment_entries"] for r in epochs),
        "final_frag_pct": last_final["frag_pct"],
        "final_largest_free_frames": last_final["largest_free_frames"],
        "peak_frag_pct": peak_frag,
        "events_json": _canon(dict(sorted(events.items()))),
    }
    return epochs + class_rows + [node_row]


def run_cloud(
    scheme: str = "pmpt",
    profile: str = "poisson",
    tenants: int = 1024,
    slices: int = 8,
    seed: int = 7,
    machine: str = "rocket",
    mem_mib: int = 64,
    frag_every: int = 64,
) -> List[Dict[str, object]]:
    """The full horizon: every epoch in sequence, folded by the same merge.

    Defined *as* :func:`merge_cloud` over the inline epoch results, so the
    unsharded cell and the pooled sub-shards share one code path and their
    canonical row JSON matches byte-for-byte.
    """
    kwargs = dict(
        scheme=scheme,
        profile=profile,
        tenants=tenants,
        slices=slices,
        seed=seed,
        machine=machine,
        mem_mib=mem_mib,
        frag_every=frag_every,
    )
    parts = [run_cloud_slice(slice_index=index, **kwargs) for index in range(slices)]
    return merge_cloud(parts, **kwargs)


def partition_cloud(**kwargs: object):
    """Intra-cell sharding plan: one sub-shard per trace epoch."""
    slices = int(kwargs.get("slices", 8))  # type: ignore[arg-type]
    return [
        (f"slice{index}", "run_cloud_slice", {**kwargs, "slice_index": index})
        for index in range(slices)
    ]


def render(rows_by_cell: RowsByCell) -> List[Table]:
    """Per cell: the per-class SLO rollup and the node horizon rollup."""
    tables = []
    for cell, rows in rows_by_cell.items():
        node = next(row for row in rows if row["kind"] == "node")
        title = f"Cloud node ({node['scheme']}, {node['profile']}, {node['tenants']} tenants): per-class SLO rollup"
        if node["profile"] == "poisson":
            title += " (expect: cache tenants highest refs/s; serverless launch-dominated)"
        class_table = format_table(CLASS_COLUMNS, [row for row in rows if row["kind"] == "class"], title=title)
        node_table = format_table(
            ["lifecycles", "rejected", "peak_tenants", "final_frag_pct", "peak_frag_pct"],
            [node],
            title="Node horizon rollup",
        )
        tables.append(Table("cloud_" + cell.replace("-", "_"), class_table + "\n\n" + node_table))
    return tables
