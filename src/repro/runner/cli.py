"""The ``python -m repro run`` and ``report`` entry points.

Typical invocations::

    python -m repro run --jobs 4                  # full campaign, 4 workers
    python -m repro run --jobs 2 --filter fig02   # one figure's cells
    python -m repro run --resume                  # skip cached cells
    python -m repro run --resume --baseline benchmarks/results/baseline_manifest.json
    python -m repro report                        # tables + claims from the last run

``run`` outputs one JSON payload per cell in the content-addressed results
store, a run manifest, and ``BENCH_summary.json`` at the invocation root so
the perf trajectory accumulates across revisions.  ``report`` renders every
experiment whose cells all succeeded in a manifest into
``benchmarks/results/*.txt`` and checks the shape claims next to each table.
Exit status: 0 on a clean campaign (clean gate, every claim holds), 1 when a
cell failed, the regression gate found drift or a claim failed, 2 on usage
errors.  Every failure prints a copy-paste repro line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

from ..common.stats import StatGroup
from ..experiments import ALL_EXPERIMENTS, SHARDS
from ..experiments.report import Table
from .manifest import CellRecord, RunManifest
from .pool import CampaignPool, available_cpus, default_jobs
from .regress import _stored_rows, gate
from .store import DEFAULT_STORE_DIR, ResultStore
from .tasks import TELEMETRY_LEVELS, campaign_tasks, repro_line

DEFAULT_MANIFEST = "benchmarks/results/run_manifest.json"
DEFAULT_SUMMARY = "BENCH_summary.json"
DEFAULT_TABLES = os.path.join("benchmarks", "results")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description="Run the experiment campaign across a process pool.",
    )
    parser.add_argument("-j", "--jobs", type=int, default=None, help=f"worker processes (default: {default_jobs()} on this machine; 1 = inline)")
    parser.add_argument("-k", "--filter", action="append", default=[], metavar="SUBSTR", help="only cells whose task id contains SUBSTR (repeatable)")
    parser.add_argument("--resume", action="store_true", help="skip cells already in the results store for this exact code version")
    parser.add_argument("--timeout", type=float, default=900.0, metavar="S", help="per-cell timeout in seconds (pooled mode only, default 900)")
    parser.add_argument("--retries", type=int, default=1, help="extra attempts for a failing cell (default 1)")
    parser.add_argument(
        "--telemetry",
        choices=TELEMETRY_LEVELS,
        default="light",
        help="per-cell engine telemetry: off = none, light = harvest the simulator's "
        "existing counters (zero hot-path cost, default), full = per-reference "
        "histograms via an engine hook (slower)",
    )
    parser.add_argument(
        "--no-block",
        action="store_true",
        help="pin the scalar per-reference pipeline instead of the fused block "
        "execution paths (rows are byte-identical either way; this is the "
        "parity escape hatch, at scalar-path wall time)",
    )
    parser.add_argument(
        "--shard-cells",
        choices=("auto", "on", "off"),
        default="auto",
        help="split heavy cells into independently scheduled sub-shards with a "
        "pure merge step (rows stay byte-identical to the unsharded cell): "
        "auto = shard exactly when more than one worker is available "
        "(default), on/off = force",
    )
    parser.add_argument("--store", default=DEFAULT_STORE_DIR, metavar="DIR", help=f"results store directory (default {DEFAULT_STORE_DIR})")
    parser.add_argument("--manifest", default=DEFAULT_MANIFEST, metavar="PATH", help=f"where to write the run manifest (default {DEFAULT_MANIFEST})")
    parser.add_argument("--summary", default=DEFAULT_SUMMARY, metavar="PATH", help=f"where to write the campaign summary (default {DEFAULT_SUMMARY})")
    parser.add_argument("--baseline", default=None, metavar="MANIFEST", help="after the campaign, diff against this prior manifest and fail on drift")
    parser.add_argument("--label", default="campaign", help="label recorded in the manifest and summary")
    parser.add_argument("--list-cells", action="store_true", help="list the campaign cells that would run, then exit")
    return parser


def _progress(record: CellRecord, done: int, total: int) -> None:
    width = len(str(total))
    line = f"[{done:{width}d}/{total}] {record.status:<8s} {record.task_id:<28s} {record.wall_s:7.1f}s"
    if record.attempts > 1:
        line += f"  (attempt {record.attempts})"
    if record.error:
        line += "  " + record.error.strip().splitlines()[-1]
    print(line, flush=True)


def _headline(store: ResultStore, manifest: RunManifest) -> Dict[str, object]:
    """Paper headline numbers pulled from the store, when their cells ran."""
    headline: Dict[str, object] = {}
    cell = manifest.cell("fig02/counts")
    if cell is not None and cell.key:
        payload = store.get(cell.key)
        if payload:
            for row in payload.get("rows", []):
                if row.get("mode") == "sv39":
                    headline["sv39_refs"] = {k: row[k] for k in ("pmp", "pmpt", "hpmp") if k in row}
    cell = manifest.cell("fig13/counts")
    if cell is not None and cell.key:
        payload = store.get(cell.key)
        if payload:
            headline["virt_refs"] = {str(row.get("scheme")): row.get("refs") for row in payload.get("rows", [])}
    return headline


def _cell_scale(store: ResultStore, manifest: RunManifest) -> Dict[str, Dict[str, object]]:
    """Tenant-scale gauges per cloud cell, read from its node rollup row.

    Cells that simulate a churn horizon (``cloud/*``) emit one
    ``kind="node"`` row with horizon-level gauges; surfacing them in the
    summary lets a campaign diff catch capacity regressions (peak tenant
    count, final fragmentation) without re-reading the stores.
    """
    scale: Dict[str, Dict[str, object]] = {}
    for record in manifest.cells:
        if not record.key:
            continue
        payload = store.get(record.key)
        if not payload:
            continue
        for row in payload.get("rows", []):
            if isinstance(row, dict) and row.get("kind") == "node":
                scale[record.task_id] = {
                    "lifecycles": row.get("lifecycles"),
                    "peak_tenants": row.get("peak_tenants"),
                    "rejected": row.get("rejected"),
                    "final_frag_pct": row.get("final_frag_pct"),
                    "peak_frag_pct": row.get("peak_frag_pct"),
                }
                break
    return scale


def bench_summary(manifest: RunManifest, store: ResultStore, generated_unix: Optional[float] = None) -> Dict[str, object]:
    """The ``BENCH_summary.json`` payload for one campaign."""
    telemetry = StatGroup("campaign")
    for record in manifest.cells:
        telemetry.merge(record.telemetry)
    totals = manifest.totals()
    executed = manifest.executed_wall_s()
    return {
        "bench": manifest.label,
        "version": manifest.version,
        "generated_unix": round(time.time() if generated_unix is None else generated_unix, 3),
        "jobs": manifest.jobs,
        "effective_jobs": manifest.effective_jobs,
        "telemetry_level": manifest.telemetry,
        "wall_s": round(manifest.wall_s, 3),
        "cells": totals,
        "sequential_equivalent_s": round(executed, 3),
        "speedup_vs_sequential": round(executed / manifest.wall_s, 2) if manifest.wall_s > 0 else None,
        # A 1.0x speedup with jobs > 1 is not a scheduler bug when the CPU
        # affinity mask clamped the pool; record the full context so the
        # number can be read without knowing the machine it ran on.
        "speedup": {
            "requested_jobs": manifest.jobs,
            "effective_jobs": manifest.effective_jobs,
            "clamped": manifest.effective_jobs < manifest.jobs,
            "vs_sequential": round(executed / manifest.wall_s, 2) if manifest.wall_s > 0 else None,
            "vs_requested_ideal": round(executed / (manifest.jobs * manifest.wall_s), 2)
            if manifest.wall_s > 0 and manifest.jobs
            else None,
        },
        "cell_wall_s": {c.task_id: round(c.wall_s, 3) for c in manifest.cells},
        # Simulated-reference throughput per executed cell: how many timed
        # references the cell priced per wall second.  Comparing a --no-block
        # summary against a block one turns this into the scalar-vs-block
        # speedup per cell (the reference counts themselves are identical).
        "cell_refs_per_s": {
            c.task_id: round(c.telemetry.get("hierarchy.refs", 0) / c.wall_s, 1)
            for c in manifest.cells
            if c.wall_s > 0 and c.telemetry.get("hierarchy.refs")
        },
        # The same ratio inverted: wall nanoseconds the host spent per
        # simulated reference — the unit the hot-path benchmark gates on,
        # so block and scalar campaigns compare directly.
        "cell_ns_per_ref": {
            c.task_id: round(1e9 * c.wall_s / c.telemetry.get("hierarchy.refs", 0), 1)
            for c in manifest.cells
            if c.wall_s > 0 and c.telemetry.get("hierarchy.refs")
        },
        "block_mode": manifest.block,
        "shard_cells": manifest.shard_cells,
        # Cells that ran as sub-shard assemblies this campaign, with their
        # sub-shard counts.  Their wall_s above is the *sequential
        # equivalent* (sum of sub-shard walls); the scheduling win shows up
        # in the campaign wall_s instead.
        "subsharded_cells": {c.task_id: c.subshards for c in manifest.cells if c.subshards},
        "failed_cells": [c.task_id for c in manifest.failed],
        "cell_scale": _cell_scale(store, manifest),
        "headline": _headline(store, manifest),
        "telemetry": telemetry.snapshot(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    tasks = campaign_tasks(args.filter)
    if not tasks:
        print(f"no campaign cells match filter(s): {', '.join(args.filter)}", file=sys.stderr)
        return 2
    if args.list_cells:
        for task in tasks:
            print(f"{task.task_id:<28s} {task.module}.{task.func}({json.dumps(dict(task.kwargs), sort_keys=True)})")
        print(f"{len(tasks)} cells")
        return 0

    store = ResultStore(args.store)
    pool = CampaignPool(
        store,
        jobs=args.jobs,
        timeout_s=args.timeout,
        retries=args.retries,
        label=args.label,
        progress=_progress,
        telemetry=args.telemetry,
        block=not args.no_block,
        shard_cells={"auto": None, "on": True, "off": False}[args.shard_cells],
    )
    if pool.effective_jobs < pool.jobs:
        print(
            f"note: --jobs {pool.jobs} clamped to {pool.effective_jobs} "
            f"({available_cpus()} CPU(s) available; oversubscribing would only slow the campaign)"
        )
    manifest = pool.run(tasks, resume=args.resume)
    if args.filter:
        manifest.filters = list(args.filter)
    manifest.save(args.manifest)
    summary = bench_summary(manifest, store)
    with open(args.summary, "w") as stream:
        json.dump(summary, stream, indent=2, sort_keys=True)
        stream.write("\n")

    totals = manifest.totals()
    speed = summary["speedup_vs_sequential"]
    clamp = ""
    if manifest.effective_jobs < manifest.jobs:
        clamp = f", --jobs {manifest.jobs} clamped to {manifest.effective_jobs}"
    print(
        f"campaign: {totals['ok']} ok, {totals['cached']} cached, {totals['failed']} failed "
        f"of {totals['cells']} cells in {manifest.wall_s:.1f}s"
        + (f" ({speed}x vs sequential{clamp})" if speed else "")
    )
    print(f"manifest: {args.manifest}\nsummary:  {args.summary}\nstore:    {args.store} ({len(store)} entries)")
    for record in manifest.failed:
        tail = (record.error or "").strip().splitlines()
        print(f"FAILED {record.task_id} ({record.status}): {tail[-1] if tail else 'no detail'}", file=sys.stderr)
        print(f"  repro: {repro_line(record.task_id)}", file=sys.stderr)

    exit_code = 1 if manifest.failed else 0
    if args.baseline:
        exit_code = max(exit_code, gate(args.baseline, manifest, store))
    return exit_code


def print_claims(experiment: str, tables: Sequence[Table]) -> int:
    """Print every claim's verdict, a failure with its cell's repro line;
    returns the number of failed claims."""
    failed = 0
    for table in tables:
        for claim in table.claims:
            task = f"{experiment}/{claim.cell}" if claim.cell else experiment
            if claim.ok:
                print(f"  PASS  {task}: {claim.name}")
                continue
            failed += 1
            print(f"  FAIL  {task}: {claim.name}" + (f" ({claim.detail})" if claim.detail else ""))
            print(f"        repro: {repro_line(task)}")
    return failed


def report_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro report``: every table from one campaign's rows."""
    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Render the results tables from a campaign's stored rows and check their claims.",
    )
    parser.add_argument("--manifest", default=DEFAULT_MANIFEST, metavar="PATH", help=f"run manifest to read (default {DEFAULT_MANIFEST})")
    parser.add_argument("--store", default=DEFAULT_STORE_DIR, metavar="DIR", help=f"results store holding its rows (default {DEFAULT_STORE_DIR})")
    parser.add_argument("--out", default=DEFAULT_TABLES, metavar="DIR", help=f"where to write the .txt tables (default {DEFAULT_TABLES})")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        manifest = RunManifest.load(args.manifest)
    except (OSError, ValueError) as exc:
        print(f"report: cannot load manifest: {exc}", file=sys.stderr)
        return 1
    store = ResultStore(args.store)
    records = {record.task_id: record for record in manifest.cells}
    os.makedirs(args.out, exist_ok=True)
    failures = claims = written = 0
    skipped = []
    for experiment, module in ALL_EXPERIMENTS.items():
        cells = [records.get(f"{experiment}/{shard.name}") for shard in SHARDS[experiment]]
        if any(record is None or record.failed for record in cells):
            skipped.append(experiment)
            continue
        rows_by_cell = {record.shard: _stored_rows(store, record) for record in cells}
        missing = [record.task_id for record in cells if rows_by_cell[record.shard] is None]
        for task_id in missing:
            print(f"FAILED {task_id}: no rows in {args.store} matching the manifest's digest", file=sys.stderr)
            print(f"  repro: {repro_line(task_id)}", file=sys.stderr)
        if missing:
            failures += len(missing)
            continue
        tables = module.render(rows_by_cell)
        for table in tables:
            with open(os.path.join(args.out, f"{table.name}.txt"), "w") as stream:
                stream.write(table.text + "\n")
        written += len(tables)
        claims += sum(len(table.claims) for table in tables)
        failures += print_claims(experiment, tables)
    print(f"report: {written} tables written to {args.out}; {claims} claims checked, {failures} failure(s)")
    if skipped:
        print(f"  not rendered (a cell missing or failed in {args.manifest}): {', '.join(skipped)}")
    return 1 if failures else 0
