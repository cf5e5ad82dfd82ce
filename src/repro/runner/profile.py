"""``python -m repro profile`` — cProfile one experiment or campaign cell.

The hot path is pure Python, so the deterministic profiler is the primary
optimization instrument: point it at a cell (``fig11/gap-rocket``) or a whole
experiment id (``fig11``) and it prints the top functions by cumulative time.
``--json`` emits the same table as a machine-readable summary, which the CI
smoke test parses.

``--cells`` runs several cells under one aggregated profile (each cell gets
its own profiler; the stats are merged), so "where does the campaign's time
go" is answerable without stitching per-cell reports by hand.

Usage::

    python -m repro profile fig11/gap-rocket
    python -m repro profile fig11/gap-rocket --json --top 40
    python -m repro profile fig02 --sort tottime
    python -m repro profile --cells fig11/gap-rocket,fig12/redis-rocket
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import sys
import time
from typing import Dict, List, Optional

#: pstats sort keys accepted by ``--sort`` (name → pstats key).
SORT_KEYS = {
    "cumulative": pstats.SortKey.CUMULATIVE,
    "tottime": pstats.SortKey.TIME,
    "ncalls": pstats.SortKey.CALLS,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="Profile one experiment or campaign cell with cProfile.",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="a campaign cell id like fig11/gap-rocket, or an experiment id like fig11",
    )
    parser.add_argument(
        "--cells",
        default=None,
        metavar="ID,ID,...",
        help="profile several campaign cells and merge their stats into one "
        "aggregate report (mutually exclusive with the positional target)",
    )
    parser.add_argument(
        "--top", type=int, default=25, metavar="N", help="functions to report (default 25)"
    )
    parser.add_argument(
        "--sort",
        choices=sorted(SORT_KEYS),
        default="cumulative",
        help="ranking order (default cumulative)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json", help="emit a machine-readable summary"
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH", help="also write the report to this file"
    )
    return parser


def _cell_spec(target: str):
    """Resolve a ``fig11/gap-rocket`` cell id to its TaskSpec."""
    from .tasks import campaign_tasks

    specs = [s for s in campaign_tasks([target]) if s.task_id == target]
    if not specs:
        raise SystemExit(f"unknown campaign cell: {target!r} (see repro run --list-cells)")
    return specs[0]


def _run_target(target: str) -> None:
    """Execute *target* once (the code under the profiler)."""
    if "/" in target:
        from .tasks import execute

        execute(_cell_spec(target), telemetry="off")
        return
    from ..experiments import ALL_EXPERIMENTS
    from .tasks import run_experiment

    if target not in ALL_EXPERIMENTS:
        raise SystemExit(f"unknown experiment id: {target!r} (see python -m repro list)")
    run_experiment(target)


def _stats_rows(stats: pstats.Stats, sort: str, top: int) -> List[Dict[str, object]]:
    """The top-N functions as plain dicts, in the requested order."""
    stats.sort_stats(SORT_KEYS[sort])
    rows: List[Dict[str, object]] = []
    for func in stats.fcn_list[:top]:  # fcn_list is populated by sort_stats
        cc, nc, tt, ct, _callers = stats.stats[func]
        filename, line, name = func
        rows.append(
            {
                "file": filename,
                "line": line,
                "function": name,
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime": round(tt, 6),
                "cumtime": round(ct, 6),
            }
        )
    return rows


def _profile_single(target: str) -> pstats.Stats:
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        _run_target(target)
    finally:
        profiler.disable()
    return pstats.Stats(profiler, stream=io.StringIO())


def _profile_cells(cells: List[str]) -> "tuple[pstats.Stats, Dict[str, float]]":
    """Profile each cell with its own profiler; return merged stats + walls.

    One profiler per cell keeps the per-cell wall attribution exact; the
    merged :class:`pstats.Stats` adds counts and times across cells, so the
    aggregate table reads like one long run of all of them.
    """
    from .tasks import execute

    specs = [_cell_spec(cell) for cell in cells]  # validate all ids up front
    walls: Dict[str, float] = {}
    merged: Optional[pstats.Stats] = None
    for spec in specs:
        profiler = cProfile.Profile()
        start = time.perf_counter()
        profiler.enable()
        try:
            execute(spec, telemetry="off")
        finally:
            profiler.disable()
        walls[spec.task_id] = time.perf_counter() - start
        if merged is None:
            merged = pstats.Stats(profiler, stream=io.StringIO())
        else:
            merged.add(profiler)
    assert merged is not None
    return merged, walls


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if (args.target is None) == (args.cells is None):
        print(
            "profile: give exactly one of a positional target or --cells",
            file=sys.stderr,
        )
        return 2

    cell_walls: Optional[Dict[str, float]] = None
    if args.cells is not None:
        cells = [c.strip() for c in args.cells.split(",") if c.strip()]
        if not cells:
            print("profile: --cells got an empty list", file=sys.stderr)
            return 2
        stats, cell_walls = _profile_cells(cells)
        label = f"aggregate of {len(cells)} cells ({', '.join(cells)})"
    else:
        stats = _profile_single(args.target)
        label = args.target

    total_time = getattr(stats, "total_tt", 0.0)
    total_calls = getattr(stats, "total_calls", 0)

    if args.as_json:
        payload = {
            "target": label,
            "sort": args.sort,
            "total_seconds": round(total_time, 6),
            "total_calls": total_calls,
            "functions": _stats_rows(stats, args.sort, args.top),
        }
        if cell_walls is not None:
            payload["cells"] = {k: round(v, 3) for k, v in cell_walls.items()}
        report = json.dumps(payload, indent=2, sort_keys=True)
    else:
        buffer = io.StringIO()
        stats.stream = buffer
        stats.sort_stats(SORT_KEYS[args.sort])
        stats.print_stats(args.top)
        report = f"profile of {label} ({total_calls} calls, {total_time:.2f}s)\n" + (
            buffer.getvalue()
        )
        if cell_walls is not None:
            report += "".join(f"  {k:<28s} {v:7.2f}s\n" for k, v in cell_walls.items())

    print(report)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
