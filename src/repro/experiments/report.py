"""Report helpers shared by all experiment modules.

Each experiment module exposes row functions (``run*``, named by its
``SHARDS`` cells) and one ``render(rows_by_cell)`` that turns those cells'
rows into tables: the aligned text written to
``benchmarks/results/<name>.txt`` plus the shape claims checked on the same
rows.  ``python -m repro report`` and ``python -m repro <id>``
both go through ``render``, so every reported table has one producer.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..engine import MetricsSink
from ..engine.metrics import _plain
from ..common.stats import StatGroup


def format_table(headers: Sequence[str], rows: Iterable[Mapping[str, object]], title: str = "") -> str:
    """Render rows as an aligned plain-text table."""
    rendered: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        rendered.append([_format_cell(row.get(h, "")) for h in headers])
    widths = [max(len(r[i]) for r in rendered) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    for i, row_text in enumerate(rendered):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row_text)))
        if i == 0:
            lines.append("  ".join("-" * widths[j] for j in range(len(headers))))
    return "\n".join(lines)


#: What a ``render`` function reads: each of its experiment's cells' rows, by
#: shard name.
RowsByCell = Mapping[str, List[Dict[str, object]]]


class Claim(NamedTuple):
    """One shape claim, checked on a cell's rows next to the table it reads."""

    name: str
    cell: str  # shard name the claim reads; "" = several cells of the experiment
    ok: bool
    detail: str = ""


class Table(NamedTuple):
    """One rendered results table and the claims checked on its rows."""

    name: str  # file stem under benchmarks/results
    text: str
    claims: Tuple[Claim, ...] = ()


def every(name: str, cell: str, rows: Sequence[Mapping[str, object]], test: Callable[[Mapping[str, object]], bool], *keys: str) -> Claim:
    """A claim that *test* holds on every row; the detail names the rows it
    fails on by their *keys* columns."""
    bad = ["/".join(str(row.get(key)) for key in keys) for row in rows if not test(row)]
    return Claim(name, cell, not bad, "fails on " + ", ".join(bad) if bad else "")


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def normalize(rows: List[Dict[str, object]], value_keys: Sequence[str], baseline_key: str) -> List[Dict[str, object]]:
    """Return rows with value columns rescaled to % of the baseline column."""
    out = []
    for row in rows:
        base = float(row[baseline_key])  # type: ignore[arg-type]
        new_row = dict(row)
        for key in value_keys:
            new_row[key] = 100.0 * float(row[key]) / base if base else 0.0  # type: ignore[arg-type]
        out.append(new_row)
    return out


def emit_metrics(
    label: str,
    figure: str,
    rows: Iterable[Mapping[str, object]],
    stats: Iterable[StatGroup] = (),
    path: Optional[str] = None,
    sink: Optional[MetricsSink] = None,
) -> MetricsSink:
    """Collect a figure's rows (and stat groups) into a :class:`MetricsSink`.

    The machine-readable counterpart of :func:`format_table`: the same rows
    land in a JSON document alongside counters and histograms from the
    engine's observability hooks.  Pass an existing *sink* to accumulate
    several figures into one payload; pass *path* to write it out.
    """
    if sink is None:
        sink = MetricsSink(label)
    sink.record_rows(figure, rows)
    for group in stats:
        sink.record_stats(figure, group)
    if path is not None:
        sink.write(path)
    return sink


def concat_rows(parts: Sequence[List[Dict[str, object]]], **_kwargs: object) -> List[Dict[str, object]]:
    """Sub-shard merge for cells whose units are row-disjoint: the per-unit
    row lists concatenated in partition order.

    This is the merge half of the intra-cell sharding contract
    (:mod:`repro.runner.shard`) for every cell that iterates independent
    simulations and emits one row (or row group) per unit — GAP kernels,
    RV8 programs, FunctionBench functions, image-chain sizes.  Experiment
    modules re-import it so a :class:`~repro.experiments.Shard` declaration
    can name it directly.
    """
    return [row for part in parts for row in part]


def rows_to_jsonable(rows: Iterable[Mapping[str, object]]) -> List[Dict[str, object]]:
    """Coerce experiment rows to JSON-safe dicts (same coercion the sink uses)."""
    return [{str(k): _plain(v) for k, v in row.items()} for row in rows]


def canonical_rows_json(rows: Iterable[Mapping[str, object]]) -> str:
    """The canonical serialization of a row list: sorted keys, no whitespace.

    Byte-identical for equal results regardless of dict insertion order or
    which worker produced them — the unit the results store digests and the
    regression gate compares.
    """
    return json.dumps(rows_to_jsonable(rows), sort_keys=True, separators=(",", ":"))


def rows_digest(rows: Iterable[Mapping[str, object]]) -> str:
    """SHA-256 hex digest of :func:`canonical_rows_json`."""
    return hashlib.sha256(canonical_rows_json(rows).encode("utf-8")).hexdigest()


def selfcheck_line() -> str:
    """One-line shadow-validator status for appending under a figure.

    Reads the process-wide counters from :mod:`repro.verify.selfcheck`;
    meaningful only after ``enable_selfcheck()`` (the ``--selfcheck`` flag).
    """
    from ..verify import selfcheck_summary

    s = selfcheck_summary()
    status = "OK" if s["violations"] == 0 else f"{s['violations']} VIOLATIONS"
    return (
        f"[selfcheck {status}: {s['data_checked']} data refs re-checked over "
        f"{s['accesses']} accesses, {s['tlb_fills']} TLB fills, "
        f"{s['hooks']} engines]"
    )


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (0 if empty)."""
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))
