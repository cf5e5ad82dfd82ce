"""Regression gating: diff a fresh campaign manifest against a baseline.

The gate compares cells by task id.  The cheap, always-available signal is
the ``rows_sha256`` digest embedded in each manifest record; when both
sides' payloads are still present in the results store, drifted cells are
additionally expanded into per-row, per-column value diffs — so a perturbed
reference count shows up as ``fig02/counts row 0 col 'pmpt': 12 -> 13``,
not just an opaque hash change.

Policy:

* a cell present in both manifests with differing rows is **drift**;
* a cell that failed in the current run (after succeeding in the baseline)
  is **drift**;
* a baseline cell missing from the current run is reported as *skipped*
  (informational only), so a filtered CI shard set can gate against a
  full-campaign baseline;
* cells new in the current run are informational as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .manifest import CellRecord, RunManifest
from .store import ResultStore
from .tasks import repro_line

#: Cap on expanded value diffs per cell, to keep gate output readable.
MAX_VALUE_DIFFS = 20


@dataclass(frozen=True)
class Drift:
    """One gating violation."""

    task_id: str
    kind: str  # "rows", "status", or "missing-rows"
    detail: str

    def __str__(self) -> str:
        return f"{self.task_id}: [{self.kind}] {self.detail}"


def _value_diffs(task_id: str, base_rows: List[Dict[str, object]], cur_rows: List[Dict[str, object]]) -> List[str]:
    """Human-readable per-cell differences between two row lists."""
    diffs: List[str] = []
    if len(base_rows) != len(cur_rows):
        diffs.append(f"row count {len(base_rows)} -> {len(cur_rows)}")
    for index, (base, cur) in enumerate(zip(base_rows, cur_rows)):
        for column in sorted(set(base) | set(cur)):
            old, new = base.get(column, "<absent>"), cur.get(column, "<absent>")
            if old != new:
                diffs.append(f"row {index} col {column!r}: {old!r} -> {new!r}")
            if len(diffs) >= MAX_VALUE_DIFFS:
                diffs.append("... (diff truncated)")
                return diffs
    return diffs


def _stored_rows(store: Optional[ResultStore], record: CellRecord) -> Optional[List[Dict[str, object]]]:
    """The record's rows from the store, verified against its digest."""
    if store is None or not record.key:
        return None
    payload = store.get(record.key)
    if payload is None or payload.get("rows_sha256") != record.rows_sha256:
        return None
    rows = payload.get("rows")
    return rows if isinstance(rows, list) else None


def compare_manifests(
    baseline: RunManifest,
    current: RunManifest,
    store: Optional[ResultStore] = None,
) -> Tuple[List[Drift], List[str]]:
    """Diff two campaign manifests; returns ``(drifts, notes)``.

    *store* (when given) lets digest mismatches expand into value-level
    diffs; both sides' payloads survive side by side because store keys
    fold in the code version.
    """
    drifts: List[Drift] = []
    notes: List[str] = []
    current_by_id = {c.task_id: c for c in current.cells}
    baseline_by_id = {c.task_id: c for c in baseline.cells}

    skipped = [tid for tid in baseline_by_id if tid not in current_by_id]
    if skipped:
        notes.append(f"{len(skipped)} baseline cell(s) not in this run (filtered out): " + ", ".join(sorted(skipped)[:8]) + ("..." if len(skipped) > 8 else ""))
    new = [tid for tid in current_by_id if tid not in baseline_by_id]
    if new:
        notes.append(f"{len(new)} new cell(s) with no baseline: " + ", ".join(sorted(new)[:8]) + ("..." if len(new) > 8 else ""))

    for task_id, base in baseline_by_id.items():
        cur = current_by_id.get(task_id)
        if cur is None:
            continue
        if cur.failed and not base.failed:
            drifts.append(Drift(task_id, "status", f"baseline {base.status}, now {cur.status}: {cur.error or 'no detail'}"))
            continue
        if base.failed:
            notes.append(f"{task_id}: failed in baseline ({base.status}); not gated")
            continue
        if base.rows_sha256 == cur.rows_sha256:
            continue
        base_rows = _stored_rows(store, base)
        cur_rows = _stored_rows(store, cur)
        if base_rows is not None and cur_rows is not None:
            for diff in _value_diffs(task_id, base_rows, cur_rows):
                drifts.append(Drift(task_id, "rows", diff))
        else:
            drifts.append(
                Drift(
                    task_id,
                    "missing-rows",
                    f"rows digest changed ({base.rows_sha256[:12]} -> {cur.rows_sha256[:12]}) "
                    "and stored rows are unavailable for a value diff",
                )
            )
    return drifts, notes


def gate(
    baseline_path: str,
    current: RunManifest,
    store: Optional[ResultStore] = None,
    emit=print,
) -> int:
    """Run the regression gate; returns a process exit code (0 = no drift)."""
    try:
        baseline = RunManifest.load(baseline_path)
    except (OSError, ValueError) as exc:
        emit(f"regression gate: cannot load baseline: {exc}")
        return 1
    drifts, notes = compare_manifests(baseline, current, store)
    for note in notes:
        emit(f"  note: {note}")
    if not drifts:
        emit(f"regression gate: OK — no drift against {baseline_path} ({len(baseline.cells)} baseline cells)")
        return 0
    emit(f"regression gate: DRIFT — {len(drifts)} difference(s) against {baseline_path}:")
    for drift in drifts:
        emit(f"  {drift}")
    for task_id in dict.fromkeys(drift.task_id for drift in drifts):
        emit(f"  repro: {repro_line(task_id, baseline_path)}")
    return 1
