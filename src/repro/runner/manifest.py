"""The campaign run manifest: one record per cell, durable as JSON.

A :class:`RunManifest` is the ledger of one campaign: which cells ran,
where their rows live in the results store, how long each took, on which
worker, after how many attempts, and the engine telemetry counters the cell
emitted.  The regression gate (:mod:`repro.runner.regress`) compares two
manifests — the embedded ``rows_sha256`` digests make drift detection
possible even when the paired store entries are gone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

#: Cell states.  ``ok`` ran fresh this campaign; ``cached`` was satisfied by
#: the results store under ``--resume``; everything else is a failure mode
#: (the campaign degrades gracefully — one bad cell never kills the rest).
STATUS_OK = "ok"
STATUS_CACHED = "cached"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"
STATUS_CRASHED = "crashed"

SCHEMA_VERSION = 1


@dataclass
class CellRecord:
    """Outcome of one campaign cell."""

    task_id: str
    experiment: str
    shard: str
    status: str
    key: str = ""  # results-store key ("" when the cell never produced rows)
    attempts: int = 1
    wall_s: float = 0.0
    worker: str = ""  # worker pid, "inline", or "cache"
    rows_n: int = 0
    rows_sha256: str = ""
    error: Optional[str] = None
    telemetry: Dict[str, int] = field(default_factory=dict)  # engine counters

    @property
    def failed(self) -> bool:
        return self.status not in (STATUS_OK, STATUS_CACHED)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "task_id": self.task_id,
            "experiment": self.experiment,
            "shard": self.shard,
            "status": self.status,
            "key": self.key,
            "attempts": self.attempts,
            "wall_s": round(self.wall_s, 3),
            "worker": self.worker,
            "rows_n": self.rows_n,
            "rows_sha256": self.rows_sha256,
            "telemetry": dict(self.telemetry),
        }
        if self.error:
            out["error"] = self.error
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CellRecord":
        return cls(
            task_id=str(data["task_id"]),
            experiment=str(data.get("experiment", "")),
            shard=str(data.get("shard", "")),
            status=str(data["status"]),
            key=str(data.get("key", "")),
            attempts=int(data.get("attempts", 1)),
            wall_s=float(data.get("wall_s", 0.0)),
            worker=str(data.get("worker", "")),
            rows_n=int(data.get("rows_n", 0)),
            rows_sha256=str(data.get("rows_sha256", "")),
            error=str(data["error"]) if data.get("error") else None,
            telemetry={str(k): int(v) for k, v in dict(data.get("telemetry", {})).items()},  # type: ignore[arg-type]
        )


@dataclass
class RunManifest:
    """Everything one campaign did, in cell-declaration order."""

    label: str = "campaign"
    version: str = ""
    jobs: int = 1  # requested worker count
    effective_jobs: int = 1  # after clamping to available CPUs
    telemetry: str = "light"  # per-cell engine telemetry level
    filters: List[str] = field(default_factory=list)
    resume: bool = False
    timeout_s: float = 0.0
    retries: int = 0
    wall_s: float = 0.0
    cells: List[CellRecord] = field(default_factory=list)

    # -- queries -------------------------------------------------------------

    def cell(self, task_id: str) -> Optional[CellRecord]:
        for record in self.cells:
            if record.task_id == task_id:
                return record
        return None

    @property
    def failed(self) -> List[CellRecord]:
        return [c for c in self.cells if c.failed]

    def totals(self) -> Dict[str, int]:
        counts = {"cells": len(self.cells), "ok": 0, "cached": 0, "failed": 0}
        for record in self.cells:
            if record.status == STATUS_OK:
                counts["ok"] += 1
            elif record.status == STATUS_CACHED:
                counts["cached"] += 1
            else:
                counts["failed"] += 1
        return counts

    def executed_wall_s(self) -> float:
        """Sum of per-cell wall time actually spent executing (the
        sequential-equivalent cost of the non-cached cells)."""
        return sum(c.wall_s for c in self.cells if c.status != STATUS_CACHED)

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA_VERSION,
            "label": self.label,
            "version": self.version,
            "jobs": self.jobs,
            "effective_jobs": self.effective_jobs,
            "telemetry": self.telemetry,
            "filters": list(self.filters),
            "resume": self.resume,
            "timeout_s": self.timeout_s,
            "retries": self.retries,
            "wall_s": round(self.wall_s, 3),
            "totals": self.totals(),
            "cells": [c.to_dict() for c in self.cells],
        }

    def save(self, path: str) -> str:
        with open(path, "w") as stream:
            json.dump(self.to_dict(), stream, indent=2, sort_keys=True)
            stream.write("\n")
        return path

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunManifest":
        return cls(
            label=str(data.get("label", "campaign")),
            version=str(data.get("version", "")),
            jobs=int(data.get("jobs", 1)),
            effective_jobs=int(data.get("effective_jobs", data.get("jobs", 1))),
            telemetry=str(data.get("telemetry", "light")),
            filters=[str(f) for f in data.get("filters", [])],  # type: ignore[union-attr]
            resume=bool(data.get("resume", False)),
            timeout_s=float(data.get("timeout_s", 0.0)),
            retries=int(data.get("retries", 0)),
            wall_s=float(data.get("wall_s", 0.0)),
            cells=[CellRecord.from_dict(c) for c in data.get("cells", [])],  # type: ignore[union-attr]
        )

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        with open(path) as stream:
            data = json.load(stream)
        if not isinstance(data, dict) or data.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"{path}: not a run manifest (schema {SCHEMA_VERSION})")
        return cls.from_dict(data)
