"""The campaign pool: fan cells out over worker processes.

Design points, mirroring how FireSim-style artifact campaigns batch
independent simulations:

* **One task per cell.**  Each campaign cell is one task at every
  ``jobs`` and runs in its own worker process (``fork`` where available,
  ``spawn`` otherwise), talking back over a dedicated pipe, so a wedged or
  crashed cell can be terminated without corrupting a shared queue.
* **Per-task timeouts and bounded retries.**  A cell that exceeds
  ``timeout_s`` is terminated and rescheduled up to ``retries`` extra
  attempts; a cell that keeps failing is recorded as ``timeout`` /
  ``error`` / ``crashed`` in the manifest and the campaign carries on.
* **Content-addressed caching.**  With ``resume=True``, cells whose store
  key (experiment + params + code version) already has a payload are
  reported as ``cached`` without spawning anything.
* **Determinism.**  Workers only ever compute their own cell; results are
  written to the store atomically and the manifest lists cells in
  declaration order, so ``--jobs 1`` and ``--jobs N`` produce byte-identical
  rows.
* **No oversubscription.**  The cells are pure CPU, so running more
  workers than cores only adds scheduler thrash; requested ``jobs`` are
  clamped to :func:`available_cpus` (both values land in the manifest as
  ``jobs`` / ``effective_jobs``).

``jobs=1`` runs cells inline in the calling process (no subprocess, and
therefore no timeout enforcement) — handy under pytest and for debugging a
single cell with a debugger attached.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence

from .manifest import (
    STATUS_CACHED,
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    CellRecord,
    RunManifest,
)
from .store import ResultStore
from .tasks import TELEMETRY_LEVELS, TaskSpec, execute

#: How often the scheduler polls worker pipes and deadlines (seconds).
_POLL_INTERVAL_S = 0.02

#: Grace period for a worker to exit after delivering (or being told to
#: stop delivering) its result.
_JOIN_TIMEOUT_S = 10.0

ProgressFn = Callable[[CellRecord, int, int], None]


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware where possible)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def default_jobs() -> int:
    """A conservative default worker count: half the cores, capped at 4."""
    return max(1, min(4, available_cpus() // 2 or 1))


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _run_cell(spec: TaskSpec, store_root: str, version: str, telemetry: str = "light") -> Dict[str, object]:
    """Execute one cell and persist its payload; returns the manifest facts.

    Runs inside the worker process (and inline when ``jobs=1``): the store
    write happens here so result I/O parallelizes with the simulation work
    of other cells.
    """
    start = time.perf_counter()
    store = ResultStore(store_root, version=version)
    rows, stats = execute(spec, telemetry=telemetry)
    payload = store.build_payload(spec, rows, stats)
    key = store.key_for(spec)
    store.put(key, payload)
    counters = dict(stats.snapshot()) if stats is not None else {}
    return {
        "status": STATUS_OK,
        "key": key,
        "rows_n": len(rows),
        "rows_sha256": payload["rows_sha256"],
        "telemetry": counters,
        "wall_s": time.perf_counter() - start,
        "worker": str(os.getpid()),
    }


def _worker_entry(spec: TaskSpec, store_root: str, version: str, telemetry: str, conn) -> None:
    """Worker process body: run the cell, report over the pipe, exit."""
    try:
        message = _run_cell(spec, store_root, version, telemetry)
    except BaseException:
        message = {
            "status": STATUS_ERROR,
            "error": traceback.format_exc(),
            "wall_s": 0.0,
            "worker": str(os.getpid()),
        }
    try:
        conn.send(message)
    finally:
        conn.close()


class CampaignPool:
    """Schedules :class:`TaskSpec` cells across up to *jobs* workers."""

    def __init__(
        self,
        store: ResultStore,
        jobs: Optional[int] = None,
        timeout_s: float = 900.0,
        retries: int = 1,
        label: str = "campaign",
        progress: Optional[ProgressFn] = None,
        telemetry: str = "light",
    ):
        if telemetry not in TELEMETRY_LEVELS:
            raise ValueError(f"telemetry must be one of {TELEMETRY_LEVELS}, got {telemetry!r}")
        self.store = store
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        # Oversubscribing a small machine makes the campaign *slower* than
        # sequential (the cells are pure CPU, there is nothing to overlap),
        # so the scheduler never runs more workers than it has cores for.
        self.effective_jobs = max(1, min(self.jobs, available_cpus()))
        self.timeout_s = timeout_s
        self.retries = max(0, int(retries))
        self.label = label
        self.progress = progress
        self.telemetry = telemetry

    # -- public API ----------------------------------------------------------

    def run(self, specs: Sequence[TaskSpec], resume: bool = False) -> RunManifest:
        """Run the campaign; returns the manifest (cells in *specs* order)."""
        started = time.perf_counter()
        records: Dict[str, CellRecord] = {}
        pending: deque = deque()
        total = len(specs)

        def complete(spec: TaskSpec, record: CellRecord) -> None:
            """Final (post-retry) outcome of one cell."""
            records[spec.task_id] = record
            self._report(record, len(records), total)

        for spec in specs:
            cached = self._cached_record(spec) if resume else None
            if cached is not None:
                complete(spec, cached)
            else:
                pending.append((spec, 1))

        if pending:
            if self.jobs == 1:
                self._run_inline(pending, complete)
            else:
                self._run_pooled(pending, complete)

        return RunManifest(
            label=self.label,
            version=self.store.version,
            jobs=self.jobs,
            effective_jobs=self.effective_jobs,
            telemetry=self.telemetry,
            resume=resume,
            timeout_s=self.timeout_s,
            retries=self.retries,
            wall_s=time.perf_counter() - started,
            cells=[records[spec.task_id] for spec in specs],
        )

    # -- shared helpers ------------------------------------------------------

    def _cached_record(self, spec: TaskSpec) -> Optional[CellRecord]:
        key = self.store.key_for(spec)
        payload = self.store.get(key)
        if payload is None:
            return None
        telemetry = payload.get("telemetry") or {}
        return CellRecord(
            task_id=spec.task_id,
            experiment=spec.experiment,
            shard=spec.shard,
            status=STATUS_CACHED,
            key=key,
            attempts=0,
            wall_s=0.0,
            worker="cache",
            rows_n=len(payload.get("rows", [])),
            rows_sha256=str(payload.get("rows_sha256", "")),
            telemetry={str(k): int(v) for k, v in dict(telemetry.get("counters", {})).items()},
        )

    def _record_from_message(self, spec: TaskSpec, attempt: int, message: Dict[str, object]) -> CellRecord:
        return CellRecord(
            task_id=spec.task_id,
            experiment=spec.experiment,
            shard=spec.shard,
            status=str(message["status"]),
            key=str(message.get("key", "")),
            attempts=attempt,
            wall_s=float(message.get("wall_s", 0.0)),
            worker=str(message.get("worker", "")),
            rows_n=int(message.get("rows_n", 0)),
            rows_sha256=str(message.get("rows_sha256", "")),
            error=str(message["error"]) if message.get("error") else None,
            telemetry={str(k): int(v) for k, v in dict(message.get("telemetry", {})).items()},  # type: ignore[arg-type]
        )

    def _report(self, record: CellRecord, done: int, total: int) -> None:
        if self.progress is not None:
            self.progress(record, done, total)

    # -- inline execution (jobs == 1) ----------------------------------------

    def _run_inline(self, pending: deque, complete: Callable[[TaskSpec, CellRecord], None]) -> None:
        while pending:
            spec, attempt = pending.popleft()
            start = time.perf_counter()
            try:
                message = _run_cell(spec, str(self.store.root), self.store.version, self.telemetry)
                message["worker"] = "inline"
            except BaseException:
                message = {
                    "status": STATUS_ERROR,
                    "error": traceback.format_exc(),
                    "wall_s": time.perf_counter() - start,
                    "worker": "inline",
                }
            record = self._record_from_message(spec, attempt, message)
            if record.failed and attempt <= self.retries:
                pending.appendleft((spec, attempt + 1))
                continue
            complete(spec, record)

    # -- pooled execution ----------------------------------------------------

    def _run_pooled(self, pending: deque, complete: Callable[[TaskSpec, CellRecord], None]) -> None:
        context = _pool_context()
        running: List[Dict[str, object]] = []
        try:
            while pending or running:
                while pending and len(running) < self.effective_jobs:
                    spec, attempt = pending.popleft()
                    running.append(self._spawn(context, spec, attempt))
                now = time.perf_counter()
                for slot in list(running):
                    outcome = self._poll_slot(slot, now)
                    if outcome is None:
                        continue
                    running.remove(slot)
                    spec, attempt = slot["spec"], slot["attempt"]
                    record = self._record_from_message(spec, attempt, outcome)  # type: ignore[arg-type]
                    if record.failed and attempt <= self.retries:  # type: ignore[operator]
                        pending.append((spec, attempt + 1))  # type: ignore[operator]
                        continue
                    complete(spec, record)  # type: ignore[arg-type]
                if running:
                    time.sleep(_POLL_INTERVAL_S)
        finally:
            for slot in running:  # interrupted: don't leak workers
                self._terminate(slot)

    def _spawn(self, context, spec: TaskSpec, attempt: int) -> Dict[str, object]:
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(
            target=_worker_entry,
            args=(spec, str(self.store.root), self.store.version, self.telemetry, sender),
            daemon=True,
            name=f"repro-runner-{spec.task_id}",
        )
        process.start()
        sender.close()  # keep only the worker's end open on their side
        now = time.perf_counter()
        return {
            "spec": spec,
            "attempt": attempt,
            "proc": process,
            "conn": receiver,
            "start": now,
            "deadline": now + self.timeout_s,
        }

    def _poll_slot(self, slot: Dict[str, object], now: float) -> Optional[Dict[str, object]]:
        """Check one running worker; returns its outcome message when done."""
        process, conn = slot["proc"], slot["conn"]
        if conn.poll():  # type: ignore[union-attr]
            try:
                message = conn.recv()  # type: ignore[union-attr]
            except EOFError:
                message = None
            self._terminate(slot, already_done=True)
            if isinstance(message, dict):
                if "wall_s" not in message or not message.get("wall_s"):
                    message["wall_s"] = now - float(slot["start"])  # type: ignore[arg-type]
                return message
            return {
                "status": STATUS_CRASHED,
                "error": f"worker pipe closed without a result (exit code {process.exitcode})",  # type: ignore[union-attr]
                "wall_s": now - float(slot["start"]),  # type: ignore[arg-type]
            }
        if not process.is_alive():  # type: ignore[union-attr]
            self._terminate(slot, already_done=True)
            return {
                "status": STATUS_CRASHED,
                "error": f"worker died without reporting (exit code {process.exitcode})",  # type: ignore[union-attr]
                "wall_s": now - float(slot["start"]),  # type: ignore[arg-type]
            }
        if now > float(slot["deadline"]):  # type: ignore[arg-type]
            self._terminate(slot)
            return {
                "status": STATUS_TIMEOUT,
                "error": f"cell exceeded --timeout {self.timeout_s:.0f}s and was terminated",
                "wall_s": now - float(slot["start"]),  # type: ignore[arg-type]
            }
        return None

    def _terminate(self, slot: Dict[str, object], already_done: bool = False) -> None:
        process, conn = slot["proc"], slot["conn"]
        if not already_done and process.is_alive():  # type: ignore[union-attr]
            process.terminate()  # type: ignore[union-attr]
        process.join(_JOIN_TIMEOUT_S)  # type: ignore[union-attr]
        if process.is_alive():  # type: ignore[union-attr]
            process.kill()  # type: ignore[union-attr]
            process.join(_JOIN_TIMEOUT_S)  # type: ignore[union-attr]
        try:
            conn.close()  # type: ignore[union-attr]
        except OSError:
            pass
