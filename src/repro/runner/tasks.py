"""Task specs: picklable descriptions of one campaign cell.

A :class:`TaskSpec` is the unit the pool ships to a worker process: the
experiment id, the shard name, the module/function to call and its JSON-safe
keyword arguments.  :func:`campaign_tasks` expands the
:data:`repro.experiments.SHARDS` matrix into the default campaign;
:func:`execute` runs one spec with a per-cell engine telemetry hook
installed, returning the result rows plus the cell's
:class:`~repro.common.stats.StatGroup`.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..common.stats import StatGroup
from ..engine import (
    EngineHook,
    HistogramHook,
    block_mode_enabled,
    register_default_hook_factory,
    set_block_mode,
    unregister_default_hook_factory,
)

#: Per-cell engine telemetry levels, cheapest first.
#:
#: * ``off``   — no hook at all; the cell stores no telemetry.
#: * ``light`` — the default: harvest the
#:   :class:`~repro.common.stats.StatGroup` counters the simulator already
#:   maintains (hierarchy, per-cache, checker, PMPTW-cache) from every
#:   engine the cell builds.  Zero hot-path cost — nothing is emitted per
#:   reference or per access, and the machine's inlined-hit fast path
#:   stays enabled; the only hook callback used is the checker-attach
#:   event.
#: * ``full``  — a :class:`~repro.engine.HistogramHook` on every engine:
#:   per-reference latency histograms, at a measured ~1.7x slowdown on
#:   TLB-hit-dominated cells.  Opt in when you want the distributions.
TELEMETRY_LEVELS = ("off", "light", "full")


@dataclass(frozen=True)
class TaskSpec:
    """One schedulable unit: a campaign cell, or one sub-shard of a cell.

    Everything here must pickle and JSON-serialize: ``kwargs`` participates
    in the results-store key, and the whole spec crosses the process
    boundary to workers.

    Naming: ``shard`` is the cell's name within its experiment (the
    historical axis — ``fig11/gap-boom``); ``subshard`` is the *intra-cell*
    axis introduced by :mod:`repro.runner.shard` — one independently
    simulable slice of a single cell's workload stream (one GAP kernel, one
    redis scheme's server, ...).  An empty ``subshard`` means the spec is a
    whole cell; the field is deliberately separate so the two granularities
    never overload one name.
    """

    task_id: str  # "fig11/gap-boom" or "fig11/gap-boom#bfs"
    experiment: str  # registry id, e.g. "fig11"
    shard: str  # shard (cell) name within the experiment
    module: str  # dotted module path holding the row function
    func: str  # attribute on the module returning list[dict] rows
    kwargs: Mapping[str, object] = field(default_factory=dict)
    subshard: str = ""  # sub-shard name within the cell ("" = whole cell)

    def identity(self) -> Dict[str, object]:
        """The JSON-safe fields that define *what* this spec computes
        (deliberately excluding the task id, which is display-only).

        ``subshard`` enters the identity only when set, so whole-cell store
        keys are unchanged by its existence while every sub-shard gets its
        own content address (and therefore its own ``--resume`` cache line).
        """
        identity: Dict[str, object] = {
            "experiment": self.experiment,
            "shard": self.shard,
            "module": self.module,
            "func": self.func,
            "kwargs": dict(self.kwargs),
        }
        if self.subshard:
            identity["subshard"] = self.subshard
        return identity


def campaign_tasks(filters: Sequence[str] = ()) -> List[TaskSpec]:
    """The default campaign: every shard of every registered experiment.

    *filters* are substrings matched against task ids (``fig11/gap-boom``);
    a task is kept when any filter matches.  Empty filters keep everything.
    """
    from ..experiments import ALL_EXPERIMENTS, SHARDS

    tasks: List[TaskSpec] = []
    for experiment, module in ALL_EXPERIMENTS.items():
        for shard in SHARDS[experiment]:
            tasks.append(
                TaskSpec(
                    task_id=f"{experiment}/{shard.name}",
                    experiment=experiment,
                    shard=shard.name,
                    module=module.__name__,
                    func=shard.func,
                    kwargs=dict(shard.kwargs),
                )
            )
    if filters:
        tasks = [t for t in tasks if any(f in t.task_id for f in filters)]
    return tasks


def run_experiment(experiment: str) -> Dict[str, List[Dict[str, object]]]:
    """Run every cell of *experiment* in-process and whole (no pool, no
    store, no sub-shards); returns its rows by shard name, in declaration
    order — what the experiment's ``render`` reads."""
    return {
        spec.shard: execute(spec, telemetry="off")[0]
        for spec in campaign_tasks()
        if spec.experiment == experiment
    }


def repro_line(task_id: str, baseline: Optional[str] = None) -> str:
    """The copy-paste command that re-runs one cell (or, for a bare
    experiment id, its cells) alone, inline and unsharded."""
    line = f"PYTHONPATH=src python -m repro run --jobs 1 --shard-cells off --filter {task_id}"
    return f"{line} --baseline {baseline}" if baseline else line


def resolve(spec: TaskSpec) -> Callable[..., List[Dict[str, object]]]:
    """Import the spec's module and return its row-producing callable."""
    module = importlib.import_module(spec.module)
    func = getattr(module, spec.func, None)
    if not callable(func):
        raise LookupError(f"{spec.module} has no callable {spec.func!r}")
    return func


class _StatsHarvester(EngineHook):
    """Collects references to the stat groups the simulator already keeps.

    These counters (hierarchy refs, cache hits/misses, checker walks) are
    maintained by the baseline timed path whether or not anyone looks at
    them — the repo keeps them as plain ints for exactly that reason — so
    light telemetry is just: remember the group objects, read them after
    the cell runs.  The only callback overridden is ``on_checker`` (fired
    at attach time, never from the timed path); every dispatch partition on
    the hot path stays empty, keeping the inlined-hit fast path enabled.

    Holding the groups (small Counter wrappers) keeps them readable after
    the systems that own them are garbage collected mid-cell.
    """

    def __init__(self) -> None:
        self.engines = 0
        self.groups: List[Tuple[str, StatGroup]] = []

    def saw_engine(self, engine) -> None:
        self.engines += 1
        hierarchy = engine.hierarchy
        # Identity-dedupe: a multi-hart machine shares one LLC object
        # across every hart's hierarchy, and counting its group once per
        # engine would double-bill the shared misses.
        for prefix, group in (
            ("hierarchy", hierarchy.stats),
            ("l1d", hierarchy.l1d.stats),
            ("l1i", hierarchy.l1i.stats),
            ("l2", hierarchy.l2.stats),
            ("llc", hierarchy.llc.stats),
        ):
            if not any(g is group for _, g in self.groups):
                self.groups.append((prefix, group))

    def on_checker(self, checker) -> None:
        # Engines are built before their checker exists (it needs the
        # machine's hierarchy), so the checker's groups arrive via this
        # attach event rather than at engine construction.
        stats = getattr(checker, "stats", None)
        if isinstance(stats, StatGroup) and not any(g is stats for _, g in self.groups):
            self.groups.append(("checker", stats))
        pmptw = getattr(checker, "pmptw_cache", None)
        pmptw_stats = getattr(pmptw, "stats", None)
        if isinstance(pmptw_stats, StatGroup) and not any(g is pmptw_stats for _, g in self.groups):
            self.groups.append(("pmptw_cache", pmptw_stats))

    def to_stats(self, name: str) -> StatGroup:
        stats = StatGroup(name)
        stats.bump("engines", self.engines)
        for prefix, group in self.groups:
            for key, value in group.snapshot().items():
                if value:
                    stats.bump(f"{prefix}.{key}", value)
        return stats


def execute(
    spec: TaskSpec, telemetry: str = "light", block: bool = True
) -> Tuple[List[Dict[str, object]], Optional[StatGroup]]:
    """Run one cell, optionally with engine telemetry attached.

    *telemetry* is one of :data:`TELEMETRY_LEVELS`.  Rows are identical at
    every level (hooks observe after state updates and never alter timing);
    only the wall-clock cost and the returned stat group differ.  Returns
    the raw rows and the telemetry stat group (None when ``off``).

    *block* selects the machines' execution mode for the duration of the
    cell: True (default) lets them take the fused bulk path, False pins the
    scalar pipeline (the runner's ``--no-block`` escape hatch).  Rows are
    byte-identical either way — the differential suite in
    ``tests/test_block_exec.py`` holds that line.  The previous process
    mode is restored on exit so inline execution never leaks state.
    """
    if telemetry not in TELEMETRY_LEVELS:
        raise ValueError(f"telemetry must be one of {TELEMETRY_LEVELS}, got {telemetry!r}")
    func = resolve(spec)
    prev_block = block_mode_enabled()
    set_block_mode(bool(block))
    try:
        if telemetry == "off":
            rows = func(**dict(spec.kwargs))
            stats: Optional[StatGroup] = None
        elif telemetry == "full":
            hook = HistogramHook(spec.task_id)

            def factory(engine) -> EngineHook:
                return hook

            register_default_hook_factory(factory)
            try:
                rows = func(**dict(spec.kwargs))
            finally:
                unregister_default_hook_factory(factory)
            stats = hook.stats
        else:  # light: harvest what the simulator already counts
            harvester = _StatsHarvester()

            def factory(engine) -> EngineHook:
                harvester.saw_engine(engine)
                return harvester

            register_default_hook_factory(factory)
            try:
                rows = func(**dict(spec.kwargs))
            finally:
                unregister_default_hook_factory(factory)
            stats = harvester.to_stats(spec.task_id)
    finally:
        set_block_mode(prev_block)
    if not isinstance(rows, list):
        raise TypeError(f"{spec.task_id}: {spec.func} returned {type(rows).__name__}, expected list of rows")
    return rows, stats


# -- pool self-test helpers ---------------------------------------------------
# Referenced by TaskSpecs in the test suite to exercise the pool's failure
# paths (crash isolation, timeout + retry) without perturbing real cells.


def _selftest_rows(value: int = 1) -> List[Dict[str, object]]:
    return [{"cell": "selftest", "value": value}]


def _selftest_crash(message: str = "boom") -> List[Dict[str, object]]:
    raise RuntimeError(message)


def _selftest_sleep(seconds: float = 60.0) -> List[Dict[str, object]]:
    time.sleep(seconds)
    return [{"slept": seconds}]


def _selftest_partition(value: int = 1, parts: int = 3, crash_at: Optional[int] = None):
    """A fake intra-cell partition: *parts* sub-shards, optionally one that
    crashes — lets the sub-shard scheduler's failure paths run without
    perturbing real cells."""
    units = []
    for i in range(parts):
        if crash_at is not None and i == crash_at:
            units.append((f"part{i}", "_selftest_crash", {"message": f"sub boom {i}"}))
        else:
            units.append((f"part{i}", "_selftest_rows", {"value": value + i}))
    return units


def _selftest_merge(part_rows, **_kwargs) -> List[Dict[str, object]]:
    # First positional deliberately not named after any cell kwarg (the
    # selftest cell's kwargs include "parts", which merge receives too).
    return [row for part in part_rows for row in part]
