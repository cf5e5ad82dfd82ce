"""repro.runner — parallel experiment orchestration.

The campaign layer the paper's artifact gets from FireSim batching: the
:data:`repro.experiments.SHARDS` matrix fans out across a process pool
(:class:`CampaignPool`) with per-cell timeouts, bounded retries and crash
isolation; every cell's rows land in a content-addressed JSON
:class:`ResultStore`; a :class:`RunManifest` records the campaign ledger;
and :func:`compare_manifests` gates a fresh run against a prior baseline so
drift in the paper's reference counts (4/12/6 native, 16/48/24/18
virtualized) is caught mechanically.

Entry point: ``python -m repro run`` (see :mod:`repro.runner.cli`).
"""

from .manifest import (
    STATUS_CACHED,
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    CellRecord,
    RunManifest,
)
from .pool import CampaignPool, available_cpus, default_jobs
from .regress import Drift, compare_manifests, gate
from .store import DEFAULT_STORE_DIR, ResultStore, code_version
from .tasks import TELEMETRY_LEVELS, TaskSpec, campaign_tasks, execute

__all__ = [
    "CampaignPool",
    "CellRecord",
    "DEFAULT_STORE_DIR",
    "Drift",
    "ResultStore",
    "RunManifest",
    "STATUS_CACHED",
    "STATUS_CRASHED",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "TELEMETRY_LEVELS",
    "TaskSpec",
    "available_cpus",
    "campaign_tasks",
    "code_version",
    "compare_manifests",
    "default_jobs",
    "execute",
    "gate",
]
