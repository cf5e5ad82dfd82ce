"""repro.engine — the unified timed memory-reference pipeline.

* :class:`ReferenceEngine` / :class:`Account` — check → charge → account
  stages shared by the native, traced and virtualized access paths.
* :class:`AccessBlock` — run-length-encoded access spans for the fused bulk
  path (state-identical to scalar execution).
* :class:`EngineHook` and friends — pluggable observability over the
  reference stream (zero-cost no-op default).
"""

from .block import AccessBlock
from .core import (
    Account,
    ReferenceEngine,
    register_default_hook_factory,
    unregister_default_hook_factory,
)
from .hooks import EngineHook, HistogramHook, RecordingHook, RefKind, ReferenceEvent

__all__ = [
    "AccessBlock",
    "Account",
    "EngineHook",
    "HistogramHook",
    "RecordingHook",
    "RefKind",
    "ReferenceEngine",
    "ReferenceEvent",
    "register_default_hook_factory",
    "unregister_default_hook_factory",
]
