"""repro.engine — the unified timed memory-reference pipeline.

* :class:`ReferenceEngine` / :class:`Account` — check → charge → account
  stages shared by the native and virtualized access paths.
* :class:`EngineHook` and friends — pluggable observability over the
  reference stream (zero-cost no-op default).
"""

from .core import (
    Account,
    ReferenceEngine,
    register_default_hook_factory,
    unregister_default_hook_factory,
)
from .hooks import EngineHook, HistogramHook, RecordingHook, RefKind, ReferenceEvent

__all__ = [
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
