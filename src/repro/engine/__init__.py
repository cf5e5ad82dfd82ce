"""repro.engine — the unified timed memory-reference pipeline.

* :class:`ReferenceEngine` / :class:`Account` — check → charge → account
  stages shared by the native, traced and virtualized access paths.
* :class:`AccessBlock` / :func:`set_block_mode` — run-length-encoded access
  spans for the fused bulk path (state-identical to scalar execution).
* :class:`EngineHook` and friends — pluggable observability over the
  reference stream (zero-cost no-op default).
"""

from .block import AccessBlock, block_mode_enabled, set_block_mode
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
    "block_mode_enabled",
    "register_default_hook_factory",
    "set_block_mode",
    "unregister_default_hook_factory",
]
