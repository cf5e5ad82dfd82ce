"""Generic set-associative cache timing model.

The cache tracks which line addresses are resident (tags only — data lives in
:class:`repro.mem.physical.PhysicalMemory`).  It holds state and counters
only: :meth:`MemoryHierarchy.access
<repro.mem.hierarchy.MemoryHierarchy.access>` is the one place that looks a
line up, fills it and picks a victim, over a whole L1 → L2 → LLC path in one
frame.  Replacement is true LRU.

Hot-path engineering (see DESIGN.md "Hot path engineering"): each set is a
flat Python list of line addresses ordered MRU-first, allocated on the
set's first fill — for the small associativities real caches use (2–16
ways), a C-level ``in`` membership scan plus a move-to-front beats an
``OrderedDict`` probe, and a fused lookup decides hit or miss with one
such scan per level.  The set layout (``_sets``, ``_set_mask``, ``_ways``,
``_line_shift``) and the hot counters are read only by
:mod:`repro.mem.hierarchy`.  No lookup raises and catches an exception: a
miss into a non-empty set is the common case on a TLB miss.
Hit/miss/eviction counts accumulate in plain instance ints and are
published into the :class:`~repro.common.stats.StatGroup` only when
somebody reads it.
"""

from __future__ import annotations

from typing import List, Sequence

from ..common.errors import ConfigurationError
from ..common.params import CacheParams
from ..common.stats import StatGroup
from ..common.types import is_pow2


class Cache:
    """One level of a set-associative cache.

    Parameters
    ----------
    params:
        Geometry (size, ways, line size) and hit latency.
    """

    def __init__(self, params: CacheParams):
        if params.size_bytes % (params.ways * params.line_bytes) != 0:
            raise ConfigurationError(
                f"{params.name}: size {params.size_bytes} not divisible by "
                f"ways*line ({params.ways}*{params.line_bytes})"
            )
        if not is_pow2(params.line_bytes):
            raise ConfigurationError(f"{params.name}: line size must be a power of two")
        self.params = params
        self.num_sets = params.sets
        if not is_pow2(self.num_sets):
            raise ConfigurationError(f"{params.name}: set count {self.num_sets} not a power of two")
        self._line_shift = params.line_bytes.bit_length() - 1
        self._set_mask = self.num_sets - 1
        self._ways = params.ways
        # One flat list per set: line addresses, most recently used FIRST.
        # (Index 0 is the MRU line, the last element is the LRU victim.)
        # Sets are allocated lazily: an unfilled set is the shared empty
        # tuple until its first fill stores a one-line list.  A 4 MiB LLC
        # alone has 8,192 sets, and one list per set would hand the garbage
        # collector thousands of objects to track for every System built.
        self._sets: List[Sequence[int]] = [()] * self.num_sets
        # Deferred statistics: the timed path adds to these plain ints; they
        # are published into ``stats`` by the sync callback on any read.
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self.stats = StatGroup(params.name, sync=self._publish_stats)

    def _publish_stats(self) -> None:
        """Sync point: fold the pending hot-path deltas into the StatGroup."""
        if self._hits:
            self.stats.bump("hit", self._hits)
            self._hits = 0
        if self._misses:
            self.stats.bump("miss", self._misses)
            self._misses = 0
        if self._evictions:
            self.stats.bump("eviction", self._evictions)
            self._evictions = 0

    def flush(self) -> None:
        """Empty the cache."""
        self._sets = [()] * self.num_sets
