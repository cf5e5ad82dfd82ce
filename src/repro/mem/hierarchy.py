"""Three-level cache hierarchy + DRAM latency model.

``access(paddr)`` returns the cycle cost of one memory reference, probing
L1 → L2 → LLC and filling all levels on the way back (inclusive fill).  This
is the single timing primitive every other component (PTW, PMPT walker,
data path) uses, so permission-table walks and page-table walks naturally
share cache capacity with data — the effect the paper's evaluation hinges on.

The per-reference path is flattened: an access is one call to
:func:`~repro.mem.cache.lookup_fill_path` over the L1 → L2 → LLC path,
which probes and fills every level it reaches with no per-level call and
no probe-then-insert double lookup; its miss count indexes a table of
cumulative latencies built at construction.  The refs/dram_refs counters
are deferred plain ints published on stats reads.  A level that hits
installs the line in every level above it exactly as the unflattened
probe/insert pair did, so residency, evictions and counters stay
byte-identical.
"""

from __future__ import annotations

from typing import Optional

from ..common.params import MachineParams
from ..common.stats import StatGroup
from .cache import Cache, lookup_fill_path


class MemoryHierarchy:
    """L1D/L2/LLC caches in front of a fixed-latency DRAM.

    The model is tag-only and latency-additive: a reference that misses to
    level *k* pays the sum of hit latencies of every level probed plus, on a
    full miss, the DRAM latency.  Instruction-side traffic may be routed
    through ``access(..., instruction=True)`` which probes the L1I instead of
    the L1D.
    """

    def __init__(self, params: MachineParams, llc: Optional[Cache] = None):
        self.params = params
        self.l1d = Cache(params.l1d)
        self.l1i = Cache(params.l1i)
        self.l2 = Cache(params.l2)
        # The LLC may be supplied by the caller so several hierarchies (one
        # per hart) share a single last-level cache while keeping private
        # L1/L2s.  Passing None (the default, and the single-hart case)
        # creates a private LLC exactly as before, so existing construction
        # stays byte-identical.
        self.llc = Cache(params.llc) if llc is None else llc
        # Deferred hot-path counters, published into ``stats`` on read.
        self._refs = 0
        self._dram_refs = 0
        self.stats = StatGroup("hierarchy", sync=self._publish_stats)
        # Hot-path bindings, resolved once (access() runs per reference):
        # per side (data, instruction), the cache path and the cumulative
        # latency after 0, 1, 2 or 3 missed levels (the last adds DRAM).
        sides = []
        for l1 in (self.l1d, self.l1i):
            latency = [l1.params.hit_latency]
            for later in (params.l2.hit_latency, params.llc.hit_latency, params.dram_latency):
                latency.append(latency[-1] + later)
            sides.append(((l1, self.l2, self.llc), tuple(latency)))
        self._data_side, self._fetch_side = sides
        self._l1d_lat = params.l1d.hit_latency
        self._l1i_lat = params.l1i.hit_latency
        self._l1d_shift = self.l1d._line_shift
        self._l1i_shift = self.l1i._line_shift

    def _publish_stats(self) -> None:
        """Sync point: fold pending reference counts into the StatGroup."""
        if self._refs:
            self.stats.bump("refs", self._refs)
            self._refs = 0
        if self._dram_refs:
            self.stats.bump("dram_refs", self._dram_refs)
            self._dram_refs = 0

    def access(self, paddr: int, instruction: bool = False) -> int:
        """Perform one reference; return its cycle cost and update occupancy."""
        self._refs += 1
        path, latency = self._fetch_side if instruction else self._data_side
        missed = lookup_fill_path(path, paddr)
        if missed == 3:
            self._dram_refs += 1
        return latency[missed]

    def access_run(self, paddr: int, stride: int, count: int, instruction: bool = False) -> int:
        """Charge *count* references at ``paddr, paddr+stride, ...``; returns cycles.

        State-identical to *count* :meth:`access` calls: the first reference
        to each cache line goes through :meth:`access` (fills, evictions and
        miss counters happen exactly as scalar), and the follow-on references
        that land on the same line — which :meth:`access` just made MRU in
        the L1 — are charged as the MRU hits they would be: one L1 hit
        latency, one hierarchy ref, one L1 hit count each, zero mutation
        (see :meth:`~repro.mem.cache.Cache.mru_hits`).  Negative strides are
        the caller's job to reject (run encodings only produce ``stride >= 0``).
        """
        if count <= 0:
            return 0
        if instruction:
            cache = self.l1i
            lat = self._l1i_lat
            shift = self._l1i_shift
        else:
            cache = self.l1d
            lat = self._l1d_lat
            shift = self._l1d_shift
        access = self.access
        total = 0
        i = 0
        while i < count:
            pa = paddr + i * stride
            total += access(pa, instruction)
            if stride:
                # References still on pa's line: pa, pa+stride, ... < line end.
                line_end = ((pa >> shift) + 1) << shift
                n = (line_end - pa + stride - 1) // stride
                if n > count - i:
                    n = count - i
            else:
                n = count - i
            if n > 1:
                k = n - 1
                self._refs += k
                cache.mru_hits(k)
                total += k * lat
            i += n
        return total

    def peek_latency(self, paddr: int, instruction: bool = False) -> int:
        """Latency ``access`` would charge, without changing any state.

        "Any state" includes statistics: the peeks below leave every
        StatGroup untouched (no hit/miss counts, no refs), so telemetry
        observes only the references the timed path actually issued.
        """
        path, latency = self._fetch_side if instruction else self._data_side
        missed = 0
        for cache in path:
            if cache.probe(paddr, update_lru=False):
                break
            missed += 1
        return latency[missed]

    def warm(self, paddr: int) -> None:
        """Install the line holding *paddr* at every level (no timing)."""
        for cache in (self.llc, self.l2, self.l1d):
            cache.insert(paddr)

    def flush(self, levels: Optional[str] = None) -> None:
        """Flush caches: all by default, or a subset like ``"l1"`` / ``"l1l2"``."""
        if levels is None:
            for cache in (self.l1d, self.l1i, self.l2, self.llc):
                cache.flush()
            return
        if "l1" in levels:
            self.l1d.flush()
            self.l1i.flush()
        if "l2" in levels:
            self.l2.flush()
        if "llc" in levels:
            self.llc.flush()
