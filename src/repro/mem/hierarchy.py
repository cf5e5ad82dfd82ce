"""Three-level cache hierarchy + DRAM latency model.

``access(paddr)`` returns the cycle cost of one memory reference, probing
L1 → L2 → LLC and filling all levels on the way back (inclusive fill).  This
is the single timing primitive every other component (PTW, PMPT walker,
data path) uses, so permission-table walks and page-table walks naturally
share cache capacity with data — the effect the paper's evaluation hinges on.

The per-reference path is one Python frame: ``access`` computes the line
address once (the constructor checks that every level has the same line
size) and loops over its side's L1 → L2 → LLC tuple itself, with no call
per level and no probe-then-insert double lookup.  It reads the caches'
MRU-first sets directly; only this module and :mod:`repro.mem.cache` do.
How many levels missed indexes a table of cumulative latencies built at
construction.  The refs/dram_refs counters are deferred plain ints
published on stats reads.
"""

from __future__ import annotations

from typing import Optional

from ..common.errors import ConfigurationError
from ..common.params import MachineParams
from ..common.stats import StatGroup
from .cache import Cache


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
        caches = (self.l1d, self.l1i, self.l2, self.llc)
        if len({cache.params.line_bytes for cache in caches}) != 1:
            raise ConfigurationError(
                "cache levels must share one line size, got "
                + ", ".join(f"{c.params.name} {c.params.line_bytes} B" for c in caches)
            )
        self._line_shift = self.l1d._line_shift
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

    def _publish_stats(self) -> None:
        """Sync point: fold pending reference counts into the StatGroup."""
        if self._refs:
            self.stats.bump("refs", self._refs)
            self._refs = 0
        if self._dram_refs:
            self.stats.bump("dram_refs", self._dram_refs)
            self._dram_refs = 0

    def access(self, paddr: int, instruction: bool = False) -> int:
        """Perform one reference; return its cycle cost and update occupancy.

        Each level is decided with one scan of its set: a hit moves the line
        to the front (MRU) and ends the probe; a miss installs the line at
        the front, evicting the set's last (LRU) line when the set is full,
        and goes on to the next level.  Filling a missing level before
        probing the next one is equivalent to filling on the way back, as a
        probe/insert pair per level would: the levels hold disjoint state,
        so the order of installs never changes a hit, a victim or a counter.
        """
        self._refs += 1
        levels, latency = self._fetch_side if instruction else self._data_side
        shifted = paddr >> self._line_shift
        line = shifted << self._line_shift
        missed = 0
        for cache in levels:
            set_index = shifted & cache._set_mask
            cset = cache._sets[set_index]
            if not cset:
                cache._sets[set_index] = [line]
            elif cset[0] == line:  # MRU hit: the common case costs one compare
                cache._hits += 1
                return latency[missed]
            elif line in cset:
                cset.remove(line)
                cset.insert(0, line)
                cache._hits += 1
                return latency[missed]
            else:
                if len(cset) >= cache._ways:
                    cset.pop()  # the LRU line
                    cache._evictions += 1
                cset.insert(0, line)
            cache._misses += 1
            missed += 1
        self._dram_refs += 1
        return latency[missed]

    def access_run(self, paddr: int, stride: int, count: int, instruction: bool = False) -> int:
        """Charge *count* references at ``paddr, paddr+stride, ...``; returns cycles.

        State-identical to *count* :meth:`access` calls: the first reference
        to each cache line goes through :meth:`access` (fills, evictions and
        miss counters happen exactly as scalar), and the follow-on references
        that land on the same line — which :meth:`access` just made MRU in
        the L1 — are charged as the MRU hits they would be: one L1 hit
        latency, one hierarchy ref and one L1 hit count each, and no other
        change (an MRU hit mutates nothing but the L1's hit counter).
        Negative strides are the caller's job to reject (run encodings only
        produce ``stride >= 0``).
        """
        if count <= 0:
            return 0
        levels, latency = self._fetch_side if instruction else self._data_side
        l1 = levels[0]
        lat = latency[0]
        shift = self._line_shift
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
                l1._hits += k
                total += k * lat
            i += n
        return total

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
