"""Physical frame allocator with controllable fragmentation.

The OS-kernel model and the secure monitor both carve frames from here.  The
allocator hands out 4 KiB frames either contiguously (bump-pointer) or in a
deliberately scattered order, which is how the fragmentation experiments
(paper §8.8 / Figure 15) build "fragmented physical pages" layouts.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set

from ..common.errors import MemoryError_
from ..common.stats import Histogram
from ..common.types import PAGE_SIZE, MemRegion


class _LiveIndex:
    """Fenwick tree over free-list slots: 1 = live frame, 0 = tombstone.

    Lets the allocator answer "which slot holds the k-th live frame?" in
    O(log n) without compacting the list first — the order-statistics query
    behind :meth:`FrameAllocator.alloc_scattered`.  It is a pure function of
    the free list, so the allocator builds it only when a scattered draw
    first finds tombstones and drops it when it compacts.  Capacity grows by
    doubling when the list does; rebuilds are O(n) and amortized away.
    """

    __slots__ = ("size", "tree")

    def __init__(self, flags: List[int]):
        self.rebuild(flags)

    def rebuild(self, flags: List[int], capacity: int = 0) -> None:
        """Rebuild over *flags* (index = slot, value = 1 if live)."""
        size = max(len(flags), capacity, 1)
        tree = [0] * (size + 1)
        tree[1 : len(flags) + 1] = flags
        for i in range(1, size + 1):
            j = i + (i & -i)
            if j <= size:
                tree[j] += tree[i]
        self.size = size
        self.tree = tree

    def add(self, index: int, delta: int) -> None:
        tree = self.tree
        i = index + 1
        size = self.size
        while i <= size:
            tree[i] += delta
            i += i & -i

    def select(self, k: int) -> int:
        """Slot of the k-th (0-based) live frame in list order."""
        tree = self.tree
        pos = 0
        remaining = k + 1
        bit = 1 << (self.size.bit_length() - 1)
        while bit:
            nxt = pos + bit
            if nxt <= self.size and tree[nxt] < remaining:
                pos = nxt
                remaining -= tree[nxt]
            bit >>= 1
        return pos  # 0-based slot (pos is 1-based minus the +1 offset)


class FrameAllocator:
    """Allocates 4 KiB physical frames from a region.

    Parameters
    ----------
    region:
        The physical range to allocate from.
    scatter:
        If True, frames are handed out in a pseudo-random order (seeded),
        modelling a long-running system with fragmented free lists.
    seed:
        Seed for the scatter order.
    """

    def __init__(self, region: MemRegion, scatter: bool = False, seed: int = 0):
        if region.base % PAGE_SIZE or region.size % PAGE_SIZE:
            raise MemoryError_(f"allocator region {region} not page aligned")
        self.region = region
        self._free: List[Optional[int]] = list(range(region.base, region.end, PAGE_SIZE))
        if scatter:
            random.Random(seed).shuffle(self._free)
        self._free.reverse()  # pop() then yields ascending (or shuffled) order
        # The free list is the source of truth for *order* (pop / scattered
        # draws); the position index makes membership and mid-list removal
        # O(1).  Removals tombstone their slot with None instead of rebuilding
        # the list; tombstones are skipped on pop, and the Fenwick live index
        # answers the order-statistics query alloc_scattered needs ("slot of
        # the k-th live frame") without compacting first.  Both preserve the
        # exact live order — and therefore the exact allocation sequence — of
        # the compact-before-every-draw implementation this replaces.  The
        # live index exists only from the first scattered draw over
        # tombstones until the next compaction (None otherwise): an
        # allocator that never makes such a draw never builds or updates it.
        self._pos: Dict[int, int] = {frame: i for i, frame in enumerate(self._free)}
        self._tombstones = 0
        self._live: Optional[_LiveIndex] = None
        # No free frame lies below the scan floor, so contiguous scans can
        # start there instead of at the region base.  Only free() lowers it.
        self._scan_floor = region.base
        self._allocated: Set[int] = set()
        self._rng = random.Random(seed ^ 0x5EED)

    @property
    def free_frames(self) -> int:
        return len(self._pos)

    @property
    def allocated_frames(self) -> int:
        return len(self._allocated)

    def _compact(self) -> None:
        """Squeeze tombstones out of the free list (live order is preserved)."""
        self._free = [frame for frame in self._free if frame is not None]
        self._pos = {frame: i for i, frame in enumerate(self._free)}
        self._tombstones = 0
        self._live = None

    def alloc(self) -> int:
        """Allocate one frame; returns its base PA."""
        pop = self._free.pop
        free = self._free
        while free:
            frame = pop()
            if frame is not None:
                if self._live is not None:
                    self._live.add(len(free), -1)
                del self._pos[frame]
                self._allocated.add(frame)
                return frame
            self._tombstones -= 1
        raise MemoryError_(f"frame allocator exhausted ({self.region})")

    def alloc_scattered(self) -> int:
        """Allocate one frame from a pseudo-random free-list position.

        Models a long-running buddy allocator whose free lists are shuffled
        by churn — used for page-table pages in unmodified-kernel baselines,
        whose PT pages end up dispersed through DRAM.

        Equivalent to compacting and then drawing ``randrange(len(free))``,
        swapping the last free frame into the drawn slot: the draw is over
        the live count either way, the k-th live frame is found through the
        Fenwick index (built here on the first draw over tombstones) instead
        of by compacting, and the frame moved into the vacated slot is the
        last *live* frame — so the live order (and every future draw and
        pop) matches the compacting implementation exactly.
        """
        live_count = len(self._pos)
        if not live_count:
            raise MemoryError_(f"frame allocator exhausted ({self.region})")
        free = self._free
        index = self._rng.randrange(live_count)
        if self._tombstones:
            if self._live is None:
                self._live = _LiveIndex([1 if f is not None else 0 for f in free])
            slot = self._live.select(index)
        else:
            slot = index
        frame = free[slot]
        # Shed trailing tombstones so the swap source is the last live frame
        # (their live flags are already clear; popping only shortens the list).
        while free[-1] is None:
            free.pop()
            self._tombstones -= 1
        last = len(free) - 1
        moved = free[last]
        if slot != last:
            free[slot] = moved
            self._pos[moved] = slot
        free.pop()
        if self._live is not None:
            self._live.add(last, -1)
        del self._pos[frame]
        self._allocated.add(frame)
        return frame

    def alloc_contiguous(self, num_frames: int, align_frames: int = 1) -> int:
        """Allocate *num_frames* physically contiguous frames; return base PA.

        First-fit over aligned bases (optionally aligned to *align_frames*
        frames, for NAPOT-shaped regions), so it works even on a scattered
        allocator — mirroring an OS falling back to compaction/CMA for
        contiguous requests.  Returns the lowest suitably aligned base whose
        whole run is free, exactly like a full scan from the region base.
        """
        if num_frames <= 0:
            raise MemoryError_("alloc_contiguous needs a positive frame count")
        if align_frames <= 0:
            raise MemoryError_("align_frames must be positive")
        step = align_frames * PAGE_SIZE
        pos = self._pos
        # Advance the floor over frames that are (still) allocated; every
        # candidate base below the first free frame would fail on its first
        # frame anyway.
        floor = self._scan_floor
        region_end = self.region.end
        while floor < region_end and floor not in pos:
            floor += PAGE_SIZE
        self._scan_floor = floor
        base = (floor + step - 1) // step * step
        limit = region_end - num_frames * PAGE_SIZE
        while base <= limit:
            frame = base
            run_end = base + num_frames * PAGE_SIZE
            while frame < run_end and frame in pos:
                frame += PAGE_SIZE
            if frame == run_end:
                free = self._free
                live = self._live
                for taken in range(base, run_end, PAGE_SIZE):
                    slot = pos.pop(taken)
                    free[slot] = None
                    if live is not None:
                        live.add(slot, -1)
                self._tombstones += num_frames
                self._allocated.update(range(base, run_end, PAGE_SIZE))
                if self._tombstones * 2 > len(free):
                    self._compact()
                return base
            # The run broke at `frame`: no base at or below it can work.
            base = (frame + PAGE_SIZE + step - 1) // step * step
        raise MemoryError_(f"no contiguous run of {num_frames} frames in {self.region}")

    def free(self, frame: int) -> None:
        """Return one frame to the pool."""
        if frame not in self._allocated:
            raise MemoryError_(f"double free / foreign frame {frame:#x}")
        self._allocated.discard(frame)
        slot = len(self._free)
        self._pos[frame] = slot
        self._free.append(frame)
        live = self._live
        if live is not None:
            if slot >= live.size:
                live.rebuild([1 if f is not None else 0 for f in self._free], capacity=2 * (slot + 1))
            else:
                live.add(slot, 1)
        if frame < self._scan_floor:
            self._scan_floor = frame

    def fragmentation(self) -> Dict[str, object]:
        """Free-span metrics of the pool's current state (lazy, read-only).

        Walks the free frames in address order into maximal contiguous
        spans and summarizes them: a span-length histogram, the
        largest-contiguous gauge, and a fragmentation percentage (the share
        of free memory *outside* the largest span — 0.0 when all free
        memory is one run, approaching 100 as it shatters).  Pure
        observation: neither the free-list order, the tombstones, nor the
        scatter RNG is touched, so interleaving calls with allocations can
        never perturb the allocation sequence.  Cost is O(free log free) —
        meant for sync points, not the per-alloc hot path.
        """
        frames = sorted(self._pos)
        spans = Histogram("free_span_frames")
        run = 0
        prev = None
        for frame in frames:
            if prev is not None and frame == prev + PAGE_SIZE:
                run += 1
            else:
                if run:
                    spans.observe(run)
                run = 1
            prev = frame
        if run:
            spans.observe(run)
        free = len(frames)
        largest = spans.max or 0
        return {
            "free_frames": free,
            "allocated_frames": len(self._allocated),
            "spans": spans.count,
            "largest_free_frames": largest,
            "frag_pct": round(100.0 * (1.0 - largest / free), 2) if free else 0.0,
            "span_hist": spans.snapshot(),
        }

    def owns(self, frame: int) -> Optional[bool]:
        """True if allocated, False if free, None if outside the region."""
        if not self.region.contains(frame, PAGE_SIZE):
            return None
        return frame in self._allocated
