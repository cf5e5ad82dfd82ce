"""Physical frame allocator with controllable fragmentation.

The OS-kernel model and the secure monitor both carve frames from here.  The
allocator hands out 4 KiB frames either contiguously (bump-pointer) or in a
deliberately scattered order, which is how the fragmentation experiments
(paper §8.8 / Figure 15) build "fragmented physical pages" layouts.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Set

from ..common.errors import MemoryError_
from ..common.stats import Histogram
from ..common.types import PAGE_SIZE, MemRegion


class _LiveIndex:
    """Fenwick tree over free-list slots: 0 = tombstone, 1 = any other slot.

    Lets the allocator answer "which slot holds the k-th live frame?" in
    O(log n) without compacting the list first — the order-statistics query
    behind :meth:`FrameAllocator.alloc_scattered`.  Slots past the end of
    the list count as live: every live frame of the list comes before them,
    so they never move a select.  The tree therefore starts as the closed
    form of an all-live tree (node ``i`` covers ``i & -i`` slots) and keeps
    only what tombstones changed, as per-node deltas: building it costs
    O(tombstones · log n) and reads no slot.  *size* is a power of two above
    every slot the list can reach, so the tree never grows.
    """

    __slots__ = ("size", "delta")

    def __init__(self, size: int, tombstones: Iterable[int]):
        self.size = size
        self.delta: Dict[int, int] = {}
        for slot in tombstones:
            self.add(slot, -1)

    def add(self, slot: int, change: int) -> None:
        delta = self.delta
        size = self.size
        i = slot + 1
        while i <= size:
            delta[i] = delta.get(i, 0) + change
            i += i & -i

    def select(self, k: int) -> int:
        """Slot of the k-th (0-based) live frame in list order."""
        delta = self.delta
        pos = 0
        remaining = k + 1
        bit = self.size
        while bit:
            # pos has no bit at or below `bit`, so node pos + bit covers `bit` slots.
            count = bit + delta.get(pos + bit, 0)
            if count < remaining:
                pos += bit
                remaining -= count
            bit >>= 1
        return pos


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
        self._frames = region.size // PAGE_SIZE
        # The free list is a sequence of slots, popped from the end; it is
        # the source of truth for *order* (pop / scattered draws).  Removals
        # mid-list tombstone their slot with None instead of rebuilding the
        # list; tombstones are skipped on pop, and the Fenwick live index
        # answers the order-statistics query alloc_scattered needs ("slot of
        # the k-th live frame") without compacting first.  Both preserve the
        # exact live order, and therefore the exact allocation sequence, of
        # the compact-before-every-draw implementation this replaces.
        #
        # The list is stored in two parts, so that an unscattered allocator
        # costs nothing until it is used:
        # * the head, slots [0, _split): slot s holds its *home* frame
        #   _top - s * PAGE_SIZE (so pops yield ascending frames) unless
        #   _over records what overwrote it (a frame or a tombstone);
        # * the tail, slots from _split on, a real list: freed frames are
        #   appended to it, a scattered allocator keeps its whole seeded
        #   shuffle in it (its head is empty), and a compaction rebuilds
        #   into it.
        # _pos maps each free frame that is not in its home slot to its slot;
        # every other free frame is in its home slot.  A frame is free iff it
        # lies in the region and is not in _allocated.
        self._top = region.end - PAGE_SIZE
        self._over: Dict[int, Optional[int]] = {}
        if scatter:
            tail: List[Optional[int]] = list(range(region.base, region.end, PAGE_SIZE))
            random.Random(seed).shuffle(tail)
            tail.reverse()  # pop() then yields the shuffled order
            self._split = 0
            self._pos: Dict[int, int] = {frame: i for i, frame in enumerate(tail)}
        else:
            tail = []
            self._split = self._frames
            self._pos = {}
        self._tail = tail
        self._tombstones = 0
        # The live index exists only from the first scattered draw over
        # tombstones until the next compaction (None otherwise): an
        # allocator that never makes such a draw never builds or updates it.
        self._live: Optional[_LiveIndex] = None
        # No free frame lies below the scan floor, so contiguous scans can
        # start there instead of at the region base.  Only free() lowers it.
        self._scan_floor = region.base
        self._allocated: Set[int] = set()
        self._rng = random.Random(seed ^ 0x5EED)

    @property
    def free_frames(self) -> int:
        return self._frames - len(self._allocated)

    @property
    def allocated_frames(self) -> int:
        return len(self._allocated)

    def _slot(self, slot: int) -> Optional[int]:
        """What free-list slot *slot* holds: a frame or a tombstone (None)."""
        split = self._split
        if slot >= split:
            return self._tail[slot - split]
        return self._over.get(slot, self._top - slot * PAGE_SIZE)

    def _pop(self) -> Optional[int]:
        """Remove the free list's last slot; return what it held."""
        if self._tail:
            return self._tail.pop()
        self._split = slot = self._split - 1
        return self._over.pop(slot, self._top - slot * PAGE_SIZE)

    def _shed(self, slot: int) -> None:
        """Account for the tombstone just popped from *slot*.  The slot is
        past the end of the list now, which the live index counts as live."""
        self._tombstones -= 1
        if self._live is not None:
            self._live.add(slot, 1)

    def _compact(self) -> None:
        """Squeeze tombstones out of the free list (live order is preserved).

        Head slots below the first overwritten one still hold their home
        frames, so they stay in the head; the rest is rebuilt into the tail.
        """
        over = self._over
        split = self._split
        start = min(over) if over else split
        top = self._top
        rest = [over.get(slot, top - slot * PAGE_SIZE) for slot in range(start, split)]
        rest += self._tail
        self._tail = tail = [frame for frame in rest if frame is not None]
        self._split = start
        self._over = {}
        self._pos = {frame: start + i for i, frame in enumerate(tail)}
        self._tombstones = 0
        self._live = None

    def alloc(self) -> int:
        """Allocate one frame; returns its base PA."""
        # The hottest call: both parts are popped inline rather than through
        # _pop, which keeps a pop no dearer than one from a plain list.
        tail = self._tail
        while tail:
            frame = tail.pop()
            if frame is not None:
                del self._pos[frame]
                self._allocated.add(frame)
                return frame
            self._shed(self._split + len(tail))
        while self._split:
            self._split = slot = self._split - 1
            over = self._over
            if over and slot in over:
                frame = over.pop(slot)
                if frame is None:
                    self._shed(slot)
                    continue
                del self._pos[frame]
            else:
                frame = self._top - slot * PAGE_SIZE
            self._allocated.add(frame)
            return frame
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
        live_count = self._frames - len(self._allocated)
        if not live_count:
            raise MemoryError_(f"frame allocator exhausted ({self.region})")
        index = self._rng.randrange(live_count)
        if self._tombstones:
            if self._live is None:
                # The list never holds more than twice the region's frames:
                # only alloc_contiguous makes tombstones, and it compacts once
                # they fill half the list.
                split = self._split
                tombstones = [slot for slot, frame in self._over.items() if frame is None]
                tombstones += [split + i for i, frame in enumerate(self._tail) if frame is None]
                self._live = _LiveIndex(1 << (2 * self._frames).bit_length(), tombstones)
            slot = self._live.select(index)
        else:
            slot = index
        frame = self._slot(slot)
        # Pop the last live frame, shedding the tombstones after it, and move
        # it into the drawn slot unless it is the drawn frame itself.
        moved = self._pop()
        while moved is None:
            self._shed(self._split + len(self._tail))
            moved = self._pop()
        if moved != frame:
            split = self._split
            if slot >= split:
                self._tail[slot - split] = moved
            else:
                self._over[slot] = moved
            self._pos[moved] = slot
        self._pos.pop(frame, None)
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
        allocated = self._allocated
        # Advance the floor over frames that are (still) allocated; every
        # candidate base below the first free frame would fail on its first
        # frame anyway.
        floor = self._scan_floor
        region_end = self.region.end
        while floor < region_end and floor in allocated:
            floor += PAGE_SIZE
        self._scan_floor = floor
        base = (floor + step - 1) // step * step
        limit = region_end - num_frames * PAGE_SIZE
        while base <= limit:
            frame = base
            run_end = base + num_frames * PAGE_SIZE
            while frame < run_end and frame not in allocated:
                frame += PAGE_SIZE
            if frame == run_end:
                pos = self._pos
                split = self._split
                tail = self._tail
                over = self._over
                top = self._top
                live = self._live
                for taken in range(base, run_end, PAGE_SIZE):
                    slot = pos.pop(taken, None)
                    if slot is None:  # a free frame missing from _pos is at home
                        slot = (top - taken) // PAGE_SIZE
                    if slot >= split:
                        tail[slot - split] = None
                    else:
                        over[slot] = None
                    if live is not None:
                        live.add(slot, -1)
                self._tombstones += num_frames
                allocated.update(range(base, run_end, PAGE_SIZE))
                if self._tombstones * 2 > split + len(tail):
                    self._compact()
                return base
            # The run broke at `frame`: no base at or below it can work.
            base = (frame + PAGE_SIZE + step - 1) // step * step
        raise MemoryError_(f"no contiguous run of {num_frames} frames in {self.region}")

    def free(self, frame: int) -> None:
        """Return one frame to the pool."""
        allocated = self._allocated
        if frame not in allocated:
            raise MemoryError_(f"double free / foreign frame {frame:#x}")
        allocated.discard(frame)
        tail = self._tail
        self._pos[frame] = self._split + len(tail)
        tail.append(frame)
        if frame < self._scan_floor:
            self._scan_floor = frame

    def fragmentation(self) -> Dict[str, object]:
        """Free-span metrics of the pool's current state (lazy, read-only).

        Reads the free frames in address order as maximal contiguous spans —
        the gaps between the allocated frames — and summarizes them: a
        span-length histogram, the largest-contiguous gauge, and a
        fragmentation percentage (the share of free memory *outside* the
        largest span — 0.0 when all free memory is one run, approaching 100
        as it shatters).  Pure observation: neither the free-list order, the
        tombstones, nor the scatter RNG is touched, so interleaving calls
        with allocations can never perturb the allocation sequence.  Cost is
        O(allocated log allocated) — meant for sync points, not the
        per-alloc hot path.
        """
        spans = Histogram("free_span_frames")
        start = self.region.base
        for frame in sorted(self._allocated):
            if frame > start:
                spans.observe((frame - start) // PAGE_SIZE)
            start = frame + PAGE_SIZE
        if self.region.end > start:
            spans.observe((self.region.end - start) // PAGE_SIZE)
        free = self.free_frames
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
