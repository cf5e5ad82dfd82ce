"""Lightweight statistics counters used throughout the simulator.

Components own a :class:`StatGroup` and bump named counters; experiments read
them to report hit rates and reference counts.  Counters are plain ints so
the hot path stays cheap.  A group can additionally own named
:class:`Histogram` instances (power-of-two bucketed) for latency / reference
distributions — these are only touched by the observability layer, never by
the timed hot path, and both counters and histograms export to JSON.

Hot components (caches, TLBs, checkers, the machine access path) do not even
pay the ``Counter.__setitem__`` per event: they accumulate plain instance
ints and register a *sync* callback on their group.  Every read of the group
(``group[key]``, ``snapshot``, ``ratio``, iteration, export) first invokes
the callback, which publishes the pending deltas — so readers always observe
exact, up-to-date counts while the per-event cost on the timed path is a
single integer add.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Union


class Histogram:
    """A power-of-two bucketed histogram of non-negative integer samples.

    Bucket *i* holds samples whose ``bit_length()`` is *i*: bucket 0 is the
    value 0, bucket 1 is {1}, bucket 2 is {2, 3}, bucket 3 is {4..7} and so
    on — compact, allocation-free and wide enough for cycle latencies.

    >>> h = Histogram("lat")
    >>> for v in (0, 1, 2, 3, 300):
    ...     h.observe(v)
    >>> h.count, h.min, h.max
    (5, 0, 300)
    >>> h.buckets()["2-3"]
    2
    """

    __slots__ = ("name", "count", "total", "min", "max", "_buckets")

    def __init__(self, name: str = ""):
        self.name = name
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self._buckets: List[int] = []

    def observe(self, value: int) -> None:
        """Record one sample of *value*.  Negative values are clamped to 0."""
        if value < 0:
            value = 0
        index = value.bit_length()
        buckets = self._buckets
        if index >= len(buckets):
            buckets.extend([0] * (index + 1 - len(buckets)))
        buckets[index] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @staticmethod
    def _bucket_label(index: int) -> str:
        if index <= 1:
            return str(index)
        low, high = 1 << (index - 1), (1 << index) - 1
        return f"{low}-{high}"

    def buckets(self) -> Dict[str, int]:
        """Non-empty buckets keyed by their value-range label."""
        return {
            self._bucket_label(i): n for i, n in enumerate(self._buckets) if n
        }

    def percentile(self, p: float) -> Optional[int]:
        """Upper bound of the bucket holding the *p*-th percentile sample.

        Nearest-rank definition: the selected sample is the one at rank
        ``ceil(p / 100 * count)``, clamped into ``[1, count]`` — p=25 over
        10 samples selects rank 3.  (``round`` would use Python's
        half-to-even and land half-integer ranks one sample — and possibly
        one bucket — early.)  Returns None on an empty histogram.  ``p`` is
        in [0, 100].
        """
        return self.percentiles(p)[0]

    def percentiles(self, *ps: float) -> List[Optional[int]]:
        """Bucket upper bounds for several percentiles in one bucket walk.

        Same nearest-rank definition as :meth:`percentile`, evaluated for
        every requested ``p`` during a single pass over the buckets — the
        SLO rollup path asks for {p50, p95, p99} per histogram, and one walk
        keeps that linear in the bucket count rather than in ``len(ps)``
        passes.  Result order matches the argument order; an empty histogram
        yields all None.
        """
        if not self.count:
            return [None] * len(ps)
        # Evaluate in ascending rank order so one forward walk serves all;
        # scatter the answers back into argument positions at the end.
        order = sorted(
            range(len(ps)),
            key=lambda i: min(self.count, max(1, math.ceil(ps[i] / 100.0 * self.count))),
        )
        results: List[Optional[int]] = [None] * len(ps)
        seen = 0
        top = 0
        pending = 0  # next position in `order` still awaiting its bucket
        for index, n in enumerate(self._buckets):
            if n:
                top = index
            seen += n
            while pending < len(order):
                slot = order[pending]
                rank = min(self.count, max(1, math.ceil(ps[slot] / 100.0 * self.count)))
                if seen < rank:
                    break
                results[slot] = 0 if index == 0 else (1 << index) - 1
                pending += 1
            if pending == len(order):
                return results
        # Unreachable while the bucket counts sum to self.count (every rank
        # is clamped to that sum); answer with the highest occupied bucket's
        # upper bound rather than a label no bucket has.
        for slot in order[pending:]:
            results[slot] = 0 if top == 0 else (1 << top) - 1
        return results

    def summary(self) -> Dict[str, Optional[int]]:
        """The tail-latency digest {count, p50, p95, p99, max} in one pass."""
        p50, p95, p99 = self.percentiles(50, 95, 99)
        return {"count": self.count, "p50": p50, "p95": p95, "p99": p99, "max": self.max}

    def merge(self, other: Union["Histogram", Mapping[str, object]]) -> None:
        """Fold another histogram (or its :meth:`snapshot`) into this one."""
        if isinstance(other, Histogram):
            raw = other._buckets
            counts = {i: n for i, n in enumerate(raw) if n}
            total, count = other.total, other.count
            lo, hi = other.min, other.max
        else:
            counts = {int(k): int(v) for k, v in dict(other.get("raw", {})).items()}  # type: ignore[union-attr]
            total, count = int(other["total"]), int(other["count"])  # type: ignore[index]
            lo = other.get("min")  # type: ignore[union-attr]
            hi = other.get("max")  # type: ignore[union-attr]
        for index, n in counts.items():
            if index >= len(self._buckets):
                self._buckets.extend([0] * (index + 1 - len(self._buckets)))
            self._buckets[index] += n
        self.count += count
        self.total += total
        if lo is not None and (self.min is None or lo < self.min):
            self.min = int(lo)
        if hi is not None and (self.max is None or hi > self.max):
            self.max = int(hi)

    @classmethod
    def from_snapshot(cls, snap: Mapping[str, object], name: str = "") -> "Histogram":
        """Rehydrate a histogram from a :meth:`snapshot` dict."""
        hist = cls(name)
        hist.merge(snap)
        return hist

    def snapshot(self) -> Dict[str, object]:
        """A JSON-safe dict: summary stats, labelled buckets, raw indices."""
        p50, p99 = self.percentiles(50, 99)
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": p50,
            "p99": p99,
            "buckets": self.buckets(),
            "raw": {str(i): n for i, n in enumerate(self._buckets) if n},
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self) -> None:
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self._buckets = []

    def __repr__(self) -> str:
        return f"Histogram({self.name}: n={self.count}, mean={self.mean:.1f})"


class StatGroup:
    """A named group of monotonically increasing counters (plus histograms).

    A *sync* callback (see :meth:`set_sync`) lets the owning component defer
    its hot-path counting to plain instance ints: the callback runs before
    any read and publishes the pending deltas with :meth:`bump`, so every
    observer still sees exact counts.

    >>> s = StatGroup("tlb")
    >>> s.bump("hit"); s.bump("miss", 2)
    >>> s["hit"], s["miss"]
    (1, 2)
    >>> round(s.ratio("hit", "miss"), 4)  # hit / (hit + miss) = 1 / 3
    0.3333
    """

    def __init__(self, name: str, sync: Optional[Callable[[], None]] = None):
        self.name = name
        self._counters: Counter = Counter()
        self._histograms: Dict[str, Histogram] = {}
        self._sync = sync

    def set_sync(self, sync: Optional[Callable[[], None]]) -> None:
        """Install the deferred-counter publisher invoked before reads."""
        self._sync = sync

    def _synchronize(self) -> None:
        """Run the sync callback (re-entrancy safe: bump() never re-syncs)."""
        sync = self._sync
        if sync is not None:
            self._sync = None  # a callback reading its own group must not recurse
            try:
                sync()
            finally:
                self._sync = sync

    def bump(self, key: str, amount: int = 1) -> None:
        """Increase counter *key* by *amount*."""
        self._counters[key] += amount

    def __getitem__(self, key: str) -> int:
        self._synchronize()
        return self._counters.get(key, 0)

    def __iter__(self) -> Iterator[str]:
        self._synchronize()
        return iter(self._counters)

    def ratio(self, numerator: str, *others: str) -> float:
        """Return numerator / (numerator + sum(others)); 0.0 if empty."""
        self._synchronize()
        num = self._counters.get(numerator, 0)
        total = num + sum(self._counters.get(o, 0) for o in others)
        if total == 0:
            return 0.0
        return num / total

    # -- histograms ----------------------------------------------------------

    def histogram(self, key: str) -> Histogram:
        """The named histogram, created on first use."""
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = Histogram(key)
        return hist

    def observe(self, key: str, value: int) -> None:
        """Record *value* into the named histogram."""
        self.histogram(key).observe(value)

    def histograms(self) -> Dict[str, Histogram]:
        """All histograms this group owns (live objects, not copies)."""
        return dict(self._histograms)

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter and histogram.

        Synchronizes first so deferred deltas held by the owner are pulled
        in (and thereby zeroed at the source) before being discarded — a
        reset starts a genuinely fresh epoch.
        """
        self._synchronize()
        self._counters.clear()
        for hist in self._histograms.values():
            hist.reset()

    def snapshot(self) -> Dict[str, int]:
        """Return a plain-dict copy of the counters."""
        self._synchronize()
        return dict(self._counters)

    def merge(self, other: Mapping[str, int]) -> None:
        """Add another snapshot's counters into this group."""
        for key, value in other.items():
            self._counters[key] += value

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe dict of counters plus histogram snapshots."""
        self._synchronize()
        return {
            "name": self.name,
            "counters": dict(self._counters),
            "histograms": {k: h.snapshot() for k, h in self._histograms.items()},
        }

    def merge_payload(self, payload: Mapping[str, object]) -> None:
        """Fold a :meth:`to_payload`-style dict (counters and histogram
        snapshots) into this group — the cross-process counterpart of
        :meth:`merge`, used to aggregate per-worker telemetry."""
        for key, value in dict(payload.get("counters", {})).items():  # type: ignore[union-attr]
            self._counters[key] += int(value)
        for key, snap in dict(payload.get("histograms", {})).items():  # type: ignore[union-attr]
            self.histogram(key).merge(snap)

    def to_json(self, indent: Optional[int] = None) -> str:
        """JSON export of counters and histogram snapshots."""
        return json.dumps(self.to_payload(), indent=indent, sort_keys=True)

    def __repr__(self) -> str:
        self._synchronize()
        body = ", ".join(f"{k}={v}" for k, v in sorted(self._counters.items()))
        return f"StatGroup({self.name}: {body})"
