"""General Memory Segment (GMS) — Penglai-HPMP's isolation abstraction (§5).

A GMS is a contiguous physical region with one permission and a software
label.  The OS may label a GMS ``"fast"`` as a *hint*; the secure monitor
alone decides placement (segment entries for fast GMSs when available,
permission tables for everything), and the OS can never change a GMS's range
or permission — only the monitor can.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..common.errors import ConfigurationError
from ..common.types import MemRegion, Permission

LABELS = ("fast", "slow")

_gms_ids = itertools.count(1)


@dataclass
class GMS:
    """One general memory segment.

    ``label`` is mutable (the OS hint); ``region`` and ``perm`` are fixed at
    creation and enforced by the monitor.
    """

    region: MemRegion
    perm: Permission
    label: str = "slow"
    owner_domain: int = 0
    gms_id: int = field(default_factory=lambda: next(_gms_ids))

    def __post_init__(self) -> None:
        if self.label not in LABELS:
            raise ConfigurationError(f"unknown GMS label {self.label!r}; options: {LABELS}")

    @property
    def fast(self) -> bool:
        return self.label == "fast"

    def relabel(self, label: str) -> None:
        """Change the OS hint (the only mutation the OS is allowed)."""
        if label not in LABELS:
            raise ConfigurationError(f"unknown GMS label {label!r}")
        self.label = label

    def __str__(self) -> str:
        return f"GMS#{self.gms_id}({self.region}, {self.perm}, {self.label})"
