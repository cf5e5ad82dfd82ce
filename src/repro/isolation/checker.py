"""Physical-memory-protection checker interface.

A checker validates one physical access and reports what the validation
itself cost: extra memory references (permission-table reads, issued through
the shared cache hierarchy) and cycles.  Three implementations exist:

* :class:`~repro.isolation.pmp.PMPChecker` — pure segment isolation (RISC-V
  PMP): zero extra references.
* PMP-Table-only — an :class:`~repro.isolation.hpmp.HPMPChecker` whose only
  active entry is in table mode (the paper's "PMP Table" baseline).
* HPMP — segment + table entries mixed (the paper's contribution).

Use :func:`repro.isolation.factory.make_checker` to build them consistently.
"""

from __future__ import annotations

from typing import NamedTuple, Protocol

from ..common.types import AccessType, Permission, PrivilegeMode


class CheckCost(NamedTuple):
    """Cost of one permission check.

    ``refs`` counts extra memory references issued (0 for segment checks),
    ``cycles`` the latency those references (plus fixed logic) incurred, and
    ``perm`` the entry's full R/W/X permission, not just the checked bit —
    cached by TLB inlining, so an inlined entry serves later accesses of
    other types.  A named tuple, because every table-walking check builds
    one and a tuple is far cheaper to build than a frozen dataclass.
    """

    cycles: int
    refs: int
    perm: Permission

    def __add__(self, other: "CheckCost") -> "CheckCost":  # type: ignore[override]
        return CheckCost(self.cycles + other.cycles, self.refs + other.refs, self.perm & other.perm)


#: The shared result of every check that costs nothing (segment entries,
#: M-mode, PMP, no protection), keyed by ``(r, w, x)``: hashing that tuple
#: is several times cheaper than hashing a :class:`Permission`.
ZERO_COSTS = {(p.r, p.w, p.x): CheckCost(0, 0, p) for p in map(Permission.from_bits, range(8))}
ZERO_COST = ZERO_COSTS[True, True, True]


class IsolationChecker(Protocol):
    """Protocol implemented by all physical-memory-protection checkers."""

    name: str

    def check(
        self,
        paddr: int,
        access: AccessType,
        priv: PrivilegeMode = PrivilegeMode.SUPERVISOR,
    ) -> CheckCost:
        """Validate an access; return its cost or raise AccessFault.

        The returned ``perm`` is the full permission that applies at
        *paddr*, which TLB inlining caches for the page.
        """
        ...
