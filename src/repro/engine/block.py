"""Block execution: run-length-encoded access spans.

Workload models that issue many references with a known shape (strided CSR
scans, same-object field touches, PTE store sweeps) can describe them as an
:class:`AccessBlock` — a list of (va, stride, count, access) *runs* — and
hand the whole block to :meth:`Machine.access_block
<repro.soc.machine.Machine.access_block>` /
:meth:`VirtualMachine.access_block
<repro.virt.nested.VirtualMachine.access_block>` instead of crossing the
workload → machine boundary once per reference.

The machine prices a run with a fused bulk path when the *invariant regime*
holds (TLB hit with an inlined permission, permission allows, every
follow-on reference lands on the line the previous one made MRU) and falls
back to the scalar pipeline at every regime edge, so blocks are
state-identical to the equivalent scalar loop — same cycles, same stats,
same cache/TLB residency, same faults.  ``tests/test_block_exec.py`` proves
that equivalence differentially for every workload generator, against the
same work observed by an access hook, which keeps every reference on the
scalar step.
"""

from __future__ import annotations

from typing import List, Tuple

from ..common.types import AccessType


class AccessBlock:
    """A span of timed references, run-length encoded.

    A *run* is ``(va, stride, count, access)``: ``count`` references of one
    access type starting at ``va`` and stepping ``stride`` bytes (0 = the
    same address ``count`` times).  Runs execute strictly in append order
    and every reference within a run in stride order, so a block is just a
    compressed transcript of the scalar loop it replaces.
    """

    __slots__ = ("runs", "count")

    def __init__(self) -> None:
        self.runs: List[Tuple[int, int, int, AccessType]] = []
        self.count = 0

    def run(self, va: int, stride: int, count: int, access: AccessType) -> "AccessBlock":
        """Append one run (no-op when ``count <= 0``); returns self."""
        if count > 0:
            self.runs.append((va, stride, count, access))
            self.count += count
        return self

    def clear(self) -> None:
        """Empty the block for reuse."""
        self.runs.clear()
        self.count = 0

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # debug aid
        return f"AccessBlock({len(self.runs)} runs, {self.count} refs)"
