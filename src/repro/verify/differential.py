"""Differential checks: the real structures against independent re-walks.

Three side-effect-free reading utilities back the fuzzers and the shadow
validator:

* :func:`functional_view` — resolve the permission a checker *would* grant
  an S/U access without charging cycles, touching the PMPTW-Cache, or
  bumping stats (unlike ``HPMPChecker.check``, which walks through the
  timed path).
* :func:`live_table_pages` / :func:`live_gpt_pages` — recompute a table's
  reachable page set from its in-memory radix structure, for checking the
  bookkeeping in ``table_pages`` / ``footprint_bytes()`` (the invariant the
  PR's leak fixes restore).
* :func:`footprint_violations` — the footprint invariant as a reusable
  check returning human-readable divergence strings.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..common.types import PAGE_SHIFT, PAGE_SIZE, Permission
from ..isolation.factory import NullChecker
from ..isolation.gpt import GPT, L0_BLOCK, L0_PTR_SHIFT, L0_VALID
from ..isolation.hpmp import HPMPChecker
from ..isolation.pmp import PMPChecker
from ..isolation.pmptable import (
    ENTRIES_PER_TABLE,
    LEAF_PTE_SPAN,
    MODE_3LEVEL,
    MODE_FLAT,
    PMPTable,
    root_pmpte_is_huge,
    root_pmpte_is_valid,
    root_pmpte_leaf_pa,
)


def normalized(perm: Optional[Permission]) -> Permission:
    """Collapse "faults" (None) and "no permissions" into one value.

    An invalid pmpte and an all-zero permission nibble deny exactly the
    same accesses, so the differential treats them as equal.
    """
    return Permission.none() if perm is None else perm


def supports_functional_view(checker) -> bool:
    """True when :func:`functional_view` can re-derive *checker*'s answers."""
    return isinstance(checker, (HPMPChecker, PMPChecker, NullChecker))


def functional_view(checker, paddr: int) -> Optional[Permission]:
    """The permission *checker* grants an S/U access to *paddr*; None = deny.

    Pure reads only: register-file matching plus (for table-mode entries) a
    functional table walk.  Never touches the PMPTW-Cache, the hierarchy,
    or any stats counter, so it is safe inside engine hooks — which must
    not alter timing.
    """
    if isinstance(checker, HPMPChecker):
        index = checker.regfile.match(paddr)
        if index is None:
            return None
        entry = checker.regfile.entries[index]
        if entry.table:
            return checker.regfile.table_for(index).lookup(paddr).perm
        return entry.perm
    if isinstance(checker, PMPChecker):
        index = checker.regfile.match(paddr)
        if index is None:
            return None
        return checker.regfile.entries[index].perm
    if isinstance(checker, NullChecker):
        return Permission.rwx()
    raise TypeError(f"no functional view for checker {type(checker).__name__}")


def live_table_pages(table: PMPTable) -> Set[int]:
    """Every table page reachable from *table*'s root, by re-walking memory."""
    if table.mode == MODE_FLAT:
        num_ptes = (table.region.size + LEAF_PTE_SPAN - 1) // LEAF_PTE_SPAN
        num_frames = max(1, (num_ptes * 8 + PAGE_SIZE - 1) // PAGE_SIZE)
        return {table.root_pa + i * PAGE_SIZE for i in range(num_frames)}
    mem = table.memory
    live = {table.root_pa}
    if table.mode == MODE_3LEVEL:
        roots = []
        for top_idx in range(ENTRIES_PER_TABLE):
            top = mem.read64(table.root_pa + top_idx * 8)
            if root_pmpte_is_valid(top):
                root_pa = root_pmpte_leaf_pa(top)
                live.add(root_pa)
                roots.append(root_pa)
    else:
        roots = [table.root_pa]
    for root_pa in roots:
        for off1 in range(ENTRIES_PER_TABLE):
            pmpte = mem.read64(root_pa + off1 * 8)
            if root_pmpte_is_valid(pmpte) and not root_pmpte_is_huge(pmpte):
                live.add(root_pmpte_leaf_pa(pmpte))
    return live


def live_gpt_pages(gpt: GPT) -> Set[int]:
    """Every L0/L1 page reachable from *gpt*'s L0 table."""
    live = {gpt.l0_pa}
    for l0_index in range(gpt._l0_entries):
        descriptor = gpt.memory.read64(gpt.l0_pa + l0_index * 8)
        if descriptor & L0_VALID and not descriptor & L0_BLOCK:
            l1 = (descriptor >> L0_PTR_SHIFT) << PAGE_SHIFT
            live.update(l1 + i * PAGE_SIZE for i in range(GPT.L1_PAGES_PER_GIB))
    return live


def footprint_violations(table, model=None, label: str = "table") -> List[str]:
    """Check ``table_pages`` / ``footprint_bytes`` against a fresh re-walk.

    Works for both :class:`PMPTable` and :class:`GPT`.  With a
    :class:`~repro.verify.oracle.TableWriteModel` supplied, also checks the
    model's independently predicted page count.
    """
    out: List[str] = []
    live = live_gpt_pages(table) if isinstance(table, GPT) else live_table_pages(table)
    recorded = set(table.table_pages)
    if len(recorded) != len(table.table_pages):
        out.append(f"{label}: duplicate entries in table_pages")
    if recorded != live:
        leaked = sorted(recorded - live)
        missing = sorted(live - recorded)
        out.append(
            f"{label}: table_pages diverges from reachable set "
            f"(leaked {len(leaked)}, untracked {len(missing)})"
        )
    if table.footprint_bytes() != len(table.table_pages) * PAGE_SIZE:
        out.append(f"{label}: footprint_bytes() inconsistent with table_pages")
    if model is not None and model.expected_pages() != len(live):
        out.append(
            f"{label}: model expects {model.expected_pages()} pages, "
            f"table holds {len(live)}"
        )
    return out
