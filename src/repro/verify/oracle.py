"""Shadow permission oracle and independent write-count model.

The verify subsystem's ground truth: flat, obviously-correct models of what
permission state *should* be, maintained in lockstep with the real monitor
and table mutations.  The models deliberately share no code with the
structures they check:

* :class:`ShadowPermissionOracle` — a flat page → :class:`Permission` map.
* :class:`TableWriteModel` — replays :meth:`PMPTable.set_range`'s chunking
  one pmpte at a time as a per-slot state machine (invalid / huge / leaf) to
  predict the exact number of 64-bit pmpte writes and the exact table-page
  footprint without ever reading the real table.
* :class:`MonitorOracle` — a :class:`~repro.tee.monitor.SecureMonitor`
  observer that keeps one oracle view and one write model per domain and
  flags any divergence in ``entry_writes`` deltas.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..common.types import PAGE_MASK, PAGE_SIZE, MemRegion, Permission
from ..isolation.pmptable import (
    ENTRIES_PER_TABLE,
    LEAF_PTE_SPAN,
    LEAF_TABLE_SPAN,
    MODE_3LEVEL,
    MODE_FLAT,
    PMPTable,
)
from ..tee.gms import GMS
from ..tee.monitor import HOST_DOMAIN_ID, SecureMonitor


class ShadowPermissionOracle:
    """A flat page → permission map over a physical region.

    Pages never written default to *default* (usually no access).  The map
    is the trivially-correct reference a radix table is checked against.
    """

    def __init__(self, region: MemRegion, default: Optional[Permission] = None):
        self.region = region
        self.default = default if default is not None else Permission.none()
        self._pages: Dict[int, Permission] = {}

    def set_range(self, base: int, size: int, perm: Permission) -> None:
        """Assign *perm* to every page in ``[base, base+size)``."""
        self._pages.update(dict.fromkeys(range(base, base + size, PAGE_SIZE), perm))

    def perm_at(self, paddr: int) -> Permission:
        """The permission of the page containing *paddr*."""
        return self._pages.get(paddr & ~PAGE_MASK, self.default)


class TableWriteModel:
    """Predicts :class:`PMPTable` write counts and footprint independently.

    Tracks, per 32 MiB root slot, whether the real table should hold an
    invalid pmpte, a huge pmpte, or a leaf-table pointer — exactly the
    state that determines how many pmpte writes ``set_range`` performs
    (leaf creation costs one root write; shattering a huge pmpte costs
    512 uniform leaf writes plus the pointer write).
    """

    def __init__(self, region: MemRegion, mode: int):
        self.region = region
        self.mode = mode
        self._tops: Set[int] = set()  # 3-level top slots holding a root page
        self._slots: Dict[int, str] = {}  # root slot -> "huge" | "leaf"
        if mode == MODE_FLAT:
            num_ptes = (region.size + LEAF_PTE_SPAN - 1) // LEAF_PTE_SPAN
            self._flat_frames = max(1, (num_ptes * 8 + PAGE_SIZE - 1) // PAGE_SIZE)

    # -- slot arithmetic -----------------------------------------------------

    @staticmethod
    def _top_of(offset: int) -> int:
        return offset >> 34

    @staticmethod
    def _slot_of(offset: int) -> int:
        return offset // LEAF_TABLE_SPAN

    def _ensure_root(self, offset: int) -> int:
        """Writes needed so the root table covering *offset* exists."""
        if self.mode != MODE_3LEVEL:
            return 0
        top = self._top_of(offset)
        if top in self._tops:
            return 0
        self._tops.add(top)
        return 1  # the top-level pointer write

    def _ensure_leaf(self, offset: int) -> int:
        """Writes needed so a leaf table covers *offset* (may shatter)."""
        writes = self._ensure_root(offset)
        slot = self._slot_of(offset)
        state = self._slots.get(slot)
        if state is None:
            writes += 1  # fresh leaf: one root pointer write
        elif state == "huge":
            writes += ENTRIES_PER_TABLE + 1  # shatter: uniform fill + pointer
        else:
            return writes
        self._slots[slot] = "leaf"
        return writes

    # -- prediction (mirrors PMPTable.set_range's write accounting) ---------

    def set_range(self, base: int, size: int, perm: Permission, huge_ok: bool = True) -> int:
        """Predict the pmpte writes of the equivalent real ``set_range``."""
        writes = 0
        clearing = perm == Permission.none()
        addr = base
        end = base + size
        while addr < end:
            offset = addr - self.region.base
            if (
                huge_ok
                and self.mode != MODE_FLAT
                and offset % LEAF_TABLE_SPAN == 0
                and addr + LEAF_TABLE_SPAN <= end
            ):
                writes += self._ensure_root(offset) + 1
                slot = self._slot_of(offset)
                if clearing:
                    self._slots.pop(slot, None)  # invalid pmpte; leaf reclaimed
                else:
                    self._slots[slot] = "huge"
                addr += LEAF_TABLE_SPAN
                continue
            if offset % LEAF_PTE_SPAN == 0 and addr + LEAF_PTE_SPAN <= end:
                if self.mode != MODE_FLAT:
                    writes += self._ensure_leaf(offset)
                writes += 1
                addr += LEAF_PTE_SPAN
                continue
            writes += self.set_page(addr, perm)
            addr += PAGE_SIZE
        return writes

    def set_page(self, paddr: int, perm: Permission) -> int:
        """Predict the writes of one ``set_page_perm`` call."""
        del perm  # nibble updates cost one write regardless of value
        if self.mode == MODE_FLAT:
            return 1
        return self._ensure_leaf(paddr - self.region.base) + 1

    def expected_pages(self) -> int:
        """How many table pages the real table should own right now."""
        if self.mode == MODE_FLAT:
            return self._flat_frames
        leaves = sum(1 for state in self._slots.values() if state == "leaf")
        return 1 + len(self._tops) + leaves


class MonitorOracle:
    """SecureMonitor observer keeping shadow state for every domain.

    Attach to a **freshly constructed** monitor (before any grant or
    switch): the host table's initialization writes are validated against
    the model at adoption time, which only works when nothing else has
    happened yet.

    For table schemes (pmpt/hpmp) the oracle maintains, per domain, a
    :class:`ShadowPermissionOracle` view mutated in lockstep with the
    monitor's table writes and a :class:`TableWriteModel` predicting every
    ``entry_writes`` delta.  For the pmp scheme permissions are derived on
    demand from the monitor's GMS ledger (the differential there is
    "register file vs ledger").  Divergences accumulate in ``violations``.
    """

    def __init__(self, monitor: SecureMonitor):
        self.monitor = monitor
        self.system = monitor.system
        self.views: Dict[int, ShadowPermissionOracle] = {}
        self.models: Dict[int, TableWriteModel] = {}
        self.tables: Dict[int, PMPTable] = {}
        self._writes_seen: Dict[int, int] = {}
        self.violations: List[str] = []
        if monitor.scheme != "pmp":
            self._adopt(monitor.domain(HOST_DOMAIN_ID))
        monitor.add_observer(self)

    # -- observer entry point -------------------------------------------------

    def __call__(self, event: str, **payload) -> None:
        handler = getattr(self, "_on_" + event, None)
        if handler is not None:
            handler(**payload)
        self._settle(event)

    def _flag(self, message: str) -> None:
        self.violations.append(message)

    def _settle(self, event: str) -> None:
        """After every event, no tracked table may have unexplained writes."""
        for domain_id, table in self.tables.items():
            drift = table.entry_writes - self._writes_seen[domain_id]
            if drift:
                self._flag(
                    f"{event}: domain {domain_id} table has {drift} unexplained "
                    f"pmpte writes"
                )
                self._writes_seen[domain_id] = table.entry_writes

    def _expect(self, domain_id: int, predicted: int, what: str) -> None:
        table = self.tables[domain_id]
        actual = table.entry_writes - self._writes_seen[domain_id]
        if actual != predicted:
            self._flag(
                f"{what}: domain {domain_id} wrote {actual} pmptes, "
                f"model predicted {predicted}"
            )
        self._writes_seen[domain_id] = table.entry_writes

    # -- domain adoption ------------------------------------------------------

    def _adopt(self, domain) -> None:
        """Build shadow state for *domain* by replaying its table init."""
        table = domain.table
        dram = self.system.memory.region
        table_region = self.system.table_region
        default = Permission.rwx() if domain.domain_id == HOST_DOMAIN_ID else Permission.rw()
        view = ShadowPermissionOracle(dram)
        model = TableWriteModel(dram, table.mode)
        predicted = model.set_range(dram.base, dram.size, default, huge_ok=False)
        view.set_range(dram.base, dram.size, default)
        predicted += model.set_range(table_region.base, table_region.size, Permission.none())
        view.set_range(table_region.base, table_region.size, Permission.none())
        for other in self.monitor.domains:
            if other.domain_id in (HOST_DOMAIN_ID, domain.domain_id):
                continue
            for gms in other.gmss:
                predicted += model.set_range(gms.region.base, gms.region.size, Permission.none())
                view.set_range(gms.region.base, gms.region.size, Permission.none())
        self.views[domain.domain_id] = view
        self.models[domain.domain_id] = model
        self.tables[domain.domain_id] = table
        self._writes_seen[domain.domain_id] = 0
        self._expect(domain.domain_id, predicted, "table init")

    # -- event handlers -------------------------------------------------------

    def _on_create_domain(self, domain) -> None:
        if self.monitor.scheme == "pmp":
            return
        self._adopt(domain)

    def _on_destroy_domain(self, domain_id: int) -> None:
        self.views.pop(domain_id, None)
        self.models.pop(domain_id, None)
        self.tables.pop(domain_id, None)
        self._writes_seen.pop(domain_id, None)

    def _apply_grant(self, gms: GMS, perm: Permission, member_ids) -> None:
        region = gms.region
        for tracked in list(self.views):
            if tracked in member_ids:
                value = perm
            else:
                value = Permission.none()
            self.views[tracked].set_range(region.base, region.size, value)
            self._expect(
                tracked,
                self.models[tracked].set_range(region.base, region.size, value),
                "grant" if tracked in member_ids else "grant (others)",
            )

    def _on_grant_region(self, domain_id: int, gms: GMS) -> None:
        if self.monitor.scheme == "pmp":
            return
        self._apply_grant(gms, gms.perm, {domain_id})

    def _on_grant_shared_region(self, domain_ids, gms: GMS) -> None:
        if self.monitor.scheme == "pmp":
            return
        self._apply_grant(gms, gms.perm, set(domain_ids))

    def _on_revoke_region(self, domain_id: int, gms: GMS) -> None:
        if self.monitor.scheme == "pmp":
            return
        region = gms.region
        if domain_id in self.views:
            self.views[domain_id].set_range(region.base, region.size, Permission.none())
            self._expect(
                domain_id,
                self.models[domain_id].set_range(region.base, region.size, Permission.none()),
                "revoke",
            )
        if domain_id != HOST_DOMAIN_ID and HOST_DOMAIN_ID in self.views:
            # The region returned to the host pool.
            self.views[HOST_DOMAIN_ID].set_range(region.base, region.size, Permission.rwx())
            self._expect(
                HOST_DOMAIN_ID,
                self.models[HOST_DOMAIN_ID].set_range(
                    region.base, region.size, Permission.rwx()
                ),
                "revoke (host restore)",
            )

    # relabel / hint_fast_region / switch_to touch registers only; _settle
    # verifies their zero-table-write property.

    # -- queries --------------------------------------------------------------

    def expected_perm(self, domain_id: int, paddr: int) -> Permission:
        """What *domain_id*'s own permission view should say for *paddr*."""
        if self.monitor.scheme != "pmp":
            return self.views[domain_id].perm_at(paddr)
        if self.system.table_region.contains(paddr):
            return Permission.none()
        for dom in self.monitor.domains:
            for gms in dom.gmss:
                if gms.region.contains(paddr):
                    return gms.perm if dom.domain_id == domain_id else Permission.none()
        if self.system.memory.region.contains(paddr):
            return Permission.rwx()  # pmp background TOR entry
        return Permission.none()

    def effective_perm(self, domain_id: int, paddr: int) -> Permission:
        """What the *checker* should resolve when *domain_id* is current.

        Layers the segment overlays (in entry-priority order) on top of the
        per-domain table view: the locked monitor entry, then — for hpmp —
        the contiguous page-table region's rwx segment.
        """
        if self.monitor.scheme == "pmp":
            return self.expected_perm(domain_id, paddr)
        if self.system.table_region.contains(paddr):
            return Permission.none()
        if self.monitor.scheme == "hpmp" and self.system.pt_region.contains(paddr):
            return Permission.rwx()
        return self.views[domain_id].perm_at(paddr)
