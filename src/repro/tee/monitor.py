"""The secure monitor: Penglai-PMP / Penglai-PMPT / Penglai-HPMP (paper §5).

The monitor is the only software allowed to program isolation hardware.  It
manages *domains* (the host plus enclaves), each owning a set of GMSs, and
charges realistic cycle costs for its own work: CSR writes for register
updates, cache-hierarchy accesses for permission-table entry writes, and a
fixed trap/context cost plus a TLB flush for domain switches.

Scheme differences (the paper's three systems):

* ``"pmp"``   — every domain region occupies a PMP entry; the entry count
  bounds both the number of concurrent domains and the number of regions per
  domain (the Figure 14 scalability wall).
* ``"pmpt"``  — one permission table per domain covering all of DRAM; a
  domain switch rebinds two registers.  Unlimited regions/domains.
* ``"hpmp"``  — like pmpt, plus fast-GMS segment entries managed
  *cache-style*: segment entries always outrank (lower index than) the table
  entry, and every GMS is also present in the table, so relabelling a GMS
  only touches registers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..common.errors import ConfigurationError, MonitorError, OutOfResources
from ..common.stats import StatGroup
from ..common.types import MemRegion, PAGE_SIZE, Permission
from ..isolation.hpmp import HPMPChecker
from ..isolation.pmp import AddrMatch, PMPChecker, PMPEntry, napot_addr
from ..isolation.pmptable import PMPTable
from ..soc.hwcost import IPI_DELIVERY_CYCLES, MONITOR_LOCK_ACQUIRE_CYCLES, lock_queue_delay
from ..soc.system import System
from .gms import GMS

#: Fixed cost of a domain switch before any register/TLB work: trap entry,
#: GPR save/restore, monitor dispatch.
CONTEXT_SWITCH_BASE_CYCLES = 420

HOST_DOMAIN_ID = 0


@dataclass
class Domain:
    """One isolation domain (the host or an enclave)."""

    domain_id: int
    name: str
    gmss: List[GMS] = field(default_factory=list)
    table: Optional[PMPTable] = None  # pmpt/hpmp schemes
    pmp_entries: Dict[int, int] = field(default_factory=dict)  # gms_id -> entry index (pmp scheme)
    alive: bool = True

    def owns(self, paddr: int) -> bool:
        return any(g.region.contains(paddr) for g in self.gmss)


class SecureMonitor:
    """The machine-mode software TCB.

    Parameters
    ----------
    system:
        A :class:`~repro.soc.system.System` whose checker kind matches
        *scheme* (``System(checker_kind=scheme)``).  The monitor takes over
        the checker's register file: all flat-setup entries are cleared.
    scheme:
        ``"pmp"``, ``"pmpt"`` or ``"hpmp"``; defaults to the system's kind.
    """

    def __init__(self, system: System, scheme: Optional[str] = None):
        self.system = system
        self.scheme = scheme if scheme is not None else system.checker_kind
        if self.scheme not in ("pmp", "pmpt", "hpmp"):
            raise ConfigurationError(f"monitor scheme must be pmp/pmpt/hpmp, got {self.scheme!r}")
        if self.scheme == "pmp" and not isinstance(system.checker, PMPChecker):
            raise ConfigurationError("pmp scheme needs a System built with checker_kind='pmp'")
        if self.scheme in ("pmpt", "hpmp") and not isinstance(system.checker, HPMPChecker):
            raise ConfigurationError(f"{self.scheme} scheme needs an HPMP-capable checker")
        self.regfile = system.checker.regfile
        self.params = system.params
        self.hierarchy = system.machine.hierarchy
        self._domains: Dict[int, Domain] = {}
        self._next_domain_id = 0
        self.current_domain_id = HOST_DOMAIN_ID
        self.cycles_spent = 0
        # Observers see every mutating monitor operation *after* it applied
        # (event name + keyword payload).  The verify subsystem uses this to
        # keep its shadow permission oracle in lockstep; observers must not
        # mutate monitor state.
        self._observers: List[Callable[..., None]] = []
        # Concurrency model.  The monitor serializes every mutating
        # operation behind one lock, tracked in virtual time: clocked
        # callers (the SMP interleaver's monitor calls, which pass
        # ``hart_id``/``now``) pay a queueing delay against the end of the
        # previous critical section.  Legacy unclocked callers pay nothing
        # — single-hart cycle accounting stays byte-identical.
        # ``shootdown_enabled`` is a fault-injection knob: turning it off
        # skips the cross-hart IPI flushes on isolation-state updates,
        # which the interleaved verifier must then catch as a stale-TLB
        # reachability window.
        self._lock_busy_until = 0
        self.shootdown_enabled = True
        self.stats = StatGroup("monitor")
        self._reset_hardware()
        self._create_host()

    # -- observability --------------------------------------------------------

    def add_observer(self, observer: Callable[..., None]) -> Callable[..., None]:
        """Register ``observer(event, **payload)``; returns it for chaining."""
        if observer not in self._observers:
            self._observers.append(observer)
        return observer

    def _notify(self, event: str, **payload) -> None:
        for observer in self._observers:
            observer(event, **payload)

    # -- low-level cost helpers ---------------------------------------------

    def _charge_register_write(self, count: int = 1) -> int:
        cycles = count * self.params.register_write_cycles
        self.cycles_spent += cycles
        return cycles

    def _charge_table_writes(self, table: PMPTable, writes_before: int) -> int:
        """Charge one cache-hierarchy store per pmpte written since *writes_before*."""
        new_writes = table.entry_writes - writes_before
        cycles = 0
        # One hierarchy access brings the table's root line in; each pmpte
        # store then costs an L1 store plus the index computation.
        if new_writes:
            cycles += self.hierarchy.access(table.root_pa)
            cycles += new_writes * (self.params.l1d.hit_latency + 1)
        self.cycles_spent += cycles
        return cycles

    def _lock_acquire(self, hart_id: int, now: Optional[int]) -> int:
        """Model taking the monitor lock; returns the cycles charged.

        ``now`` is the issuing hart's virtual clock.  ``None`` (every
        legacy single-hart caller) keeps the pre-SMP accounting: the lock
        is uncontended by construction and costs nothing.  Clocked callers
        pay the fixed acquire cost plus the virtual-time queueing delay
        against the end of the previous critical section.
        """
        if now is None:
            return 0
        wait = lock_queue_delay(now, self._lock_busy_until)
        if wait:
            self.stats.bump("lock_waits")
            self.stats.bump("lock_wait_cycles", wait)
        self.stats.bump("lock_acquires")
        cycles = wait + MONITOR_LOCK_ACQUIRE_CYCLES
        self.cycles_spent += cycles
        return cycles

    def _lock_release(self, now: Optional[int], op_cycles: int) -> None:
        """Close the critical section: busy until the op's virtual end time."""
        if now is None:
            return
        end = now + op_cycles
        if end > self._lock_busy_until:
            self._lock_busy_until = end

    def _charge_tlb_flush(self, hart_id: int = 0) -> int:
        """Flush translation/permission caches after an isolation update.

        The issuing hart flushes locally (sfence.vma + walker caches); on a
        multi-hart machine every *other* hart must be shot down too — an
        IPI each, then the remote hart's own sfence-equivalent flush and
        checker-view cache drop.  Skipping the remote half (the
        ``shootdown_enabled`` knob) leaves revoked translations reachable
        from remote TLBs — the exact window the interleaved verifier's
        temporal invariant exists to catch.
        """
        machine = self.system.machine
        harts = getattr(machine, "harts", None) or [machine]
        local = harts[hart_id] if hart_id < len(harts) else harts[0]
        cycles = local.sfence_vma()
        flush = getattr(local.engine.checker, "flush_caches", None)
        if flush:
            flush()
        if len(harts) > 1 and self.shootdown_enabled:
            shoot = 0
            for hart in harts:
                if hart is local:
                    continue
                shoot += IPI_DELIVERY_CYCLES + hart.sfence_vma()
                remote_flush = getattr(hart.engine.checker, "flush_caches", None)
                if remote_flush:
                    remote_flush()
            self.stats.bump("shootdowns")
            self.stats.bump("shootdown_ipis", len(harts) - 1)
            self.stats.bump("shootdown_cycles", shoot)
            cycles += shoot
        self.cycles_spent += cycles
        return cycles

    # -- hardware layout ------------------------------------------------------

    def _reset_hardware(self) -> None:
        for index in range(len(self.regfile)):
            if not self.regfile.entries[index].locked:
                self.regfile.clear_entry(index)
        memory = self.system.memory
        # Entry 0: the monitor's own image — locked, no S/U access.
        monitor_region = MemRegion(self.system.table_region.base, self.system.table_region.size)
        self.regfile.set_entry(
            0,
            PMPEntry(
                perm=Permission.none(),
                match=AddrMatch.NAPOT,
                addr=napot_addr(monitor_region.base, monitor_region.size),
                locked=True,
            ),
        )
        num = len(self.regfile)
        if self.scheme == "hpmp":
            # Entry 1: the OS's contiguous PT region — the canonical fast GMS.
            pt = self.system.pt_region
            self.regfile.set_entry(
                1,
                PMPEntry(perm=Permission.rwx(), match=AddrMatch.NAPOT, addr=napot_addr(pt.base, pt.size)),
            )
            # The remaining entries split into a fast-GMS segment pool and
            # the table-binding triple (lower bound, TOR, base holder).
            # With ePMP's 64 entries the pool grows accordingly (paper §4.3).
            self._fast_entry_pool = list(range(2, num - 6))
            self._table_entry_index = num - 4  # num-5 lower bound, num-3 base
        elif self.scheme == "pmpt":
            self._fast_entry_pool = []
            self._table_entry_index = num - 4
        else:
            self._fast_entry_pool = []
            self._table_entry_index = None
            # Last entry: background host access to all DRAM (lowest priority).
            self.regfile.set_entry(
                len(self.regfile) - 1,
                PMPEntry(
                    perm=Permission.rwx(),
                    match=AddrMatch.TOR,
                    addr=memory.region.end >> 2,
                ),
            )
            # The TOR entry's lower bound is pmpaddr[num-2], so that register
            # must stay 0: entry num-2 is reserved, not part of the free pool.
            self._pmp_free_entries = list(range(2, len(self.regfile) - 2))

    def _create_host(self) -> None:
        host = Domain(HOST_DOMAIN_ID, "host")
        self._next_domain_id = 1
        self._domains[HOST_DOMAIN_ID] = host
        if self.scheme in ("pmpt", "hpmp"):
            host.table = self._build_domain_table()
            dram = self.system.memory.region
            # Host may access everything except monitor memory by default.
            host.table.set_range(dram.base, dram.size, Permission.rwx(), huge_ok=False)
            host.table.set_range(
                self.system.table_region.base, self.system.table_region.size, Permission.none()
            )
            self._bind_table(host)

    def _build_domain_table(self) -> PMPTable:
        return PMPTable(
            self.system.memory,
            self.system.table_frames,
            self.system.memory.region,
        )

    def _bind_table(self, domain: Domain) -> int:
        """Point the table-mode entry pair at *domain*'s permission table."""
        assert self._table_entry_index is not None and domain.table is not None
        dram = self.system.memory.region
        index = self._table_entry_index
        # TOR pair: entry index-1 holds the lower bound.
        self.regfile.set_entry(index - 1, PMPEntry(addr=dram.base >> 2))
        tor = PMPEntry(match=AddrMatch.TOR, addr=dram.end >> 2)
        self.regfile.bind_table(index, tor, domain.table)
        return self._charge_register_write(3)

    # -- domain lifecycle -----------------------------------------------------

    @property
    def domains(self) -> List[Domain]:
        return [d for d in self._domains.values() if d.alive]

    def domain(self, domain_id: int) -> Domain:
        try:
            dom = self._domains[domain_id]
        except KeyError:
            raise MonitorError(f"no such domain {domain_id}") from None
        if not dom.alive:
            raise MonitorError(f"domain {domain_id} was destroyed")
        return dom

    def create_domain(self, name: str, hart_id: int = 0, now: Optional[int] = None) -> Domain:
        """Create an empty enclave domain (host is domain 0)."""
        lock_cycles = self._lock_acquire(hart_id, now)
        domain = Domain(self._next_domain_id, name)
        self._next_domain_id += 1
        if self.scheme == "pmp":
            if not self._pmp_free_entries:
                raise OutOfResources("No available PMP entry for a new domain")
        else:
            domain.table = self._build_domain_table()
            # Enclaves see host/shared memory read-write by default but not
            # the monitor or other domains (granted regions refine this).
            dram = self.system.memory.region
            domain.table.set_range(dram.base, dram.size, Permission.rw(), huge_ok=False)
            domain.table.set_range(
                self.system.table_region.base, self.system.table_region.size, Permission.none()
            )
            # Memory already granted privately to other domains stays private.
            for other in self.domains:
                if other.domain_id == HOST_DOMAIN_ID:
                    continue
                for gms in other.gmss:
                    domain.table.set_range(gms.region.base, gms.region.size, Permission.none())
        self._domains[domain.domain_id] = domain
        self._lock_release(now, lock_cycles)
        self._notify("create_domain", domain=domain)
        return domain

    def destroy_domain(self, domain_id: int, hart_id: int = 0, now: Optional[int] = None) -> None:
        """Destroy an enclave and return its memory and entries.

        The nested revoke/switch calls run unclocked — the outer teardown
        already holds the monitor lock, so only it pays queueing cost —
        but each revoke still shoots down every remote hart (``hart_id``
        names the issuing hart for the local-vs-remote flush split).
        """
        lock_cycles = self._lock_acquire(hart_id, now)
        if domain_id == HOST_DOMAIN_ID:
            raise MonitorError("cannot destroy the host domain")
        domain = self.domain(domain_id)
        for gms in list(domain.gmss):
            self.revoke_region(domain_id, gms, hart_id=hart_id)
        domain.alive = False
        self._lock_release(now, lock_cycles)
        self._notify("destroy_domain", domain_id=domain_id)
        if self.current_domain_id == domain_id:
            self.switch_to(HOST_DOMAIN_ID, hart_id=hart_id)

    # -- region management (Figure 14 b/c/d) ----------------------------------

    def grant_region(
        self,
        domain_id: int,
        size: int,
        perm: Permission = Permission.rwx(),
        label: str = "slow",
        region: Optional[MemRegion] = None,
        hart_id: int = 0,
        now: Optional[int] = None,
    ) -> "tuple[GMS, int]":
        """Give *domain* a fresh physical region as a GMS; returns (gms, cycles).

        The region is carved from the data pool unless an explicit *region*
        is supplied (which must then already belong to no one).  Clocked
        callers (``now`` set to the issuing hart's virtual clock) pay the
        monitor-lock acquire/queueing cost on top; see :meth:`_lock_acquire`.
        """
        cycles = self._lock_acquire(hart_id, now)
        domain = self.domain(domain_id)
        if region is None:
            frames = size // PAGE_SIZE
            # PMP regions must be NAPOT-shaped, so align them naturally.
            align = frames if self.scheme == "pmp" else 1
            base = self.system.data_frames.alloc_contiguous(frames, align_frames=align)
            region = MemRegion(base, size)
        gms = GMS(region, perm, label, owner_domain=domain_id)
        if self.scheme == "pmp":
            cycles += self._install_pmp_region(domain, gms)
        else:
            writes_before = domain.table.entry_writes
            domain.table.set_range(region.base, region.size, perm)
            cycles += self._charge_table_writes(domain.table, writes_before)
            # Other alive domains lose access to this private region.
            for other in self.domains:
                if other.domain_id != domain_id and other.table is not None:
                    other_before = other.table.entry_writes
                    other.table.set_range(region.base, region.size, Permission.none())
                    cycles += self._charge_table_writes(other.table, other_before)
            if label == "fast" and self.scheme == "hpmp":
                cycles += self._try_install_fast_segment(domain, gms)
        domain.gmss.append(gms)
        cycles += self._charge_tlb_flush(hart_id)
        self._lock_release(now, cycles)
        self._notify("grant_region", domain_id=domain_id, gms=gms)
        return gms, cycles

    def _install_pmp_region(self, domain: Domain, gms: GMS) -> int:
        if gms.region.size & (gms.region.size - 1) or gms.region.base % gms.region.size:
            raise ConfigurationError(f"pmp scheme needs NAPOT-shaped regions, got {gms.region}")
        if not self._pmp_free_entries:
            raise OutOfResources(
                f"No available PMP entry for region {gms.region} "
                f"(domain {domain.domain_id} already has {len(domain.gmss)} regions)"
            )
        index = self._pmp_free_entries.pop(0)
        active = domain.domain_id == self.current_domain_id
        self.regfile.set_entry(
            index,
            PMPEntry(
                perm=gms.perm if active else Permission.none(),
                match=AddrMatch.NAPOT,
                addr=napot_addr(gms.region.base, gms.region.size),
            ),
        )
        domain.pmp_entries[gms.gms_id] = index
        return self._charge_register_write(2)

    def _try_install_fast_segment(self, domain: Domain, gms: GMS) -> int:
        """Cache-style fast-GMS placement: registers only, table untouched."""
        if gms.gms_id in domain.pmp_entries:
            return 0  # already resident in a segment entry
        if not self._fast_entry_pool:
            return 0  # no free segment entry: GMS simply stays table-backed
        if domain.domain_id != self.current_domain_id:
            return 0  # installed lazily at switch time
        size = gms.region.size
        if size < 8 or size & (size - 1) or gms.region.base % size:
            # Segment entries are NAPOT-shaped; a hint on a region that is
            # not naturally aligned is simply ignored (it stays table-backed)
            # rather than faulting — placement is an optimization, not an
            # obligation.
            return 0
        index = self._fast_entry_pool.pop(0)
        self.regfile.set_entry(
            index,
            PMPEntry(
                perm=gms.perm,
                match=AddrMatch.NAPOT,
                addr=napot_addr(gms.region.base, gms.region.size),
            ),
        )
        domain.pmp_entries[gms.gms_id] = index
        return self._charge_register_write(2)

    def revoke_region(
        self, domain_id: int, gms: GMS, hart_id: int = 0, now: Optional[int] = None
    ) -> int:
        """Take a GMS back from a domain; returns cycles spent.

        Revocation is the security-critical path: after it returns, no
        hart may reach the region under the revoked permission — on a
        multi-hart machine :meth:`_charge_tlb_flush` shoots down every
        remote hart's TLB (and checker-view caches) before this method
        completes.
        """
        cycles = self._lock_acquire(hart_id, now)
        domain = self.domain(domain_id)
        if gms not in domain.gmss:
            raise MonitorError(f"{gms} does not belong to domain {domain_id}")
        index = domain.pmp_entries.pop(gms.gms_id, None)
        if index is not None:
            self.regfile.clear_entry(index)
            if self.scheme == "pmp":
                self._pmp_free_entries.insert(0, index)
            else:
                self._fast_entry_pool.insert(0, index)
            cycles += self._charge_register_write(2)
        if self.scheme != "pmp":
            writes_before = domain.table.entry_writes
            domain.table.clear_range(gms.region.base, gms.region.size)
            cycles += self._charge_table_writes(domain.table, writes_before)
            # The region returns to the host pool: restore host access.
            host = self._domains[HOST_DOMAIN_ID]
            if host.table is not None and domain_id != HOST_DOMAIN_ID:
                host_before = host.table.entry_writes
                host.table.set_range(gms.region.base, gms.region.size, Permission.rwx())
                cycles += self._charge_table_writes(host.table, host_before)
        domain.gmss.remove(gms)
        for offset in range(0, gms.region.size, PAGE_SIZE):
            frame = gms.region.base + offset
            if self.system.data_frames.owns(frame):
                self.system.data_frames.free(frame)
        cycles += self._charge_tlb_flush(hart_id)
        self._lock_release(now, cycles)
        self._notify("revoke_region", domain_id=domain_id, gms=gms)
        return cycles

    def hint_fast_region(
        self, domain_id: int, region: MemRegion, hart_id: int = 0, now: Optional[int] = None
    ) -> "tuple[GMS, int]":
        """Back a sub-range of a domain's memory with a segment entry.

        Supports the §9 application-hint ioctls: *region* must lie inside a
        GMS the domain already owns (the monitor never widens permissions on
        a hint — it only changes the checking mechanism).  Returns the new
        fast GMS and the cycles spent (registers + TLB flush only).
        """
        cycles = self._lock_acquire(hart_id, now)
        domain = self.domain(domain_id)
        parent = next(
            (g for g in domain.gmss if g.region.base <= region.base and region.end <= g.region.end),
            None,
        )
        if parent is None:
            raise MonitorError(f"hint region {region} is outside domain {domain_id}'s memory")
        gms = GMS(region, parent.perm, "fast", owner_domain=domain_id)
        domain.gmss.append(gms)
        if self.scheme == "hpmp":
            cycles += self._try_install_fast_segment(domain, gms)
        cycles += self._charge_tlb_flush(hart_id)
        self._lock_release(now, cycles)
        self._notify("hint_fast_region", domain_id=domain_id, gms=gms)
        return gms, cycles

    def relabel(
        self, domain_id: int, gms: GMS, label: str, hart_id: int = 0, now: Optional[int] = None
    ) -> int:
        """OS hint update.  HPMP: registers only (the cache-style fast path)."""
        cycles = self._lock_acquire(hart_id, now)
        domain = self.domain(domain_id)
        gms.relabel(label)
        if self.scheme != "hpmp":
            self._lock_release(now, cycles)
            self._notify("relabel", domain_id=domain_id, gms=gms, label=label)
            return cycles
        if label == "fast":
            cycles += self._try_install_fast_segment(domain, gms)
        else:
            index = domain.pmp_entries.pop(gms.gms_id, None)
            if index is not None:
                self.regfile.clear_entry(index)
                self._fast_entry_pool.insert(0, index)
                cycles += self._charge_register_write(1)
        cycles += self._charge_tlb_flush(hart_id)
        self._lock_release(now, cycles)
        self._notify("relabel", domain_id=domain_id, gms=gms, label=label)
        return cycles

    # -- domain switch (Figure 14 a) -------------------------------------------

    def switch_to(self, domain_id: int, hart_id: int = 0, now: Optional[int] = None) -> int:
        """Switch execution to *domain*; returns the switch cost in cycles."""
        cycles = self._lock_acquire(hart_id, now)
        target = self.domain(domain_id)
        previous = self._domains[self.current_domain_id]
        cycles += CONTEXT_SWITCH_BASE_CYCLES
        self.cycles_spent += CONTEXT_SWITCH_BASE_CYCLES
        if self.scheme == "pmp":
            # Close the previous domain's entries, open the target's.
            for dom, active in ((previous, False), (target, True)):
                for gms in dom.gmss:
                    index = dom.pmp_entries.get(gms.gms_id)
                    if index is None:
                        continue
                    self.regfile.set_entry(
                        index,
                        PMPEntry(
                            perm=gms.perm if active else Permission.none(),
                            match=AddrMatch.NAPOT,
                            addr=napot_addr(gms.region.base, gms.region.size),
                        ),
                    )
                    cycles += self._charge_register_write(1)
        else:
            # Evict the previous domain's fast segments (cache-style), bind
            # the target's table, install the target's fast segments.
            for gms in previous.gmss:
                index = previous.pmp_entries.pop(gms.gms_id, None)
                if index is not None:
                    self.regfile.clear_entry(index)
                    self._fast_entry_pool.insert(0, index)
                    cycles += self._charge_register_write(1)
            cycles += self._bind_table(target)
            self.current_domain_id = domain_id
            if self.scheme == "hpmp":
                for gms in target.gmss:
                    if gms.fast:
                        cycles += self._try_install_fast_segment(target, gms)
        self.current_domain_id = domain_id
        cycles += self._charge_tlb_flush(hart_id)
        self._lock_release(now, cycles)
        self._notify("switch_to", domain_id=domain_id)
        return cycles
