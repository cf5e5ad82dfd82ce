"""A long-horizon multi-tenant confidential node (the tenant-scale model).

``CloudNode`` interprets an arrival trace (:mod:`repro.cloud.arrivals`)
against one simulated machine: every tenant runs the full enclave
lifecycle — create domain + grant GMS (:meth:`EnclaveRuntime.launch`),
attestation (hash-engine measurement of the initial image), round-robin
work quanta through the :class:`RoundRobinScheduler`, then teardown — with
per-class latencies accounted in an :class:`SLOAccount`.

What the node *tracks* is the churn-sensitive state the paper's
consolidation story hinges on:

* PMP-entry pressure — the minimum free entry/segment pool observed, and
  admission rejections once a scheme runs out;
* GMS cache thrash — every monitor mutation (grants, revokes, relabels,
  switches) counted through a monitor observer;
* physical-memory fragmentation — the data pool's free-span metrics
  (:meth:`FrameAllocator.fragmentation`), sampled lazily at teardown sync
  points so the allocation hot path never pays for the gauge.

Work quanta are emitted as ``access_run`` spans (a random write is one
scalar access), so fused run charges carry the whole horizon; a thousand
lifecycles stay a seconds-scale simulation.

Determinism: a node is a pure function of ``(scheme, machine, mem_mib,
seed, trace)``.  All scheduling, admission and teardown decisions are
integer-driven; the only RNG streams are the per-tenant body streams
seeded from the trace.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..common.errors import MemoryError_, OutOfResources
from ..common.types import PAGE_SIZE, AccessType, MemRegion
from ..soc.system import System
from ..tee.enclave import ENCLAVE_HEAP_VA, ENCLAVE_TEXT_VA, EnclaveHandle, EnclaveRuntime
from ..tee.monitor import HOST_DOMAIN_ID, SecureMonitor
from ..tee.scheduler import RoundRobinScheduler, ScheduledTask
from ..workloads.kernel import KernelModel
from .arrivals import CLASSES, TenantSpec
from .slo import SLOAccount

#: Fixed attestation overhead besides page hashing: monitor ecall, report
#: build and signing, abstracted to one constant at simulation scale.
ATTEST_BASE_CYCLES = 600

#: Cycles the monitor's hash engine charges per 64-byte SHA-256 block.
HASH_CYCLES_PER_BLOCK = 12

#: Hash-engine cost to measure one 4 KiB page.  The measurement DMA streams
#: from DRAM without polluting the cache hierarchy, so attestation is an
#: analytic charge rather than simulated traffic.
ATTEST_PAGE_CYCLES = HASH_CYCLES_PER_BLOCK * (PAGE_SIZE // 64)

#: Quanta per drain round once arrivals stop.
_DRAIN_QUANTA = 256


@dataclass
class _Tenant:
    """Book-keeping for one live tenant."""

    spec: TenantSpec
    handle: EnclaveHandle
    rng: random.Random
    remaining: int
    task: Optional[ScheduledTask] = None
    offset: int = 0  # rolling sequential-scan position
    quanta_run: int = 0
    relabel_toggle: bool = False
    last_refs: int = 0


class CloudNode:
    """One simulated multi-tenant node: machine + monitor + scheduler + SLOs."""

    def __init__(
        self,
        scheme: str = "pmpt",
        machine: str = "rocket",
        mem_mib: int = 64,
        seed: int = 0,
        frag_every: int = 0,
    ):
        self.scheme = scheme
        self.machine = machine
        self.mem_mib = mem_mib
        self.seed = seed
        self.system = System(machine=machine, checker_kind=scheme, mem_mib=mem_mib, seed=seed)
        self.kernel = KernelModel(self.system, heap_pages=256, seed=seed)
        self.monitor = SecureMonitor(self.system)
        self.runtime = EnclaveRuntime(self.system, self.monitor, self.kernel)
        self.scheduler = RoundRobinScheduler(self.monitor)
        self.slo = SLOAccount(f"cloud-{scheme}")
        self.frag_every = frag_every
        self.frag_samples: List[Dict[str, object]] = []
        self._live: Dict[str, _Tenant] = {}
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.peak_live = 0
        self.peak_gms = 0
        self.quanta = 0
        self.switch_cycles = 0
        self.work_cycles = 0
        self.events: Counter = Counter()
        self._min_free_pmp: Optional[int] = None
        self._min_free_segments: Optional[int] = None
        self.monitor.add_observer(self._on_monitor_event)

    # -- observability -------------------------------------------------------

    def _on_monitor_event(self, event: str, **_payload) -> None:
        self.events[event] += 1

    def _track_pressure(self) -> None:
        """Record the low-water mark of the entry/segment pools."""
        pool = getattr(self.monitor, "_pmp_free_entries", None)
        if pool is not None:
            n = len(pool)
            if self._min_free_pmp is None or n < self._min_free_pmp:
                self._min_free_pmp = n
        segments = getattr(self.monitor, "_fast_entry_pool", None)
        if segments is not None:
            n = len(segments)
            if self._min_free_segments is None or n < self._min_free_segments:
                self._min_free_segments = n

    # -- lifecycle -----------------------------------------------------------

    def _attest(self, spec: TenantSpec, handle: EnclaveHandle) -> int:
        """Measure the enclave's initial image; returns hash-engine cycles."""
        pages = spec.text_pages + spec.heap_pages + 4  # stack_pages default
        cycles = ATTEST_BASE_CYCLES + pages * ATTEST_PAGE_CYCLES
        self.monitor.cycles_spent += cycles
        return cycles

    def _admit(self, spec: TenantSpec) -> Optional[_Tenant]:
        """Launch + attest one tenant; None when admission is rejected.

        Rejections (a PMP scheme out of entries, or no contiguous frame run
        left in a fragmented pool) are terminal for the tenant but not the
        node — real admission control would retry elsewhere.
        """
        # Admission is host-side work (the host kernel builds the enclave
        # page tables), so leave whatever tenant domain the scheduler was
        # in; the switch is part of this tenant's cold-start bill.
        host_switch = 0
        if self.monitor.current_domain_id != HOST_DOMAIN_ID:
            host_switch = self.monitor.switch_to(HOST_DOMAIN_ID)
        try:
            handle = self.runtime.launch(
                spec.name,
                spec.text_pages,
                spec.heap_pages,
                label=spec.label,
                reserve_pages=spec.reserve_pages,
            )
        except (OutOfResources, MemoryError_):
            self.rejected += 1
            self.slo.bump(spec.tclass, "rejected")
            # The domain may have been created before the grant failed;
            # reap it (and its permission table) or rejections would leak
            # table frames across a long horizon.
            leaked = next((d for d in self.monitor.domains if d.name == spec.name), None)
            if leaked is not None:
                self.monitor.destroy_domain(leaked.domain_id)
                self._release_dead_table(leaked)
            return None
        self.admitted += 1
        self.slo.observe(spec.tclass, "launch", host_switch + handle.launch_cycles)
        self.slo.observe(spec.tclass, "attest", self._attest(spec, handle))
        tenant = _Tenant(spec, handle, random.Random(spec.seed), remaining=spec.lifetime)
        tenant.task = self.scheduler.add(handle.domain_id, self._work_fn(tenant), spec.name)
        self._live[spec.name] = tenant
        if len(self._live) > self.peak_live:
            self.peak_live = len(self._live)
        gms_total = sum(len(d.gmss) for d in self.monitor.domains)
        if gms_total > self.peak_gms:
            self.peak_gms = gms_total
        self._track_pressure()
        return tenant

    def _work_fn(self, tenant: _Tenant):
        def work() -> int:
            if tenant.remaining <= 0:
                return 0
            tenant.remaining -= 1
            cycles, refs = self._quantum(tenant)
            tenant.quanta_run += 1
            self.slo.observe(tenant.spec.tclass, "work", cycles)
            self.slo.bump(tenant.spec.tclass, "refs", refs)
            return max(1, cycles)

        return work

    def _quantum(self, tenant: _Tenant) -> "tuple[int, int]":
        """One work quantum: the class's span mix; returns (cycles, refs)."""
        spec = tenant.spec
        profile = CLASSES[spec.tclass]
        handle = tenant.handle
        heap_bytes = spec.heap_pages * PAGE_SIZE
        cycles = 0
        refs = 0
        if profile.refetch_text or tenant.quanta_run == 0:
            # Cold-start import / exec image fetch: two fetches per code
            # page at offsets 0 and 2048 — one stride-2048 run.
            count = 2 * spec.text_pages
            cycles += self.runtime.access_run(
                handle, ENCLAVE_TEXT_VA, 2048, count, AccessType.FETCH
            )
            refs += count
        if tenant.quanta_run == 0 and "hint_hot_heap" in spec.behaviors:
            # §9-style application hint: segment-back the hot head of the
            # heap.  Frames were mapped text-first from the GMS base, so the
            # heap's physical run starts text_pages in.
            pages = min(8, spec.heap_pages)
            region = MemRegion(
                handle.gms.region.base + spec.text_pages * PAGE_SIZE, pages * PAGE_SIZE
            )
            _gms, hint_cycles = self.monitor.hint_fast_region(handle.domain_id, region)
            cycles += hint_cycles
            self.slo.bump(spec.tclass, "hints")
        # Sequential scan, rolling across quanta (wrap segments fused).
        step = 64
        remaining = profile.seq_per_quantum
        while remaining:
            cur = tenant.offset % heap_bytes
            count = min(remaining, 1 + (heap_bytes - 1 - cur) // step)
            cycles += self.runtime.access_run(
                handle, ENCLAVE_HEAP_VA + cur, step, count, AccessType.READ
            )
            tenant.offset += count * step
            remaining -= count
            refs += count
        for _ in range(profile.rand_per_quantum):
            cycles += self.runtime.access(
                handle, ENCLAVE_HEAP_VA + tenant.rng.randrange(heap_bytes // 8) * 8, AccessType.WRITE
            )
            refs += 1
        cycles += refs * profile.compute_per_access
        if "relabel_churn" in spec.behaviors:
            # Flip the whole GMS between fast and slow every quantum: on
            # hpmp this installs/evicts a segment entry per flip (the
            # cache-style management path under maximal pressure); on pmpt
            # it degenerates to a label write.
            label = "fast" if tenant.relabel_toggle else "slow"
            tenant.relabel_toggle = not tenant.relabel_toggle
            cycles += self.monitor.relabel(handle.domain_id, handle.gms, label)
            self.slo.bump(spec.tclass, "relabels")
            self._track_pressure()
        tenant.last_refs = refs
        return cycles, refs

    def _release_dead_table(self, domain) -> None:
        """Return a destroyed domain's permission-table pages to the pool.

        ``destroy_domain`` leaves the dead table allocated (short-lived
        figure experiments never notice), but a node creating thousands of
        domains would exhaust the table region in hundreds — a real
        monitor recycles metadata pages when the domain dies.
        """
        table = getattr(domain, "table", None)
        if table is None:
            return
        for page in table.table_pages:
            table.allocator.free(page)
        table.table_pages.clear()

    def _release_enclave_pt_pages(self, tenant: _Tenant) -> None:
        """Return the dead enclave's page-table pages to their pool.

        The host kernel allocated them at launch (scattered through the
        data pool under ``pool`` placement); without recycling, every
        lifecycle leaks a few frames and the long-horizon fragmentation
        signal would measure the leak, not the churn.
        """
        data, pt = self.system.data_frames, self.system.pt_frames
        for page in tenant.handle.space.page_table.pt_pages:
            if data.owns(page):
                data.free(page)
            elif pt.owns(page):
                pt.free(page)

    def _teardown(self, tenant: _Tenant) -> None:
        domain = self.monitor.domain(tenant.handle.domain_id)
        before = self.monitor.cycles_spent
        self.runtime.destroy(tenant.handle)
        self._release_dead_table(domain)
        self._release_enclave_pt_pages(tenant)
        self.slo.observe(tenant.spec.tclass, "teardown", self.monitor.cycles_spent - before)
        self.slo.bump(tenant.spec.tclass, "completed")
        self.completed += 1
        if self.frag_every and self.completed % self.frag_every == 0:
            frag = self.system.data_frames.fragmentation()
            self.frag_samples.append(
                {
                    "completed": self.completed,
                    "free_frames": frag["free_frames"],
                    "spans": frag["spans"],
                    "largest_free_frames": frag["largest_free_frames"],
                    "frag_pct": frag["frag_pct"],
                }
            )

    def _reap(self) -> None:
        """Tear down every tenant whose task finished its last quantum.

        Reap-before-destroy ordering matters: the scheduler's queue must
        drop a domain's task before the domain dies, or the next pass would
        switch into a dead domain.  ``reap`` only returns done tasks, so
        that ordering holds by construction here.
        """
        for task in self.scheduler.reap():
            tenant = self._live.pop(task.name, None)
            if tenant is not None:
                self._teardown(tenant)

    def _advance(self, quanta: int) -> None:
        if quanta <= 0 or not self.scheduler.pending:
            return  # nothing runnable: the gap is idle time
        result = self.scheduler.run(max_quanta=quanta)
        self.quanta += result.quanta
        self.switch_cycles += result.switch_cycles
        self.work_cycles += result.work_cycles
        self._reap()

    def run_trace(self, specs: Sequence[TenantSpec]) -> Dict[str, object]:
        """Interpret the trace to completion; returns the node report."""
        for spec in specs:
            self._advance(spec.arrival_gap)
            self._admit(spec)
        while self.scheduler.pending:
            self._advance(_DRAIN_QUANTA)
        self._reap()
        return self.report()

    # -- reporting -----------------------------------------------------------

    def report(self) -> Dict[str, object]:
        """JSON-safe snapshot of the node's full horizon."""
        return {
            "scheme": self.scheme,
            "machine": self.machine,
            "mem_mib": self.mem_mib,
            "seed": self.seed,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "peak_live": self.peak_live,
            "peak_gms": self.peak_gms,
            "quanta": self.quanta,
            "switch_cycles": self.switch_cycles,
            "work_cycles": self.work_cycles,
            "monitor_cycles": self.monitor.cycles_spent,
            "monitor_events": dict(sorted(self.events.items())),
            "min_free_pmp_entries": self._min_free_pmp,
            "min_free_segment_entries": self._min_free_segments,
            "slo": self.slo.snapshot(),
            "frag_samples": list(self.frag_samples),
            "frag_final": self.system.data_frames.fragmentation(),
        }
