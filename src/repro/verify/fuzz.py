"""Seeded randomized fuzzers driving the isolation stack against the oracle.

Three harnesses, all deterministic for a given (ops, seed):

* :func:`fuzz_table` — drives one :class:`PMPTable` directly (any mode,
  including the 3-level ablation) with random set_range / clear_range /
  set_page_perm mixes, checking permissions, exact write counts, and the
  footprint invariant after every step.
* :func:`fuzz_monitor` — drives a full :class:`SecureMonitor` (pmp / pmpt /
  hpmp) through create/destroy-domain, grant/revoke, GMS relabels and
  domain switches, with a :class:`MonitorOracle` in lockstep; additionally
  checks timed-path cycle parity after flushes and runs shadow-validated
  accesses through the machine.
* :func:`fuzz_gpt` — drives the ARM CCA :class:`GPT` analogue against a
  flat PAS oracle.

Each returns a :class:`FuzzReport`; an empty ``violations`` list means the
run found no divergence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..common.errors import AccessFault, MemoryError_, OutOfResources, VerificationError
from ..common.types import (
    GIB,
    KIB,
    MIB,
    PAGE_SIZE,
    AccessType,
    MemRegion,
    Permission,
    PrivilegeMode,
)
from ..isolation.gpt import GPT, PAS
from ..isolation.pmptable import (
    LEAF_TABLE_SPAN,
    MODE_2LEVEL,
    MODE_3LEVEL,
    MODE_FLAT,
    ROOT_TABLE_SPAN,
    PMPTable,
)
from ..mem.allocator import FrameAllocator
from ..mem.physical import PhysicalMemory
from ..soc.system import DRAM_BASE, System
from ..tee.monitor import HOST_DOMAIN_ID, SecureMonitor
from .differential import footprint_violations, functional_view, normalized
from .oracle import MonitorOracle, ShadowPermissionOracle, TableWriteModel

_PERMS = (
    Permission.rwx(),
    Permission.rw(),
    Permission.rx(),
    Permission(r=True),
)
_PERMS_OR_NONE = _PERMS + (Permission.none(),)


@dataclass
class FuzzReport:
    """Outcome of one fuzz run.

    ``first_violation_op`` is the index of the op that produced the first
    violation (None for a clean run, or when the violation fell outside
    the op loop, e.g. in a final footprint sweep) — enough, together with
    ``seed``, to reproduce a failure without rerunning the whole run blind.
    """

    scheme: str
    ops: int
    seed: int
    checks: int = 0
    violations: List[str] = field(default_factory=list)
    first_violation_op: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def flag(self, message: str, op: Optional[int] = None) -> None:
        """Record one violation (capped) and remember the first failing op."""
        if op is not None and self.first_violation_op is None:
            self.first_violation_op = op
        if len(self.violations) < _MAX_VIOLATIONS:
            self.violations.append(message)

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        where = (
            f", first at op {self.first_violation_op}"
            if self.first_violation_op is not None
            else ""
        )
        return (
            f"verify {self.scheme}: {self.ops} ops, seed {self.seed} -> "
            f"{self.checks} checks, {len(self.violations)} violations{where} [{status}]"
        )


_MAX_VIOLATIONS = 25  # a diverged model avalanches; stop reporting echoes


# ---------------------------------------------------------------------------
# Direct PMP-table fuzz (covers all three modes, incl. 3-level)
# ---------------------------------------------------------------------------

_TABLE_SIZES = (
    (PAGE_SIZE, 8),
    (2 * PAGE_SIZE, 4),
    (16 * PAGE_SIZE, 6),
    (64 * KIB, 8),
    (256 * KIB, 6),
    (MIB, 4),
    (32 * MIB, 3),
    (64 * MIB, 1),
)
_WINDOW_SPAN = 64 * MIB


def _weighted_choice(rng: random.Random, options) -> int:
    total = sum(weight for _value, weight in options)
    pick = rng.randrange(total)
    for value, weight in options:
        pick -= weight
        if pick < 0:
            return value
    return options[-1][0]


def fuzz_table(
    mode: int = MODE_2LEVEL,
    ops: int = 1000,
    seed: int = 0,
    check_every: int = 8,
) -> FuzzReport:
    """Fuzz one PMPTable directly against the oracle and write model."""
    rng = random.Random(seed)
    mode_name = {MODE_2LEVEL: "2level", MODE_3LEVEL: "3level", MODE_FLAT: "flat"}[mode]
    memory = PhysicalMemory(32 * MIB, base=DRAM_BASE)
    allocator = FrameAllocator(memory.region)
    if mode == MODE_3LEVEL:
        # Three activity windows in distinct top-level slots exercise the
        # extra level; the sparse protected region needs no memory backing.
        region = MemRegion(0x10_0000_0000, 3 * ROOT_TABLE_SPAN)
        windows = [region.base + k * ROOT_TABLE_SPAN for k in range(3)]
    else:
        region = MemRegion(0x10_0000_0000, _WINDOW_SPAN)
        windows = [region.base]
    table = PMPTable(memory, allocator, region, mode=mode)
    oracle = ShadowPermissionOracle(region)
    model = TableWriteModel(region, mode)
    report = FuzzReport(scheme=f"pmpt-table-{mode_name}", ops=ops, seed=seed)

    def flag(message: str, op: Optional[int] = None) -> None:
        report.flag(message, op)

    for step in range(ops):
        if len(report.violations) >= _MAX_VIOLATIONS:
            break
        window = rng.choice(windows)
        writes_before = table.entry_writes
        if rng.random() < 0.1:
            page = window + rng.randrange(_WINDOW_SPAN // PAGE_SIZE) * PAGE_SIZE
            perm = rng.choice(_PERMS_OR_NONE)
            table.set_page_perm(page, perm)
            predicted = model.set_page(page, perm)
            oracle.set_range(page, PAGE_SIZE, perm)
            returned = table.entry_writes - writes_before
            base, size = page, PAGE_SIZE
        else:
            size = _weighted_choice(rng, _TABLE_SIZES)
            align = rng.choice((PAGE_SIZE, 64 * KIB, 32 * MIB))
            slots = (_WINDOW_SPAN - size) // align + 1
            base = window + rng.randrange(slots) * align
            perm = rng.choice(_PERMS_OR_NONE)
            huge_ok = rng.random() < 0.75
            returned = table.set_range(base, size, perm, huge_ok=huge_ok)
            predicted = model.set_range(base, size, perm, huge_ok=huge_ok)
            oracle.set_range(base, size, perm)
        report.checks += 1
        if returned != predicted:
            flag(
                f"op {step}: set [{base:#x},+{size:#x})={perm} wrote {returned} "
                f"pmptes, model predicted {predicted}",
                op=step,
            )
        for paddr in _table_sample(rng, base, size, window):
            report.checks += 1
            got = normalized(table.lookup(paddr).perm)
            want = oracle.perm_at(paddr)
            if got != want:
                flag(f"op {step}: lookup({paddr:#x}) = {got}, oracle says {want}", op=step)
        if step % check_every == 0:
            report.checks += 1
            for message in footprint_violations(table, model, f"op {step}"):
                flag(message, op=step)
    report.checks += 1
    for message in footprint_violations(table, model, "final"):
        flag(message)
    return report


def _table_sample(rng: random.Random, base: int, size: int, window: int) -> List[int]:
    """Pages worth checking after an op: edges, interior, and bystanders."""
    inside = [base, base + size - PAGE_SIZE]
    if size > 2 * PAGE_SIZE:
        inside.append(base + (rng.randrange(size // PAGE_SIZE)) * PAGE_SIZE)
    bystanders = [
        window + rng.randrange(_WINDOW_SPAN // PAGE_SIZE) * PAGE_SIZE for _ in range(3)
    ]
    return inside + bystanders


# ---------------------------------------------------------------------------
# Monitor fuzz (pmp / pmpt / hpmp schemes)
# ---------------------------------------------------------------------------

_GRANT_SIZES = (4 * KIB, 16 * KIB, 64 * KIB, 256 * KIB, MIB)
_HUGE_FRAMES = LEAF_TABLE_SPAN // PAGE_SIZE


def fuzz_monitor(
    scheme: str,
    ops: int = 1000,
    seed: int = 0,
    mem_mib: int = 128,
    check_every: int = 16,
    parity_every: int = 32,
) -> FuzzReport:
    """Fuzz a SecureMonitor under *scheme* with a lockstep MonitorOracle."""
    rng = random.Random(seed)
    system = System(machine="rocket", checker_kind=scheme, mem_mib=mem_mib)
    monitor = SecureMonitor(system)
    oracle = MonitorOracle(monitor)
    report = FuzzReport(scheme=scheme, ops=ops, seed=seed)
    # A small mapped working set for the timed-parity / shadow-validated
    # accesses.  Its frames come from the data pool, so no grant ever
    # overlaps them.
    space = system.new_address_space()
    vas = [0x40_0000, 0x40_2000]
    space.map(vas[0], 4 * PAGE_SIZE)
    enclaves: List[int] = []

    def flag(message: str, op: Optional[int] = None) -> None:
        report.flag(message, op)

    for step in range(ops):
        if len(report.violations) >= _MAX_VIOLATIONS:
            break
        _monitor_op(rng, monitor, system, enclaves, step)
        report.checks += 1  # the oracle's lockstep write-delta validation
        for message in oracle.violations:
            flag(f"op {step}: {message}", op=step)
        oracle.violations.clear()
        _check_views(rng, monitor, oracle, report, flag, step)
        if step % check_every == 0:
            _check_footprints(monitor, oracle, system, report, flag, step)
        if step % parity_every == 0:
            _check_timed_parity(system, space, vas, report, flag, step)
    _check_footprints(monitor, oracle, system, report, flag, ops)
    _check_timed_parity(system, space, vas, report, flag, ops)
    return report


def _monitor_op(
    rng: random.Random,
    monitor: SecureMonitor,
    system: System,
    enclaves: List[int],
    step: int,
) -> None:
    """Apply one random monitor operation (resource exhaustion is a no-op)."""
    scheme = monitor.scheme
    roll = rng.random()
    try:
        if roll < 0.12:
            if len(enclaves) < 5:
                enclaves.append(monitor.create_domain(f"enclave-{step}").domain_id)
        elif roll < 0.18:
            if enclaves:
                victim = rng.choice(enclaves)
                enclaves.remove(victim)
                monitor.destroy_domain(victim)
        elif roll < 0.50:
            target = rng.choice([HOST_DOMAIN_ID] + enclaves)
            label = "fast" if scheme == "hpmp" and rng.random() < 0.3 else "slow"
            monitor.grant_region(
                target, rng.choice(_GRANT_SIZES), rng.choice(_PERMS), label=label
            )
        elif roll < 0.58:
            if scheme != "pmp":
                # A 32 MiB naturally aligned grant drives the huge-pmpte path
                # (and the leaf-reclaim / shatter transitions) in every table.
                target = rng.choice([HOST_DOMAIN_ID] + enclaves)
                base = system.data_frames.alloc_contiguous(
                    _HUGE_FRAMES, align_frames=_HUGE_FRAMES
                )
                monitor.grant_region(
                    target,
                    LEAF_TABLE_SPAN,
                    rng.choice(_PERMS),
                    region=MemRegion(base, LEAF_TABLE_SPAN),
                )
        elif roll < 0.75:
            owned = [(d.domain_id, g) for d in monitor.domains for g in d.gmss]
            if owned:
                domain_id, gms = rng.choice(owned)
                monitor.revoke_region(domain_id, gms)
        elif roll < 0.85:
            owned = [(d.domain_id, g) for d in monitor.domains for g in d.gmss]
            if owned:
                domain_id, gms = rng.choice(owned)
                monitor.relabel(domain_id, gms, rng.choice(("fast", "slow")))
        else:
            monitor.switch_to(rng.choice([HOST_DOMAIN_ID] + enclaves))
    except (OutOfResources, MemoryError_):
        pass  # exhausted entries or fragmented pool: skip, keep fuzzing


def _monitor_sample(rng: random.Random, monitor: SecureMonitor, system: System) -> List[int]:
    """Candidate pages: GMS edges/interiors plus fixed landmarks."""
    data = system.data_region
    samples = [
        system.table_region.base,
        system.pt_region.base + 3 * PAGE_SIZE,
        data.base + rng.randrange(data.size // PAGE_SIZE) * PAGE_SIZE,
    ]
    for dom in monitor.domains:
        for gms in dom.gmss:
            region = gms.region
            samples.append(region.base)
            samples.append(region.end - PAGE_SIZE)
            if region.size > 2 * PAGE_SIZE:
                samples.append(
                    region.base + rng.randrange(region.size // PAGE_SIZE) * PAGE_SIZE
                )
    if len(samples) > 15:
        samples = rng.sample(samples, 15)
    return samples


def _check_views(rng, monitor, oracle: MonitorOracle, report, flag, step: int) -> None:
    """Differential permission check over sampled pages."""
    current = monitor.current_domain_id
    checker = monitor.system.checker
    for paddr in _monitor_sample(rng, monitor, monitor.system):
        # Each tracked table against its shadow view...
        for domain_id, table in oracle.tables.items():
            report.checks += 1
            got = normalized(table.lookup(paddr).perm)
            want = oracle.expected_perm(domain_id, paddr)
            if got != want:
                flag(
                    f"op {step}: domain {domain_id} table resolves {got} at "
                    f"{paddr:#x}, oracle says {want}",
                    op=step,
                )
        # ...and the live checker against the current domain's effective view.
        report.checks += 1
        got = normalized(functional_view(checker, paddr))
        want = oracle.effective_perm(current, paddr)
        if got != want:
            flag(
                f"op {step}: checker resolves {got} at {paddr:#x} with domain "
                f"{current} current, oracle says {want}",
                op=step,
            )


def _check_footprints(monitor, oracle: MonitorOracle, system, report, flag, step: int) -> None:
    for domain_id, table in oracle.tables.items():
        report.checks += 1
        label = f"op {step}: domain {domain_id}"
        for message in footprint_violations(table, oracle.models.get(domain_id), label):
            flag(message, op=step)
        stray = [p for p in table.table_pages if not system.table_frames.owns(p)]
        if stray:
            flag(f"{label}: {len(stray)} table pages not owned by the table pool", op=step)


def _check_timed_parity(system, space, vas, report, flag, step: int) -> None:
    """Cold-walk cycle parity: one-reference access_run == access == hooked access.

    Hooks must never alter timing, and the run loop must agree with the
    result-returning scalar access; after a full flush all three are cold
    walks of identical state, so their cycle counts must match exactly.
    """
    machine = system.machine
    for va in vas:
        report.checks += 1
        machine.cold_boot()
        try:
            fast = machine.access_run(
                space.page_table, va, 0, 1, AccessType.READ, PrivilegeMode.USER, space.asid
            )[0]
        except AccessFault as exc:
            # The harness's working set lives outside every GMS, so the
            # current domain must always reach it; a fault here means an
            # entry escaped its region (e.g. a corrupted TOR lower bound).
            flag(f"op {step}: timed walk faulted on harness page VA {va:#x}: {exc}", op=step)
            continue
        machine.cold_boot()
        full = machine.access(
            space.page_table, va, AccessType.READ, PrivilegeMode.USER, space.asid
        ).cycles
        machine.cold_boot()
        hook = machine.install_selfcheck()
        try:
            hooked = machine.access(
                space.page_table, va, AccessType.READ, PrivilegeMode.USER, space.asid
            ).cycles
        except VerificationError as exc:
            flag(f"op {step}: {exc}", op=step)
            continue
        finally:
            machine.engine.remove_hook(hook)
        if not fast == full == hooked:
            flag(
                f"op {step}: cold-walk cycle parity broke at VA {va:#x}: "
                f"access_run={fast}, access={full}, hooked={hooked}",
                op=step,
            )


# ---------------------------------------------------------------------------
# GPT fuzz (ARM CCA analogue)
# ---------------------------------------------------------------------------

_GPT_PASES = (PAS.SECURE, PAS.NONSECURE, PAS.ROOT, PAS.REALM, PAS.ANY, PAS.NO_ACCESS)


class _PASOracle:
    """Flat granule → PAS map plus per-GiB descriptor-kind tracking."""

    def __init__(self, region: MemRegion):
        self.region = region
        self.blocks: Dict[int, PAS] = {}
        self.granules: Dict[int, Dict[int, PAS]] = {}
        self.pointer_gibs: set = set()

    def _gib_of(self, paddr: int) -> int:
        return (paddr - self.region.base) // GIB

    def set_block(self, gib: int, pas: PAS) -> None:
        self.blocks[gib] = pas
        self.granules.pop(gib, None)
        self.pointer_gibs.discard(gib)

    def set_granule(self, paddr: int, pas: PAS) -> None:
        gib = self._gib_of(paddr)
        self.pointer_gibs.add(gib)
        self.granules.setdefault(gib, {})[paddr & ~(PAGE_SIZE - 1)] = pas

    def pas_at(self, paddr: int) -> PAS:
        gib = self._gib_of(paddr)
        page = paddr & ~(PAGE_SIZE - 1)
        per_gib = self.granules.get(gib)
        if per_gib is not None and page in per_gib:
            return per_gib[page]
        return self.blocks.get(gib, PAS.NO_ACCESS)

    def expected_pages(self) -> int:
        return 1 + GPT.L1_PAGES_PER_GIB * len(self.pointer_gibs)


def fuzz_gpt(ops: int = 1000, seed: int = 0, check_every: int = 8) -> FuzzReport:
    """Fuzz the GPT against a flat PAS oracle (permissions + footprint)."""
    rng = random.Random(seed)
    memory = PhysicalMemory(16 * MIB, base=DRAM_BASE)
    allocator = FrameAllocator(memory.region)
    region = MemRegion(0x10_0000_0000, 4 * GIB)
    gpt = GPT(memory, allocator, region)
    oracle = _PASOracle(region)
    report = FuzzReport(scheme="gpt", ops=ops, seed=seed)
    num_gibs = region.size // GIB

    def flag(message: str, op: Optional[int] = None) -> None:
        report.flag(message, op)

    for step in range(ops):
        if len(report.violations) >= _MAX_VIOLATIONS:
            break
        roll = rng.random()
        pas = rng.choice(_GPT_PASES)
        if roll < 0.25:
            gib = rng.randrange(num_gibs)
            gpt.set_block(gib, pas)
            oracle.set_block(gib, pas)
        elif roll < 0.70:
            paddr = region.base + rng.randrange(region.size // PAGE_SIZE) * PAGE_SIZE
            gpt.set_granule(paddr, pas)
            oracle.set_granule(paddr, pas)
        else:
            pages = rng.randrange(1, 64)
            base = region.base + rng.randrange(region.size // PAGE_SIZE - pages) * PAGE_SIZE
            gpt.set_range(base, pages * PAGE_SIZE, pas)
            for offset in range(0, pages * PAGE_SIZE, PAGE_SIZE):
                oracle.set_granule(base + offset, pas)
        for _ in range(6):
            paddr = region.base + rng.randrange(region.size // PAGE_SIZE) * PAGE_SIZE
            report.checks += 1
            got, _addrs = gpt.lookup(paddr)
            want = oracle.pas_at(paddr)
            if got != want:
                flag(
                    f"op {step}: GPC lookup({paddr:#x}) = {got.name}, oracle says {want.name}",
                    op=step,
                )
        if step % check_every == 0:
            report.checks += 1
            for message in footprint_violations(gpt, label=f"op {step}: gpt"):
                flag(message, op=step)
            if oracle.expected_pages() != len(gpt.table_pages):
                flag(
                    f"op {step}: gpt holds {len(gpt.table_pages)} pages, oracle "
                    f"expects {oracle.expected_pages()}",
                    op=step,
                )
    report.checks += 1
    for message in footprint_violations(gpt, label="final: gpt"):
        flag(message)
    return report
