"""Microbenchmarks: single-access latency (Table 2 / Figure 10) and the
memory-fragmentation patterns (Figure 15 / 16).

The four test-case states of Table 2:

========  ======  =========  =========  =========  =====
Case      Cache   PWC (L2)   PWC (L1)   PWC (L0)   TLB
========  ======  =========  =========  =========  =====
TC1       Cold    Miss       Miss       Miss       Miss
TC2       Warm    Miss       Miss       Miss       Miss
TC3       Warm    Hit        Hit        Miss       Miss
TC4       Warm    Hit        Hit        Hit        Hit
========  ======  =========  =========  =========  =====

"Warm" cache means the *system* cache (L2/LLC) holds the data, PT pages and
permission-table pages; TC2 models the state right after an ``sfence.vma``
(TLB and PWC flushed, L1 also cold).  TC3 models an application stepping to
the adjacent page: the walk prefix and all table lines are hot, only the
leaf PTE level must be re-read.  TC4 is a plain TLB hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..common.errors import WorkloadError
from ..common.params import machine_params
from ..common.types import GIB, PAGE_SIZE, AccessType, PrivilegeMode
from ..soc.system import AddressSpace, System

TEST_CASES = ("TC1", "TC2", "TC3", "TC4")

#: Base VA used by the latency microbenchmark.  Non-zero VPN indices at every
#: level so PTE offsets inside table pages are representative.
PROBE_VA = 0x40_1234_5000


@dataclass(frozen=True)
class LatencyPoint:
    """One measured (test-case, checker) latency."""

    case: str
    cycles: int
    total_refs: int


def _prepare_tc(system: System, space: AddressSpace, va: int, case: str, access: AccessType) -> None:
    """Drive the machine into the Table 2 state for *case* before measuring."""
    machine = system.machine
    if case == "TC1":
        machine.cold_boot()
        return
    if case == "TC2":
        machine.cold_boot()
        machine.access(space.page_table, va, access, asid=space.asid)
        machine.sfence_vma()
        machine.hierarchy.flush("l1")
        flush = getattr(machine.checker, "flush_caches", None)
        if flush:
            flush()
        return
    if case == "TC3":
        machine.cold_boot()
        # Warm the walk prefix and all cache lines via the *neighbor* page,
        # then warm the target's data line; drop only the target's TLB entry.
        machine.access(space.page_table, va - PAGE_SIZE, access, asid=space.asid)
        machine.access(space.page_table, va, access, asid=space.asid)
        machine.tlb.flush_page(va, asid=space.asid)
        return
    if case == "TC4":
        machine.cold_boot()
        machine.access(space.page_table, va, access, asid=space.asid)
        machine.access(space.page_table, va, access, asid=space.asid)
        return
    raise WorkloadError(f"unknown test case {case!r}")


def measure_latency(
    system: System,
    case: str,
    access: AccessType = AccessType.READ,
    va: int = PROBE_VA,
) -> LatencyPoint:
    """Measure one ld/sd latency in the given Table 2 state."""
    space = system.new_address_space()
    space.map(va - PAGE_SIZE, 2 * PAGE_SIZE)
    _prepare_tc(system, space, va, case, access)
    result = system.access(space, va, access)
    return LatencyPoint(case, result.cycles, result.total_refs)


def latency_sweep(
    machine: str,
    kinds: Tuple[str, ...] = ("pmpt", "hpmp", "pmp"),
    access: AccessType = AccessType.READ,
) -> Dict[str, Dict[str, LatencyPoint]]:
    """Figure 10: latency of every (checker, test case) pair on one core."""
    results: Dict[str, Dict[str, LatencyPoint]] = {}
    for kind in kinds:
        per_case = {}
        for case in TEST_CASES:
            system = System(machine=machine, checker_kind=kind, mem_mib=128)
            per_case[case] = measure_latency(system, case, access)
        results[kind] = per_case
    return results


# -- fragmentation microbenchmark (Figures 15 and 16) -----------------------

#: Stride used by the paper's "Fragmented-VA" pattern: 8 GiB + 4 KiB.
FRAGMENTED_VA_STRIDE = 8 * GIB + PAGE_SIZE
CONTIGUOUS_VA_STRIDE = PAGE_SIZE


@dataclass(frozen=True)
class FragmentationResult:
    """Mean per-access latency for one (VA pattern, PA layout, checker)."""

    va_pattern: str  # "Contiguous-VA" | "Fragmented-VA"
    pa_layout: str  # "contiguous" | "fragmented"
    checker: str
    mean_cycles: float
    accesses: int


def run_fragmentation(
    checker_kind: str,
    va_pattern: str,
    pa_fragmented: bool,
    machine: str = "rocket",
    num_pages: int = 64,
    pmptw_cache_enabled: bool = False,
    passes: int = 1,
    flush_tlb_between_passes: bool = False,
    seed: int = 0,
) -> FragmentationResult:
    """Access *num_pages* virtual pages under one of the four 2x2 settings.

    Mirrors paper §8.8: "Fragmented-VA" steps 8 GiB + 4 KiB between pages so
    every access needs a fresh walk subtree; fragmented physical pages come
    from a scattered frame allocator (PTE locality destroyed).

    §8.9's caching study (Figure 16) revisits the pages over several
    *passes* with the TLB flushed in between (a server under sfence-heavy
    load): every access re-walks, so the PMPTW-Cache's retained pmptes pay
    off — including for the data pages HPMP does not cover.
    """
    if va_pattern not in ("Contiguous-VA", "Fragmented-VA"):
        raise WorkloadError(f"unknown VA pattern {va_pattern!r}")
    stride = FRAGMENTED_VA_STRIDE if va_pattern == "Fragmented-VA" else CONTIGUOUS_VA_STRIDE
    system = System(
        machine=machine_params(machine).with_(pmptw_cache_enabled=pmptw_cache_enabled),
        checker_kind=checker_kind,
        mem_mib=256,
        scatter_data_frames=pa_fragmented,
        seed=seed,
    )
    space = system.new_address_space()
    base_va = 0x10_0000_0000
    vas: List[int] = [base_va + i * stride for i in range(num_pages)]
    for va in vas:
        space.map(va, PAGE_SIZE, contiguous_pa=not pa_fragmented)
    system.machine.cold_boot()
    total = 0
    accesses = 0
    machine = system.machine
    for pass_index in range(passes):
        if flush_tlb_between_passes and pass_index:
            machine.sfence_vma()
        # One fixed-stride run per pass (the VAs are an arithmetic sequence).
        total += machine.access_run(
            space.page_table, base_va, stride, num_pages,
            AccessType.READ, PrivilegeMode.USER, space.asid,
        )[0]
        accesses += num_pages
    return FragmentationResult(
        va_pattern,
        "fragmented" if pa_fragmented else "contiguous",
        checker_kind,
        total / accesses,
        accesses,
    )
