#!/usr/bin/env python3
"""Scenario: using the library for design-space exploration.

Sweeps the micro-architectural knobs a designer would tune — permission-table
depth, PMPTW-Cache size, page-walk-cache size, TLB inlining — and reports
their effect on a TLB-hostile pointer-chase workload.  This is the kind of
study the paper's §8.9 and §9 sketch as future work.

Run:  python examples/design_space.py
"""

from repro.common.params import machine_params
from repro.common.types import PAGE_SIZE
from repro.isolation.pmptable import MODE_2LEVEL, MODE_3LEVEL, MODE_FLAT
from repro.soc.system import System
from repro.workloads.microbench import FRAGMENTED_VA_STRIDE


def chase(system: System, pages: int = 48, passes: int = 3) -> float:
    """Mean cycles/access over a fragmented-VA pointer chase with re-walks."""
    space = system.new_address_space()
    vas = [0x10_0000_0000 + i * FRAGMENTED_VA_STRIDE for i in range(pages)]
    for va in vas:
        space.map(va, PAGE_SIZE, contiguous_pa=False)
    system.machine.cold_boot()
    total = accesses = 0
    for p in range(passes):
        if p:
            system.machine.sfence_vma()
        for va in vas:
            total += system.access(space, va).cycles
            accesses += 1
    return total / accesses


def scan(system: System, pages: int = 512, passes: int = 2) -> float:
    """Contiguous scan with TLB flushes: walks share PWC-cacheable prefixes."""
    space = system.new_address_space()
    base = 0x10_0000_0000
    space.map(base, pages * PAGE_SIZE)
    system.machine.cold_boot()
    total = accesses = 0
    for p in range(passes):
        if p:
            system.machine.tlb.flush()  # keep the PWC, drop translations
        for i in range(pages):
            total += system.access(space, base + i * PAGE_SIZE).cycles
            accesses += 1
    return total / accesses


def hot_loop(system: System, pages: int = 8, rounds: int = 64) -> float:
    """A TLB-hitting hot loop: where permission inlining pays off."""
    space = system.new_address_space()
    base = 0x10_0000_0000
    space.map(base, pages * PAGE_SIZE)
    system.machine.cold_boot()
    total = accesses = 0
    for _ in range(rounds):
        for i in range(pages):
            total += system.access(space, base + i * PAGE_SIZE).cycles
            accesses += 1
    return total / accesses


def main() -> None:
    print("Permission-table depth (pmpt checker):")
    for mode, label in ((MODE_FLAT, "1-level"), (MODE_2LEVEL, "2-level"), (MODE_3LEVEL, "3-level")):
        system = System(machine="rocket", checker_kind="pmpt", mem_mib=256, table_mode=mode)
        print(f"  {label:8s}: {chase(system):7.1f} cycles/access, "
              f"table footprint {system.setup.table.footprint_bytes() // 1024} KiB")

    print("\nPMPTW-Cache size (pmpt checker):")
    for entries in (0, 4, 8, 16, 32):
        params = machine_params("rocket").with_(
            pmptw_cache_entries=entries, pmptw_cache_enabled=entries > 0
        )
        system = System(machine=params, checker_kind="pmpt", mem_mib=256)
        print(f"  {entries:3d} entries: {chase(system):7.1f} cycles/access")

    print("\nPage-walk-cache size (hpmp checker, contiguous scan with re-walks):")
    for entries in (0, 8, 32):
        params = machine_params("rocket").with_(ptecache_entries=entries)
        system = System(machine=params, checker_kind="hpmp", mem_mib=256)
        print(f"  {entries:3d} entries: {scan(system):7.1f} cycles/access")

    print("\nTLB permission inlining (pmpt checker, hot loop):")
    for inlining in (True, False):
        params = machine_params("rocket").with_(tlb_inlining=inlining)
        system = System(machine=params, checker_kind="pmpt", mem_mib=256)
        print(f"  {'on ' if inlining else 'off'}: {hot_loop(system):7.1f} cycles/access")


if __name__ == "__main__":
    main()
