"""Integration tests for the paper's headline reference counts (Figure 2).

RISC-V Sv39, TLB miss, no PWC/PTE-cache state:

* page table only (PMP / no isolation): 4 references;
* page table + 2-level permission table: 12 references;
* HPMP (PT pages behind a segment): 6 references.
"""

import pytest

from repro.common.params import rocket
from repro.common.types import PAGE_SIZE, AccessType
from repro.soc.system import System

VA = 0x4000_0000


def cold_access(kind, machine="rocket", mode="sv39", va=VA):
    system = System(machine=machine, checker_kind=kind, mem_mib=128)
    space = system.new_address_space(mode=mode)
    space.map(va, PAGE_SIZE)
    system.machine.cold_boot()
    return system, space, system.access(space, va)


class TestSv39Counts:
    @pytest.mark.parametrize("kind,expected", [("none", 4), ("pmp", 4), ("pmpt", 12), ("hpmp", 6)])
    def test_total_references(self, kind, expected):
        _, _, result = cold_access(kind)
        assert result.total_refs == expected

    @pytest.mark.parametrize("kind,expected", [("pmp", 0), ("pmpt", 8), ("hpmp", 2)])
    def test_checker_references(self, kind, expected):
        _, _, result = cold_access(kind)
        assert result.checker_refs == expected

    def test_pt_references_always_three(self):
        for kind in ("none", "pmp", "pmpt", "hpmp"):
            _, _, result = cold_access(kind)
            assert result.pt_refs == 3


class TestDeeperTables:
    """Sv48: 5 base references; permission table adds 2 per reference -> 15."""

    @pytest.mark.parametrize(
        "mode,kind,expected",
        [
            ("sv48", "pmp", 5),
            ("sv48", "pmpt", 15),
            ("sv48", "hpmp", 7),
            ("sv57", "pmp", 6),
            ("sv57", "pmpt", 18),
            ("sv57", "hpmp", 8),
        ],
    )
    def test_counts(self, mode, kind, expected):
        _, _, result = cold_access(kind, mode=mode)
        assert result.total_refs == expected


class TestTLBHitPath:
    """With TLB inlining, a TLB hit costs the same under every scheme."""

    @pytest.mark.parametrize("kind", ["none", "pmp", "pmpt", "hpmp"])
    def test_hit_is_one_ref(self, kind):
        system, space, _ = cold_access(kind)
        result = system.access(space, VA)
        assert result.tlb_hit
        assert result.total_refs == 1
        assert result.checker_refs == 0

    def test_hit_latencies_identical_across_kinds(self):
        latencies = {}
        for kind in ("pmp", "pmpt", "hpmp"):
            system, space, _ = cold_access(kind)
            latencies[kind] = system.access(space, VA).cycles
        assert len(set(latencies.values())) == 1

    def test_without_inlining_hit_still_walks_table(self):
        system = System(machine=rocket().with_(tlb_inlining=False), checker_kind="pmpt", mem_mib=128)
        space = system.new_address_space()
        space.map(VA, PAGE_SIZE)
        system.machine.cold_boot()
        system.access(space, VA)
        result = system.access(space, VA)
        assert result.tlb_hit
        assert result.checker_refs == 2  # permission table walked on every hit


class TestLatencyOrdering:
    """Cold-access latency must order PMP < HPMP < PMPT on both cores."""

    @pytest.mark.parametrize("machine", ["rocket", "boom"])
    def test_cold_ordering(self, machine):
        cycles = {k: cold_access(k, machine=machine)[2].cycles for k in ("pmp", "hpmp", "pmpt")}
        assert cycles["pmp"] < cycles["hpmp"] < cycles["pmpt"]

    def test_hpmp_recovers_most_of_warm_gap(self):
        """With a warm system cache the extra cost is per-reference; HPMP
        removes 6 of the 8 extra references (the TC2 state: data and PT pages
        cached in L2, TLB and PWC flushed, L1 cold)."""
        results = {}
        for kind in ("pmp", "hpmp", "pmpt"):
            system, space, _ = cold_access(kind)
            system.machine.sfence_vma()
            system.machine.hierarchy.flush("l1")
            results[kind] = system.access(space, VA).cycles
        extra_pmpt = results["pmpt"] - results["pmp"]
        extra_hpmp = results["hpmp"] - results["pmp"]
        assert 0 < extra_hpmp < extra_pmpt
        # Paper: HPMP mitigates 23.1%-73.1% of the extra-dimensional cost.
        assert extra_hpmp <= extra_pmpt * 0.8
