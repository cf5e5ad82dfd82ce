"""Analytical hardware-cost model (substitution for paper Table 4).

Vivado LUT/FF counts cannot be reproduced in Python, so we count what *can*
be counted analytically: the architectural and micro-architectural state
bits (flip-flop analogue) and a comparator/mux-complexity proxy (LUT
analogue) of the baseline SoC versus the HPMP-extended SoC.  The claim being
checked is Table 4's *shape* — HPMP adds well under ~1-2 % to the top module
— which follows from the additions being a handful of small structures next
to multi-KiB caches and TLBs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..common.params import MachineParams

PA_BITS = 44
PERM_BITS = 3

# -- SMP cost constants (multi-hart secure monitor, §5 concurrency model) ----
#
# The monitor serializes domain/table mutations behind one lock; a
# contended acquire costs the queueing delay (below) plus this fixed
# uncontended acquire cost (an LR/SC pair hitting the shared LLC line).
MONITOR_LOCK_ACQUIRE_CYCLES = 40
#: Delivering one inter-processor interrupt to a remote hart: CLINT MMIO
#: store + interrupt latency + remote trap entry to the flush handler.
IPI_DELIVERY_CYCLES = 600


def lock_queue_delay(now: int, busy_until: int) -> int:
    """Cycles a hart arriving at *now* waits for a lock busy until *busy_until*.

    Virtual-time queueing: the monitor records when its current critical
    section ends; a later arrival spins for the remainder.  Arriving at or
    after ``busy_until`` (or with no holder) costs nothing.
    """
    return busy_until - now if busy_until > now else 0


@dataclass(frozen=True)
class ModuleCost:
    """State bits and logic proxy for one hardware module."""

    name: str
    state_bits: int
    logic_units: int  # comparator/mux complexity proxy


def _cache_bits(size_bytes: int, ways: int, line_bytes: int) -> int:
    """Data + tag + valid/dirty + LRU bits of one cache."""
    lines = size_bytes // line_bytes
    sets = lines // ways
    tag_bits = PA_BITS - (sets.bit_length() - 1) - (line_bytes.bit_length() - 1)
    per_line = line_bytes * 8 + tag_bits + 2
    lru = lines * max(1, ways.bit_length() - 1)
    return lines * per_line + lru


def _tlb_bits(entries: int, vpn_bits: int = 27, extra: int = 0) -> int:
    per_entry = vpn_bits + PA_BITS - 12 + 8 + extra  # VPN + PPN + flags
    return entries * per_entry


def baseline_inventory(params: MachineParams) -> List[ModuleCost]:
    """State inventory of the unmodified core + memory system."""
    modules = [
        ModuleCost("l1i", _cache_bits(params.l1i.size_bytes, params.l1i.ways, params.l1i.line_bytes), 4000),
        ModuleCost("l1d", _cache_bits(params.l1d.size_bytes, params.l1d.ways, params.l1d.line_bytes), 6000),
        ModuleCost("l2", _cache_bits(params.l2.size_bytes, params.l2.ways, params.l2.line_bytes), 9000),
        ModuleCost("l1_tlb", 2 * _tlb_bits(params.l1_tlb.entries), 2500),
        ModuleCost("l2_tlb", _tlb_bits(params.l2_tlb.entries), 3000),
        ModuleCost("ptw+pwc", 512 + params.ptecache_entries * (PA_BITS + 64), 2200),
        # Core pipeline state: regfiles, ROB-ish structures, branch predictor.
        ModuleCost("core", 64 * 64 * 2 + 128 * 80 + 28 * 1024 * 8, 180_000),
        ModuleCost("pmp", 16 * (54 + 8), 1800),  # 16 x (addr + config) + match logic
    ]
    return modules


def hpmp_additions(params: MachineParams, pmptw_cache_entries: int = 8) -> List[ModuleCost]:
    """What the HPMP extension adds (paper §7: PMP Table Checker)."""
    return [
        # T bit exists already (reserved bit 5 reused): zero new register bits.
        ModuleCost("hpmp_t_bit_decode", 0, 140),
        # PMPT walker: two pmpte latches, offset splitter, state machine.
        ModuleCost("pmptw", 2 * 64 + PA_BITS + 16, 900),
        # PMPTW-Cache: fully associative, pmpte address + payload per entry.
        ModuleCost("pmptw_cache", pmptw_cache_entries * (PA_BITS + 64 + 1), 450),
        # TLB permission inlining: 3 permission bits per TLB entry.
        ModuleCost(
            "tlb_inline_perms",
            PERM_BITS * (2 * params.l1_tlb.entries + params.l2_tlb.entries),
            260,
        ),
    ]


def cost_report(params: MachineParams, hypervisor: bool = False) -> Dict[str, Dict[str, float]]:
    """Table-4-shaped report: baseline vs HPMP state bits and logic proxy.

    ``hypervisor=True`` adds the H-extension structures (G-stage TLB and a
    second walker context) to the baseline, mirroring the paper's "+H" rows.
    """
    base = baseline_inventory(params)
    if hypervisor:
        base = base + [
            ModuleCost("g_tlb", _tlb_bits(params.l1_tlb.entries, extra=2), 1600),
            ModuleCost("hs_walk_ctx", 700, 900),
        ]
    additions = hpmp_additions(params, params.pmptw_cache_entries)
    base_bits = sum(m.state_bits for m in base)
    base_logic = sum(m.logic_units for m in base)
    add_bits = sum(m.state_bits for m in additions)
    add_logic = sum(m.logic_units for m in additions)
    return {
        "FF(state bits)": {
            "baseline": base_bits,
            "hpmp": base_bits + add_bits,
            "cost_%": 100.0 * add_bits / base_bits,
        },
        "LUT(logic proxy)": {
            "baseline": base_logic,
            "hpmp": base_logic + add_logic,
            "cost_%": 100.0 * add_logic / base_logic,
        },
    }
