"""Figure 14: TEE operation performance.

(a) domain-switch latency with 2 / 12 / 101 concurrent domains;
(b/c) 64 KiB region allocation / release latency over 100 regions;
(d) allocation latency for 1-64 MiB regions (huge-pmpte optimization).
"""

from __future__ import annotations

from typing import Dict, List

from ..common.errors import OutOfResources
from ..common.types import KIB, MIB
from ..soc.system import System
from ..tee.monitor import SecureMonitor
from .report import Claim, RowsByCell, Table, every, format_table

SCHEMES = ("pmp", "hpmp")


def _node(scheme: str, mem_mib: int = 512) -> SecureMonitor:
    system = System(machine="rocket", checker_kind=scheme, mem_mib=mem_mib)
    return SecureMonitor(system)


def run_domain_switch(domain_counts=(2, 12, 101)) -> List[Dict[str, object]]:
    """Figure 14-a: switch latency vs concurrent domains."""
    rows = []
    for count in domain_counts:
        row: Dict[str, object] = {"domains": count}
        for scheme in SCHEMES:
            monitor = _node(scheme)
            try:
                domains = []
                for i in range(count - 1):  # plus the host
                    d = monitor.create_domain(f"enclave-{i}")
                    monitor.grant_region(d.domain_id, 64 * KIB)
                    domains.append(d)
                # Measure a switch into the last domain (from the host when
                # only one enclave exists, else from the previous enclave).
                if len(domains) >= 2:
                    monitor.switch_to(domains[-2].domain_id)
                cycles = monitor.switch_to(domains[-1].domain_id)
                row[f"penglai-{scheme}"] = cycles
            except OutOfResources:
                row[f"penglai-{scheme}"] = "no available PMP"
        rows.append(row)
    return rows


def run_region_alloc_release(num_regions: int = 100, region_kib: int = 64) -> List[Dict[str, object]]:
    """Figure 14-b/c: per-region grant and revoke latency."""
    rows: List[Dict[str, object]] = [
        {"region": i + 1, "penglai-pmp_alloc": None, "penglai-hpmp_alloc": None,
         "penglai-pmp_release": None, "penglai-hpmp_release": None}
        for i in range(num_regions)
    ]
    for scheme in SCHEMES:
        monitor = _node(scheme)
        domain = monitor.create_domain("worker")
        granted = []
        for i in range(num_regions):
            try:
                gms, cycles = monitor.grant_region(domain.domain_id, region_kib * KIB)
                granted.append(gms)
                rows[i][f"penglai-{scheme}_alloc"] = cycles
            except OutOfResources:
                rows[i][f"penglai-{scheme}_alloc"] = "exhausted"
        for i, gms in enumerate(granted):
            rows[i][f"penglai-{scheme}_release"] = monitor.revoke_region(domain.domain_id, gms)
    return rows


def run_alloc_sizes(sizes_mib=(1, 2, 4, 8, 16, 32, 64)) -> List[Dict[str, object]]:
    """Figure 14-d: Penglai-HPMP allocation latency vs region size."""
    rows = []
    monitor = _node("hpmp", mem_mib=512)
    domain = monitor.create_domain("big")
    for size in sizes_mib:
        gms, cycles = monitor.grant_region(domain.domain_id, size * MIB)
        rows.append({"size_mib": size, "penglai-hpmp": cycles})
        monitor.revoke_region(domain.domain_id, gms)
    return rows


def render(rows_by_cell: RowsByCell) -> List[Table]:
    """Figure 14's switch (a), region grant/revoke (b/c) and size (d) tables."""
    switch = rows_by_cell["domain-switch"]
    by_domains = {row["domains"]: row for row in switch}
    regions = rows_by_cell["region-alloc-release"]
    pmp_ok = [row for row in regions if isinstance(row["penglai-pmp_alloc"], int)]
    hpmp_ok = [row for row in regions if isinstance(row["penglai-hpmp_alloc"], int)]
    steady = [row for row in hpmp_ok[1:] if isinstance(row["penglai-pmp_alloc"], int)]
    sizes = rows_by_cell["alloc-sizes"]
    by_size = {row["size_mib"]: row["penglai-hpmp"] for row in sizes}
    return [
        Table(
            "fig14a_domain_switch",
            format_table(
                ["domains", "penglai-pmp", "penglai-hpmp"],
                switch,
                title="Figure 14-a: domain switch cycles (paper: <1% apart; PMP fails at 101)",
            ),
            (
                Claim(
                    "switch: hpmp within 5% of pmp at 2 and 12 domains",
                    "domain-switch",
                    all(
                        abs(by_domains[n]["penglai-hpmp"] - by_domains[n]["penglai-pmp"]) / by_domains[n]["penglai-pmp"] < 0.05
                        for n in (2, 12)
                    ),
                ),
                Claim("switch: PMP has no entry left at 101 domains", "domain-switch",
                      by_domains[101]["penglai-pmp"] == "no available PMP"),
                Claim("switch: HPMP switches 101 domains", "domain-switch",
                      isinstance(by_domains[101]["penglai-hpmp"], int)),
            ),
        ),
        Table(
            "fig14bc_region_alloc_release",
            format_table(
                ["region", "penglai-pmp_alloc", "penglai-hpmp_alloc", "penglai-pmp_release", "penglai-hpmp_release"],
                regions,
                title="Figure 14-b/c: 64 KiB region grant/revoke cycles "
                "(paper: PMP supports few regions; HPMP slightly slower but unlimited)",
            ),
            (
                Claim("regions: PMP grants fewer than 16", "region-alloc-release", len(pmp_ok) < 16, f"pmp granted {len(pmp_ok)}"),
                Claim("regions: HPMP grants all 100", "region-alloc-release", len(hpmp_ok) == 100, f"hpmp granted {len(hpmp_ok)}"),
                every("regions: steady-state hpmp grant >= pmp grant", "region-alloc-release", steady,
                      lambda r: r["penglai-hpmp_alloc"] >= r["penglai-pmp_alloc"], "region"),
            ),
        ),
        Table(
            "fig14d_alloc_sizes",
            format_table(
                ["size_mib", "penglai-hpmp"],
                sizes,
                title="Figure 14-d: allocation cycles vs size (paper: grows with size; "
                "32 MiB regions collapse to one huge pmpte write)",
            ),
            (
                Claim("alloc size: cost grows 2 < 4 < 16 MiB", "alloc-sizes", by_size[16] > by_size[4] > by_size[2]),
                Claim("alloc size: 32 MiB cheaper than 2 MiB", "alloc-sizes", by_size[32] < by_size[2]),
            ),
        ),
    ]
