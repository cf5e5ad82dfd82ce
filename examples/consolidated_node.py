#!/usr/bin/env python3
"""Scenario: a consolidated node running many enclaves concurrently.

Schedules a dozen enclaves round-robin (the paper's >100-instances-per-node
motivation, scaled to example size), with every quantum boundary paying the
monitor's real domain-switch cost.

Run:  python examples/consolidated_node.py
"""

from repro.common.types import KIB, PrivilegeMode, AccessType
from repro.soc.system import System
from repro.tee.monitor import SecureMonitor
from repro.tee.scheduler import RoundRobinScheduler

S = PrivilegeMode.SUPERVISOR
NUM_ENCLAVES = 12
QUANTA_PER_ENCLAVE = 6


def run_node(scheme: str) -> None:
    system = System(machine="boom", checker_kind=scheme, mem_mib=512)
    monitor = SecureMonitor(system)
    scheduler = RoundRobinScheduler(monitor)

    for i in range(NUM_ENCLAVES):
        domain = monitor.create_domain(f"svc-{i}")
        gms, _ = monitor.grant_region(domain.domain_id, 64 * KIB)
        remaining = [QUANTA_PER_ENCLAVE]
        base = gms.region.base

        def work(base=base, remaining=remaining):
            if remaining[0] == 0:
                return 0
            remaining[0] -= 1
            cycles = 0
            for k in range(16):  # touch our memory: checker-visible accesses
                cycles += system.checker.check(base + k * 4096 % (64 * KIB), AccessType.READ, S).cycles + 4
            return cycles

        scheduler.add(domain.domain_id, work, name=f"svc-{i}")

    result = scheduler.run()
    print(
        f"  {scheme:5s}: {result.quanta} quanta, work={result.work_cycles} cyc, "
        f"switches={result.switch_cycles} cyc ({100 * result.switch_overhead:.1f}% overhead)"
    )


def main() -> None:
    print(f"Round-robin over {NUM_ENCLAVES} enclaves, {QUANTA_PER_ENCLAVE} quanta each:")
    for scheme in ("pmpt", "hpmp"):
        run_node(scheme)
    print("  pmp  : cannot host 12 enclaves + regions within 16 entries in all layouts;")
    print("         see examples/serverless_node.py for the capacity wall.")


if __name__ == "__main__":
    main()
