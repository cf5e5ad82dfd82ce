"""Tests for ePMP-sized (64-entry) register files under the secure monitor."""

from repro.common.errors import OutOfResources
from repro.common.types import KIB, AccessType, PrivilegeMode
from repro.soc.system import System
from repro.tee.monitor import SecureMonitor

S = PrivilegeMode.SUPERVISOR


def make(scheme, pmp_entries=16, mem_mib=256):
    system = System(machine="rocket", checker_kind=scheme, mem_mib=mem_mib, pmp_entries=pmp_entries)
    return system, SecureMonitor(system)


class TestEPMP:
    """Paper §4.3: future 64-entry ePMP grows both pools."""

    def test_pmp_scheme_capacity_scales(self):
        _, monitor16 = make("pmp", pmp_entries=16)
        _, monitor64 = make("pmp", pmp_entries=64)

        def capacity(monitor):
            count = 0
            try:
                for i in range(80):
                    d = monitor.create_domain(f"e{i}")
                    monitor.grant_region(d.domain_id, 64 * KIB)
                    count += 1
            except OutOfResources:
                pass
            return count

        cap16, cap64 = capacity(monitor16), capacity(monitor64)
        assert cap16 < 16 <= cap64
        assert cap64 - cap16 >= 40

    def test_hpmp_fast_pool_scales(self):
        system, monitor = make("hpmp", pmp_entries=64)
        domain = monitor.create_domain("big-app")
        monitor.switch_to(domain.domain_id)
        fast = 0
        for i in range(40):
            gms, _ = monitor.grant_region(domain.domain_id, 64 * KIB, label="fast")
            cost = system.checker.check(gms.region.base, AccessType.READ, S)
            if cost.refs == 0:
                fast += 1
        # 64 entries leave a much larger segment pool than the default 8.
        assert fast > 20

    def test_checks_still_work_at_64_entries(self):
        system, monitor = make("hpmp", pmp_entries=64)
        d = monitor.create_domain("e")
        gms, _ = monitor.grant_region(d.domain_id, 64 * KIB)
        monitor.switch_to(d.domain_id)
        assert system.checker.check(gms.region.base, AccessType.READ, S).refs == 2
