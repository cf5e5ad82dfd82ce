"""Tests for the secure monitor: domains, GMS, schemes, isolation."""

import pytest

from repro.common.errors import AccessFault, ConfigurationError, MonitorError, OutOfResources
from repro.common.types import KIB, MIB, AccessType, MemRegion, Permission, PrivilegeMode
from repro.soc.system import System
from repro.tee.gms import GMS
from repro.tee.monitor import HOST_DOMAIN_ID, SecureMonitor

S = PrivilegeMode.SUPERVISOR


def make(scheme, mem_mib=256):
    system = System(machine="rocket", checker_kind=scheme, mem_mib=mem_mib)
    return system, SecureMonitor(system)


class TestGMS:
    def test_label_validation(self):
        with pytest.raises(ConfigurationError):
            GMS(MemRegion(0, 4096), Permission.rw(), label="warm")

    def test_relabel(self):
        gms = GMS(MemRegion(0, 4096), Permission.rw())
        gms.relabel("fast")
        assert gms.fast
        with pytest.raises(ConfigurationError):
            gms.relabel("lukewarm")


class TestLifecycle:
    @pytest.mark.parametrize("scheme", ["pmp", "pmpt", "hpmp"])
    def test_create_grant_switch_destroy(self, scheme):
        _, monitor = make(scheme)
        domain = monitor.create_domain("enclave")
        gms, cycles = monitor.grant_region(domain.domain_id, 64 * KIB)
        assert cycles > 0
        assert monitor.switch_to(domain.domain_id) > 0
        assert monitor.current_domain_id == domain.domain_id
        monitor.destroy_domain(domain.domain_id)
        assert monitor.current_domain_id == HOST_DOMAIN_ID
        with pytest.raises(MonitorError):
            monitor.domain(domain.domain_id)

    def test_host_cannot_be_destroyed(self):
        _, monitor = make("hpmp")
        with pytest.raises(MonitorError):
            monitor.destroy_domain(HOST_DOMAIN_ID)

    def test_pmp_domain_wall(self):
        _, monitor = make("pmp")
        created = 0
        with pytest.raises(OutOfResources):
            for i in range(40):
                d = monitor.create_domain(f"e{i}")
                monitor.grant_region(d.domain_id, 64 * KIB)
                created += 1
        assert created < 16

    def test_hpmp_supports_many_domains(self):
        _, monitor = make("hpmp", mem_mib=512)
        for i in range(101):
            d = monitor.create_domain(f"e{i}")
            monitor.grant_region(d.domain_id, 64 * KIB)
        assert len(monitor.domains) == 102  # + host

    def test_revoke_returns_memory(self):
        system, monitor = make("hpmp")
        free_before = system.data_frames.free_frames
        d = monitor.create_domain("e")
        gms, _ = monitor.grant_region(d.domain_id, 128 * KIB)
        monitor.revoke_region(d.domain_id, gms)
        assert system.data_frames.free_frames == free_before

    def test_revoke_foreign_gms_rejected(self):
        _, monitor = make("hpmp")
        d1 = monitor.create_domain("a")
        d2 = monitor.create_domain("b")
        gms, _ = monitor.grant_region(d1.domain_id, 64 * KIB)
        with pytest.raises(MonitorError):
            monitor.revoke_region(d2.domain_id, gms)


class TestIsolation:
    """Functional security: domains cannot touch each other's memory."""

    @pytest.mark.parametrize("scheme", ["pmp", "pmpt", "hpmp"])
    def test_private_memory_blocked_across_domains(self, scheme):
        system, monitor = make(scheme)
        d1 = monitor.create_domain("victim")
        d2 = monitor.create_domain("attacker")
        gms, _ = monitor.grant_region(d1.domain_id, 64 * KIB)
        secret_pa = gms.region.base

        monitor.switch_to(d1.domain_id)
        system.checker.check(secret_pa, AccessType.READ, S)  # owner may access

        monitor.switch_to(d2.domain_id)
        with pytest.raises(AccessFault):
            system.checker.check(secret_pa, AccessType.READ, S)

    @pytest.mark.parametrize("scheme", ["pmp", "pmpt", "hpmp"])
    def test_host_blocked_from_enclave_memory(self, scheme):
        system, monitor = make(scheme)
        d = monitor.create_domain("enclave")
        gms, _ = monitor.grant_region(d.domain_id, 64 * KIB)
        monitor.switch_to(HOST_DOMAIN_ID)
        with pytest.raises(AccessFault):
            system.checker.check(gms.region.base, AccessType.READ, S)

    @pytest.mark.parametrize("scheme", ["pmp", "pmpt", "hpmp"])
    def test_monitor_memory_always_protected(self, scheme):
        system, monitor = make(scheme)
        with pytest.raises(AccessFault):
            system.checker.check(system.table_region.base, AccessType.READ, S)

    @pytest.mark.parametrize("scheme", ["pmpt", "hpmp"])
    def test_domain_created_later_cannot_see_earlier_grants(self, scheme):
        """Regression: a fresh domain's default table must carve out memory
        that was already granted privately to existing domains."""
        system, monitor = make(scheme)
        victim = monitor.create_domain("victim")
        gms, _ = monitor.grant_region(victim.domain_id, 64 * KIB)
        late = monitor.create_domain("late-attacker")
        monitor.switch_to(late.domain_id)
        with pytest.raises(AccessFault):
            system.checker.check(gms.region.base, AccessType.READ, S)

    def test_host_regains_access_after_revoke(self):
        system, monitor = make("hpmp")
        d = monitor.create_domain("enclave")
        gms, _ = monitor.grant_region(d.domain_id, 64 * KIB)
        pa = gms.region.base
        monitor.revoke_region(d.domain_id, gms)
        monitor.switch_to(HOST_DOMAIN_ID)
        system.checker.check(pa, AccessType.READ, S)

    def test_destroyed_domain_memory_unreachable_by_old_view(self):
        system, monitor = make("hpmp")
        d = monitor.create_domain("gone")
        gms, _ = monitor.grant_region(d.domain_id, 64 * KIB)
        monitor.switch_to(d.domain_id)
        monitor.destroy_domain(d.domain_id)
        # After destroy we are back in the host view; the frame was recycled
        # to the host pool and is host-accessible again (no dangling grants).
        system.checker.check(gms.region.base, AccessType.READ, S)


class TestHPMPSpecifics:
    def test_fast_gms_uses_segment_entry(self):
        system, monitor = make("hpmp")
        d = monitor.create_domain("e")
        gms, _ = monitor.grant_region(d.domain_id, 64 * KIB, label="fast")
        monitor.switch_to(d.domain_id)
        cost = system.checker.check(gms.region.base, AccessType.READ, S)
        assert cost.refs == 0  # covered by a segment, no table walk

    def test_slow_gms_walks_table(self):
        system, monitor = make("hpmp")
        d = monitor.create_domain("e")
        gms, _ = monitor.grant_region(d.domain_id, 64 * KIB, label="slow")
        monitor.switch_to(d.domain_id)
        cost = system.checker.check(gms.region.base, AccessType.READ, S)
        assert cost.refs == 2

    def test_relabel_is_register_only(self):
        system, monitor = make("hpmp")
        d = monitor.create_domain("e")
        gms, _ = monitor.grant_region(d.domain_id, 64 * KIB, label="slow")
        monitor.switch_to(d.domain_id)
        writes_before = d.table.entry_writes
        monitor.relabel(d.domain_id, gms, "fast")
        assert d.table.entry_writes == writes_before  # cache-style: no table writes
        cost = system.checker.check(gms.region.base, AccessType.READ, S)
        assert cost.refs == 0

    def test_relabel_back_to_slow_falls_back_to_table(self):
        system, monitor = make("hpmp")
        d = monitor.create_domain("e")
        gms, _ = monitor.grant_region(d.domain_id, 64 * KIB, label="fast")
        monitor.switch_to(d.domain_id)
        monitor.relabel(d.domain_id, gms, "fast")
        monitor.relabel(d.domain_id, gms, "slow")
        cost = system.checker.check(gms.region.base, AccessType.READ, S)
        assert cost.refs == 2  # still accessible through the table

    def test_fast_segments_follow_domain_switch(self):
        system, monitor = make("hpmp")
        d1 = monitor.create_domain("a")
        d2 = monitor.create_domain("b")
        g1, _ = monitor.grant_region(d1.domain_id, 64 * KIB, label="fast")
        monitor.grant_region(d2.domain_id, 64 * KIB, label="slow")
        monitor.switch_to(d1.domain_id)
        assert system.checker.check(g1.region.base, AccessType.READ, S).refs == 0
        monitor.switch_to(d2.domain_id)
        with pytest.raises(AccessFault):
            system.checker.check(g1.region.base, AccessType.READ, S)

    def test_switch_cost_stable_with_domain_count(self):
        _, monitor = make("hpmp", mem_mib=512)
        domains = []
        for i in range(30):
            d = monitor.create_domain(f"e{i}")
            monitor.grant_region(d.domain_id, 64 * KIB)
            domains.append(d)
        monitor.switch_to(domains[0].domain_id)
        early = monitor.switch_to(domains[1].domain_id)
        late = monitor.switch_to(domains[-1].domain_id)
        assert abs(late - early) <= early * 0.05

    def test_scheme_mismatch_rejected(self):
        system = System(machine="rocket", checker_kind="pmp", mem_mib=128)
        with pytest.raises(ConfigurationError):
            SecureMonitor(system, scheme="hpmp")
