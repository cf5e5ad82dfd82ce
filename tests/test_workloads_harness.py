"""Tests for the workload harness (ArrayMap / HeapMap) and hwcost model."""

import pytest

from repro.common.errors import WorkloadError
from repro.common.params import boom, rocket
from repro.common.types import PAGE_SIZE
from repro.mem.allocator import FrameAllocator
from repro.common.types import MemRegion
from repro.soc.hwcost import baseline_inventory, cost_report, hpmp_additions
from repro.soc.system import System
from repro.workloads.harness import ArrayMap, HeapMap


@pytest.fixture
def system():
    return System(machine="rocket", checker_kind="pmp", mem_mib=128)


class TestArrayMap:
    def test_add_and_access(self, system):
        arrays = ArrayMap(system)
        arrays.add("a", 1000)
        assert arrays.read("a", 0) > 0
        assert arrays.write("a", 999) > 0
        assert arrays.accesses == 2

    def test_duplicate_name_rejected(self, system):
        arrays = ArrayMap(system)
        arrays.add("a", 10)
        with pytest.raises(WorkloadError):
            arrays.add("a", 10)

    def test_bounds_checked(self, system):
        arrays = ArrayMap(system)
        arrays.add("a", 10)
        with pytest.raises(WorkloadError):
            arrays.read("a", 10)
        with pytest.raises(WorkloadError):
            arrays.read("a", -1)

    def test_arrays_do_not_overlap(self, system):
        arrays = ArrayMap(system)
        arrays.add("a", 512)
        arrays.add("b", 512)
        assert arrays.va("b", 0) >= arrays.va("a", 511) + 8

    def test_compute_accumulates(self, system):
        arrays = ArrayMap(system)
        arrays.compute(100)
        assert arrays.cycles == 100

    def test_frames_source(self, system):
        # Fence 64 frames off the system's data pool, then allocate only from them.
        region = MemRegion(system.data_frames.alloc_contiguous(64), 64 * PAGE_SIZE)
        frames = FrameAllocator(region)
        arrays = ArrayMap(system, frames=frames)
        arrays.add("a", 100)
        pa = arrays.space.pa_of(arrays.va("a", 0))
        assert region.contains(pa)


class TestHeapMap:
    def test_slots_are_scattered_but_stable(self, system):
        heap = HeapMap(system, num_objects=256, obj_bytes=64, seed=1)
        vas = [heap.va_of(i) for i in range(256)]
        assert len(set(vas)) == 256  # bijective
        assert vas != sorted(vas)  # shuffled
        assert heap.va_of(3) == heap.va_of(3)  # stable

    def test_same_seed_same_layout(self, system):
        a = HeapMap(system, num_objects=64, seed=9)
        system2 = System(machine="rocket", checker_kind="pmp", mem_mib=128)
        b = HeapMap(system2, num_objects=64, seed=9)
        assert [a.va_of(i) for i in range(64)] == [b.va_of(i) for i in range(64)]

    def test_touch_counts_accesses(self, system):
        heap = HeapMap(system, num_objects=16)
        heap.touch(3, reads=2, writes=1)
        assert heap.accesses == 3

    def test_bad_obj_bytes(self, system):
        with pytest.raises(WorkloadError):
            HeapMap(system, num_objects=8, obj_bytes=12)

    def test_field_offset_stays_in_object(self, system):
        heap = HeapMap(system, num_objects=8, obj_bytes=64)
        assert heap.va_of(0, field_offset=56) - heap.va_of(0) == 56


class TestHWCost:
    def test_baseline_dominated_by_caches_and_core(self):
        modules = {m.name: m for m in baseline_inventory(boom())}
        assert modules["l2"].state_bits > modules["pmp"].state_bits * 100

    def test_additions_are_tiny(self):
        add_bits = sum(m.state_bits for m in hpmp_additions(boom()))
        base_bits = sum(m.state_bits for m in baseline_inventory(boom()))
        assert add_bits / base_bits < 0.02

    def test_t_bit_costs_no_state(self):
        t_bit = next(m for m in hpmp_additions(boom()) if "t_bit" in m.name)
        assert t_bit.state_bits == 0  # reuses the reserved config bit

    def test_report_shape(self):
        report = cost_report(rocket())
        assert set(report) == {"FF(state bits)", "LUT(logic proxy)"}
        for row in report.values():
            assert 0 < row["cost_%"] < 2.0
            assert row["hpmp"] > row["baseline"]

    def test_hypervisor_grows_baseline(self):
        plain = cost_report(boom())["FF(state bits)"]
        hyper = cost_report(boom(), hypervisor=True)["FF(state bits)"]
        assert hyper["baseline"] > plain["baseline"]
