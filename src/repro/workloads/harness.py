"""Shared machinery for user-level workload models.

:class:`ArrayMap` lays out named arrays in a process address space and turns
element accesses into timed machine accesses; :class:`HeapMap` provides a
malloc-like scatter of fixed-size objects for pointer-chasing workloads
(linked lists, hash-table entries).  All workload models (GAP, RV8, Redis,
FunctionBench) are built on these, so their memory behaviour — locality,
footprint, TLB reach — is explicit and inspectable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from ..common.errors import WorkloadError
from ..common.types import PAGE_SIZE, AccessType, Permission, PrivilegeMode
from ..mem.allocator import FrameAllocator
from ..soc.system import AddressSpace, System

USER_ARRAY_BASE = 0x0000_2000_0000
USER_HEAP_BASE = 0x0000_6000_0000

U = PrivilegeMode.USER
_READ = AccessType.READ
_WRITE = AccessType.WRITE

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193


def stable_hash(text: str) -> int:
    """Deterministic 32-bit FNV-1a hash of *text*.

    Workload models must not use the builtin ``hash`` on strings: it is
    salted per process (PYTHONHASHSEED), so key-to-bucket placement — and
    therefore every downstream cycle count — would differ between runs and
    break the campaign's byte-identical regression gate.
    """
    h = _FNV_OFFSET
    for byte in text.encode():
        h = ((h ^ byte) * _FNV_PRIME) & 0xFFFFFFFF
    return h


@dataclass
class _Array:
    name: str
    base_va: int
    length: int
    elem_bytes: int

    @property
    def size_bytes(self) -> int:
        return self.length * self.elem_bytes


class ArrayMap:
    """Named typed arrays in one address space, with timed element access."""

    def __init__(
        self,
        system: System,
        space: Optional[AddressSpace] = None,
        contiguous_pa: bool = True,
        frames: Optional[FrameAllocator] = None,
    ):
        self.system = system
        self.space = space if space is not None else system.new_address_space()
        self._arrays: Dict[str, _Array] = {}
        self._next_va = USER_ARRAY_BASE
        self._contiguous_pa = contiguous_pa
        self._frames = frames  # e.g. an enclave's GMS region
        self.cycles = 0
        self.accesses = 0
        # Hot-loop bindings: read/write run millions of times per workload,
        # and the machine core, page table and ASID are fixed for the
        # harness lifetime.
        self._access_core = system.machine._access_core
        self._access_run = system.machine.access_run
        self._page_table = self.space.page_table
        self._asid = self.space.asid

    def add(self, name: str, length: int, elem_bytes: int = 8) -> None:
        """Allocate and map a new array."""
        if name in self._arrays:
            raise WorkloadError(f"array {name!r} already exists")
        size = length * elem_bytes
        size = (size + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
        if self._frames is not None:
            self.space.map_from(self._frames, self._next_va, size, Permission.rw())
        else:
            self.space.map(self._next_va, size, Permission.rw(), contiguous_pa=self._contiguous_pa)
        self._arrays[name] = _Array(name, self._next_va, length, elem_bytes)
        # Guard gap between arrays.
        self._next_va += size + PAGE_SIZE

    def va(self, name: str, index: int) -> int:
        arr = self._arrays[name]
        if not 0 <= index < arr.length:
            raise WorkloadError(f"{name}[{index}] out of bounds (length {arr.length})")
        return arr.base_va + index * arr.elem_bytes

    def read(self, name: str, index: int) -> int:
        """Timed read of one element; returns cycles."""
        arr = self._arrays[name]
        if not 0 <= index < arr.length:
            raise WorkloadError(f"{name}[{index}] out of bounds (length {arr.length})")
        cycles = self._access_core(
            self._page_table, arr.base_va + index * arr.elem_bytes, _READ, U, self._asid
        )[0]
        self.cycles += cycles
        self.accesses += 1
        return cycles

    def write(self, name: str, index: int) -> int:
        """Timed write of one element; returns cycles."""
        arr = self._arrays[name]
        if not 0 <= index < arr.length:
            raise WorkloadError(f"{name}[{index}] out of bounds (length {arr.length})")
        cycles = self._access_core(
            self._page_table, arr.base_va + index * arr.elem_bytes, _WRITE, U, self._asid
        )[0]
        self.cycles += cycles
        self.accesses += 1
        return cycles

    def read_run(self, name: str, index: int, count: int, stride_elems: int = 1) -> int:
        """Timed read of *count* elements from *index* on; returns cycles.

        One :meth:`Machine.access_run <repro.soc.machine.Machine.access_run>`
        span instead of *count* scalar reads — byte-identical timing and
        state, one Python call.
        """
        arr = self._arrays[name]
        if count <= 0:
            return 0
        last = index + (count - 1) * stride_elems
        if not (0 <= index < arr.length and 0 <= last < arr.length):
            raise WorkloadError(
                f"{name}[{index}:{last}] out of bounds (length {arr.length})"
            )
        cycles = self._access_run(
            self._page_table,
            arr.base_va + index * arr.elem_bytes,
            stride_elems * arr.elem_bytes,
            count,
            _READ,
            U,
            self._asid,
        )[0]
        self.cycles += cycles
        self.accesses += count
        return cycles

    def compute(self, cycles: int) -> None:
        """Account for non-memory compute work."""
        self.cycles += cycles

    def footprint_pages(self) -> int:
        return self.space.mapped_pages


class HeapMap:
    """A malloc-like object heap: fixed-slot objects at shuffled addresses.

    Object slots are scattered across the heap pages (seeded), so chasing a
    list of object ids produces realistic pointer-chase traffic.
    """

    def __init__(
        self,
        system: System,
        num_objects: int,
        obj_bytes: int = 64,
        space: Optional[AddressSpace] = None,
        seed: int = 0,
        contiguous_pa: bool = True,
        frames: Optional[FrameAllocator] = None,
    ):
        if obj_bytes % 8 or obj_bytes <= 0:
            raise WorkloadError("obj_bytes must be a positive multiple of 8")
        self.system = system
        self.space = space if space is not None else system.new_address_space()
        self.obj_bytes = obj_bytes
        self.num_objects = num_objects
        total = num_objects * obj_bytes
        pages = (total + PAGE_SIZE - 1) // PAGE_SIZE
        self.base_va = USER_HEAP_BASE
        if frames is not None:
            self.space.map_from(frames, self.base_va, pages * PAGE_SIZE, Permission.rw())
        else:
            self.space.map(self.base_va, pages * PAGE_SIZE, Permission.rw(), contiguous_pa=contiguous_pa)
        slots = list(range(num_objects))
        random.Random(seed).shuffle(slots)
        self._slot_of = slots  # object id -> slot index
        self.cycles = 0
        self.accesses = 0
        # Hot-path bindings (touch() runs per object access).
        self._access_core = system.machine._access_core
        self._access_run = system.machine.access_run
        self._page_table = self.space.page_table
        self._asid = self.space.asid

    def va_of(self, obj_id: int, field_offset: int = 0) -> int:
        slot = self._slot_of[obj_id % self.num_objects]
        return self.base_va + slot * self.obj_bytes + field_offset

    def touch(self, obj_id: int, writes: int = 0, reads: int = 1, field_offset: int = 0) -> int:
        """Timed accesses to one object; returns cycles.

        The reads (then writes) hit one address, so each group is one
        zero-stride :meth:`Machine.access_run
        <repro.soc.machine.Machine.access_run>` span — same order, same
        state, as the scalar read/write loops this replaces.
        """
        slot = self._slot_of[obj_id % self.num_objects]
        va = self.base_va + slot * self.obj_bytes + field_offset
        page_table = self._page_table
        asid = self._asid
        cycles = 0
        # Singleton groups go straight to the scalar core — a one-reference
        # run is definitionally the scalar access, and most touches are.
        if reads == 1:
            cycles += self._access_core(page_table, va, _READ, U, asid)[0]
        elif reads:
            cycles += self._access_run(page_table, va, 0, reads, _READ, U, asid)[0]
        if writes == 1:
            cycles += self._access_core(page_table, va, _WRITE, U, asid)[0]
        elif writes:
            cycles += self._access_run(page_table, va, 0, writes, _WRITE, U, asid)[0]
        self.cycles += cycles
        self.accesses += reads + writes
        return cycles

    def compute(self, cycles: int) -> None:
        self.cycles += cycles
