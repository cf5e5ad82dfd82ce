"""Trace record and replay.

Capturing a workload's (va, access-type) stream once and replaying it under
every isolation scheme gives variance-free A/B comparisons: identical
addresses, identical order, only the checker differs.  Traces can also be
saved to / loaded from a compact text format for sharing between runs.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterator, List, Optional, TextIO, Tuple

from ..common.errors import WorkloadError
from ..common.types import AccessType, PrivilegeMode
from ..engine import EngineHook
from ..soc.system import AddressSpace, System

_TYPE_CODES = {AccessType.READ: "r", AccessType.WRITE: "w", AccessType.FETCH: "x"}
_CODE_TYPES = {v: k for k, v in _TYPE_CODES.items()}


@dataclass(frozen=True)
class TraceResult:
    """Aggregate outcome of a trace replay."""

    accesses: int
    cycles: int
    pt_refs: int
    checker_refs: int
    tlb_hits: int

    @property
    def cycles_per_access(self) -> float:
        return self.cycles / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class TraceEntry:
    """One recorded access."""

    va: int
    access: AccessType

    def encode(self) -> str:
        return f"{_TYPE_CODES[self.access]} {self.va:#x}"

    @classmethod
    def decode(cls, line: str) -> "TraceEntry":
        try:
            code, va_text = line.split()
            return cls(int(va_text, 16), _CODE_TYPES[code])
        except (ValueError, KeyError):
            raise WorkloadError(f"bad trace line {line!r}") from None


class Trace:
    """An ordered access trace with save/load and mapping metadata.

    ``mappings`` records the (va, size) regions a replayer must map before
    running the trace, so a trace file is self-describing.
    """

    def __init__(self, entries: Optional[List[TraceEntry]] = None):
        self.entries: List[TraceEntry] = entries if entries is not None else []
        self.mappings: List[Tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def append(self, va: int, access: AccessType) -> None:
        self.entries.append(TraceEntry(va, access))

    def require_mapping(self, va: int, size: int) -> None:
        self.mappings.append((va, size))

    # -- persistence -------------------------------------------------------

    def save(self, stream: TextIO) -> None:
        for va, size in self.mappings:
            stream.write(f"m {va:#x} {size:#x}\n")
        for entry in self.entries:
            stream.write(entry.encode() + "\n")

    @classmethod
    def load(cls, stream: TextIO) -> "Trace":
        trace = cls()
        for raw in stream:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("m "):
                try:
                    _, va_text, size_text = line.split()
                    trace.require_mapping(int(va_text, 16), int(size_text, 16))
                except ValueError:
                    raise WorkloadError(f"bad mapping line {line!r}") from None
                continue
            trace.entries.append(TraceEntry.decode(line))
        return trace

    def dumps(self) -> str:
        buffer = io.StringIO()
        self.save(buffer)
        return buffer.getvalue()

    @classmethod
    def loads(cls, text: str) -> "Trace":
        return cls.load(io.StringIO(text))


class TraceRecorder(EngineHook):
    """An engine hook that captures every access a machine performs.

    Installing on the machine's :class:`~repro.engine.ReferenceEngine`
    (rather than shadowing ``machine.access``) means the recorder sees both
    timed entry points uniformly: the scalar step, which ``access`` wraps
    and workload harnesses call directly, and the run loop,
    ``access_run`` (an ``on_access`` hook keeps that loop from fusing, so
    every access is recorded).

    Use as a context manager::

        with TraceRecorder(system.machine) as recorder:
            workload(...)
        trace = recorder.trace
    """

    def __init__(self, machine):
        self.machine = machine
        self.trace = Trace()

    def on_access(self, va: int, access: AccessType, cycles: int, tlb_hit: bool, refs: int) -> None:
        self.trace.append(va, access)

    def __enter__(self) -> "TraceRecorder":
        self.machine.engine.install_hook(self)
        return self

    def __exit__(self, *exc) -> None:
        self.machine.engine.remove_hook(self)


def replay(
    trace: Trace,
    checker_kind: str,
    machine: str = "rocket",
    mem_mib: int = 256,
    priv: PrivilegeMode = PrivilegeMode.USER,
    cold: bool = True,
    space: Optional[AddressSpace] = None,
) -> TraceResult:
    """Replay a trace on a fresh system under *checker_kind*.

    Maps the trace's recorded regions (or uses a caller-provided space),
    optionally cold-boots, and charges each entry with the scalar step.
    """
    system = System(machine=machine, checker_kind=checker_kind, mem_mib=mem_mib)
    if space is None:
        space = system.new_address_space()
        if not trace.mappings:
            raise WorkloadError("trace has no mapping metadata; pass a prepared space")
        for va, size in trace.mappings:
            space.map(va, size)
    if cold:
        system.machine.cold_boot()
    step = system.machine._access_core
    page_table, asid = space.page_table, space.asid
    cycles = pt_refs = checker_refs = tlb_hits = 0
    for entry in trace:
        c, _pa, hit, p, k = step(page_table, entry.va, entry.access, priv, asid)
        cycles += c
        pt_refs += p
        checker_refs += k
        tlb_hits += hit
    return TraceResult(len(trace), cycles, pt_refs, checker_refs, tlb_hits)


def compare_replay(
    trace: Trace,
    kinds: Tuple[str, ...] = ("pmp", "pmpt", "hpmp"),
    machine: str = "rocket",
) -> "dict[str, TraceResult]":
    """Replay the same trace under several schemes; variance-free A/B/C."""
    return {kind: replay(trace, kind, machine=machine) for kind in kinds}
