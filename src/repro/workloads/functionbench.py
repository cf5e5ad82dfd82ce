"""FunctionBench serverless workloads (paper §8.4, Figure 12 a/b and 17).

Each function invocation runs the full Penglai cold-start path — domain
creation, GMS grant, enclave page-table build, domain switch — followed by
an import phase (cold instruction fetches over the code pages) and the
function body (a per-function access/compute profile), then teardown.
Short-lived functions never amortize their cold TLB/cache state, which is
exactly why the permission table hurts them most (Implication-3).

``secure=False`` runs the same function as a plain host process (the
paper's Host-PMP non-secure baseline).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from ..common.errors import WorkloadError
from ..common.params import MachineParams
from ..common.types import AccessType, PAGE_SIZE
from ..soc.system import System
from ..tee.enclave import ENCLAVE_HEAP_VA, ENCLAVE_TEXT_VA, EnclaveRuntime
from ..tee.monitor import SecureMonitor
from ..workloads.kernel import KernelModel
from .harness import stable_hash

FUNCTIONS = ("chameleon", "dd", "gzip", "linpack", "matmul", "pyaes", "image")


@dataclass(frozen=True)
class FunctionProfile:
    """Footprint and body shape of one FunctionBench function."""

    name: str
    text_pages: int
    heap_pages: int
    import_pages: int  # code pages touched during interpreter/library import
    sequential_accesses: int
    random_accesses: int
    compute_per_access: int
    body_iterations: int


#: Profiles sized so relative latencies echo Figure 12-b's labels
#: (gzip longest, dd/linpack long, matmul shortest) at simulation scale.
PROFILES: Dict[str, FunctionProfile] = {
    "chameleon": FunctionProfile("chameleon", 96, 384, 72, 96, 224, 6, 3),
    "dd": FunctionProfile("dd", 16, 1024, 12, 1024, 0, 1, 6),
    "gzip": FunctionProfile("gzip", 32, 768, 24, 768, 192, 3, 8),
    "linpack": FunctionProfile("linpack", 24, 384, 18, 512, 64, 9, 6),
    "matmul": FunctionProfile("matmul", 8, 48, 6, 96, 16, 10, 2),
    "pyaes": FunctionProfile("pyaes", 48, 96, 36, 128, 96, 12, 5),
    "image": FunctionProfile("image", 64, 512, 48, 384, 96, 4, 3),
}


@dataclass(frozen=True)
class FunctionResult:
    function: str
    checker: str
    secure: bool
    launch_cycles: int
    body_cycles: int
    teardown_cycles: int

    @property
    def total_cycles(self) -> int:
        return self.launch_cycles + self.body_cycles + self.teardown_cycles


class ServerlessNode:
    """One simulated worker node: machine + monitor + host kernel."""

    def __init__(
        self, machine: "str | MachineParams" = "boom", checker_kind: str = "hpmp", mem_mib: int = 256, seed: int = 0
    ):
        self.system = System(machine=machine, checker_kind=checker_kind, mem_mib=mem_mib, seed=seed)
        self.kernel = KernelModel(self.system, heap_pages=1024, seed=seed)
        if checker_kind == "none":
            self.monitor: Optional[SecureMonitor] = None
            self.runtime: Optional[EnclaveRuntime] = None
        else:
            self.monitor = SecureMonitor(self.system)
            self.runtime = EnclaveRuntime(self.system, self.monitor, self.kernel)
        self.seed = seed

    def invoke(self, function: str, secure: bool = True) -> FunctionResult:
        """One cold invocation of *function*."""
        profile = PROFILES.get(function)
        if profile is None:
            raise WorkloadError(f"unknown function {function!r}; options: {FUNCTIONS}")
        if secure:
            if self.runtime is None:
                raise WorkloadError("secure invocation needs a monitor-capable checker")
            return self._invoke_enclave(profile)
        return self._invoke_host(profile)

    def _run_body(self, profile: FunctionProfile, frun, drun, rng) -> int:
        """The function body: import phase then the compute/access loop.

        ``frun(off, stride, count)`` fetches and ``drun(off, stride, count,
        access)`` reads/writes a run of heap addresses — the run loop lets
        the import phase (one stride-2048 sequence over the code pages) and
        each wrap-segment of the sequential scan go down in a single call,
        with the same per-reference addresses as the old scalar closures.
        """
        cycles = 0
        # Import: touch the code pages (cold instruction fetches).  Two
        # fetches per 4 KiB page at offsets 0 and 2048 form one arithmetic
        # sequence of stride 2048.
        if profile.import_pages:
            cycles += frun(0, 2048, 2 * profile.import_pages)
        heap_bytes = profile.heap_pages * PAGE_SIZE
        cpa = profile.compute_per_access
        for _ in range(profile.body_iterations):
            offset = 0
            seq = profile.sequential_accesses
            step = max(64, heap_bytes // max(seq, 1))
            remaining = seq
            while remaining:
                cur = offset % heap_bytes
                count = min(remaining, 1 + (heap_bytes - 1 - cur) // step)
                cycles += drun(cur, step, count, AccessType.READ)
                offset += count * step
                remaining -= count
            cycles += seq * cpa
            for _ in range(profile.random_accesses):
                cycles += drun(rng.randrange(heap_bytes // 8) * 8, 0, 1, AccessType.WRITE)
                cycles += cpa
        return cycles

    def _invoke_enclave(self, profile: FunctionProfile) -> FunctionResult:
        rng = random.Random(self.seed ^ stable_hash(profile.name) & 0xFFFF)
        handle = self.runtime.launch(profile.name, profile.text_pages, profile.heap_pages)
        frun = lambda off, stride, count: self.runtime.access_run(  # noqa: E731
            handle, ENCLAVE_TEXT_VA + off, stride, count, AccessType.FETCH
        )
        drun = lambda off, stride, count, access: self.runtime.access_run(  # noqa: E731
            handle, ENCLAVE_HEAP_VA + off, stride, count, access
        )
        body = self._run_body(profile, frun, drun, rng)
        teardown = self.runtime.destroy(handle)
        return FunctionResult(
            profile.name,
            self.system.checker_kind,
            True,
            handle.launch_cycles,
            body,
            teardown,
        )

    def _invoke_host(self, profile: FunctionProfile) -> FunctionResult:
        """Host-PMP baseline: same work as an ordinary process."""
        rng = random.Random(self.seed ^ stable_hash(profile.name) & 0xFFFF)
        kernel = self.kernel
        proc, launch = kernel.spawn(
            text_pages=profile.text_pages, heap_pages=profile.heap_pages, stack_pages=4, populate=True
        )
        machine = self.system.machine
        from ..workloads.kernel import USER_HEAP_VA, USER_TEXT_VA

        page_table = proc.space.page_table
        asid = proc.space.asid

        def frun(off, stride, count):
            return machine.access_run(
                page_table, USER_TEXT_VA + off, stride, count, AccessType.FETCH, asid=asid
            )[0]

        def drun(off, stride, count, access):
            return machine.access_run(
                page_table, USER_HEAP_VA + off, stride, count, access, asid=asid
            )[0]

        body = self._run_body(profile, frun, drun, rng)
        teardown = kernel.exit_process(proc)
        return FunctionResult(profile.name, self.system.checker_kind, False, launch, body, teardown)


def run_function(
    function: str,
    checker_kind: str,
    machine: "str | MachineParams" = "boom",
    secure: bool = True,
    seed: int = 0,
) -> FunctionResult:
    """One cold invocation on a fresh node (the serverless cold-start case)."""
    node = ServerlessNode(machine=machine, checker_kind=checker_kind, seed=seed)
    return node.invoke(function, secure=secure)
