"""RV8 benchmark suite models (paper §8.3, Figure 11-a).

RV8's eight programs are compute-bound with small working sets — the paper
measures 0.0%-1.7% PMPT overhead on RocketCore.  Each model runs a real
access/compute loop whose footprint, access pattern, and compute intensity
are set per program:

==========  ============================  ==========================
program     pattern                       character
==========  ============================  ==========================
aes         sequential block sweep        16 KiB state, crypto rounds
norx        sequential + small random     64 KiB, AEAD permutation
primes      strided sieve                 2 MiB bitmap, low compute
sha512      sequential                    64 KiB, hash rounds
qsort       random partition traffic      4 MiB array
dhrystone   tiny loop                     16 KiB, pure compute
miniz       sequential + window random    1 MiB + 32 KiB window
bigint      sequential limbs              256 KiB, carry chains
==========  ============================  ==========================
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from ..common.errors import WorkloadError
from ..common.types import KIB, MIB
from ..soc.system import System
from .harness import ArrayMap

PROGRAMS = ("aes", "norx", "primes", "sha512", "qsort", "dhrystone", "miniz", "bigint")


@dataclass(frozen=True)
class RV8Profile:
    """Footprint and loop structure of one RV8 program."""

    name: str
    footprint_bytes: int
    sequential_accesses: int  # per iteration
    random_accesses: int  # per iteration
    compute_per_access: int  # cycles of ALU work between accesses
    iterations: int


PROFILES: Dict[str, RV8Profile] = {
    "aes": RV8Profile("aes", 16 * KIB, 256, 16, 14, 6),
    "norx": RV8Profile("norx", 64 * KIB, 256, 32, 10, 6),
    "primes": RV8Profile("primes", 2 * MIB, 768, 0, 2, 4),
    "sha512": RV8Profile("sha512", 64 * KIB, 512, 0, 12, 6),
    "qsort": RV8Profile("qsort", 4 * MIB, 128, 512, 3, 4),
    "dhrystone": RV8Profile("dhrystone", 16 * KIB, 256, 8, 8, 8),
    "miniz": RV8Profile("miniz", 1 * MIB, 512, 128, 4, 4),
    "bigint": RV8Profile("bigint", 256 * KIB, 640, 0, 6, 6),
}


@dataclass(frozen=True)
class RV8Result:
    program: str
    checker: str
    cycles: int
    accesses: int

    def seconds(self, freq_mhz: int) -> float:
        return self.cycles / (freq_mhz * 1e6)


def run_program(
    program: str,
    checker_kind: str,
    machine: str = "rocket",
    seed: int = 0,
    scale: float = 1.0,
) -> RV8Result:
    """Run one RV8 program model; *scale* multiplies the iteration count."""
    profile = PROFILES.get(program)
    if profile is None:
        raise WorkloadError(f"unknown RV8 program {program!r}; options: {PROGRAMS}")
    system = System(machine=machine, checker_kind=checker_kind, mem_mib=128, seed=seed)
    arrays = ArrayMap(system)
    elements = profile.footprint_bytes // 8
    arrays.add("data", elements)
    rng = random.Random(seed)
    iterations = max(1, int(profile.iterations * scale))
    stride = max(1, elements // max(profile.sequential_accesses, 1))
    for _ in range(iterations):
        index = 0
        for _ in range(profile.sequential_accesses):
            arrays.read("data", index % elements)
            arrays.compute(profile.compute_per_access)
            index += stride
        for _ in range(profile.random_accesses):
            arrays.write("data", rng.randrange(elements))
            arrays.compute(profile.compute_per_access)
    return RV8Result(program, checker_kind, arrays.cycles, arrays.accesses)
