"""Chained serverless application: image processing (paper §8.4, Figure 12-c).

Four functions run in sequence — upload/validate, resize, filter, encode —
each in its own enclave, passing the image through host-shared memory.  The
image side length sweeps 32..256; compute grows O(size²) faster than the
cold-start cost, so the isolation overhead shrinks as images grow (the
paper's 29.7% → 1.6% trend for PMPT).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from ..common.types import AccessType, PAGE_SIZE
from ..tee.enclave import ENCLAVE_HEAP_VA
from .functionbench import ServerlessNode

CHAIN_STAGES = ("upload", "resize", "filter", "encode")
IMAGE_SIZES = (32, 64, 128, 256)

#: Per-pixel work factors for each stage (compute cycles, accesses).
_STAGE_WORK = {
    "upload": (1, 1),
    "resize": (3, 2),
    "filter": (6, 3),
    "encode": (4, 2),
}


@dataclass(frozen=True)
class ChainResult:
    image_size: int
    checker: str
    total_cycles: int
    per_stage_cycles: Tuple[int, ...]


def run_chain(
    checker_kind: str,
    image_size: int,
    machine: str = "boom",
    seed: int = 0,
) -> ChainResult:
    """Run the 4-stage image chain once (cold enclaves) for one image size."""
    node = ServerlessNode(machine=machine, checker_kind=checker_kind, mem_mib=256, seed=seed)
    rng = random.Random(seed)
    pixels = image_size * image_size
    image_bytes = pixels * 3  # RGB
    image_pages = max(1, (image_bytes + PAGE_SIZE - 1) // PAGE_SIZE)
    stage_cycles: List[int] = []
    for stage in CHAIN_STAGES:
        compute_per_px, accesses_per_px = _STAGE_WORK[stage]
        heap_pages = max(8, 2 * image_pages)
        handle = node.runtime.launch(stage, text_pages=24, heap_pages=heap_pages)
        cycles = handle.launch_cycles
        # Receive the image: stream it into the enclave heap.
        for off in range(0, image_bytes, 64):
            cycles += node.runtime.access(handle, ENCLAVE_HEAP_VA + off % (heap_pages * PAGE_SIZE), AccessType.WRITE)
        # Process: per-pixel work, row-major with some neighborhood reads.
        sample = max(1, pixels // 2048)  # trace sampling keeps sim time sane
        for px in range(0, pixels, sample):
            off = (px * 3) % (heap_pages * PAGE_SIZE)
            for _ in range(accesses_per_px):
                cycles += node.runtime.access(handle, ENCLAVE_HEAP_VA + off, AccessType.READ)
            cycles += compute_per_px * sample  # amortized compute for skipped pixels
            if rng.random() < 0.1:
                cycles += node.runtime.access(
                    handle, ENCLAVE_HEAP_VA + rng.randrange(heap_pages * PAGE_SIZE // 8) * 8, AccessType.READ
                )
        # Emit the result back to shared memory.
        for off in range(0, image_bytes, 64):
            cycles += node.runtime.access(handle, ENCLAVE_HEAP_VA + off % (heap_pages * PAGE_SIZE), AccessType.READ)
        cycles += node.runtime.destroy(handle)
        stage_cycles.append(cycles)
    return ChainResult(image_size, checker_kind, sum(stage_cycles), tuple(stage_cycles))
