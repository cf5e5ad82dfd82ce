"""Hot-path microbenchmark: ns per timed reference through the engine.

Measures the flattened per-reference pipeline on the configurations that
dominate campaign wall time and writes ``BENCH_hotpath.json``:

* ``tlb_hit_pmp``     — the TLB-inlined fast path (PMP, every access hits);
* ``tlb_hit_hpmp``    — same fast path behind the hybrid checker;
* ``tlb_miss_pmpt``   — page-granular strides forcing walks + table checks;
* ``hierarchy_stream``— raw cache-hierarchy fills/evictions (no TLB);
* ``nested_virt``     — the two-stage guest access path (3D walk);
* ``block_hit_pmp``   — the fused block path over the same hot array
  (``read_run`` spans instead of scalar reads: charges N refs per call);
* ``block_hierarchy_run`` — raw bulk hierarchy charging (``access_run``
  line-chunked fills + MRU fusion, no TLB).

Each scenario runs ``repeats`` times and keeps the fastest pass (robust to
scheduler noise).  A calibration pass runs right before every repeat, and a
scenario's ns/reference is compared with the fastest of its own calibration
passes, so both see the same host speed.  ``--check reference.json`` gates
against a checked-in reference: any scenario more than ``--tolerance``
slower, relative to calibration, fails, which is how CI catches hot-path
regressions.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py
    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py \
        --check benchmarks/results/hotpath_reference.json --tolerance 0.25
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from typing import Callable, Dict, Tuple

from repro.common.types import PAGE_SIZE, AccessType, PrivilegeMode
from repro.soc.system import System
from repro.virt.nested import VirtualMachine
from repro.workloads.harness import ArrayMap

U = PrivilegeMode.USER
READ = AccessType.READ


#: Iterations of one calibration pass (about as long as a scenario pass).
CALIBRATION_ITERATIONS = 2_000_000


def _time_refs(loop: Callable[[int], int], iterations: int, repeats: int) -> Tuple[float, int, float]:
    """Best-of-*repeats* wall time for ``loop(iterations)``, each repeat
    preceded by a calibration pass; returns (s, refs, fastest calibration s)."""
    best = best_cal = float("inf")
    refs = 0
    for _ in range(repeats):
        start = time.perf_counter()
        _calibration_loop(CALIBRATION_ITERATIONS)
        best_cal = min(best_cal, time.perf_counter() - start)
        start = time.perf_counter()
        refs = loop(iterations)
        best = min(best, time.perf_counter() - start)
    return best, refs, best_cal


def scenario_tlb_hit(checker_kind: str) -> Callable[[int], int]:
    """Hot loop over a small resident array: every access is an inlined hit."""
    system = System(machine="rocket", checker_kind=checker_kind, mem_mib=64)
    arrays = ArrayMap(system)
    arrays.add("hot", 512)
    read = arrays.read

    def loop(iterations: int) -> int:
        for i in range(iterations):
            read("hot", i & 511)
        return iterations

    loop(2048)  # warm TLB, caches and inlined permissions
    return loop


def scenario_tlb_miss_pmpt() -> Callable[[int], int]:
    """Page-granular strides over a large array: walks plus table checks."""
    system = System(machine="rocket", checker_kind="pmpt", mem_mib=128)
    arrays = ArrayMap(system)
    entries = 8192  # 8192 pages = 32 MiB of stride targets, far beyond TLB reach
    arrays.add("cold", entries * (PAGE_SIZE // 8))
    read = arrays.read
    stride = PAGE_SIZE // 8

    def loop(iterations: int) -> int:
        for i in range(iterations):
            read("cold", (i % entries) * stride)
        return iterations

    loop(2048)
    return loop


def scenario_hierarchy_stream() -> Callable[[int], int]:
    """Raw hierarchy references streaming through a 2 MiB working set."""
    system = System(machine="rocket", checker_kind="pmp", mem_mib=64)
    access = system.machine.hierarchy.access
    span = 2 * 1024 * 1024

    def loop(iterations: int) -> int:
        for i in range(iterations):
            access((i * 64) % span)
        return iterations

    loop(4096)
    return loop


def scenario_nested_virt() -> Callable[[int], int]:
    """Guest accesses through the two-stage (3D-walk) path."""
    system = System(machine="rocket", checker_kind="hpmp", mem_mib=128)
    vm = VirtualMachine(system, guest_pages=512)
    for i in range(512):
        vm.guest_map(i * PAGE_SIZE, i * PAGE_SIZE)
    guest_access = vm.access

    def loop(iterations: int) -> int:
        for i in range(iterations):
            guest_access((i & 511) * PAGE_SIZE)
        return iterations

    loop(2048)
    return loop


def scenario_block_hit(checker_kind: str) -> Callable[[int], int]:
    """Fused block spans over the same hot array scenario_tlb_hit loops over.

    One ``read_run`` prices 512 references, so the per-reference cost is the
    bulk path's counter arithmetic — the number to compare against
    ``tlb_hit_pmp`` to see what run fusion buys.
    """
    system = System(machine="rocket", checker_kind=checker_kind, mem_mib=64)
    arrays = ArrayMap(system)
    arrays.add("hot", 512)
    read_run = arrays.read_run

    def loop(iterations: int) -> int:
        runs = max(1, iterations // 512)
        for _ in range(runs):
            read_run("hot", 0, 512)
        return runs * 512

    loop(2048)  # warm TLB, caches and inlined permissions
    return loop


def scenario_block_hierarchy_run() -> Callable[[int], int]:
    """Raw bulk hierarchy charging over the 2 MiB stream (8 refs/line)."""
    system = System(machine="rocket", checker_kind="pmp", mem_mib=64)
    access_run = system.machine.hierarchy.access_run
    span = 2 * 1024 * 1024
    chunk = 4096

    def loop(iterations: int) -> int:
        done = 0
        base = 0
        while done < iterations:
            access_run(base % span, 8, chunk)
            base += chunk * 8
            done += chunk
        return done

    loop(8192)
    return loop


def _calibration_loop(iterations: int) -> int:
    """Fixed pure-Python work used to normalise for machine speed.

    Shared CI runners and containers vary wildly in absolute speed (and
    even drift between consecutive runs on one machine), so the regression
    gate compares *calibration-relative* ns/reference: a slow machine slows
    this loop and the engine alike, while a hot-path regression only slows
    the engine.
    """
    acc = 0
    for i in range(iterations):
        acc = (acc + i * 17) & 0xFFFF_FFFF
    return iterations


SCENARIOS: Dict[str, Tuple[Callable[[], Callable[[int], int]], int]] = {
    "tlb_hit_pmp": (lambda: scenario_tlb_hit("pmp"), 400_000),
    "tlb_hit_hpmp": (lambda: scenario_tlb_hit("hpmp"), 400_000),
    "tlb_miss_pmpt": (lambda: scenario_tlb_miss_pmpt(), 60_000),
    "hierarchy_stream": (lambda: scenario_hierarchy_stream(), 400_000),
    "nested_virt": (lambda: scenario_nested_virt(), 60_000),
    "block_hit_pmp": (lambda: scenario_block_hit("pmp"), 400_000),
    "block_hierarchy_run": (lambda: scenario_block_hierarchy_run(), 400_000),
}


def run(repeats: int) -> Tuple[Dict[str, Dict[str, float]], float]:
    """Time every scenario; returns its results and the median calibration."""
    results: Dict[str, Dict[str, float]] = {}
    for name, (factory, iterations) in SCENARIOS.items():
        loop = factory()
        elapsed, refs, cal_elapsed = _time_refs(loop, iterations, repeats)
        ns_per_ref = elapsed / refs * 1e9
        calibration_ns = cal_elapsed / CALIBRATION_ITERATIONS * 1e9
        results[name] = {
            "iterations": iterations,
            "best_s": round(elapsed, 6),
            "ns_per_reference": round(ns_per_ref, 1),
            "calibration_ns": round(calibration_ns, 2),
            "relative_to_calibration": round(ns_per_ref / calibration_ns, 2),
        }
        print(
            f"{name:20s} {ns_per_ref:10.1f} ns/reference  ({elapsed:.3f}s best of {repeats}; "
            f"calibration {calibration_ns:.1f} ns/iteration)"
        )
    calibration = statistics.median(r["calibration_ns"] for r in results.values())
    return results, round(calibration, 2)


def check(results: Dict[str, Dict[str, float]], reference_path: str, tolerance: float) -> int:
    """Gate on calibration-relative ns/reference (machine-speed invariant)."""
    with open(reference_path) as fh:
        reference = json.load(fh)
    ref_cal = reference.get("calibration_ns") or 1.0
    failures = []
    for name, ref in reference.get("scenarios", {}).items():
        cur = results.get(name)
        if cur is None:
            failures.append(f"{name}: missing from this run")
            continue
        # A reference written before calibration was timed per scenario has
        # only the run-wide calibration.
        ref_rel = ref["ns_per_reference"] / ref.get("calibration_ns", ref_cal)
        cur_rel = cur["ns_per_reference"] / cur["calibration_ns"]
        limit = ref_rel * (1.0 + tolerance)
        if cur_rel > limit:
            failures.append(
                f"{name}: {cur_rel:.1f}x calibration exceeds "
                f"{ref_rel:.1f}x +{tolerance:.0%} = {limit:.1f}x "
                f"({cur['ns_per_reference']:.0f} ns/ref at {cur['calibration_ns']:.0f} ns/cal)"
            )
    if failures:
        print("hot-path regression gate: FAIL")
        for line in failures:
            print("  " + line)
        return 1
    print(f"hot-path regression gate: OK (within {tolerance:.0%} of {reference_path}, calibration-relative)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Engine hot-path ns/reference benchmark.")
    parser.add_argument("--out", default="BENCH_hotpath.json", help="result file (default BENCH_hotpath.json)")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats per scenario (keep fastest)")
    parser.add_argument("--check", default=None, metavar="REFERENCE", help="gate against this reference result file")
    parser.add_argument("--tolerance", type=float, default=0.25, help="allowed ns/reference slowdown vs the reference (default 0.25)")
    args = parser.parse_args()

    results, calibration_ns = run(args.repeats)
    payload = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": args.repeats,
        "calibration_ns": calibration_ns,
        "scenarios": results,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    if args.check:
        return check(results, args.check, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
