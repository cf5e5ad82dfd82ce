"""GAP benchmark suite models (paper §8.3, Figure 11 b/c).

Implements the six GAP kernels — bfs, pr (PageRank), cc (connected
components), sssp (delta-stepping-lite), bc (Brandes betweenness sketch) and
tc (triangle counting) — over a synthetic Kronecker/R-MAT graph, executing
every array access as a timed machine access.  The kernels really compute
(BFS depths are checkable, PageRank converges), so the traces carry genuine
graph-workload locality: sequential CSR scans plus random per-vertex state.

The paper uses graph500-scale Kron (2^20 vertices).  Here the Figure 11
cells run 2^12 vertices (their ``scale`` in the campaign's ``SHARDS``),
Figure 3's preview 2^11, and :func:`run_kernel`/:class:`GAPWorkload` default
to 2^10, because Python pays ~µs per simulated access; no command-line flag
sets the scale.  The locality structure — which drives the PMPT/HPMP
deltas — is scale-invariant well before that size.
"""

from __future__ import annotations

import functools
import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..common.errors import WorkloadError
from ..soc.system import System
from .harness import ArrayMap

KERNELS = ("bc", "bfs", "cc", "pr", "sssp", "tc")

#: Compute cycles charged between memory operations (scoring, comparisons).
COMPUTE_PER_EDGE = 3


def rmat_edges(scale: int, degree: int = 8, seed: int = 0) -> List[Tuple[int, int]]:
    """Generate an R-MAT (Kronecker) edge list: 2^scale vertices."""
    n = 1 << scale
    m = n * degree
    rng = random.Random(seed)
    a, b, c = 0.57, 0.19, 0.19  # graph500 parameters
    edges = []
    for _ in range(m):
        u = v = 0
        for bit in range(scale):
            r = rng.random()
            if r < a:
                pass
            elif r < a + b:
                v |= 1 << bit
            elif r < a + b + c:
                u |= 1 << bit
            else:
                u |= 1 << bit
                v |= 1 << bit
        if u != v:
            edges.append((u, v))
    return edges


class CSRGraph:
    """Compressed-sparse-row graph built from an edge list (undirected).

    ``offsets`` and ``neighbors`` are tuples, so a graph shared between
    runs (:func:`kron_graph`) cannot be changed by any of them.
    """

    def __init__(self, num_vertices: int, edges: List[Tuple[int, int]]):
        self.n = num_vertices
        adjacency: List[List[int]] = [[] for _ in range(num_vertices)]
        for u, v in edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        offsets = [0]
        neighbors: List[int] = []
        for vertex in range(num_vertices):
            neighbors.extend(sorted(set(adjacency[vertex])))
            offsets.append(len(neighbors))
        self.offsets: Tuple[int, ...] = tuple(offsets)
        self.neighbors: Tuple[int, ...] = tuple(neighbors)

    @property
    def m(self) -> int:
        return len(self.neighbors)

    def degree(self, v: int) -> int:
        return self.offsets[v + 1] - self.offsets[v]


@functools.lru_cache(maxsize=4)
def kron_graph(scale: int, degree: int = 8, seed: int = 0) -> CSRGraph:
    """The Kronecker graph of ``(scale, degree, seed)``, built once per process.

    Every kernel × scheme run of a GAP cell asks for the same graph, and
    the graph is immutable, so they share it.  A campaign process asks for
    at most two (fig03's 2^11 and fig11's 2^12); the bound keeps a process
    that asks for many, such as the test suite, from holding them all.
    """
    return CSRGraph(1 << scale, rmat_edges(scale, degree, seed))


class GAPWorkload:
    """One graph + its arrays mapped into a simulated process."""

    def __init__(self, system: System, scale: int = 10, degree: int = 8, seed: int = 0):
        self.system = system
        self.graph = kron_graph(scale, degree, seed)
        self.arrays = ArrayMap(system)
        self.arrays.add("offsets", self.graph.n + 1)
        self.arrays.add("neighbors", max(1, self.graph.m))
        self.arrays.add("state", self.graph.n)  # depth/score/component/dist
        self.arrays.add("state2", self.graph.n)  # second per-vertex array (pr/bc)

    # -- traced CSR primitives ------------------------------------------------

    def _scan_vertex(self, v: int) -> Tuple[int, ...]:
        """Read offsets[v], offsets[v+1] and the adjacency slice (timed).

        The CSR scan is the GAP hot loop, so both the offset pair and the
        adjacency slice go through the run loop as unit-stride runs — the
        same references in the same order as the old per-element loop.
        """
        self.arrays.read_run("offsets", v, 2)
        start, end = self.graph.offsets[v], self.graph.offsets[v + 1]
        deg = end - start
        if deg:
            self.arrays.read_run("neighbors", start, deg)
            self.arrays.compute(COMPUTE_PER_EDGE * deg)
        return self.graph.neighbors[start:end]

    # -- kernels ---------------------------------------------------------------

    def bfs(self, source: int = 0) -> Dict[int, int]:
        """Breadth-first search; returns the depth map (for verification)."""
        depth = {source: 0}
        self.arrays.write("state", source)
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w in self._scan_vertex(v):
                self.arrays.read("state", w)
                if w not in depth:
                    depth[w] = depth[v] + 1
                    self.arrays.write("state", w)
                    queue.append(w)
        return depth

    def pr(self, iterations: int = 3, damping: float = 0.85) -> List[float]:
        """PageRank (push-style); returns final scores."""
        n = self.graph.n
        scores = [1.0 / n] * n
        for _ in range(iterations):
            incoming = [(1.0 - damping) / n] * n
            dangling = 0.0
            for v in range(n):
                self.arrays.read("state", v)
                neighbors = self._scan_vertex(v)
                if not neighbors:
                    dangling += scores[v]
                    continue
                share = damping * scores[v] / len(neighbors)
                for w in neighbors:
                    incoming[w] += share
                    self.arrays.write("state2", w)
            # Dangling vertices spread their mass uniformly (standard PR fix).
            spread = damping * dangling / n
            scores = [value + spread for value in incoming]
        return scores

    def cc(self) -> List[int]:
        """Connected components by label propagation (Shiloach-Vishkin-lite)."""
        n = self.graph.n
        comp = list(range(n))
        changed = True
        rounds = 0
        while changed and rounds < 8:
            changed = False
            rounds += 1
            for v in range(n):
                self.arrays.read("state", v)
                for w in self._scan_vertex(v):
                    self.arrays.read("state", w)
                    if comp[w] < comp[v]:
                        comp[v] = comp[w]
                        self.arrays.write("state", v)
                        changed = True
        return comp

    def sssp(self, source: int = 0) -> Dict[int, int]:
        """Single-source shortest paths with unit-ish weights (Bellman-lite)."""
        dist = {source: 0}
        frontier = [source]
        while frontier:
            next_frontier = []
            for v in frontier:
                for w in self._scan_vertex(v):
                    weight = 1 + ((v ^ w) & 3)  # deterministic pseudo-weights
                    self.arrays.read("state", w)
                    if w not in dist or dist[v] + weight < dist[w]:
                        dist[w] = dist[v] + weight
                        self.arrays.write("state", w)
                        next_frontier.append(w)
            frontier = next_frontier
        return dist

    def bc(self, num_sources: int = 2) -> List[float]:
        """Betweenness-centrality sketch (Brandes from a few sources)."""
        n = self.graph.n
        centrality = [0.0] * n
        for s in range(num_sources):
            order: List[int] = []
            parents: Dict[int, List[int]] = {s: []}
            sigma = {s: 1.0}
            depth = {s: 0}
            queue = deque([s])
            while queue:
                v = queue.popleft()
                order.append(v)
                for w in self._scan_vertex(v):
                    self.arrays.read("state", w)
                    if w not in depth:
                        depth[w] = depth[v] + 1
                        sigma[w] = 0.0
                        parents[w] = []
                        queue.append(w)
                    if depth.get(w) == depth[v] + 1:
                        sigma[w] += sigma[v]
                        parents[w].append(v)
                        self.arrays.write("state2", w)
            delta = {v: 0.0 for v in order}
            for w in reversed(order):
                for v in parents[w]:
                    delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
                    self.arrays.write("state2", v)
                if w != s:
                    centrality[w] += delta[w]
        return centrality

    def tc(self, max_vertices: int = 0) -> int:
        """Triangle counting on the (ordered) adjacency lists.

        Each candidate of a scanned list costs one compute cycle, charged
        as one sum per list: ``compute`` only adds to ``arrays.cycles``.
        """
        count = 0
        limit = max_vertices or self.graph.n
        for v in range(min(limit, self.graph.n)):
            neighbors_v = [w for w in self._scan_vertex(v) if w > v]
            nv = set(neighbors_v)
            for w in neighbors_v:
                scan = self._scan_vertex(w)
                self.arrays.compute(len(scan))
                for x in scan:
                    if x > w and x in nv:
                        count += 1
        return count


@dataclass(frozen=True)
class GAPResult:
    kernel: str
    checker: str
    cycles: int
    accesses: int


def run_kernel(
    kernel: str,
    checker_kind: str,
    machine: str = "rocket",
    scale: int = 10,
    degree: int = 8,
    seed: int = 0,
) -> GAPResult:
    """Run one GAP kernel under one isolation scheme."""
    if kernel not in KERNELS:
        raise WorkloadError(f"unknown GAP kernel {kernel!r}; options: {KERNELS}")
    system = System(machine=machine, checker_kind=checker_kind, mem_mib=256, seed=seed)
    workload = GAPWorkload(system, scale=scale, degree=degree, seed=seed)
    if kernel == "bfs":
        workload.bfs()
    elif kernel == "pr":
        workload.pr(iterations=1)
    elif kernel == "cc":
        workload.cc()
    elif kernel == "sssp":
        workload.sssp()
    elif kernel == "bc":
        workload.bc(num_sources=1)
    else:
        workload.tc(max_vertices=min(256, workload.graph.n))
    return GAPResult(kernel, checker_kind, workload.arrays.cycles, workload.arrays.accesses)
