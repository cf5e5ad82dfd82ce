"""Tests for the application workload models: GAP, RV8, FunctionBench,
the image chain, and Redis."""

import pytest

from repro.common.errors import WorkloadError
from repro.workloads.functionbench import FUNCTIONS, ServerlessNode, run_function
from repro.workloads.gap import KERNELS, CSRGraph, GAPWorkload, kron_graph, rmat_edges, run_kernel
from repro.workloads.redis import COMMANDS, build_server, run_command
from repro.workloads.rv8 import PROFILES, PROGRAMS, run_program
from repro.workloads.serverless_chain import run_chain
from repro.soc.system import System


class TestGraph:
    def test_rmat_is_deterministic(self):
        assert rmat_edges(6, 4, seed=3) == rmat_edges(6, 4, seed=3)

    def test_rmat_no_self_loops(self):
        assert all(u != v for u, v in rmat_edges(6, 4, seed=1))

    def test_csr_degrees_sum_to_edges(self):
        edges = rmat_edges(6, 4, seed=1)
        graph = CSRGraph(64, edges)
        assert sum(graph.degree(v) for v in range(64)) == graph.m

    def test_bfs_computes_valid_depths(self):
        system = System(machine="rocket", checker_kind="pmp", mem_mib=128)
        workload = GAPWorkload(system, scale=6, degree=4, seed=2)
        depth = workload.bfs(0)
        graph = workload.graph
        assert depth[0] == 0
        # BFS property: neighbors differ by at most one level.
        for v, d in depth.items():
            start, end = graph.offsets[v], graph.offsets[v + 1]
            for w in graph.neighbors[start:end]:
                if w in depth:
                    assert abs(depth[w] - d) <= 1

    def test_pagerank_scores_sum_to_one(self):
        system = System(machine="rocket", checker_kind="pmp", mem_mib=128)
        workload = GAPWorkload(system, scale=5, degree=4, seed=2)
        scores = workload.pr(iterations=2)
        assert abs(sum(scores) - 1.0) < 1e-6

    def test_cc_labels_connected_vertices_equally(self):
        system = System(machine="rocket", checker_kind="pmp", mem_mib=128)
        workload = GAPWorkload(system, scale=5, degree=4, seed=2)
        comp = workload.cc()
        graph = workload.graph
        for v in range(graph.n):
            for w in graph.neighbors[graph.offsets[v]:graph.offsets[v + 1]]:
                assert comp[v] == comp[w]

    def test_sssp_distances_respect_edges(self):
        system = System(machine="rocket", checker_kind="pmp", mem_mib=128)
        workload = GAPWorkload(system, scale=5, degree=4, seed=2)
        dist = workload.sssp(0)
        assert dist[0] == 0
        assert all(d >= 0 for d in dist.values())

    def test_tc_counts_triangles_symmetrically(self):
        system = System(machine="rocket", checker_kind="pmp", mem_mib=128)
        workload = GAPWorkload(system, scale=5, degree=6, seed=2)
        count = workload.tc()
        assert count >= 0

    def test_run_kernel_accumulates_cycles(self):
        result = run_kernel("bfs", "pmp", scale=6)
        assert result.cycles > 0 and result.accesses > 0

    def test_unknown_kernel_rejected(self):
        with pytest.raises(WorkloadError):
            run_kernel("dijkstra", "pmp", scale=5)


def _csr(graph):
    return graph.n, graph.offsets, graph.neighbors


def _tc_per_candidate(workload, max_vertices=0):
    """``GAPWorkload.tc`` with its compute charged the old way: one
    ``compute(1)`` per candidate instead of one sum per scanned list."""
    count = 0
    limit = max_vertices or workload.graph.n
    for v in range(min(limit, workload.graph.n)):
        neighbors_v = [w for w in workload._scan_vertex(v) if w > v]
        nv = set(neighbors_v)
        for w in neighbors_v:
            for x in workload._scan_vertex(w):
                workload.arrays.compute(1)
                if x > w and x in nv:
                    count += 1
    return count


class TestTriangleCountCharge:
    """Summing tc's per-candidate compute charge per scanned list changes
    no count, cycle, access or hierarchy counter."""

    @pytest.mark.parametrize(
        "scale, seed, max_vertices", [(5, 2, 0), (6, 0, 0), (6, 3, 17), (7, 1, 64)]
    )
    def test_matches_per_candidate_loop(self, scale, seed, max_vertices):
        def run(tc):
            system = System(machine="rocket", checker_kind="hpmp", mem_mib=128, seed=seed)
            workload = GAPWorkload(system, scale=scale, degree=6, seed=seed)
            count = tc(workload, max_vertices)
            hierarchy = system.machine.hierarchy
            stats = [hierarchy.stats.snapshot()] + [
                level.stats.snapshot() for level in (hierarchy.l1d, hierarchy.l1i, hierarchy.l2, hierarchy.llc)
            ]
            return count, workload.arrays.cycles, workload.arrays.accesses, stats

        expected = run(_tc_per_candidate)
        assert expected[0] > 0
        assert run(GAPWorkload.tc) == expected


class TestKronGraph:
    """The per-process graph memo every GAP kernel × scheme run shares."""

    def test_equal_keys_share_one_graph(self):
        graph = kron_graph(6, 4, 2)
        assert kron_graph(6, 4, 2) is graph
        system = System(machine="rocket", checker_kind="pmp", mem_mib=128)
        assert GAPWorkload(system, scale=6, degree=4, seed=2).graph is graph

    @pytest.mark.parametrize("key", [(5, 4, 2), (6, 3, 2), (6, 4, 3)], ids=["scale", "degree", "seed"])
    def test_each_key_field_selects_its_own_graph(self, key):
        graph = kron_graph(*key)
        assert graph is not kron_graph(6, 4, 2)
        assert _csr(graph) != _csr(kron_graph(6, 4, 2))
        assert _csr(graph) == _csr(CSRGraph(1 << key[0], rmat_edges(*key)))

    def test_cache_is_bounded(self):
        maxsize = kron_graph.cache_info().maxsize
        assert maxsize is not None and maxsize > 0

    def test_csr_arrays_are_tuples(self):
        graph = kron_graph(6, 4, 2)
        assert type(graph.offsets) is tuple and type(graph.neighbors) is tuple

    def test_shared_graph_equals_fresh_build_before_and_after_every_kernel(self):
        fresh = _csr(CSRGraph(1 << 6, rmat_edges(6, 4, 2)))
        graph = kron_graph(6, 4, 2)
        assert _csr(graph) == fresh
        for kernel in KERNELS:
            run_kernel(kernel, "hpmp", scale=6, degree=4, seed=2)
        assert kron_graph(6, 4, 2) is graph
        assert _csr(graph) == fresh

    def test_run_kernel_same_from_cold_and_warm_cache(self):
        def cold(seed):
            kron_graph.cache_clear()
            return run_kernel("bfs", "hpmp", scale=6, seed=seed)

        expected = {seed: cold(seed) for seed in (0, 1)}
        assert expected[0] != expected[1]
        kron_graph.cache_clear()
        for seed in (0, 1, 0):  # seed 1 between two seed-0 runs, cache warm
            assert run_kernel("bfs", "hpmp", scale=6, seed=seed) == expected[seed]


class TestRV8:
    def test_all_programs_have_profiles(self):
        assert set(PROGRAMS) == set(PROFILES)

    def test_run_program(self):
        result = run_program("aes", "pmp", scale=0.5)
        assert result.cycles > 0
        assert result.seconds(1000) > 0

    def test_qsort_slower_than_dhrystone(self):
        qsort = run_program("qsort", "pmp", scale=0.5)
        dhry = run_program("dhrystone", "pmp", scale=0.5)
        # qsort's 4 MiB random traffic must out-cost the tiny dhrystone loop
        # per access.
        assert qsort.cycles / qsort.accesses > dhry.cycles / dhry.accesses

    def test_unknown_program_rejected(self):
        with pytest.raises(WorkloadError):
            run_program("coremark", "pmp")

    def test_overhead_ordering(self):
        cycles = {kind: run_program("qsort", kind, scale=0.5).cycles for kind in ("pmp", "pmpt", "hpmp")}
        assert cycles["pmp"] <= cycles["hpmp"] <= cycles["pmpt"] * 1.001


class TestFunctionBench:
    def test_invoke_secure_and_host(self):
        node = ServerlessNode(machine="rocket", checker_kind="pmp", mem_mib=256)
        secure = node.invoke("matmul", secure=True)
        host = node.invoke("matmul", secure=False)
        assert secure.total_cycles > 0 and host.total_cycles > 0
        assert secure.launch_cycles > 0

    def test_unknown_function_rejected(self):
        node = ServerlessNode(machine="rocket", checker_kind="pmp", mem_mib=256)
        with pytest.raises(WorkloadError):
            node.invoke("whoami")

    def test_cold_start_is_significant_for_small_function(self):
        result = run_function("matmul", "pmp", machine="rocket")
        assert result.launch_cycles > 0.05 * result.total_cycles

    def test_overhead_ordering_per_function(self):
        for function in ("matmul", "image"):
            cycles = {k: run_function(function, k, machine="rocket").total_cycles for k in ("pmp", "pmpt", "hpmp")}
            assert cycles["pmp"] <= cycles["hpmp"] <= cycles["pmpt"]

    def test_enclaves_are_torn_down(self):
        node = ServerlessNode(machine="rocket", checker_kind="hpmp", mem_mib=256)
        for _ in range(3):
            node.invoke("matmul")
        assert len(node.monitor.domains) == 1  # only the host remains


class TestImageChain:
    def test_latency_grows_with_image_size(self):
        small = run_chain("pmp", 32, machine="rocket").total_cycles
        large = run_chain("pmp", 128, machine="rocket").total_cycles
        assert large > small

    def test_four_stages(self):
        result = run_chain("pmp", 32, machine="rocket")
        assert len(result.per_stage_cycles) == 4
        assert sum(result.per_stage_cycles) == result.total_cycles

    def test_overhead_shrinks_with_size(self):
        def overhead(size):
            pmp = run_chain("pmp", size, machine="rocket").total_cycles
            pmpt = run_chain("pmpt", size, machine="rocket").total_cycles
            return pmpt / pmp

        assert overhead(32) > overhead(256)


class TestRedis:
    @pytest.fixture(scope="class")
    def server(self):
        return build_server("hpmp", machine="rocket", num_keys=2048)

    def test_all_commands_execute(self, server):
        _, _, redis, client = server
        for command in COMMANDS:
            assert redis.execute(command, client) > 0

    def test_lrange_longer_costs_more(self, server):
        _, _, redis, client = server
        c100 = run_command("LRANGE_100", "hpmp", requests=5, warmup=2, server=server)
        c600 = run_command("LRANGE_600", "hpmp", requests=5, warmup=2, server=server)
        assert c600.mean_cycles > c100.mean_cycles

    def test_store_is_consistent(self, server):
        _, _, redis, client = server
        redis.execute("SET", client)
        assert len(redis.store) >= 2048

    def test_unknown_command_rejected(self, server):
        _, _, redis, client = server
        with pytest.raises(WorkloadError):
            redis.execute("FLUSHALL", client)

    def test_rps_conversion(self):
        result = run_command("GET", "pmp", machine="rocket", requests=5, warmup=1, num_keys=1024)
        assert result.rps(1000) == pytest.approx(1e9 / result.mean_cycles)

    def test_enclave_isolation_active(self):
        """While the store runs, its memory is not host-accessible."""
        from repro.common.errors import AccessFault
        from repro.common.types import AccessType, PrivilegeMode

        system, kernel, redis, client = build_server("hpmp", machine="rocket", num_keys=1024)
        store_pa = redis.enclave.gms.region.base
        # We are in the host domain between requests.
        with pytest.raises(AccessFault):
            system.checker.check(store_pa, AccessType.READ, PrivilegeMode.SUPERVISOR)
