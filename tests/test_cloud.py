"""Tests for the cloud-node subsystem: arrivals, node lifecycle, SLO fold.

The invariants that matter downstream: traces are pure functions of their
arguments (the campaign digest contract), the node leaks nothing across a
full admit/run/teardown horizon (the fragmentation-horizon cells would
otherwise measure the leak, not the allocator), and the SLO snapshot/merge
round trip is exact (the epoch-fold contract).
"""

import json

import pytest

from repro.cloud import (
    CLASSES,
    CloudNode,
    SLOAccount,
    TenantSpec,
    adversarial_trace,
    frag_trace,
    poisson_trace,
    replay_trace,
    slice_trace,
    spec_for,
    trace_to_jsonable,
)
from repro.cloud.adversarial import ELEPHANT_HEAP_PAGES
from repro.common.errors import WorkloadError
from repro.common.types import PAGE_SIZE


class TestArrivals:
    def test_poisson_trace_is_pure(self):
        a = poisson_trace(64, seed=5)
        b = poisson_trace(64, seed=5)
        assert a == b
        assert poisson_trace(64, seed=6) != a

    def test_trace_shape(self):
        specs = poisson_trace(200, seed=1)
        assert len(specs) == 200
        assert [s.tenant_id for s in specs] == list(range(200))
        assert all(s.lifetime >= 1 and s.arrival_gap >= 0 for s in specs)
        assert {s.tclass for s in specs} == set(CLASSES)
        for s in specs:
            profile = CLASSES[s.tclass]
            assert (s.text_pages, s.heap_pages) == (profile.text_pages, profile.heap_pages)

    def test_spec_for_overrides_and_unknown_class(self):
        spec = spec_for(3, "cache", 2, 5, seed=9, heap_pages=128, behaviors=["relabel_churn"])
        assert spec.heap_pages == 128
        assert spec.behaviors == ("relabel_churn",)
        assert spec.label == "fast"  # class default survives partial override
        assert spec.name == "t3"
        with pytest.raises(WorkloadError):
            spec_for(0, "mainframe", 1, 1, seed=0)

    def test_replay_round_trip(self):
        specs = poisson_trace(40, seed=3)
        events = json.loads(json.dumps(trace_to_jsonable(specs)))
        assert replay_trace(events) == specs

    def test_slice_trace_partitions_exactly(self):
        specs = poisson_trace(37, seed=2)
        chunks = [slice_trace(specs, 5, i) for i in range(5)]
        assert [s for chunk in chunks for s in chunk] == specs
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1  # balanced

    def test_slice_trace_rejects_bad_index(self):
        specs = poisson_trace(8, seed=0)
        with pytest.raises(WorkloadError):
            slice_trace(specs, 0, 0)
        with pytest.raises(WorkloadError):
            slice_trace(specs, 4, 4)

    def test_mix_needs_positive_weight(self):
        with pytest.raises(WorkloadError):
            poisson_trace(4, seed=0, mix=(("cache", 0.0),))


class TestAdversarialTraces:
    def test_traces_are_pure(self):
        assert frag_trace(24, seed=1) == frag_trace(24, seed=1)
        assert adversarial_trace(24, seed=1) == adversarial_trace(24, seed=1)

    def test_frag_trace_interleaves_pins_and_elephants(self):
        specs = frag_trace(10, seed=4)
        heaps = {s.heap_pages for s in specs}
        assert ELEPHANT_HEAP_PAGES in heaps  # the huge allocator
        assert min(heaps) < 16  # and the 4K-scale pins between them
        assert all(not s.behaviors for s in specs)

    def test_adversarial_trace_adds_revokers(self):
        specs = adversarial_trace(16, seed=4)
        revokers = [s for s in specs if "relabel_churn" in s.behaviors]
        assert revokers and all(s.tclass == "cache" for s in revokers)


class TestCloudNode:
    def _run(self, scheme="pmpt", tenants=24, seed=5, **kwargs):
        node = CloudNode(scheme=scheme, seed=seed, **kwargs)
        report = node.run_trace(poisson_trace(tenants, seed=seed))
        return node, report

    def test_horizon_is_deterministic(self):
        _, a = self._run()
        _, b = self._run()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_every_tenant_completes_and_queue_drains(self):
        node, report = self._run()
        assert report["admitted"] == 24
        assert report["rejected"] == 0
        assert report["completed"] == 24
        assert node.scheduler.pending == 0
        assert report["peak_live"] >= 1
        assert report["quanta"] > 0 and report["work_cycles"] > 0

    def test_teardown_releases_every_frame(self):
        # Post-drain footprint must equal a fresh node's baseline (kernel
        # heap + PT pool): enclave frames, PT pages, and dead domains'
        # PMPT table pages all went back to their allocators.
        baseline = CloudNode(scheme="pmpt", seed=5)
        idle = baseline.system.data_frames.fragmentation()["allocated_frames"]
        _, report = self._run()
        assert report["frag_final"]["allocated_frames"] == idle

    @pytest.mark.parametrize("scheme", ["pmpt", "hpmp"])
    def test_every_teardown_conserves_frames(self, scheme, monkeypatch):
        # After every teardown each of the system's pools accounts for every
        # frame of its region: free plus allocated, nothing lost or doubled.
        node = CloudNode(scheme=scheme, seed=3)
        system = node.system
        pools = {
            "data": system.data_frames,
            "pt": system.pt_frames,
            "table": system.table_frames,
        }
        teardown = node._teardown
        seen = []

        def checked_teardown(tenant):
            teardown(tenant)
            for name, pool in pools.items():
                frames = pool.region.size // PAGE_SIZE
                assert pool.free_frames + pool.allocated_frames == frames, (name, len(seen))
            seen.append(tenant.spec.name)

        idle = {name: pool.allocated_frames for name, pool in pools.items()}
        monkeypatch.setattr(node, "_teardown", checked_teardown)
        report = node.run_trace(poisson_trace(12, seed=3))
        assert len(seen) == report["completed"] == 12
        # The drained node holds what it held before the first admission.
        assert {name: pool.allocated_frames for name, pool in pools.items()} == idle

    def test_rejection_path_keeps_the_node_alive(self):
        # Three simultaneous ~12 MiB tenants against a 32 MiB data pool:
        # at least one admission must fail cleanly (scattered PT pages cost
        # the pool extra contiguity), leak nothing, and leave the
        # survivors to finish.
        specs = [
            spec_for(i, "batch", 0, 3, seed=i, heap_pages=3000) for i in range(3)
        ]
        node = CloudNode(scheme="pmpt", seed=1)
        idle = node.system.data_frames.fragmentation()["allocated_frames"]
        report = node.run_trace(specs)
        assert report["rejected"] >= 1
        assert report["completed"] == 3 - report["rejected"] >= 1
        assert report["frag_final"]["allocated_frames"] == idle

    def test_hpmp_tracks_segment_pressure(self):
        _, report = self._run(scheme="hpmp")
        assert report["min_free_segment_entries"] is not None
        assert report["monitor_events"]

    def test_slo_snapshot_folds_exactly(self):
        _, a = self._run(seed=5)
        _, b = self._run(seed=6, tenants=16)
        merged = SLOAccount.from_snapshots([a["slo"], b["slo"]])
        direct = SLOAccount.from_snapshots([a["slo"]])
        direct_b = SLOAccount.from_snapshots([b["slo"]])
        for tclass in merged.classes():
            stats = merged.group_for(tclass)
            expect = direct.group_for(tclass)["completed"] + direct_b.group_for(tclass)["completed"]
            assert stats["completed"] == expect
        rows = merged.rows(freq_mhz=1000)
        assert [r["tenant_class"] for r in rows] == merged.classes()
        for row in rows:
            assert row["refs_per_s"] > 0
            assert row["work_p99"] >= row["work_p50"]


class TestCloudCells:
    def test_unknown_profile_rejected(self):
        from repro.experiments import cloud_node

        with pytest.raises(WorkloadError):
            cloud_node.run_cloud(profile="chaos", tenants=4, slices=2)

    def test_rollup_rows_account_for_every_epoch(self):
        from repro.experiments import cloud_node

        rows = cloud_node.run_cloud(tenants=24, slices=3, frag_every=8)
        epochs = [r for r in rows if r["kind"] == "epoch"]
        node = next(r for r in rows if r["kind"] == "node")
        assert len(epochs) == 3
        assert node["tenants"] == sum(r["tenants"] for r in epochs) == 24
        assert node["lifecycles"] == sum(r["completed"] for r in epochs)
        assert node["peak_tenants"] == max(r["peak_live"] for r in epochs)
        assert node["peak_frag_pct"] >= node["final_frag_pct"]
        class_rows = [r for r in rows if r["kind"] == "class"]
        assert sum(r["tenants"] for r in class_rows) == node["lifecycles"]

    def test_partition_matches_slices(self):
        """A cell's epochs are the trace's ``slice_trace`` chunks, in order,
        each simulated on a fresh node exactly as ``run_cloud_slice`` does."""
        from repro.experiments import cloud_node

        kwargs = dict(scheme="pmpt", tenants=24, slices=3, seed=7, frag_every=8)
        epochs = [r for r in cloud_node.run_cloud(**kwargs) if r["kind"] == "epoch"]
        trace = poisson_trace(24, 7)
        assert [r["tenants"] for r in epochs] == [len(slice_trace(trace, 3, i)) for i in range(3)]
        assert epochs == [cloud_node.run_cloud_slice(slice_index=i, **kwargs)[0] for i in range(3)]


class TestCellScaleSummary:
    def test_bench_summary_surfaces_node_gauges(self, tmp_path):
        from repro.runner import CampaignPool, ResultStore, TaskSpec, campaign_tasks
        from repro.runner.cli import bench_summary

        (base,) = [t for t in campaign_tasks(["cloud/churn-pmpt"]) if t.shard == "churn-pmpt"]
        spec = TaskSpec(
            base.task_id,
            base.experiment,
            base.shard,
            base.module,
            "run_cloud",
            {"scheme": "pmpt", "profile": "poisson", "tenants": 16, "slices": 2, "seed": 7,
             "machine": "rocket", "mem_mib": 64, "frag_every": 8},
        )
        store = ResultStore(tmp_path, version="v")
        manifest = CampaignPool(store, jobs=1).run([spec])
        assert manifest.failed == []
        summary = bench_summary(manifest, store, generated_unix=0.0)
        gauges = summary["cell_scale"]["cloud/churn-pmpt"]
        assert gauges["lifecycles"] == 16
        assert gauges["peak_tenants"] >= 1
        assert gauges["rejected"] == 0
        assert isinstance(gauges["final_frag_pct"], float)
        # Non-cloud cells carry no node row and stay out of the map.
        assert list(summary["cell_scale"]) == ["cloud/churn-pmpt"]
