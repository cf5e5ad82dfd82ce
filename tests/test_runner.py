"""repro.runner: store keys, manifests, pool scheduling, regression gate.

Includes the determinism guard the runner's whole design rests on: the same
shard run under ``--jobs 1`` (inline) and ``--jobs 4`` (process pool) must
produce byte-identical canonical rows — parallelism may only change wall
time, never a cycle count or reference count.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.experiments.report import canonical_rows_json, rows_digest
from repro.runner import (
    CampaignPool,
    CellRecord,
    ResultStore,
    RunManifest,
    TaskSpec,
    campaign_tasks,
    compare_manifests,
    execute,
    gate,
)
from repro.runner.manifest import STATUS_ERROR, STATUS_OK


def _spec(value=7):
    return TaskSpec(
        task_id="self/ok",
        experiment="self",
        shard="ok",
        module="repro.runner.tasks",
        func="_selftest_rows",
        kwargs={"value": value},
    )


class TestCampaignTasks:
    def test_expands_every_registered_experiment(self):
        from repro.experiments import ALL_EXPERIMENTS, SHARDS

        tasks = campaign_tasks()
        assert {t.experiment for t in tasks} == set(ALL_EXPERIMENTS)
        assert len(tasks) == sum(len(s) for s in SHARDS.values())
        assert len({t.task_id for t in tasks}) == len(tasks)  # ids unique

    def test_filters_are_substrings_on_task_ids(self):
        assert {t.task_id for t in campaign_tasks(["fig10"])} == {
            "fig10/rocket-ld",
            "fig10/rocket-sd",
            "fig10/boom-ld",
            "fig10/boom-sd",
        }
        assert campaign_tasks(["no-such-cell"]) == []

    def test_execute_light_telemetry_harvests_existing_counters(self):
        # The default level reads the stat groups the simulator maintains
        # anyway (hierarchy, caches, checker) — no hook callbacks at all.
        (task,) = campaign_tasks(["fig02"])
        rows, stats = execute(task)
        assert rows[0]["pmpt"] == 12
        assert stats["engines"] > 0
        assert stats["hierarchy.refs"] > 0
        assert stats["checker.checks"] > 0

    def test_execute_full_telemetry_attaches_histogram_hook(self):
        (task,) = campaign_tasks(["fig02"])
        rows, stats = execute(task, telemetry="full")
        assert rows[0]["pmpt"] == 12
        assert stats["accesses"] == 9  # 3 modes x 3 schemes, one access each
        assert stats["refs.data"] == 9

    def test_execute_telemetry_levels_agree_on_rows(self):
        from repro.experiments.report import rows_digest

        (task,) = campaign_tasks(["fig02"])
        digests = set()
        for level in ("off", "light", "full"):
            rows, stats = execute(task, telemetry=level)
            digests.add(rows_digest(rows))
            assert (stats is None) == (level == "off")
        assert len(digests) == 1  # telemetry never perturbs results

    def test_execute_rejects_unknown_telemetry_level(self):
        (task,) = campaign_tasks(["fig02"])
        with pytest.raises(ValueError):
            execute(task, telemetry="verbose")


class TestResultStore:
    def test_key_is_stable_and_param_sensitive(self, tmp_path):
        store = ResultStore(tmp_path, version="v-test")
        assert store.key_for(_spec()) == store.key_for(_spec())
        assert store.key_for(_spec(value=8)) != store.key_for(_spec(value=7))
        other_version = ResultStore(tmp_path, version="v-other")
        assert other_version.key_for(_spec()) != store.key_for(_spec())

    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path, version="v-test")
        rows, stats = execute(_spec())
        payload = store.build_payload(_spec(), rows, stats)
        key = store.key_for(_spec())
        path = store.put(key, payload)
        assert path.is_file()
        loaded = store.get(key)
        assert loaded["rows"] == [{"cell": "selftest", "value": 7}]
        assert loaded["rows_sha256"] == rows_digest(rows)
        assert store.keys() == [key] and len(store) == 1

    def test_get_rejects_garbage(self, tmp_path):
        store = ResultStore(tmp_path, version="v-test")
        assert store.get("missing") is None
        (tmp_path / "bad.json").write_text("{not json")
        assert store.get("bad") is None

    def test_get_unlinks_schema_mismatched_entries(self, tmp_path, capsys):
        store = ResultStore(tmp_path, version="v-test")
        path = store.path_for("old")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"schema": 0, "rows": []}))
        assert store.get("old") is None
        assert not path.exists()  # dropped, not just ignored
        assert "dropped old.json" in capsys.readouterr().err
        # Undecodable files are left alone (could be a foreign file).
        (tmp_path / "bad.json").write_text("{not json")
        assert store.get("bad") is None
        assert (tmp_path / "bad.json").exists()


def _orphan_writer(root: str, started) -> None:
    """A fake store writer that dies between ``mkstemp`` and ``os.replace``."""
    import tempfile

    fd, _tmp = tempfile.mkstemp(dir=root, prefix=".deadbeefdeadbeefdead.", suffix=".tmp")
    os.write(fd, b"{")  # torn write in flight
    started.set()
    time.sleep(60)  # killed long before this returns


class TestStoreTmpHygiene:
    def _kill_fake_writer(self, root) -> str:
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        started = context.Event()
        proc = context.Process(target=_orphan_writer, args=(str(root), started), daemon=True)
        proc.start()
        assert started.wait(30.0)
        os.kill(proc.pid, signal.SIGKILL)  # no cleanup handler runs
        proc.join(30.0)
        (tmp,) = [p for p in root.glob(".*.tmp")]
        return str(tmp)

    def test_stale_tmp_from_killed_writer_is_swept_on_init(self, tmp_path):
        store = ResultStore(tmp_path, version="v")
        store.put("live", {"schema": 1, "rows": []})
        tmp = self._kill_fake_writer(tmp_path)
        # Age-gate: the orphan is seconds old, so a fresh store leaves it
        # (it could be a sibling worker's in-flight write).
        ResultStore(tmp_path, version="v")
        assert os.path.exists(tmp)
        # Backdate it past the threshold: the next store construction
        # reclaims it without touching committed entries.
        os.utime(tmp, (time.time() - 7200, time.time() - 7200))
        store2 = ResultStore(tmp_path, version="v")
        assert not os.path.exists(tmp)
        assert store2.keys() == ["live"]

    def test_sweep_returns_count_and_keys_never_surface_tmp(self, tmp_path):
        store = ResultStore(tmp_path, version="v")
        store.put("k", {"schema": 1, "rows": []})
        tmp = self._kill_fake_writer(tmp_path)
        assert store.keys() == ["k"]  # in-flight scratch never enumerated
        assert store.sweep_stale_tmp(max_age_s=3600.0) == 0  # too fresh
        os.utime(tmp, (time.time() - 7200, time.time() - 7200))
        assert store.sweep_stale_tmp(max_age_s=3600.0) == 1
        assert store.keys() == ["k"] and len(store) == 1


class TestManifest:
    def test_roundtrip(self, tmp_path):
        manifest = RunManifest(
            label="t",
            version="v",
            jobs=2,
            timeout_s=5.0,
            retries=1,
            wall_s=1.25,
            cells=[
                CellRecord("a/x", "a", "x", STATUS_OK, key="k1", wall_s=1.0, rows_n=3, rows_sha256="d1", telemetry={"accesses": 4}),
                CellRecord("a/y", "a", "y", STATUS_ERROR, error="Trace...", attempts=2),
            ],
        )
        path = tmp_path / "m.json"
        manifest.save(str(path))
        loaded = RunManifest.load(str(path))
        assert loaded.totals() == {"cells": 2, "ok": 1, "cached": 0, "failed": 1}
        assert [c.task_id for c in loaded.failed] == ["a/y"]
        assert loaded.cell("a/x").telemetry == {"accesses": 4}
        assert loaded.cell("a/y").attempts == 2

    def test_load_ignores_retired_vector_field(self, tmp_path):
        """Manifests written while the runner had a vector mode still load."""
        data = RunManifest(label="old", version="v", cells=[]).to_dict()
        data["vector"] = True
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data))
        loaded = RunManifest.load(str(path))
        assert loaded.label == "old" and loaded.block
        assert "vector" not in loaded.to_dict()

    def test_load_rejects_non_manifest(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": 999}))
        with pytest.raises(ValueError):
            RunManifest.load(str(path))


class TestPoolFailureModes:
    def test_crash_is_isolated_and_retried(self, tmp_path):
        specs = [
            _spec(),
            TaskSpec("self/crash", "self", "crash", "repro.runner.tasks", "_selftest_crash", {}),
        ]
        pool = CampaignPool(ResultStore(tmp_path, version="v"), jobs=2, timeout_s=60.0, retries=1)
        manifest = pool.run(specs)
        ok, crash = manifest.cell("self/ok"), manifest.cell("self/crash")
        assert ok.status == STATUS_OK
        assert crash.status == "error" and crash.attempts == 2
        assert "RuntimeError: boom" in crash.error

    def test_timeout_terminates_the_cell(self, tmp_path):
        specs = [TaskSpec("self/slow", "self", "slow", "repro.runner.tasks", "_selftest_sleep", {"seconds": 30.0})]
        pool = CampaignPool(ResultStore(tmp_path, version="v"), jobs=2, timeout_s=0.5, retries=0)
        manifest = pool.run(specs)
        (cell,) = manifest.cells
        assert cell.status == "timeout" and cell.failed
        assert manifest.wall_s < 15.0  # terminated, not joined to completion

    def test_inline_mode_matches_pooled_statuses(self, tmp_path):
        specs = [
            _spec(),
            TaskSpec("self/crash", "self", "crash", "repro.runner.tasks", "_selftest_crash", {}),
        ]
        pool = CampaignPool(ResultStore(tmp_path, version="v"), jobs=1, retries=0)
        manifest = pool.run(specs)
        assert manifest.cell("self/ok").status == STATUS_OK
        assert manifest.cell("self/ok").worker == "inline"
        assert manifest.cell("self/crash").status == "error"

    def test_resume_uses_the_cache(self, tmp_path):
        pool = CampaignPool(ResultStore(tmp_path, version="v"), jobs=1)
        first = pool.run([_spec()])
        assert first.cell("self/ok").status == STATUS_OK
        second = pool.run([_spec()], resume=True)
        cached = second.cell("self/ok")
        assert cached.status == "cached" and cached.worker == "cache"
        assert cached.rows_sha256 == first.cell("self/ok").rows_sha256


class TestDeterminismGuard:
    #: Tiny but heterogeneous shard set: native counts, virtualized counts
    #: and a latency table, so the guard spans all three row shapes.
    FILTERS = ["fig02", "fig13"]

    def test_jobs1_and_jobs4_rows_byte_identical(self, tmp_path):
        tasks = campaign_tasks(self.FILTERS)
        assert len(tasks) == 3
        digests = {}
        canonicals = {}
        for jobs in (1, 4):
            store = ResultStore(tmp_path / f"jobs{jobs}", version="v")
            manifest = CampaignPool(store, jobs=jobs, timeout_s=300.0).run(tasks)
            assert manifest.failed == []
            # Normalize ordering: manifests list cells in declaration order
            # already, but key by task id to be explicit about it.
            digests[jobs] = {c.task_id: c.rows_sha256 for c in manifest.cells}
            canonicals[jobs] = {
                c.task_id: canonical_rows_json(store.get(c.key)["rows"]) for c in manifest.cells
            }
        assert digests[1] == digests[4]
        assert canonicals[1] == canonicals[4]  # byte-for-byte, not just hash


class TestRegressionGate:
    def _run(self, tmp_path, name, value=7):
        store = ResultStore(tmp_path / "store", version=f"v-{name}")
        pool = CampaignPool(store, jobs=1)
        manifest = pool.run([_spec(value=value)])
        return store, manifest

    def test_identical_runs_have_no_drift(self, tmp_path):
        store, baseline = self._run(tmp_path, "a")
        _, current = self._run(tmp_path, "a")
        drifts, _notes = compare_manifests(baseline, current, store)
        assert drifts == []

    def test_perturbed_value_is_value_level_drift(self, tmp_path):
        # Same cell identity, different code version producing different
        # rows — the store keeps both payloads (keys differ by version), so
        # the gate can name the exact perturbed column.
        store, baseline = self._run(tmp_path, "a", value=7)
        _, current = self._run(tmp_path, "b", value=8)
        drifts, _notes = compare_manifests(baseline, current, store)
        assert len(drifts) == 1
        drift = drifts[0]
        assert drift.task_id == "self/ok" and drift.kind == "rows"
        assert "'value': 7 -> 8" in drift.detail

    def test_drift_prints_repro_line_with_baseline(self, tmp_path):
        store, baseline = self._run(tmp_path, "a", value=7)
        _, current = self._run(tmp_path, "b", value=8)
        path = baseline.save(str(tmp_path / "baseline.json"))
        lines = []
        assert gate(path, current, store, emit=lines.append) == 1
        assert lines[-1] == f"  repro: PYTHONPATH=src python -m repro run --jobs 1 --shard-cells off --filter self/ok --baseline {path}"

    def test_newly_failing_cell_is_drift(self, tmp_path):
        store, baseline = self._run(tmp_path, "a")
        current = RunManifest(cells=[CellRecord("self/ok", "self", "ok", STATUS_ERROR, error="boom")])
        drifts, _notes = compare_manifests(baseline, current, store)
        assert [d.kind for d in drifts] == ["status"]

    def test_filtered_run_skips_missing_cells(self, tmp_path):
        store, baseline = self._run(tmp_path, "a")
        extra = CellRecord("self/other", "self", "other", STATUS_OK, rows_sha256="dd")
        baseline.cells.append(extra)
        _, current = self._run(tmp_path, "a")
        drifts, notes = compare_manifests(baseline, current, store)
        assert drifts == []
        assert any("not in this run" in note for note in notes)

    def test_digest_only_drift_without_store(self, tmp_path):
        _, baseline = self._run(tmp_path, "a", value=7)
        _, current = self._run(tmp_path, "b", value=8)
        drifts, _notes = compare_manifests(baseline, current, store=None)
        assert [d.kind for d in drifts] == ["missing-rows"]
