"""End-to-end coverage for the ``python -m repro`` command line.

Covers the argparse migration (usage errors exit 2, help exits 0), the
``list`` / single-experiment / ``verify`` dispatches, the per-experiment
``--selfcheck`` reporting fix, and the ``run`` campaign subcommand driven
through tiny cells only.
"""

import json
import re

import pytest

from repro.__main__ import main


class TestListAndDispatch:
    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "table4" in out and "run" in out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig02" in out and "verify" in out

    def test_help_exits_zero(self, capsys):
        assert main(["-h"]) == 0
        assert "python -m repro" in capsys.readouterr().out

    def test_single_experiment(self, capsys):
        assert main(["fig02"]) == 0
        out = capsys.readouterr().out
        assert "sv39" in out and "===== fig02 =====" in out
        assert "PASS  fig02/counts: sv39 pmp/pmpt/hpmp refs = 4/12/6" in out

    def test_unknown_id_exits_2_with_usage(self, capsys):
        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "unknown experiment id(s): fig99" in err

    def test_unknown_flag_exits_2_with_usage(self, capsys):
        assert main(["--definitely-not-a-flag"]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_flag_after_id_exits_2(self, capsys):
        assert main(["fig02", "--bogus"]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_verify_dispatch(self, capsys):
        assert main(["verify", "--ops", "40", "--seed", "0", "--scheme", "pmp"]) == 0
        assert "pmp" in capsys.readouterr().out

    def test_verify_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--scheme", "nonsense"])
        assert excinfo.value.code == 2


class TestSelfcheck:
    def test_selfcheck_counts_reset_per_experiment(self, capsys):
        # Running the same experiment twice must report the same (non-zero)
        # per-experiment counts, not a cumulative doubling.
        assert main(["fig02", "fig02", "--selfcheck"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("[selfcheck")]
        assert len(lines) == 2
        counts = [re.findall(r"\d+", line) for line in lines]
        assert counts[0] == counts[1]
        assert int(counts[0][0]) > 0  # data refs actually re-checked

    def test_selfcheck_disabled_after_run(self):
        from repro.engine.core import _default_hook_factories

        assert main(["fig02", "--selfcheck"]) == 0
        assert _default_hook_factories == []


class TestRunSubcommand:
    def test_run_campaign_end_to_end(self, tmp_path, capsys):
        store = tmp_path / "store"
        manifest_path = tmp_path / "manifest.json"
        summary_path = tmp_path / "BENCH_summary.json"
        args = [
            "run",
            "--jobs",
            "2",
            "--filter",
            "fig02",
            "--store",
            str(store),
            "--manifest",
            str(manifest_path),
            "--summary",
            str(summary_path),
        ]
        assert main(args) == 0
        capsys.readouterr()

        manifest = json.loads(manifest_path.read_text())
        assert manifest["totals"] == {"cells": 1, "ok": 1, "cached": 0, "failed": 0}
        (cell,) = manifest["cells"]
        assert cell["task_id"] == "fig02/counts"
        assert cell["status"] == "ok" and cell["rows_n"] == 3
        assert (store / f"{cell['key']}.json").is_file()

        summary = json.loads(summary_path.read_text())
        assert summary["cells"]["ok"] == 1
        assert summary["headline"]["sv39_refs"] == {"pmp": 4, "pmpt": 12, "hpmp": 6}
        # Default light telemetry: counters harvested from the simulator's
        # own stat groups, namespaced by component.
        assert summary["telemetry_level"] == "light"
        assert summary["telemetry"]["hierarchy.refs"] > 0
        assert summary["telemetry"]["checker.checks"] > 0
        assert summary["effective_jobs"] <= summary["jobs"]

        # Second run with --resume must satisfy every cell from the cache
        # and gate cleanly against the first manifest.
        manifest2_path = tmp_path / "manifest2.json"
        rerun = args[:-4] + [
            "--manifest",
            str(manifest2_path),
            "--summary",
            str(tmp_path / "BENCH2.json"),
            "--resume",
            "--baseline",
            str(manifest_path),
        ]
        assert main(rerun) == 0
        out = capsys.readouterr().out
        manifest2 = json.loads(manifest2_path.read_text())
        assert manifest2["totals"]["cached"] == 1 and manifest2["totals"]["ok"] == 0
        assert "regression gate: OK" in out

    def test_failed_cell_prints_repro_line(self, tmp_path, capsys, monkeypatch):
        from repro.runner import TaskSpec, cli

        crash = TaskSpec("self/crash", "self", "crash", "repro.runner.tasks", "_selftest_crash", {})
        monkeypatch.setattr(cli, "campaign_tasks", lambda filters: [crash])
        args = ["run", "--jobs", "1", "--retries", "0", "--store", str(tmp_path / "store"),
                "--manifest", str(tmp_path / "m.json"), "--summary", str(tmp_path / "s.json")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "FAILED self/crash (error): RuntimeError: boom" in err
        assert "  repro: PYTHONPATH=src python -m repro run --jobs 1 --shard-cells off --filter self/crash\n" in err

    def test_run_list_cells(self, capsys):
        assert main(["run", "--list-cells", "--filter", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "fig10/rocket-ld" in out and "fig10/boom-sd" in out and "4 cells" in out

    def test_run_bad_filter_exits_2(self, capsys):
        assert main(["run", "--filter", "not-a-real-cell"]) == 2
        assert "no campaign cells match" in capsys.readouterr().err

    def test_run_usage_error_exits_2(self, capsys):
        assert main(["run", "--jobs", "not-a-number"]) == 2
