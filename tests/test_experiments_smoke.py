"""Smoke tests: every experiment module runs end-to-end at reduced scale
and produces structurally sane rows."""

import pytest

from repro.common.types import AccessType
from repro.experiments import (
    ALL_EXPERIMENTS,
    ablations,
    fig02_counts,
    fig10_latency,
    fig11_suites,
    fig12_apps,
    fig13_virt,
    fig14_tee,
    fig15_frag,
    fig17_pwc,
    table3_os,
    table4_hw,
)
from repro.experiments.report import format_table
from repro.runner.tasks import run_experiment


class TestRegistry:
    def test_all_experiments_registered(self):
        assert len(ALL_EXPERIMENTS) == 16
        for module in ALL_EXPERIMENTS.values():
            assert hasattr(module, "render") and not hasattr(module, "main")

    def test_summary_headline_claims_pass(self):
        from repro.experiments import summary

        rows = summary.run()
        assert all(row["verdict"] == "PASS" for row in rows), rows

    def test_cli_list(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "table4" in out

    def test_cli_unknown(self, capsys):
        from repro.__main__ import main

        assert main(["fig99"]) == 2

    def test_cli_runs_one(self, capsys):
        from repro.__main__ import main

        assert main(["fig02"]) == 0
        assert "sv39" in capsys.readouterr().out


class TestRuns:
    def test_fig02(self):
        rows = fig02_counts.run(modes=("sv39",))
        assert rows[0]["pmpt"] == 12

    def test_fig10(self):
        rows = fig10_latency.run("rocket", AccessType.READ)
        assert {r["checker"] for r in rows} == {"pmp", "pmpt", "hpmp"}
        mit = fig10_latency.mitigation(rows)
        assert set(mit) == {"TC1", "TC2", "TC3", "TC4"}

    def test_table3_reduced(self):
        rows = table3_os.run(machine="rocket", iterations=1, syscalls=("null", "read"), kernel_heap_pages=512)
        assert len(rows) == 2 and all("pmpt/hpmp" in r for r in rows)

    def test_fig11_rv8_reduced(self):
        rows = fig11_suites.run_rv8("rocket", scale=0.25, programs=("aes", "qsort"))
        assert len(rows) == 2

    def test_fig11_gap_reduced(self):
        rows = fig11_suites.run_gap("rocket", scale=7, kernels=("bfs",))
        assert rows[0]["kernel"] == "bfs-kron"
        assert rows[0]["pmpt"] >= 100.0

    def test_fig12_functionbench_reduced(self):
        rows = fig12_apps.run_functionbench_rows("rocket", include_host=False, functions=("matmul",))
        assert rows[0]["pmpt"] >= 100.0

    def test_fig12_chain_reduced(self):
        rows = fig12_apps.run_chain_rows("rocket", sizes=(32,))
        assert rows[0]["image_size"] == 32

    def test_fig12_redis_reduced(self):
        rows = fig12_apps.run_redis_rows("rocket", commands=("GET",), requests=5, num_keys=1024)
        assert rows[0]["command"] == "GET"

    def test_fig13(self):
        counts = {r["scheme"]: r["refs"] for r in fig13_virt.reference_counts("rocket")}
        assert counts["pmpt"] == 48

    def test_fig14_reduced(self):
        rows = fig14_tee.run_domain_switch(domain_counts=(2,))
        assert isinstance(rows[0]["penglai-hpmp"], int)
        rows = fig14_tee.run_region_alloc_release(num_regions=3)
        assert len(rows) == 3
        rows = fig14_tee.run_alloc_sizes(sizes_mib=(1, 32))
        assert rows[1]["penglai-hpmp"] < rows[0]["penglai-hpmp"]

    def test_fig15_reduced(self):
        rows = fig15_frag.run_fig15("rocket", num_pages=8)
        assert len(rows) == 4

    def test_fig16_reduced(self):
        rows = fig15_frag.run_fig16("rocket", num_pages=8)
        assert {r["va_pattern"] for r in rows} == {"Contiguous-VA", "Fragmented-VA"}

    def test_fig17_reduced(self):
        rows = fig17_pwc.run("rocket", functions=("matmul",), pwc_sizes=(8,))
        assert rows[0]["function"] == "matmul"

    def test_table4(self):
        rows = table4_hw.run()
        assert all(0 < float(r["cost_%"]) < 2 for r in rows)

    def test_scalability_reduced(self):
        from repro.experiments import scalability

        rows = scalability.run(domain_counts=(2, 24))
        assert rows[1]["pmp_overhead_%"] == "no available PMP"
        assert isinstance(rows[1]["hpmp_overhead_%"], float)

    def test_ablation_helpers(self):
        depth = ablations.run_table_depth()
        assert [r["checker_refs"] for r in depth] == [4, 8, 12]
        inline = ablations.run_tlb_inlining(accesses=16)
        assert len(inline) == 2
        hints = ablations.run_hint_ablation(pages=4, rounds=3)
        assert hints[1]["cycles_per_access"] <= hints[0]["cycles_per_access"]


class TestMainsRender:
    @pytest.mark.parametrize("module", [fig02_counts, table4_hw])
    def test_main_returns_rendered_table(self, module):
        (experiment,) = [name for name, m in ALL_EXPERIMENTS.items() if m is module]
        (table,) = module.render(run_experiment(experiment))
        assert "-" in table.text and table.claims
        assert all(claim.ok for claim in table.claims)

    def test_format_table_used_everywhere(self):
        text = format_table(["a"], [{"a": 1}])
        assert "a" in text
