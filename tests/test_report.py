"""Results tables and shape claims, rendered from campaign rows.

Every ``benchmarks/results/*.txt`` table is written by ``python -m repro
report`` from one campaign's stored rows through each experiment's
``render``.  These tests run the cheap cells in-process and compare their
tables byte for byte with the committed files, check every claim on them,
and feed ``report`` a stored row set that violates each claim in turn.
"""

import pathlib

import pytest

from repro.__main__ import main
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.report import format_table
from repro.runner import CellRecord, ResultStore, RunManifest, campaign_tasks
from repro.runner.manifest import STATUS_OK
from repro.runner.tasks import run_experiment

RESULTS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results"

#: Experiments whose cells together run in a few seconds.
CHEAP = ("fig02", "fig10", "fig13", "table4", "ablations")


@pytest.fixture(scope="module")
def cheap_rows():
    return {experiment: run_experiment(experiment) for experiment in CHEAP}


def _fb(function, pmpt, hpmp):
    return {"function": function, "pl-pmp_kcycles": 143.4, "host-pmp": 104.1, "pl-pmp": 100.0, "pmpt": pmpt, "hpmp": hpmp}


def _redis(command, pmpt, hpmp):
    return {"command": command, "pmp_rps": 323692, "pmp": 100.0, "pmpt": pmpt, "hpmp": hpmp}


def _region(region):
    granted = region <= 12
    return {
        "region": region,
        "penglai-pmp_alloc": 38 if granted else "exhausted",
        "penglai-hpmp_alloc": 290 if region == 1 else 42,
        "penglai-pmp_release": 38 if granted else None,
        "penglai-hpmp_release": 42,
    }


def _table3(syscall, pmp, pmpt, hpmp):
    return {"syscall": syscall, "pmp": pmp, "pmpt": pmpt, "hpmp": hpmp, "pmpt/hpmp": 100.0 * pmpt / hpmp}


#: Rows shaped like the campaign's (trimmed, values from a campaign run) for
#: the experiments too slow to run here; every claim holds on them.
SLOW_ROWS = {
    "fig03": {
        "preview": [
            {"panel": "ld latency", "segment": 100.0, "avg": 187.8, "worst": 223.5},
            {"panel": "GAP", "segment": 100.0, "avg": 100.1, "worst": 100.2},
            {"panel": "serverless", "segment": 100.0, "avg": 105.3, "worst": 108.0},
            {"panel": "Redis RPS", "segment": 100.0, "avg": 94.0, "worst": 93.0},
        ]
    },
    "fig11": {
        "rv8-rocket": [
            {"program": "aes", "pmp": 0.058, "pmpt": 0.059, "hpmp": 0.059, "pmpt_overhead_%": 1.2, "hpmp_overhead_%": 0.5},
            {"program": "primes", "pmp": 0.157, "pmpt": 0.162, "hpmp": 0.160, "pmpt_overhead_%": 3.2, "hpmp_overhead_%": 1.7},
        ],
        "gap-rocket": [
            {"kernel": "bfs-kron", "pmp": 100.0, "pmpt": 100.34, "hpmp": 100.29},
            {"kernel": "pr-kron", "pmp": 100.0, "pmpt": 100.37, "hpmp": 100.32},
        ],
        "gap-boom": [
            {"kernel": "bfs-kron", "pmp": 100.0, "pmpt": 100.41, "hpmp": 100.36},
            {"kernel": "pr-kron", "pmp": 100.0, "pmpt": 100.43, "hpmp": 100.38},
        ],
    },
    "fig12": {
        "functionbench-rocket": [_fb("chameleon", 103.9, 101.8), _fb("matmul", 108.1, 101.6)],
        "functionbench-boom": [_fb("chameleon", 103.8, 101.7), _fb("matmul", 108.5, 101.9)],
        "image-chain": [
            {"image_size": 32, "pl-pmp_kcycles": 136.3, "pl-pmp": 100.0, "pl-pmpt": 106.7, "pl-hpmp": 100.9},
            {"image_size": 64, "pl-pmp_kcycles": 255.3, "pl-pmp": 100.0, "pl-pmpt": 103.7, "pl-hpmp": 100.5},
            {"image_size": 256, "pl-pmp_kcycles": 2634.6, "pl-pmp": 100.0, "pl-pmpt": 100.6, "pl-hpmp": 100.2},
        ],
        "redis-rocket": [_redis("PING_INLINE", 94.3, 96.7), _redis("SET", 92.5, 95.4)],
        "redis-boom": [_redis("PING_INLINE", 94.5, 97.6), _redis("SET", 92.7, 96.7)],
    },
    "fig14": {
        "domain-switch": [
            {"domains": 2, "penglai-pmp": 455, "penglai-hpmp": 461},
            {"domains": 12, "penglai-pmp": 458, "penglai-hpmp": 461},
            {"domains": 101, "penglai-pmp": "no available PMP", "penglai-hpmp": 461},
        ],
        "region-alloc-release": [_region(region) for region in range(1, 101)],
        "alloc-sizes": [
            {"size_mib": size, "penglai-hpmp": cycles}
            for size, cycles in ((1, 380), (2, 228), (4, 420), (8, 804), (16, 1572), (32, 42), (64, 56))
        ],
    },
    "fig15": {
        "native": [
            {"physical_pages": "contiguous", "va_pattern": "Contiguous-VA", "pmp": 151.4, "pmpt": 169.2, "hpmp": 159.3},
            {"physical_pages": "contiguous", "va_pattern": "Fragmented-VA", "pmp": 508.0, "pmpt": 733.7, "hpmp": 515.9},
            {"physical_pages": "fragmented", "va_pattern": "Contiguous-VA", "pmp": 151.4, "pmpt": 281.6, "hpmp": 271.7},
            {"physical_pages": "fragmented", "va_pattern": "Fragmented-VA", "pmp": 508.0, "pmpt": 821.1, "hpmp": 628.2},
        ],
        "virtualized": [
            {"host_physical": "contiguous", "va_pattern": "Fragmented-gVA", "pmp": 608.6, "pmpt": 701.7, "hpmp": 653.3},
            {"host_physical": "fragmented", "va_pattern": "Fragmented-gVA", "pmp": 608.6, "pmpt": 1004.8, "hpmp": 959.9},
        ],
        "fig16-cache": [
            {"va_pattern": "Contiguous-VA", "pmpt": 65.3, "pmpt-cache": 61.5, "hpmp": 59.7, "hpmp-cache": 57.7, "pmp": 54.7},
            {"va_pattern": "Fragmented-VA", "pmpt": 268.4, "pmpt-cache": 267.7, "hpmp": 207.5, "hpmp-cache": 205.6, "pmp": 192.4},
        ],
    },
    "fig17": {
        "pwc-sweep": [
            {"function": "chameleon", "pmp(8)": 100.0, "pmpt(8)": 103.9, "hpmp(8)": 101.8,
             "pmp(32)": 100.0, "pmpt(32)": 103.9, "hpmp(32)": 101.8},
        ]
    },
    "table3": {
        "null-read-write": [_table3("null", 497.6, 644.9, 651.6), _table3("read", 7079.0, 8160.9, 7527.6)],
        "stat-fstat-open": [_table3("fstat", 2708.6, 3754.6, 3166.9)],
        "pipe-fork-exec": [_table3("fork+exit", 16387.6, 19185.4, 17610.8), _table3("fork+exec", 81996.1, 89361.2, 84388.9)],
    },
    "scalability": {
        "consolidation": [
            {"domains": count, "pmp_overhead_%": pmp, "pmpt_overhead_%": hpmp, "hpmp_overhead_%": hpmp}
            for count, pmp, hpmp in ((2, 94.7, 85.8), (8, 94.7, 82.8), (24, "no available PMP", 79.4), (64, "no available PMP", 79.4))
        ]
    },
    "summary": {
        "claims": [
            {"claim": "Sv39 refs 4/12/6 (Fig 2)", "verdict": "PASS", "detail": "{'pmp': 4, 'pmpt': 12, 'hpmp': 6}"},
            {"claim": "PMP wall <16, HPMP scales (Fig 14)", "verdict": "PASS", "detail": "pmp=12, hpmp=40+"},
        ]
    },
}


def _set(cell, index, **values):
    def mutate(rows_by_cell):
        rows_by_cell[cell][index].update(values)

    return mutate


def _each(cell, update):
    def mutate(rows_by_cell):
        for row in rows_by_cell[cell]:
            update(row)

    return mutate


def _pmp_grants_16(rows_by_cell):
    for row in rows_by_cell["region-alloc-release"][12:16]:
        row["penglai-pmp_alloc"] = 38


#: (experiment, claim name) -> (cell the failure names, a change to valid
#: rows that violates that claim and no other).
VIOLATIONS = {
    ("fig02", "sv39 pmp/pmpt/hpmp refs = 4/12/6"): ("counts", _set("counts", 0, pmpt=13)),
    ("fig03", "ld latency avg > 100%"): ("preview", _set("preview", 0, avg=99.0)),
    ("fig03", "ld latency worst >= avg"): ("preview", _set("preview", 0, worst=150.0)),
    ("fig03", "Redis RPS avg < 100%"): ("preview", _set("preview", 3, avg=101.0)),
    ("fig10", "TC1-TC3: pmp < hpmp < pmpt, HPMP mitigates 15-85%"): ("rocket-ld", _set("rocket-ld", 1, TC1=530)),
    ("fig10", "TC4: all schemes equal"): ("rocket-ld", _set("rocket-ld", 2, TC4=3)),
    ("fig11", "RV8: hpmp overhead <= pmpt overhead + 0.5"): ("rv8-rocket", _set("rv8-rocket", 0, **{"hpmp_overhead_%": 2.0})),
    ("fig11", "RV8: pmpt overhead < 15%"): ("rv8-rocket", _set("rv8-rocket", 0, **{"pmpt_overhead_%": 15.0})),
    ("fig11", "GAP: pmpt >= 100%"): ("gap-rocket", _set("gap-rocket", 0, pmpt=99.9, hpmp=99.9)),
    ("fig11", "GAP: hpmp <= pmpt + 0.2"): ("gap-rocket", _set("gap-rocket", 0, hpmp=100.6)),
    ("fig12", "FunctionBench: pmpt >= 100%"): ("functionbench-rocket", _set("functionbench-rocket", 0, pmpt=99.9, hpmp=99.8)),
    ("fig12", "FunctionBench: hpmp <= pmpt"): ("functionbench-rocket", _set("functionbench-rocket", 0, hpmp=104.0)),
    ("fig12", "FunctionBench: host-pmp within 25% of pl-pmp"): (
        "functionbench-rocket",
        _set("functionbench-rocket", 0, **{"host-pmp": 125.0}),
    ),
    ("fig12", "FunctionBench: avg hpmp < avg pmpt"): (
        "functionbench-rocket",
        _each("functionbench-rocket", lambda row: row.update(hpmp=row["pmpt"])),
    ),
    ("fig12", "image chain: pmpt overhead shrinks with size"): ("image-chain", _set("image-chain", 2, **{"pl-pmpt": 106.7})),
    ("fig12", "image chain: pl-hpmp <= pl-pmpt"): ("image-chain", _set("image-chain", 1, **{"pl-hpmp": 104.0})),
    ("fig12", "image chain: latency grows with size"): ("image-chain", _set("image-chain", 1, **{"pl-pmp_kcycles": 100.0})),
    ("fig12", "Redis: pmpt <= 100.5%"): ("redis-rocket", _set("redis-rocket", 0, pmpt=101.0, hpmp=101.0)),
    ("fig12", "Redis: hpmp >= pmpt - 0.5"): ("redis-rocket", _set("redis-rocket", 0, hpmp=93.3)),
    ("fig12", "Redis: avg hpmp > avg pmpt"): ("redis-rocket", _each("redis-rocket", lambda row: row.update(hpmp=row["pmpt"]))),
    ("fig13", "TC1: pmp < hpmp-gpt < hpmp < pmpt"): ("latency", _set("latency", 2, TC1=10**6)),
    ("fig13", "TC4: all schemes equal"): ("latency", _set("latency", 0, TC4=999)),
    ("fig13", "cold refs pmpt/hpmp/hpmp-gpt/pmp = 48/24/18/16"): ("counts", _set("counts", 0, refs=47)),
    ("fig14", "switch: hpmp within 5% of pmp at 2 and 12 domains"): ("domain-switch", _set("domain-switch", 0, **{"penglai-hpmp": 500})),
    ("fig14", "switch: PMP has no entry left at 101 domains"): ("domain-switch", _set("domain-switch", 2, **{"penglai-pmp": 470})),
    ("fig14", "switch: HPMP switches 101 domains"): (
        "domain-switch",
        _set("domain-switch", 2, **{"penglai-hpmp": "no available PMP"}),
    ),
    ("fig14", "regions: PMP grants fewer than 16"): ("region-alloc-release", _pmp_grants_16),
    ("fig14", "regions: HPMP grants all 100"): (
        "region-alloc-release",
        _set("region-alloc-release", 99, **{"penglai-hpmp_alloc": "exhausted"}),
    ),
    ("fig14", "regions: steady-state hpmp grant >= pmp grant"): (
        "region-alloc-release",
        _set("region-alloc-release", 4, **{"penglai-pmp_alloc": 50}),
    ),
    ("fig14", "alloc size: cost grows 2 < 4 < 16 MiB"): ("alloc-sizes", _set("alloc-sizes", 4, **{"penglai-hpmp": 300})),
    ("fig14", "alloc size: 32 MiB cheaper than 2 MiB"): ("alloc-sizes", _set("alloc-sizes", 5, **{"penglai-hpmp": 300})),
    ("fig15", "fragmentation: pmp <= hpmp <= pmpt"): ("native", _set("native", 0, hpmp=170.0)),
    ("fig15", "fragmentation: fragmented VA costs more than contiguous VA"): ("native", _set("native", 1, pmp=151.4)),
    ("fig15", "fragmentation: fragmented PA + VA is pmpt's worst quadrant"): ("native", _set("native", 2, pmpt=900.0)),
    ("fig15", "virtualized: pmp <= hpmp <= pmpt"): ("virtualized", _set("virtualized", 0, hpmp=710.0)),
    ("fig15", "virtualized: fragmented host frames cost pmpt more"): (
        "virtualized",
        _set("virtualized", 1, pmpt=701.7, hpmp=700.0),
    ),
    ("fig15", "virtualized: pmp unaffected by host fragmentation"): ("virtualized", _set("virtualized", 1, pmp=609.0)),
    ("fig15", "PMPTW-Cache: pmpt-cache <= pmpt"): ("fig16-cache", _set("fig16-cache", 0, **{"pmpt-cache": 66.0})),
    ("fig15", "PMPTW-Cache: hpmp-cache <= hpmp"): ("fig16-cache", _set("fig16-cache", 0, **{"hpmp-cache": 60.0})),
    ("fig15", "PMPTW-Cache: hpmp-cache <= pmpt-cache"): ("fig16-cache", _set("fig16-cache", 0, **{"pmpt-cache": 57.0})),
    ("fig15", "PMPTW-Cache: pmp <= hpmp-cache"): ("fig16-cache", _set("fig16-cache", 0, pmp=58.0)),
    ("fig17", "PWC: hpmp <= pmpt at every PWC size"): ("pwc-sweep", _set("pwc-sweep", 0, **{"hpmp(8)": 104.0})),
    ("fig17", "PWC: pmpt(32) <= 1.03 * pmpt(8)"): ("pwc-sweep", _set("pwc-sweep", 0, **{"pmpt(32)": 107.1})),
    ("table3", "LMBench: total pmp < hpmp < pmpt"): ("", _set("pipe-fork-exec", 1, hpmp=100000.0)),
    ("table3", "LMBench: null is the cheapest operation"): ("null-read-write", _set("null-read-write", 0, pmp=3000.0)),
    ("table3", "LMBench: fork+exec is the dearest operation"): ("pipe-fork-exec", _set("pipe-fork-exec", 1, pmp=16000.0)),
    ("scalability", "consolidation: PMP has no entry left at 24 domains"): (
        "consolidation",
        _set("consolidation", 2, **{"pmp_overhead_%": 94.7}),
    ),
    ("scalability", "consolidation: HPMP runs 24 domains within 5 points of its 8-domain overhead"): (
        "consolidation",
        _set("consolidation", 2, **{"hpmp_overhead_%": 88.0}),
    ),
    ("summary", "every headline claim PASSes"): ("claims", _set("claims", 1, verdict="FAIL")),
    ("table4", "hw cost: 0 < cost_% < 2"): ("hw-cost", _set("hw-cost", 0, **{"cost_%": 2.0})),
    ("table4", "hw cost: cost+H_% <= cost_% + 0.5"): ("hw-cost", _set("hw-cost", 0, **{"cost+H_%": 0.7})),
    ("ablations", "table depth: checker refs flat < 2-level < 3-level"): ("table-depth", _set("table-depth", 1, checker_refs=12)),
    ("ablations", "table depth: flat cold miss cheaper than 3-level"): ("table-depth", _set("table-depth", 0, cold_cycles=2000)),
    ("ablations", "TLB inlining: hot loop cheaper with it on"): (
        "tlb-inlining",
        _set("tlb-inlining", 0, hot_loop_cycles_per_access=20.0),
    ),
    ("ablations", "PMPTW-Cache: 32 entries no slower than none"): (
        "pmptw-cache-sweep",
        _set("pmptw-cache-sweep", 5, mean_cycles_per_access=900.0),
    ),
    ("ablations", "cache-style relabel <= table rewrite"): ("cache-style", _set("cache-style", 0, relabel_cycles=50)),
    ("ablations", "hints: hinted scan cheaper than unhinted"): ("hot-range-hints", _set("hot-range-hints", 1, cycles_per_access=28.0)),
}


def _valid_rows(cheap_rows, experiment):
    rows_by_cell = cheap_rows[experiment] if experiment in cheap_rows else SLOW_ROWS[experiment]
    return {cell: [dict(row) for row in rows] for cell, rows in rows_by_cell.items()}


def _report_args(tmp_path, experiment, rows_by_cell):
    """Store *rows_by_cell* as one experiment's campaign; ``report`` argv."""
    store = ResultStore(str(tmp_path / "store"), version="test")
    cells = []
    for spec in campaign_tasks():
        if spec.experiment == experiment:
            payload = store.build_payload(spec, rows_by_cell[spec.shard])
            key = store.key_for(spec)
            store.put(key, payload)
            cells.append(CellRecord(spec.task_id, experiment, spec.shard, STATUS_OK, key=key, rows_sha256=payload["rows_sha256"]))
    manifest = RunManifest(cells=cells).save(str(tmp_path / "manifest.json"))
    return ["report", "--manifest", manifest, "--store", str(tmp_path / "store"), "--out", str(tmp_path / "tables")]


@pytest.mark.parametrize("experiment", CHEAP)
def test_committed_tables_equal_render(cheap_rows, experiment):
    for table in ALL_EXPERIMENTS[experiment].render(cheap_rows[experiment]):
        assert (RESULTS / f"{table.name}.txt").read_text() == table.text + "\n", table.name


def test_every_claim_holds_on_the_cheap_cells(cheap_rows):
    failed = [
        (experiment, claim)
        for experiment in CHEAP
        for table in ALL_EXPERIMENTS[experiment].render(cheap_rows[experiment])
        for claim in table.claims
        if not claim.ok
    ]
    assert failed == []


def test_every_claim_has_a_violation_test(cheap_rows):
    claims = {
        (experiment, claim.name)
        for experiment in (*CHEAP, *SLOW_ROWS)
        for table in ALL_EXPERIMENTS[experiment].render(_valid_rows(cheap_rows, experiment))
        for claim in table.claims
    }
    assert claims == set(VIOLATIONS)


@pytest.mark.parametrize("experiment, claim", sorted(VIOLATIONS), ids=[f"{e}:{c}" for e, c in sorted(VIOLATIONS)])
def test_report_fails_a_violated_claim(cheap_rows, tmp_path, capsys, experiment, claim):
    cell, mutate = VIOLATIONS[experiment, claim]
    rows_by_cell = _valid_rows(cheap_rows, experiment)
    mutate(rows_by_cell)
    assert main(_report_args(tmp_path, experiment, rows_by_cell)) == 1
    out = capsys.readouterr().out
    task = f"{experiment}/{cell}" if cell else experiment
    failures = [line.strip() for line in out.splitlines() if line.strip().startswith("FAIL ")]
    assert len(failures) == 1 and failures[0].startswith(f"FAIL  {task}: {claim}"), failures
    assert f"repro: PYTHONPATH=src python -m repro run --jobs 1 --filter {task}\n" in out


def test_report_writes_tables_and_passes_valid_rows(cheap_rows, tmp_path, capsys):
    assert main(_report_args(tmp_path, "fig15", _valid_rows(cheap_rows, "fig15"))) == 0
    out = capsys.readouterr().out
    assert "3 tables written" in out and "0 failure(s)" in out and "not rendered" in out
    assert sorted(p.name for p in (tmp_path / "tables").iterdir()) == [
        "fig15_fragmentation.txt",
        "fig15_fragmentation_virtualized.txt",
        "fig16_pmpt_cache.txt",
    ]


def test_report_names_a_cell_whose_rows_are_missing(cheap_rows, tmp_path, capsys):
    args = _report_args(tmp_path, "fig02", _valid_rows(cheap_rows, "fig02"))
    for entry in (tmp_path / "store").glob("*.json"):
        entry.unlink()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "FAILED fig02/counts" in err and "--filter fig02/counts" in err


def test_format_table_prints_none_as_dash():
    rows = [_region(12), _region(13)]
    headers = ["region", "penglai-pmp_alloc", "penglai-pmp_release"]
    lines = format_table(headers, rows).splitlines()
    assert [line.split() for line in lines[2:]] == [["12", "38", "38"], ["13", "exhausted", "-"]]
