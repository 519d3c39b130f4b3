"""Task labels name tasks: one label per cache key within a campaign.

Default-config labels are pinned byte for byte (manifests, the
benchmark's digests and older ledgers key on them); every keyed field
that differs from its default appears after an ``@``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis import parse_manifest, record_from_manifest
from repro.dram.timing import GDDR5Timing
from repro.runner import CampaignEngine, Task
from repro.sim.config import GPUConfig

KB = 1024


def _sim(**kw):
    return Task(**{"kind": "simulate", "benchmark": "SPMV", "design": "gc", **kw})


@pytest.mark.parametrize("task, label", [
    (_sim(), "simulate:SPMV/gc"),
    (_sim(benchmark="BFS", design="bs", fidelity="functional"),
     "simulate[functional]:BFS/bs"),
    (Task(kind="pd-sweep", benchmark="SPMV"), "pd-sweep:SPMV"),
    (_sim(design="spdp-b", pd=8, scale=0.5, seed=3), "simulate:SPMV/spdp-b"),
    (_sim(config=GPUConfig().with_l1_size(32 * KB)), "simulate:SPMV/gc"),
])
def test_default_labels_are_pinned(task, label):
    assert task.label == label


def test_l1_size_is_named():
    small = _sim(config=GPUConfig().with_l1_size(32 * KB))
    big = _sim(config=GPUConfig().with_l1_size(64 * KB))
    assert small.label != big.label
    assert big.label == "simulate:SPMV/gc@l1_size=65536"


def test_victim_share_factor_is_named():
    assert _sim(victim_share_factor=4).label == \
        "simulate:SPMV/gc@victim_share_factor=4"


def test_fields_render_in_declaration_order_with_dotted_nesting():
    config = replace(GPUConfig(), warp_scheduler="gto",
                     dram_timing=GDDR5Timing(tCL=14), l1_ways=8)
    assert _sim(config=config, fidelity="functional").label == (
        "simulate[functional]:SPMV/gc"
        "@warp_scheduler=gto,l1_ways=8,dram_timing.tCL=14"
    )


def test_pd_sweep_names_its_candidates_and_config():
    task = Task(kind="pd-sweep", benchmark="SPMV", pd_candidates=(4, 8),
                config=GPUConfig().with_l1_size(64 * KB))
    assert task.label == "pd-sweep:SPMV@l1_size=65536,pd_candidates=4-8"


def test_workload_is_the_benchmark_or_scenario_name():
    task = Task(kind="simulate", scenario={"name": "unit"}, design="bs")
    assert task.workload == "unit"
    assert _sim().workload == "SPMV"


def test_size_sweep_ledger_keeps_each_size_apart():
    """Fig. 3's 32 KB run and Fig. 10's 64 KB run of one benchmark and
    design each keep their own miss rate, and a task served twice
    counts once."""
    tasks = [
        _sim(scale=0.02, config=GPUConfig().with_l1_size(size))
        for size in (32 * KB, 64 * KB, 32 * KB)
    ]
    engine = CampaignEngine(jobs=1)
    results = engine.run(tasks[:2])
    engine.run(tasks[2:])
    manifest = engine.manifest()
    assert len(manifest["tasks"]) == 3
    assert {rec["benchmark"] for rec in manifest["tasks"]} == {"SPMV"}
    groups = parse_manifest(manifest).groups()
    assert len(groups) == 2
    record = record_from_manifest(manifest, timestamp="t")
    for task, result in zip(tasks, results):
        assert record["metrics"][f"{task.label}.l1.miss_rate"] == \
            result.l1.miss_rate
    assert results[0].l1.miss_rate != results[1].l1.miss_rate
