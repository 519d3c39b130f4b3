"""Figure 2: L1 reuse-count distribution under the baseline.

Shows, per benchmark, the fraction of L1 cache-line generations that were
reused 0 / 1 / 2 / 3+ times before eviction.  Shape target: a large
zero-reuse fraction everywhere, with BFS near the top (~80 % in the
paper) — the motivation for bypassing.

The distribution is a property of the baseline cache contents, so the
functional backend is sufficient (and much faster).  It is exact here:
``bs`` takes no L2 hints, so its L1 reuse does not depend on the L2.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.runner import CampaignEngine, Task
from repro.sim.config import GPUConfig
from repro.stats.report import Table, format_pct
from repro.trace.suite import ALL_BENCHMARKS

__all__ = ["fig2_reuse_distribution", "render_fig2"]

BUCKET_LABELS = ("0", "1", "2", "3+")


def fig2_reuse_distribution(
    benchmarks: Optional[Sequence[str]] = None,
    config: Optional[GPUConfig] = None,
    scale: float = 1.0,
    seed: int = 0,
    engine: Optional[CampaignEngine] = None,
) -> Dict[str, Dict[str, float]]:
    """Per-benchmark reuse-count buckets for the baseline L1.

    Returns ``{benchmark: {"0": f0, "1": f1, "2": f2, "3+": f3}}``.
    The simulations run through a campaign ``engine`` when one is given
    (parallel + persistently cached); the default is serial/uncached.
    """
    if benchmarks is None:
        benchmarks = list(ALL_BENCHMARKS)
    if config is None:
        config = GPUConfig()
    if engine is None:
        engine = CampaignEngine(jobs=1)
    tasks = [
        Task(
            kind="simulate",
            benchmark=bench,
            design="bs",
            scale=scale,
            seed=seed,
            config=config,
            fidelity="functional",
        )
        for bench in benchmarks
    ]
    results = engine.run(tasks)
    return {
        bench: result.l1.reuse.buckets()
        for bench, result in zip(benchmarks, results)
    }


def render_fig2(data: Dict[str, Dict[str, float]]) -> str:
    table = Table(
        ["benchmark"] + [f"reuse={b}" for b in BUCKET_LABELS],
        title="Figure 2: L1 reuse count distribution (baseline)",
    )
    for bench, buckets in data.items():
        table.row([bench] + [format_pct(buckets[b]) for b in BUCKET_LABELS])
    return table.render()
