"""Ablation studies for the design choices the paper discusses.

* **Victim-bit sharing** (Section 4.1/4.3): ``S_v`` SIMT cores share one
  victim bit, shrinking the ``O_v = P x N x M`` storage by ``S_v`` at
  the cost of false contention hints.
* **M-th-bypass adaptive aging** (Section 5.1): ages RRPVs once per M
  bypasses, extending protection across large reuse distances — the fix
  the paper sketches for KMN and NW.
* **Periodic switch shutdown** (Section 4.2): interval sweep.
* **Warp-scheduler interaction** (Section 6.2): the paper argues G-Cache
  composes with scheduler-side techniques; we compare LRR vs GTO with
  and without G-Cache.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.core.gcache import GCacheConfig
from repro.sim.config import GPUConfig
from repro.sim.designs import make_design
from repro.sim.simulator import RunResult, simulate
from repro.stats.report import Table, format_pct, format_speedup
from repro.trace.suite import build_benchmark
from repro.trace.trace import KernelTrace

__all__ = [
    "victim_bit_sharing_ablation",
    "adaptive_aging_ablation",
    "shutdown_interval_ablation",
    "scheduler_ablation",
]


def _trace(benchmark: str, scale: float, seed: int) -> KernelTrace:
    return build_benchmark(benchmark, scale=scale, seed=seed)


def victim_bit_sharing_ablation(
    benchmarks: Sequence[str],
    share_factors: Sequence[int] = (1, 2, 4, 16),
    config: Optional[GPUConfig] = None,
    scale: float = 1.0,
    seed: int = 0,
) -> Dict[str, Dict[int, RunResult]]:
    """G-Cache with ``S_v`` cores sharing one victim bit."""
    if config is None:
        config = GPUConfig()
    out: Dict[str, Dict[int, RunResult]] = {}
    for bench in benchmarks:
        trace = _trace(bench, scale, seed)
        out[bench] = {
            sv: simulate(trace, config, make_design("gc"), victim_share_factor=sv)
            for sv in share_factors
        }
    return out


def adaptive_aging_ablation(
    benchmarks: Sequence[str],
    config: Optional[GPUConfig] = None,
    scale: float = 1.0,
    seed: int = 0,
) -> Dict[str, Dict[str, RunResult]]:
    """BS vs GC vs GC-M (adaptive M-th-bypass aging).

    Expected shape: GC-M recovers part of SPDP-B's advantage on the
    large-reuse-distance benchmarks (KMN, NW) without hurting the rest.
    """
    if config is None:
        config = GPUConfig()
    out: Dict[str, Dict[str, RunResult]] = {}
    for bench in benchmarks:
        trace = _trace(bench, scale, seed)
        out[bench] = {
            key: simulate(trace, config, make_design(key))
            for key in ("bs", "gc", "gc-m")
        }
    return out


def shutdown_interval_ablation(
    benchmarks: Sequence[str],
    intervals: Sequence[int] = (0, 2048, 8192, 32768),
    config: Optional[GPUConfig] = None,
    scale: float = 1.0,
    seed: int = 0,
) -> Dict[str, Dict[int, RunResult]]:
    """The periodic bypass-switch shutdown interval, swept (0 = never)."""
    if config is None:
        config = GPUConfig()
    out: Dict[str, Dict[int, RunResult]] = {}
    for bench in benchmarks:
        trace = _trace(bench, scale, seed)
        out[bench] = {}
        for interval in intervals:
            design = make_design(
                "gc", gcache_config=GCacheConfig(shutdown_interval=interval)
            )
            out[bench][interval] = simulate(trace, config, design)
    return out


def scheduler_ablation(
    benchmarks: Sequence[str],
    schedulers: Sequence[str] = ("lrr", "gto"),
    config: Optional[GPUConfig] = None,
    scale: float = 1.0,
    seed: int = 0,
) -> Dict[str, Dict[str, Dict[str, RunResult]]]:
    """{benchmark: {scheduler: {design: result}}} for BS and GC.

    Tests the paper's composability claim: G-Cache should help under a
    cache-friendlier scheduler (GTO) too, not only under LRR.
    """
    if config is None:
        config = GPUConfig()
    out: Dict[str, Dict[str, Dict[str, RunResult]]] = {}
    for bench in benchmarks:
        trace = _trace(bench, scale, seed)
        out[bench] = {}
        for sched in schedulers:
            cfg = config.with_scheduler(sched)
            out[bench][sched] = {
                key: simulate(trace, cfg, make_design(key)) for key in ("bs", "gc")
            }
    return out


def render_sharing_table(data: Dict[str, Dict[int, RunResult]]) -> str:
    factors = sorted(next(iter(data.values())).keys())
    table = Table(
        ["benchmark"] + [f"Sv={sv}" for sv in factors],
        title="Ablation: victim-bit sharing (L1 miss rate under GC)",
    )
    for bench, runs in data.items():
        table.row([bench] + [format_pct(runs[sv].l1.miss_rate) for sv in factors])
    return table.render()
