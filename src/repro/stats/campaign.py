"""Campaign-level task and timing counters.

The :mod:`repro.runner` engine records one :class:`TaskTiming` per
executed, cached or failed task and aggregates them into a
:class:`CampaignCounters`, the numbers the manifest reports: how many
tasks ran, how many were served from the persistent cache (or resumed
from the journal), what failed and was retried, and how much worker
time the executed tasks took.  Every unique task is exactly one of a
cache hit or a cache miss; a miss either executed or failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.stats.report import Table

__all__ = ["TaskTiming", "CampaignCounters"]


@dataclass
class TaskTiming:
    """Timing record for one campaign task.

    Attributes:
        label: Human-readable task label (``simulate:SPMV/gc``).
        key: Content-addressed cache key (SHA-256 hex).
        cached: Whether the result came from the persistent cache.
        seconds: Worker-side wall time; ~0 for cache hits.
        metrics: Namespaced metrics snapshot from the task's payload
            (``RunResult.extras["metrics"]``); ``None`` when the payload
            carries none (non-simulation tasks, pre-metrics cache entries).
        attempts: Executions this result took (1 = first try; retried
            tasks count every charged failure plus the final success).
        failed: The task exhausted its retry budget (``keep_going``
            campaigns record these with a ``FAILED`` payload slot).
        fidelity: Simulation fidelity the task ran at (``"timing"`` or
            ``"functional"``); recorded in the manifest so mixed-fidelity
            campaigns stay auditable.
        kind: Task kind (``"simulate"`` or ``"pd-sweep"``);
            surfaced as a structured manifest field so the analysis
            layer never has to re-parse labels.
        benchmark: Benchmark name the task ran, when known.
        design: Design key the task evaluated (``None`` for kinds that
            have no design, e.g. ``pd-sweep``).
    """

    label: str
    key: str
    cached: bool
    seconds: float
    metrics: Optional[Dict[str, object]] = None
    attempts: int = 1
    failed: bool = False
    fidelity: str = "timing"
    kind: Optional[str] = None
    benchmark: Optional[str] = None
    design: Optional[str] = None


@dataclass
class CampaignCounters:
    """Aggregate counters for one campaign engine's lifetime.

    Attributes:
        tasks: Task slots submitted (duplicates included).
        unique_tasks: Distinct cache keys among them.
        cache_hits: Unique tasks served from the persistent cache.
        cache_misses: Unique tasks that had to execute.
        executed: Tasks actually run to completion (``cache_misses``
            minus failed tasks).
        task_seconds: Summed worker wall time of executed tasks.
        elapsed_seconds: Real elapsed time across ``run()`` batches.
        retries: Re-executions scheduled after a charged failure.
        timeouts: Attempts killed by the engine's ``task_timeout``.
        pool_rebuilds: Worker pools torn down and rebuilt (crash or
            hung-worker reclamation).
        failed: Tasks that exhausted their retry budget.
        resumed: Tasks served from the cache because the campaign
            journal recorded them as completed by an earlier run.
        timings: Per-task records, in completion order.
    """

    tasks: int = 0
    unique_tasks: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0
    task_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    failed: int = 0
    resumed: int = 0
    timings: List[TaskTiming] = field(default_factory=list)

    def record(self, timing: TaskTiming) -> None:
        self.timings.append(timing)
        self.unique_tasks += 1
        if timing.cached:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
            if not timing.failed:
                self.executed += 1
                self.task_seconds += timing.seconds

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict view for the run manifest / JSON dumps."""
        return {
            "tasks": self.tasks,
            "unique_tasks": self.unique_tasks,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "executed": self.executed,
            "hit_rate": self.hit_rate,
            "task_seconds": round(self.task_seconds, 6),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "failed": self.failed,
            "resumed": self.resumed,
        }

    def render(self) -> str:
        """One-table summary for CLI output."""
        table = Table(["counter", "value"], title="Campaign summary")
        table.row(["tasks (unique)", f"{self.tasks} ({self.unique_tasks})"])
        table.row(["cache hits", str(self.cache_hits)])
        table.row(["cache misses", str(self.cache_misses)])
        table.row(["hit rate", f"{self.hit_rate:.1%}"])
        table.row(["worker compute", f"{self.task_seconds:.1f}s"])
        table.row(["elapsed", f"{self.elapsed_seconds:.1f}s"])
        if self.resumed:
            table.row(["resumed from journal", str(self.resumed)])
        if self.retries or self.timeouts or self.pool_rebuilds or self.failed:
            table.row(["retries", str(self.retries)])
            table.row(["timeouts", str(self.timeouts)])
            table.row(["pool rebuilds", str(self.pool_rebuilds)])
            table.row(["failed tasks", str(self.failed)])
        return table.render()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<CampaignCounters {self.unique_tasks} tasks: "
            f"{self.cache_hits} hits / {self.cache_misses} misses>"
        )
