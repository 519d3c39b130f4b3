"""Cross-model consistency validation.

The repository contains two executions of every workload: the timing
simulator and the functional backend (``simulate(..., fidelity=...)``).
They share the cache substrate but differ in interleaving (event-driven
vs a fixed stream interleave) and in MSHR modelling.
:func:`validate_run` checks the invariants that must hold regardless,
and that the two models' L1 miss rates agree to within a tolerance — a
cheap, strong regression tripwire for the whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.sim.config import GPUConfig
from repro.sim.designs import DesignSpec, make_design
from repro.sim.simulator import RunResult, simulate
from repro.trace.trace import KernelTrace

__all__ = ["ValidationReport", "validate_run"]


@dataclass
class ValidationReport:
    """Outcome of one validation pass."""

    benchmark: str
    design: str
    checks: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def _check(self, name: str, condition: bool, detail: str = "") -> None:
        self.checks.append(name)
        if not condition:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        lines = [f"{self.benchmark}/{self.design}: {status} "
                 f"({len(self.checks)} checks)"]
        lines.extend(f"  ! {f}" for f in self.failures)
        return "\n".join(lines)


def validate_run(
    trace: KernelTrace,
    config: Optional[GPUConfig] = None,
    design: Optional[DesignSpec] = None,
    miss_rate_tolerance: float = 0.15,
    timing_result: Optional[RunResult] = None,
) -> ValidationReport:
    """Run the consistency checks for one (trace, config, design) triple.

    Args:
        trace: Workload to validate.
        config: Architecture (Table 2 default).
        design: Cache design (baseline default).
        miss_rate_tolerance: Allowed |timing - functional| L1 miss-rate gap.
            The models intentionally differ in warp interleaving and MSHR
            handling, so this is a coarse envelope, not equality.
        timing_result: Reuse an existing timing run instead of re-running.
    """
    if config is None:
        config = GPUConfig()
    if design is None:
        design = make_design("bs")
    report = ValidationReport(benchmark=trace.name, design=design.key)

    timing = timing_result if timing_result is not None else simulate(trace, config, design)
    untimed = simulate(trace, config, design, fidelity="functional")

    # --- conservation laws -------------------------------------------------
    report._check(
        "instruction conservation",
        timing.instructions == trace.instruction_count(),
        f"{timing.instructions} != {trace.instruction_count()}",
    )
    l1 = timing.l1
    report._check(
        "hits+misses == accesses",
        l1.hits + l1.misses == l1.accesses,
    )
    report._check(
        "fills+bypasses <= misses",
        l1.fills + l1.bypasses <= l1.misses,
        f"{l1.fills}+{l1.bypasses} > {l1.misses}",
    )
    report._check("evictions <= fills", l1.evictions <= l1.fills)
    report._check(
        "L2 traffic bounded by L1 misses+stores",
        timing.l2.accesses <= l1.misses + l1.stores + timing.instructions,
    )
    report._check(
        "DRAM bounded by L2 misses+writebacks",
        timing.dram_requests
        <= timing.l2.misses + timing.l2.writebacks + timing.l2.stores,
        f"{timing.dram_requests} DRAM vs L2 misses {timing.l2.misses}",
    )

    # --- physical sanity ----------------------------------------------------
    report._check("positive cycles", timing.cycles > 0)
    report._check(
        "IPC within issue bound",
        0 < timing.ipc <= config.num_cores,
        f"ipc={timing.ipc}",
    )
    report._check(
        "load latency >= L1 hit latency",
        timing.avg_load_latency >= config.l1_hit_latency,
    )
    report._check(
        "row-hit rate in [0,1]",
        0.0 <= timing.dram_row_hit_rate <= 1.0,
    )

    # --- cross-model agreement ----------------------------------------------
    # The timing model counts MSHR-merged accesses as misses; the
    # functional backend has no MSHRs (those accesses hit the
    # already-applied fill).  Compare merge-adjusted content misses,
    # which both models define.
    adjusted_timing_miss = (
        (l1.misses - l1.mshr_merges) / l1.accesses if l1.accesses else 0.0
    )
    gap = abs(adjusted_timing_miss - untimed.l1.miss_rate)
    report._check(
        "timing vs replay miss-rate agreement",
        gap <= miss_rate_tolerance,
        f"gap {gap:.3f} > {miss_rate_tolerance} "
        f"(timing adj {adjusted_timing_miss:.3f}, functional "
        f"{untimed.l1.miss_rate:.3f})",
    )
    return report
