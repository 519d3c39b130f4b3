"""Top-level simulator: event engine, CTA scheduling, run API.

:func:`simulate` is the main entry point of the library::

    from repro import simulate, GPUConfig, make_design
    from repro.trace.suite import build_benchmark

    trace = build_benchmark("SPMV")
    result = simulate(trace, GPUConfig(), make_design("gc"))
    print(result.ipc, result.l1.miss_rate)

The engine keeps one pending wake event per core in a min-heap and
processes them in global time order, which the memory system's
next-free-time contention model relies on.  The CTA scheduler dispatches
CTAs round-robin across cores (Table 2) and backfills a core as soon as
one of its CTAs completes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.gpu.core import SIMTCore
from repro.obs import Observability, wire
from repro.obs.metrics import collect_run_metrics
from repro.sim.config import GPUConfig
from repro.sim.designs import DesignSpec, make_design
from repro.sim.memory_system import MemorySystem
from repro.stats.counters import CacheStats
from repro.trace.trace import KernelTrace

__all__ = ["RunResult", "simulate", "simulate_sequence", "GPU", "FIDELITIES"]

#: Supported simulation fidelities: the cycle-accurate timing engine and
#: the vectorized fast-functional replay backend (exact cache counters,
#: estimated cycles).
FIDELITIES = ("timing", "functional")


@dataclass
class RunResult:
    """Outcome of one kernel simulation.

    Attributes:
        benchmark: Kernel / benchmark name.
        design: Design key (``"bs"``, ``"gc"``, ...).
        cycles: Total elapsed core cycles.
        instructions: Dynamic warp instructions issued.
        l1: Merged L1 statistics across all cores.
        l2: Merged L2 statistics across all banks.
        avg_load_latency: Mean core-observed load latency in cycles.
        dram_requests: Line transfers performed by the DRAM controllers.
        dram_row_hit_rate: Row-buffer hit rate across all banks.
        extras: Design-specific diagnostics (PD history, M history, ...).
    """

    benchmark: str
    design: str
    cycles: int
    instructions: int
    l1: CacheStats
    l2: CacheStats
    avg_load_latency: float
    dram_requests: int
    dram_row_hit_rate: float
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Warp instructions per cycle (the paper's performance metric)."""
        return self.instructions / self.cycles if self.cycles else 0.0

    def speedup_over(self, baseline: "RunResult") -> float:
        """IPC ratio vs a baseline run of the same kernel."""
        if baseline.benchmark != self.benchmark:
            raise ValueError(
                f"speedup compares runs of the same kernel "
                f"({self.benchmark} vs {baseline.benchmark})"
            )
        if baseline.ipc == 0:
            raise ZeroDivisionError("baseline IPC is zero")
        return self.ipc / baseline.ipc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<RunResult {self.benchmark}/{self.design}: IPC={self.ipc:.3f} "
            f"L1 miss={self.l1.miss_rate:.1%}>"
        )


class GPU:
    """One GPU instance executing one kernel trace.

    Args:
        config: Architectural parameters.
        design: Cache-management design.
        victim_share_factor: ``S_v`` for victim-bit sharing studies.
        timeline: Optional :class:`~repro.stats.timeline.Timeline`; when
            given, cumulative counters are sampled every
            ``timeline.interval`` cycles during the run.
        obs: Optional :class:`~repro.obs.Observability`; when given, the
            event bus is wired through every component (caches, policy,
            NoC, DRAM, cores) and metrics are collected into its
            registry.  ``None`` (the default) leaves tracing compiled
            out to a per-site attribute check.
    """

    def __init__(
        self,
        config: GPUConfig,
        design: DesignSpec,
        victim_share_factor: int = 1,
        timeline=None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.config = config
        self.design = design
        self.memory = MemorySystem(config, design, victim_share_factor)
        self.cores: List[SIMTCore] = [
            SIMTCore(i, config, self.memory) for i in range(config.num_cores)
        ]
        self.timeline = timeline
        self.obs = obs
        if obs is not None:
            wire(self, obs)
        self._pending: List = []
        self._scratchpad = 0
        self._rr_core = 0

    def _sample_timeline(self, now: int) -> None:
        from repro.stats.timeline import TimelinePoint

        stats = self.memory.l1_stats()
        self.timeline.record(
            TimelinePoint(
                cycle=now,
                instructions=sum(c.instructions for c in self.cores),
                l1_accesses=stats.accesses,
                l1_hits=stats.hits,
                l1_bypasses=stats.bypasses,
            )
        )

    # ------------------------------------------------------------------
    # CTA dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, now: int, heap: List) -> None:
        """Round-robin CTAs onto cores with available resources."""
        n = self.config.num_cores
        stuck = 0
        while self._pending and stuck < n:
            core = self.cores[self._rr_core]
            self._rr_core = (self._rr_core + 1) % n
            if core.can_accept(self._pending[-1], self._scratchpad):
                cta = self._pending.pop()
                core.launch(cta, self._scratchpad, now)
                stuck = 0
                if core.wake is None or core.wake > now + 1:
                    core.wake = now + 1
                    heapq.heappush(heap, (now + 1, core.core_id))
            else:
                stuck += 1

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self, trace: KernelTrace, start_time: int = 0, finalize: bool = True
    ) -> RunResult:
        """Execute ``trace`` to completion and collect statistics.

        ``start_time`` supports sequential kernel launches on a warm GPU
        (see :func:`simulate_sequence`): resource reservations from a
        previous kernel remain valid because time keeps moving forward.
        ``finalize=False`` defers closing the caches' reuse generations
        (pass it for every kernel of a sequence except the last, so
        resident lines are not double-counted).
        """
        trace.validate(self.config.simt_width)
        # Reverse so list.pop() yields CTAs in launch order.
        self._pending = list(reversed(trace.ctas))
        self._scratchpad = trace.scratchpad_per_cta
        if self._scratchpad > self.config.scratchpad_bytes:
            raise ValueError(
                f"CTA scratchpad {self._scratchpad} exceeds the core's "
                f"{self.config.scratchpad_bytes} bytes"
            )

        heap: List = []
        for core in self.cores:
            core.wake = None
        self._dispatch(start_time, heap)
        if not heap:
            raise RuntimeError("no CTA could be placed on any core")

        next_sample = None
        if self.timeline is not None:
            # Anchor the window grid at the launch time and record a
            # baseline point so the first window has a left edge even
            # when the interval exceeds the run length.
            self._sample_timeline(start_time)
            next_sample = start_time + self.timeline.interval

        # Same-cycle wakeups are drained as one batch: core steps never
        # generate events at the current cycle (step() returns >= now+1
        # and _dispatch schedules at now+1), so every event for `now` is
        # already in the heap when the first one surfaces.  Draining them
        # together keeps the per-cycle bookkeeping (timeline sampling)
        # out of the per-core loop, and the batch preserves heap order
        # (core id ties broken ascending) so results are bit-identical to
        # the one-pop-at-a-time engine.  Staleness (core.wake != now) is
        # re-checked at processing time: a stale entry's core either woke
        # earlier (wake moved past now) or was rescheduled by _dispatch,
        # and nothing inside the batch can move a wake *to* now.
        cores = self.cores
        pop = heapq.heappop
        push = heapq.heappush
        while heap:
            now, core_id = pop(heap)
            if heap and heap[0][0] == now:
                # Same-cycle batch: drain every event for `now` in heap
                # order (core-id ties ascending, exactly the order the
                # one-pop-at-a-time engine used).  Safe because steps
                # never generate same-cycle events: step() returns
                # >= now+1 and _dispatch schedules at now+1.  Staleness
                # (core.wake != now) is re-checked at processing time;
                # nothing inside the batch can move a wake *to* now.
                batch = [core_id]
                while heap and heap[0][0] == now:
                    batch.append(pop(heap)[1])
                if next_sample is not None and now >= next_sample:
                    self._sample_timeline(now)
                    next_sample = now + self.timeline.interval
                for core_id in batch:
                    core = cores[core_id]
                    if core.wake != now:
                        continue  # stale event
                    nxt = core.step(now)
                    core.wake = nxt
                    if nxt is not None:
                        push(heap, (nxt, core_id))
                    if core.completed_cta and self._pending:
                        # Backfill freed resources; may reschedule any
                        # core, including this one (the wake guard drops
                        # stale events).
                        self._dispatch(now, heap)
                continue
            core = cores[core_id]
            if core.wake != now:
                continue  # stale event
            # Single-event fast path: keep stepping this core inline
            # while its next wake precedes every other scheduled event
            # ((nxt, core_id) <= heap[0] matches heap order, including
            # the core-id tiebreak) — this skips a push+pop+stale-check
            # round per continued step.  A CTA completion exits to the
            # slow path because _dispatch may reschedule any core.
            while True:
                if next_sample is not None and now >= next_sample:
                    self._sample_timeline(now)
                    next_sample = now + self.timeline.interval
                nxt = core.step(now)
                core.wake = nxt
                if core.completed_cta and self._pending:
                    if nxt is not None:
                        push(heap, (nxt, core_id))
                    self._dispatch(now, heap)
                    break
                if nxt is None:
                    break
                if heap and (nxt, core_id) > heap[0]:
                    push(heap, (nxt, core_id))
                    break
                now = nxt

        if self._pending:  # pragma: no cover - defensive
            raise RuntimeError(f"{len(self._pending)} CTAs were never scheduled")

        if finalize:
            self.memory.finalize()
        cycles = max((c.finish_time for c in self.cores), default=0)
        instructions = sum(c.instructions for c in self.cores)
        if self.timeline is not None:
            # Flush the final partial window: runs rarely end exactly on
            # a sampling boundary, and without this point the tail of the
            # run (up to interval-1 cycles) vanished from the timeline.
            self._sample_timeline(cycles)
        if self.obs is not None:
            self.obs.bus.flush()
        return self._build_result(trace.name, cycles, instructions)

    def _build_result(self, name: str, cycles: int, instructions: int) -> RunResult:
        extras: Dict[str, object] = {
            "coalescer_avg_txn": (
                sum(c.coalescer.transactions for c in self.cores)
                / max(1, sum(c.coalescer.warp_accesses for c in self.cores))
            ),
            "noc_avg_hops": self.memory.noc.average_hops,
        }
        mgmt = self.memory.l1s[0].mgmt
        if hasattr(mgmt, "pd_history"):
            extras["pd_history"] = list(mgmt.pd_history)
            extras["final_pd"] = mgmt.pd
        if hasattr(mgmt, "m_history"):
            extras["m_history"] = list(mgmt.m_history)
        if self.memory.victim_dir is not None:
            extras["contentions_detected"] = self.memory.victim_dir.contentions_detected
        # Namespaced metrics snapshot (repro.obs.metrics).  Collected into
        # a fresh registry every time because component counters are
        # cumulative; an attached Observability is rebound to the latest.
        registry = collect_run_metrics(self)
        if self.obs is not None:
            self.obs.metrics = registry
        extras["metrics"] = registry.snapshot()
        return RunResult(
            benchmark=name,
            design=self.design.key,
            cycles=cycles,
            instructions=instructions,
            l1=self.memory.l1_stats(),
            l2=self.memory.l2_stats(),
            avg_load_latency=self.memory.average_load_latency,
            dram_requests=self.memory.dram_requests,
            dram_row_hit_rate=self.memory.dram_row_hit_rate,
            extras=extras,
        )


def _check_functional_args(timeline, obs) -> None:
    if timeline is not None or obs is not None:
        raise ValueError(
            "fidelity='functional' replays cache traffic without a clock: "
            "timeline sampling and observability tracing need the timing "
            "engine"
        )


def _run_functional(
    traces,
    config: GPUConfig,
    design: DesignSpec,
    victim_share_factor: int,
    arrays=None,
) -> RunResult:
    """Drive the fast-functional backend and dress its counters as a
    :class:`RunResult` (cycles/latency from the calibrated estimator).

    ``arrays`` are prebuilt inputs for a single trace (cold engine)."""
    from repro.sim.functional import FunctionalEngine, TimingEstimator

    engine = FunctionalEngine(
        config, design, victim_share_factor=victim_share_factor
    )
    for trace in traces:
        engine.run(trace, arrays=arrays)
    rep = engine.result(benchmark="+".join(t.name for t in traces))
    estimator = TimingEstimator(config)
    cycles = estimator.estimate(engine.instructions, rep.l1, rep.l2)
    extras: Dict[str, object] = {
        "fidelity": "functional",
        "estimated_cycles": True,
    }
    extras.update(rep.extras)
    return RunResult(
        benchmark=rep.benchmark,
        design=design.key,
        cycles=cycles,
        instructions=engine.instructions,
        l1=rep.l1,
        l2=rep.l2,
        avg_load_latency=estimator.estimate_load_latency(rep.l1, rep.l2),
        dram_requests=rep.l2.fills + rep.l2.writebacks,
        dram_row_hit_rate=0.0,
        extras=extras,
    )


def simulate_sequence(
    traces,
    config: Optional[GPUConfig] = None,
    design: Optional[DesignSpec] = None,
    victim_share_factor: int = 1,
    timeline=None,
    obs: Optional[Observability] = None,
    fidelity: str = "timing",
) -> RunResult:
    """Run several kernels back-to-back on one warm GPU.

    The paper assumes kernels execute sequentially (Section 2.1); real
    applications like srad launch SD1 then SD2 per iteration.  Caches,
    victim bits and bypass switches persist across launches — cross-kernel
    cache behaviour is exactly what this API exposes.

    ``timeline`` and ``obs`` are threaded through to the underlying
    :class:`GPU` exactly as in :func:`simulate`; a single timeline /
    event stream then spans every kernel of the sequence.

    Returns an aggregate :class:`RunResult` whose name joins the kernel
    names and whose counters cover the whole sequence.  The top-level
    ``extras`` keep the final kernel's view (histories are cumulative, so
    that view covers the whole run), and ``extras["per_kernel"]`` maps
    each kernel's name to the extras snapshot taken when it finished —
    previously the intermediate snapshots were simply overwritten.  A
    kernel name launched more than once gets a ``name#index`` key for
    every repeat after the first.
    """
    traces = list(traces)
    if not traces:
        raise ValueError("simulate_sequence needs at least one kernel")
    if config is None:
        config = GPUConfig()
    if design is None:
        design = make_design("bs")
    if fidelity not in FIDELITIES:
        raise ValueError(
            f"unknown fidelity {fidelity!r}; expected one of {FIDELITIES}"
        )
    if fidelity == "functional":
        _check_functional_args(timeline, obs)
        return _run_functional(traces, config, design, victim_share_factor)
    gpu = GPU(config, design, victim_share_factor, timeline=timeline, obs=obs)
    start = 0
    result: Optional[RunResult] = None
    per_kernel: Dict[str, Dict[str, object]] = {}
    for i, trace in enumerate(traces):
        last = i == len(traces) - 1
        result = gpu.run(trace, start_time=start, finalize=last)
        key = trace.name if trace.name not in per_kernel else f"{trace.name}#{i}"
        per_kernel[key] = result.extras
        start = result.cycles + 1
    assert result is not None
    extras: Dict[str, object] = dict(result.extras)
    extras["per_kernel"] = per_kernel
    return RunResult(
        benchmark="+".join(t.name for t in traces),
        design=design.key,
        cycles=result.cycles,
        instructions=result.instructions,
        l1=result.l1,
        l2=result.l2,
        avg_load_latency=result.avg_load_latency,
        dram_requests=result.dram_requests,
        dram_row_hit_rate=result.dram_row_hit_rate,
        extras=extras,
    )


def simulate(
    trace: KernelTrace,
    config: Optional[GPUConfig] = None,
    design: Optional[DesignSpec] = None,
    victim_share_factor: int = 1,
    timeline=None,
    obs: Optional[Observability] = None,
    fidelity: str = "timing",
    arrays=None,
) -> RunResult:
    """Run one kernel on one GPU design and return its statistics.

    Args:
        trace: Kernel trace (see :mod:`repro.trace`).
        config: Architectural parameters; defaults to the paper's Table 2.
        design: Cache-management design; defaults to the baseline (BS).
        victim_share_factor: ``S_v`` for victim-bit sharing ablations.
        timeline: Optional :class:`~repro.stats.timeline.Timeline` to
            sample during the run.
        obs: Optional :class:`~repro.obs.Observability` for event tracing
            and metrics collection.
        fidelity: ``"timing"`` (default) runs the cycle-accurate engine;
            ``"functional"`` runs the vectorized replay backend — cache
            counters are bit-identical to :func:`repro.sim.replay.replay`
            while ``cycles``/``avg_load_latency`` come from the linear
            timing estimator (``extras["estimated_cycles"]`` marks them).
            Functional runs reject ``timeline``/``obs``.
        arrays: Prebuilt inputs of a functional run of ``trace`` under
            ``config``: :func:`repro.sim.functional.engine.build_run_arrays`
            with that config.  Functional fidelity only; the replay only
            reads them, so one build can serve every design.
    """
    if config is None:
        config = GPUConfig()
    if design is None:
        design = make_design("bs")
    if fidelity not in FIDELITIES:
        raise ValueError(
            f"unknown fidelity {fidelity!r}; expected one of {FIDELITIES}"
        )
    if fidelity == "functional":
        _check_functional_args(timeline, obs)
        return _run_functional(
            [trace], config, design, victim_share_factor, arrays
        )
    if arrays is not None:
        raise ValueError(
            "prebuilt arrays feed the functional backend; the timing "
            "engine builds its own streams"
        )
    return GPU(config, design, victim_share_factor, timeline=timeline, obs=obs).run(trace)
