"""SIMT core model: warp issue, CTA residency, barriers.

Each core issues at most one warp-instruction per cycle from a ready warp
chosen by its warp scheduler.  Memory instructions are split into line
transactions by the coalescer and handed to the shared
:class:`~repro.sim.memory_system.MemorySystem`; the warp then waits for
the slowest transaction.  ALU/scratchpad groups occupy the issue port for
their instruction count, which is how multithreading hides memory latency
in the model: while one warp waits, others burn issue slots.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.gpu.coalescer import Coalescer
from repro.gpu.schedulers import LRRScheduler, make_scheduler
from repro.gpu.warp import Warp
from repro.obs.events import EV_CTA_DONE, EV_CTA_LAUNCH
from repro.sim.config import GPUConfig
from repro.sim.memory_system import MemorySystem
from repro.trace.trace import (
    CTATrace,
    OP_ALU,
    OP_ATOM,
    OP_BAR,
    OP_LOAD,
    OP_SMEM,
    OP_STORE,
)

__all__ = ["SIMTCore"]

#: Core is idle with nothing scheduled.
IDLE = None

#: Issue-time sentinel for a warp that cannot issue until something else
#: happens (finished, or parked at a barrier): later than any real time.
PARKED = 1 << 62


class SIMTCore:
    """One SIMT core and its resident CTAs."""

    def __init__(self, core_id: int, config: GPUConfig, memory: MemorySystem) -> None:
        self.core_id = core_id
        self.config = config
        self.memory = memory
        self.scheduler = make_scheduler(config.warp_scheduler)
        if hasattr(self.scheduler, "bind_stats"):
            # Feedback-driven schedulers (CCWS-style throttling) observe
            # this core's L1 statistics.
            self.scheduler.bind_stats(memory.l1s[core_id].stats)
        self.coalescer = Coalescer(config.line_size, config.simt_width)
        # Issue-loop constants, hoisted out of the per-step dispatch.
        self._alu_latency = config.alu_latency
        self._smem_latency = config.smem_latency
        self._coal_shift = self.coalescer._shift
        self._mem_load = memory.load
        self._mem_store = memory.store
        self._mem_atomic = memory.atomic
        # The default LRR scheduler's pick loop is inlined in step();
        # exact subclasses only, so custom schedulers keep their hooks.
        self._lrr = self.scheduler if type(self.scheduler) is LRRScheduler else None

        self.warps: List[Warp] = []
        #: Readiness view aligned with ``warps``: each live warp's ready
        #: time, or PARKED for a done or barrier-parked warp.  Only this
        #: class changes warp state, and every change also writes here.
        self._ready: List[int] = []
        self._cta_remaining: Dict[int, int] = {}
        self._cta_waiting: Dict[int, int] = {}
        self._cta_scratchpad: Dict[int, int] = {}
        self._next_slot = 0
        self.scratchpad_used = 0

        #: Event bus when tracing is enabled (see repro.obs.wire).
        self.obs = None
        self.instructions = 0
        self.finish_time = 0
        self._age_counter = 0
        #: Currently scheduled wake time (engine bookkeeping); None = idle.
        self.wake: Optional[int] = 0
        #: Set by step()/launch() when a CTA finished this step.
        self.completed_cta = False

    # ------------------------------------------------------------------
    # CTA residency
    # ------------------------------------------------------------------
    @property
    def resident_ctas(self) -> int:
        return len(self._cta_remaining)

    @property
    def live_warps(self) -> int:
        return sum(1 for w in self.warps if not w.done)

    def can_accept(self, cta: CTATrace, scratchpad: int) -> bool:
        """Resource check: CTA slots, warp slots, scratchpad capacity."""
        cfg = self.config
        return (
            self.resident_ctas < cfg.max_ctas_per_core
            and self.live_warps + cta.num_warps <= cfg.max_warps_per_core
            and self.scratchpad_used + scratchpad <= cfg.scratchpad_bytes
        )

    def launch(self, cta: CTATrace, scratchpad: int, now: int) -> None:
        """Place a CTA onto this core; its warps become ready next cycle."""
        if not self.can_accept(cta, scratchpad):
            raise RuntimeError(f"core {self.core_id} cannot accept CTA (resource check)")
        slot = self._next_slot
        self._next_slot += 1
        live = 0
        for program in cta.warps:
            warp = Warp(len(self.warps), slot, program, self._age_counter)
            self._age_counter += 1
            warp.ready_time = now + 1
            self.warps.append(warp)
            self._ready.append(PARKED if warp.done else now + 1)
            self.scheduler.on_warp_added(warp)
            if not warp.done:
                live += 1
        self._cta_remaining[slot] = live
        self._cta_waiting[slot] = 0
        self._cta_scratchpad[slot] = scratchpad
        self.scratchpad_used += scratchpad
        if self.obs is not None:
            self.obs.emit(
                EV_CTA_LAUNCH, now, f"core[{self.core_id}]",
                slot=slot, warps=cta.num_warps,
            )
        if live == 0:
            self._complete_cta(slot, now)

    def _complete_cta(self, slot: int, now: int) -> None:
        self.scratchpad_used -= self._cta_scratchpad.pop(slot)
        del self._cta_remaining[slot]
        del self._cta_waiting[slot]
        # Prune retired warps so scheduler scans stay short.
        self.warps = [w for w in self.warps if not w.done]
        self._ready = [
            PARKED if w.at_barrier else w.ready_time for w in self.warps
        ]
        self.completed_cta = True
        if self.obs is not None:
            self.obs.emit(EV_CTA_DONE, now, f"core[{self.core_id}]", slot=slot)

    # ------------------------------------------------------------------
    # Barrier handling
    # ------------------------------------------------------------------
    def _alive_in_cta(self, slot: int) -> int:
        return self._cta_remaining.get(slot, 0)

    def _arrive_barrier(self, warp: Warp, now: int) -> None:
        slot = warp.cta_slot
        warp.at_barrier = True
        self._cta_waiting[slot] += 1
        self._maybe_release_barrier(slot, now)

    def _maybe_release_barrier(self, slot: int, now: int) -> None:
        if self._cta_waiting.get(slot, 0) >= self._alive_in_cta(slot) > 0:
            ready = self._ready
            for i, w in enumerate(self.warps):
                if w.cta_slot == slot and w.at_barrier:
                    w.at_barrier = False
                    w.ready_time = ready[i] = now + 1
            self._cta_waiting[slot] = 0

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------
    def step(self, now: int) -> Optional[int]:
        """Issue at most one warp's next instruction (or instruction group).

        Returns the next time this core needs attention, or ``None`` when
        it is drained (no live warps).
        """
        self.completed_cta = False
        ready = self._ready
        lrr = self._lrr
        if lrr is not None:
            # Inlined LRRScheduler.pick over the readiness view: the same
            # cyclic scan from lrr._next, one int compare per warp.
            idx = -1
            n = len(ready)
            if n:
                start = lrr._next % n
                for i in range(start, n):
                    if ready[i] <= now:
                        idx = i
                        break
                else:
                    for i in range(start):
                        if ready[i] <= now:
                            idx = i
                            break
            if idx >= 0:
                lrr._next = (idx + 1) % n
                warp = self.warps[idx]
            else:
                warp = None
        else:
            warp = self.scheduler.pick(self.warps, now)
            if warp is not None:
                idx = self.warps.index(warp)
        if warp is None:
            nxt = min(ready, default=PARKED)
            if nxt != PARKED:
                # Guard against scheduler anomalies: never stall in place.
                return nxt if nxt > now else now + 1
            return IDLE

        op, arg = warp.program[warp.pc]
        next_issue = now + 1

        if op == OP_ALU:
            count = arg
            warp.ready_time = now + count + self._alu_latency
            warp.issued += count
            self.instructions += count
            next_issue = now + count
        elif op == OP_SMEM:
            count = arg
            warp.ready_time = now + count + self._smem_latency
            warp.issued += count
            self.instructions += count
            next_issue = now + count
        elif op == OP_LOAD:
            # Inlined coalesce (lane counts are validated when traces are
            # built): dict.fromkeys is an order-preserving C-speed dedup,
            # skipped for the common single-address instruction.
            shift = self._coal_shift
            if len(arg) == 1:
                lines = (arg[0] >> shift,)
            else:
                lines = list(dict.fromkeys(a >> shift for a in arg))
            co = self.coalescer
            co.warp_accesses += 1
            co.transactions += len(lines)
            load = self._mem_load
            core_id = self.core_id
            completion = now + 1
            for line_addr in lines:
                done = load(core_id, line_addr, now)
                if done > completion:
                    completion = done
            warp.ready_time = completion
            warp.issued += 1
            self.instructions += 1
        elif op == OP_STORE:
            shift = self._coal_shift
            if len(arg) == 1:
                lines = (arg[0] >> shift,)
            else:
                lines = list(dict.fromkeys(a >> shift for a in arg))
            co = self.coalescer
            co.warp_accesses += 1
            co.transactions += len(lines)
            store = self._mem_store
            core_id = self.core_id
            for line_addr in lines:
                store(core_id, line_addr, now)
            # Stores retire into write buffers: the warp only waits for the
            # transactions to leave the core's memory port.
            warp.ready_time = now + len(lines)
            warp.issued += 1
            self.instructions += 1
        elif op == OP_ATOM:
            shift = self._coal_shift
            if len(arg) == 1:
                lines = (arg[0] >> shift,)
            else:
                lines = list(dict.fromkeys(a >> shift for a in arg))
            co = self.coalescer
            co.warp_accesses += 1
            co.transactions += len(lines)
            atomic = self._mem_atomic
            core_id = self.core_id
            for line_addr in lines:
                atomic(core_id, line_addr, now)
            warp.ready_time = now + len(lines)
            warp.issued += 1
            self.instructions += 1
        elif op == OP_BAR:
            warp.issued += 1
            self.instructions += 1
            warp.ready_time = now + 1
            if warp.pc + 1 < len(warp.program):
                self._arrive_barrier(warp, now)
        else:  # pragma: no cover - traces are validated upstream
            raise ValueError(f"unknown opcode {op}")

        warp.pc += 1
        if warp.pc >= len(warp.program):
            warp.done = True
            ready[idx] = PARKED
            if warp.ready_time > self.finish_time:
                self.finish_time = warp.ready_time
            slot = warp.cta_slot
            self._cta_remaining[slot] -= 1
            if self._cta_remaining[slot] == 0:
                self._complete_cta(slot, now)
                ready = self._ready
            else:
                # A finished warp can be the last arrival its siblings
                # were waiting on.
                self._maybe_release_barrier(slot, now)
        else:
            # A barrier arrival parks the warp unless it released the
            # barrier itself (then its ready time is now + 1).
            ready[idx] = PARKED if warp.at_barrier else warp.ready_time

        if now > self.finish_time:
            self.finish_time = now
        # Fused wakeup: the issue port frees at next_issue, but issuing
        # also needs a ready warp.  Returning max(next_issue, earliest
        # warp-ready time) skips the idle wakeup the engine would
        # otherwise schedule just to discover nothing can issue — in
        # memory-bound phases those no-op rounds are ~40% of all events.
        # Warp ready times only change inside this core's own step, so
        # nothing can become ready earlier in between.  The scan bails as
        # soon as one warp is ready by next_issue (the exact minimum is
        # irrelevant below the port-free time).
        mn = PARKED
        for rt in ready:
            if rt <= next_issue:
                return next_issue
            if rt < mn:
                mn = rt
        if mn == PARKED:
            # Every remaining warp is done (or parked forever, which the
            # barrier-release invariant excludes): nothing left to issue.
            return IDLE
        # Fusing skips exactly one engine round: the wake at next_issue
        # whose pick() would have found nothing ready.  Stateful
        # schedulers (GTO's greedy slot, two-level's active set, the
        # throttle monitor) mutate their state even on that empty pick —
        # GTO in particular drops its greedy warp when it stalls — so
        # replay the call they would have seen.  Warp state cannot change
        # between now and next_issue (ready times only move inside this
        # core's own step, and mid-kernel CTA launches only target cores
        # whose slot just freed), so the replayed pick is exact: it
        # returns None here by the same scan that chose `mn` above.
        if lrr is None:
            self.scheduler.pick(self.warps, next_issue)
        return mn

    def drained(self) -> bool:
        """No live warps remain on this core."""
        return self.live_warps == 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SIMTCore {self.core_id}: {self.live_warps} warps, "
            f"{self.resident_ctas} CTAs, {self.instructions} instrs>"
        )
