"""Warp schedulers (paper Section 2.2).

The baseline configuration uses loose round-robin (LRR, Table 2).
Greedy-then-oldest (GTO) and two-level scheduling are provided for the
scheduler-interaction ablation: the paper argues G-Cache is orthogonal to
cache-aware scheduling and "can also cooperate with the scheduler".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

from repro.gpu.warp import Warp

__all__ = [
    "WarpScheduler",
    "LRRScheduler",
    "GTOScheduler",
    "TwoLevelScheduler",
    "make_scheduler",
]


class WarpScheduler(ABC):
    """Picks the warp to issue from among the ready ones."""

    name = "base"

    @abstractmethod
    def pick(self, warps: List[Warp], now: int) -> Optional[Warp]:
        """Return a ready warp, or ``None`` if nothing can issue."""

    def on_warp_added(self, warp: Warp) -> None:
        """Notification that a new warp joined the pool."""


class LRRScheduler(WarpScheduler):
    """Loose round-robin: rotate through warp slots, skipping stalls."""

    name = "lrr"

    def __init__(self) -> None:
        self._next = 0

    def pick(self, warps: List[Warp], now: int) -> Optional[Warp]:
        n = len(warps)
        if n == 0:
            return None
        # Hot loop: the readiness test is inlined (attribute reads beat a
        # method call per candidate) and the modulo is replaced by one
        # wrap-around subtract.  Scan order is identical to the classic
        # `(next + off) % n` formulation.
        start = self._next % n
        for off in range(n):
            idx = start + off
            if idx >= n:
                idx -= n
            warp = warps[idx]
            if not warp.done and not warp.at_barrier and warp.ready_time <= now:
                self._next = (idx + 1) % n
                return warp
        return None


class GTOScheduler(WarpScheduler):
    """Greedy-then-oldest: stick with one warp until it stalls, then the
    oldest ready warp.

    GTO concentrates intra-warp locality, which typically reduces L1
    contention relative to LRR [Rogers et al., MICRO '12].
    """

    name = "gto"

    def __init__(self) -> None:
        self._greedy: Optional[Warp] = None

    def pick(self, warps: List[Warp], now: int) -> Optional[Warp]:
        greedy = self._greedy
        if (
            greedy is not None
            and not greedy.done
            and not greedy.at_barrier
            and greedy.ready_time <= now
        ):
            return greedy
        oldest: Optional[Warp] = None
        for warp in warps:
            if (
                not warp.done
                and not warp.at_barrier
                and warp.ready_time <= now
                and (oldest is None or warp.age < oldest.age)
            ):
                oldest = warp
        self._greedy = oldest
        return oldest


class TwoLevelScheduler(WarpScheduler):
    """Two-level scheduling [Narasiman et al., MICRO-44 '11].

    Only a small *active* subset of warps is eligible; a warp that stalls
    on memory is swapped out for a pending one.  This throttles the number
    of warps sharing the L1 at any instant.
    """

    name = "two-level"

    def __init__(self, active_size: int = 8) -> None:
        if active_size < 1:
            raise ValueError(f"active set must hold >= 1 warp, got {active_size}")
        self.active_size = active_size
        self._active: List[Warp] = []
        self._rr = LRRScheduler()

    def _refresh(self, warps: List[Warp], now: int) -> None:
        # Drop finished warps and those stalled on long-latency events.
        self._active = [w for w in self._active if not w.done]
        stalled = [w for w in self._active if not w.ready(now)]
        if len(self._active) - len(stalled) > 0 and len(self._active) >= self.active_size:
            return
        active_ids = {id(w) for w in self._active}
        for warp in warps:
            if len(self._active) >= self.active_size:
                break
            if warp.done or id(warp) in active_ids:
                continue
            if warp.ready(now):
                self._active.append(warp)
                active_ids.add(id(warp))

    def pick(self, warps: List[Warp], now: int) -> Optional[Warp]:
        self._refresh(warps, now)
        choice = self._rr.pick(self._active, now)
        if choice is None:
            # Fall back to the full pool so forward progress never depends
            # on the active-set heuristic.
            choice = self._rr.pick(warps, now)
        return choice


def make_scheduler(name: str, **kwargs) -> WarpScheduler:
    """Build a warp scheduler by name."""
    # Imported lazily: the throttle scheduler depends on this module.
    from repro.gpu.throttle import ThrottleScheduler
    from repro.sim.config import WARP_SCHEDULERS

    if name not in WARP_SCHEDULERS:
        raise ValueError(
            f"unknown scheduler {name!r}; known: {list(WARP_SCHEDULERS)}"
        )
    registry = {
        cls.name: cls
        for cls in (LRRScheduler, GTOScheduler, TwoLevelScheduler,
                    ThrottleScheduler)
    }
    return registry[name](**kwargs)
