"""Belady's optimal replacement (OPT) for offline analysis.

Section 3.1 of the paper argues that *"even the optimal replacement policy
shows very limited improvement due to frequent early eviction"* — the
motivation for bypassing rather than smarter replacement.  This policy lets
us reproduce that argument quantitatively.

OPT requires future knowledge, so it only works with the trace-replay
driver (:mod:`repro.sim.replay`), which precomputes, for every access, the
position of the *next* access to the same line and publishes it through
:attr:`BeladyPolicy.next_use_hint` just before invoking the cache.  The
policy stores the hint in the line's ``stamp`` field and evicts the line
whose next use is furthest in the future.
"""

from __future__ import annotations

from typing import Sequence

from repro.cache.line import CacheLine
from repro.cache.replacement.base import ReplacementPolicy

__all__ = ["BeladyPolicy", "NEVER"]

#: Sentinel next-use position for lines that are never referenced again.
NEVER = 1 << 62


class BeladyPolicy(ReplacementPolicy):
    """Optimal (clairvoyant) replacement.

    Attributes:
        next_use_hint: Position of the next access to the line being
            filled / hit.  Must be set by the driver before each cache
            access; defaults to :data:`NEVER` so that forgetting to set it
            degrades to "evict the current fill first" rather than
            crashing.
    """

    name = "opt"

    def __init__(self) -> None:
        self.next_use_hint: int = NEVER
        self._stamps = None

    def on_fill(self, ways: Sequence[CacheLine], way: int, now: int) -> None:
        ways[way].stamp = self.next_use_hint

    def on_hit(self, ways: Sequence[CacheLine], way: int, now: int) -> None:
        ways[way].stamp = self.next_use_hint

    def select_victim(self, ways: Sequence[CacheLine], now: int) -> int:
        victim = 0
        furthest = ways[0].stamp
        for i in range(1, len(ways)):
            if ways[i].stamp > furthest:
                furthest = ways[i].stamp
                victim = i
        return victim

    # -- flat hooks -------------------------------------------------------
    def flat_bind(self, store) -> None:
        self._stamps = self._claim(self._stamps, store.stamp)

    def flat_on_fill(self, index: int, now: int) -> None:
        self._stamps[index] = self.next_use_hint

    def flat_on_hit(self, index: int, now: int) -> None:
        self._stamps[index] = self.next_use_hint

    def flat_select_victim(self, base: int, top: int, now: int) -> int:
        # First maximum, like the object loop's strict ``>``.
        seg = self._stamps[base:top]
        return seg.index(max(seg))
