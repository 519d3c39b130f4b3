"""Least-recently-used replacement.

LRU is the paper's baseline (BS) L1 replacement policy and the L2's.
The stamp-based implementation is O(ways) per victim selection, which is
exact and cheap at GPU associativities (4–16 ways).
"""

from __future__ import annotations

from typing import Sequence

from repro.cache.line import CacheLine
from repro.cache.replacement.base import ReplacementPolicy

__all__ = ["LRUPolicy"]


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used replacement.

    Each line carries a monotonically increasing access stamp; the victim
    is the line with the smallest stamp.
    """

    name = "lru"

    def __init__(self) -> None:
        self._tick = 0
        self._stamps = None

    def _next_tick(self) -> int:
        self._tick += 1
        return self._tick

    def on_fill(self, ways: Sequence[CacheLine], way: int, now: int) -> None:
        ways[way].stamp = self._next_tick()

    def on_hit(self, ways: Sequence[CacheLine], way: int, now: int) -> None:
        ways[way].stamp = self._next_tick()

    def select_victim(self, ways: Sequence[CacheLine], now: int) -> int:
        victim = 0
        best = ways[0].stamp
        for i in range(1, len(ways)):
            if ways[i].stamp < best:
                best = ways[i].stamp
                victim = i
        return victim

    # -- flat hooks -------------------------------------------------------
    def flat_bind(self, store) -> None:
        self._stamps = self._claim(self._stamps, store.stamp)

    def flat_on_fill(self, index: int, now: int) -> None:
        self._tick += 1
        self._stamps[index] = self._tick

    def flat_on_hit(self, index: int, now: int) -> None:
        self._tick += 1
        self._stamps[index] = self._tick

    def flat_select_victim(self, base: int, top: int, now: int) -> int:
        # Stamps are unique, so index-of-min is exact; min()+.index() are
        # both C-speed, and first-minimum matches the object hook.
        seg = self._stamps[base:top]
        return seg.index(min(seg))

