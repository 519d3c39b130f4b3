"""Re-Reference Interval Prediction (RRIP) replacement [Jaleel et al., ISCA'10].

The paper's BS-S design is the baseline with *3-bit SRRIP* in the L1, and
G-Cache itself is built "on top of RRIP": line hotness is judged by RRPV
and bypass ages RRPVs.  :class:`SRRIPPolicy` is static RRIP with
hit-priority (RRPV=0 on hit) and long-re-reference insertion
(RRPV = max-1); it stores the prediction value in the ``rrpv`` field.
"""

from __future__ import annotations

from typing import Sequence

from repro.cache.line import CacheLine
from repro.cache.replacement.base import ReplacementPolicy

__all__ = ["SRRIPPolicy"]


class SRRIPPolicy(ReplacementPolicy):
    """Static RRIP with hit-priority promotion.

    Args:
        bits: Width of the RRPV field.  The paper uses 3 bits, giving
            RRPVs in [0, 7].
        insertion_rrpv: RRPV assigned on fill.  Defaults to ``max - 1``
            ("long" re-reference interval), the SRRIP-HP configuration.
    """

    name = "srrip"

    def __init__(self, bits: int = 3, insertion_rrpv: int | None = None) -> None:
        if bits < 1:
            raise ValueError(f"RRPV width must be >= 1 bit, got {bits}")
        self.bits = bits
        self.max_rrpv = (1 << bits) - 1
        if insertion_rrpv is None:
            insertion_rrpv = self.max_rrpv - 1
        if not 0 <= insertion_rrpv <= self.max_rrpv:
            raise ValueError(
                f"insertion RRPV {insertion_rrpv} out of range [0, {self.max_rrpv}]"
            )
        self.insertion_rrpv = insertion_rrpv
        self._rrpvs = None

    def on_fill(self, ways: Sequence[CacheLine], way: int, now: int) -> None:
        ways[way].rrpv = self.insertion_rrpv

    def on_hit(self, ways: Sequence[CacheLine], way: int, now: int) -> None:
        # Hit-priority (HP) promotion: a reused line is predicted
        # near-immediate re-reference.
        ways[way].rrpv = 0

    def select_victim(self, ways: Sequence[CacheLine], now: int) -> int:
        # Find a line with distant prediction (RRPV == max); if none, age
        # everyone until one appears.  Ties break toward the lowest way,
        # matching the hardware priority encoder in the RRIP paper.
        while True:
            for i, line in enumerate(ways):
                if line.rrpv >= self.max_rrpv:
                    return i
            for line in ways:
                line.rrpv += 1

    # -- flat hooks -------------------------------------------------------
    def flat_bind(self, store) -> None:
        self._rrpvs = self._claim(self._rrpvs, store.rrpv)

    def flat_on_fill(self, index: int, now: int) -> None:
        self._rrpvs[index] = self.insertion_rrpv

    def flat_on_hit(self, index: int, now: int) -> None:
        self._rrpvs[index] = 0

    def flat_select_victim(self, base: int, top: int, now: int) -> int:
        # The aging loop increments every line once per round until some
        # RRPV reaches max; that is equivalent to one bulk add of
        # ``max_rrpv - max(seg)`` (no clamping happens in the loop), and
        # the victim is the first line holding the pre-aging maximum.
        rrpvs = self._rrpvs
        seg = rrpvs[base:top]
        top_val = max(seg)
        if top_val < self.max_rrpv:
            delta = self.max_rrpv - top_val
            for i in range(base, top):
                rrpvs[i] += delta
        elif top_val > self.max_rrpv:
            # Out-of-range RRPV planted by external code: fall back to the
            # object hook's first->=max rule rather than first-of-max.
            for i, value in enumerate(seg):
                if value >= self.max_rrpv:
                    return i
        return seg.index(top_val)

