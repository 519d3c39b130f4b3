"""Functional-backend model of the L1 replacement policies.

Management policies need no functional copy: the engine attaches the
design's real policy objects to its per-core L1 planes (see
:mod:`repro.cache.policies.base`).  Replacement is different — the
engine inlines LRU/SRRIP updates into its hit walks and NumPy probes,
so it models the two supported kinds over its flat stamp/rrpv lists.
"""

from __future__ import annotations

from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.rrip import SRRIPPolicy

__all__ = ["FunctionalUnsupportedError", "ReplacementModel", "replacement_model"]


class FunctionalUnsupportedError(NotImplementedError):
    """The design uses a policy the functional backend does not model."""


class ReplacementModel:
    """LRU or SRRIP over the engine's flat stamp/rrpv lists."""

    __slots__ = ("kind", "max_rrpv", "insertion_rrpv")

    def __init__(self, kind: str, max_rrpv: int = 0, insertion_rrpv: int = 0):
        self.kind = kind
        self.max_rrpv = max_rrpv
        self.insertion_rrpv = insertion_rrpv

    def new_core(self):
        # LRU carries one monotonically increasing stamp tick per cache.
        return [0]

    def on_hit_run(self, st, l1, slots: list) -> None:
        """Apply one core's run of consecutive load hits (slot order =
        access order, so with duplicate slots the last touch wins —
        exactly the oracle's per-access stamping)."""
        if self.kind == "lru":
            tick = st[0]
            stamp = l1.stamp
            for idx in slots:
                tick += 1
                stamp[idx] = tick
            st[0] = tick
        else:
            rrpv = l1.rrpv
            for idx in slots:
                rrpv[idx] = 0

    def select_victim(self, st, l1, base: int, top: int) -> int:
        if self.kind == "lru":
            seg = l1.stamp[base:top]
            return seg.index(min(seg))
        # SRRIP: bulk-age to max (no clamping happens pre-victim), victim
        # is the first line holding the pre-aging maximum.
        rrpv = l1.rrpv
        seg = rrpv[base:top]
        top_val = max(seg)
        if top_val < self.max_rrpv:
            delta = self.max_rrpv - top_val
            rrpv[base:top] = [v + delta for v in seg]
        return seg.index(top_val)


def replacement_model(repl: ReplacementPolicy, design_key: str) -> ReplacementModel:
    """The :class:`ReplacementModel` of one of a design's L1 replacement
    policies."""
    if type(repl) is LRUPolicy:
        return ReplacementModel("lru")
    if type(repl) is SRRIPPolicy:
        return ReplacementModel(
            "srrip", max_rrpv=repl.max_rrpv, insertion_rrpv=repl.insertion_rrpv
        )
    raise FunctionalUnsupportedError(
        f"functional backend does not model replacement policy "
        f"{type(repl).__name__} (design {design_key!r})"
    )
