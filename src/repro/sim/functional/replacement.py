"""Functional-backend model of the L1 replacement policies.

Management policies need no functional copy: the engine attaches the
design's real policy objects to its per-core L1 planes (see
:mod:`repro.cache.policies.base`).  Replacement is different — the
engine inlines LRU/SRRIP updates into its walk and burst kernels, so
it models the two supported kinds over its flat stamp/rrpv lists.
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
