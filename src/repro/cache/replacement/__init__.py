"""Replacement policies of the cache substrate.

LRU is the baseline (BS) L1 and every L2 bank; 3-bit SRRIP is the BS-S
and G-Cache L1; Belady OPT is the offline bound of the paper's Section
3.1 argument, driven by :func:`repro.sim.replay.replay`.
"""

from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.belady import NEVER, BeladyPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.rrip import SRRIPPolicy

__all__ = [
    "ReplacementPolicy",
    "LRUPolicy",
    "SRRIPPolicy",
    "BeladyPolicy",
    "NEVER",
]
