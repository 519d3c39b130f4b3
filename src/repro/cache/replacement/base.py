"""Replacement-policy interface.

A replacement policy owns the *recency state* of the lines in one cache
and picks victims.  It is deliberately minimal so that management
policies (bypass / insertion, :mod:`repro.cache.policies`) can compose
with any of them.

Every policy implements two views of the same three hooks (fill, hit,
victim):

* the **flat hooks**, the only interface the production
  :class:`~repro.cache.cache.Cache` calls.  They address the cache's
  packed :class:`~repro.cache.tagstore.FlatTagStore` by flat slot index
  (``idx = set_index * ways + way``);
* the **object hooks**, which receive one set's list of
  :class:`~repro.cache.line.CacheLine` objects.  Only the test oracle
  :class:`~repro.cache.reference.ReferenceCache` calls them.

``tests/test_cache_equivalence.py`` drives both caches with identical
random streams and pins the two views to bit-identical decisions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.cache.line import CacheLine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.tagstore import FlatTagStore

__all__ = ["ReplacementPolicy"]


class ReplacementPolicy(ABC):
    """Chooses victims and maintains per-line recency state.

    One instance serves exactly one cache: per-line state lives in the
    cache's tag array, and :meth:`flat_bind` refuses a second cache.
    """

    #: Short identifier used in reports (e.g. ``"lru"``, ``"srrip"``).
    name: str = "base"

    # ------------------------------------------------------------------
    # Flat hooks (production Cache)
    # ------------------------------------------------------------------
    @abstractmethod
    def flat_bind(self, store: "FlatTagStore") -> None:
        """Adopt ``store``'s arrays; called once by the owning cache.

        Raises ``ValueError`` if the instance already serves another
        cache's store.
        """

    @abstractmethod
    def flat_on_fill(self, index: int, now: int) -> None:
        """Initialise recency state of slot ``index`` after a fill."""

    @abstractmethod
    def flat_on_hit(self, index: int, now: int) -> None:
        """Update recency state of slot ``index`` after a hit."""

    @abstractmethod
    def flat_select_victim(self, base: int, top: int, now: int) -> int:
        """Return the *way* (not the flat index) to evict from the full
        set occupying slots ``[base, top)``."""

    def _claim(self, bound: Optional[List[int]], plane: List[int]) -> List[int]:
        """``plane``, unless this instance is already bound to another one."""
        if bound is not None and bound is not plane:
            raise ValueError(
                f"{type(self).__name__} instance already serves another "
                f"cache; build one replacement policy per cache"
            )
        return plane

    # ------------------------------------------------------------------
    # Object hooks (ReferenceCache test oracle)
    # ------------------------------------------------------------------
    @abstractmethod
    def on_fill(self, ways: Sequence[CacheLine], way: int, now: int) -> None:
        """Initialise recency state of ``ways[way]`` after a fill."""

    @abstractmethod
    def on_hit(self, ways: Sequence[CacheLine], way: int, now: int) -> None:
        """Update recency state of ``ways[way]`` after a hit."""

    @abstractmethod
    def select_victim(self, ways: Sequence[CacheLine], now: int) -> int:
        """Return the way index to evict.

        Called only when every way is valid; an invalid way is always
        filled first by the cache itself.
        """

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__}>"
