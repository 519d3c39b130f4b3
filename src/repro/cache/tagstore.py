"""Packed, array-backed tag-array storage (structure-of-arrays).

The original :class:`~repro.cache.cache.Cache` kept one
:class:`~repro.cache.line.CacheLine` object per way and every lookup
walked those objects attribute by attribute.  Profiling showed the tag
scan and the per-hit state updates dominating full-kernel simulation
time, so the tag array is restructured the way ATA-style hardware
proposals restructure it: one flat parallel array per field, indexed by
``set_index * ways + way``.

* The **tag scan** becomes a single C-speed ``list.index`` call over the
  set's slice of the ``tag`` array instead of a Python loop over objects.
* **Replacement state** (RRPV / recency stamps) lives in flat integer
  arrays that the replacement policies update and scan through their
  ``flat_*`` hooks (see :mod:`repro.cache.replacement.base`).
* Every other reader (management policies, the victim-bit directory,
  diagnostics and tests) indexes the same arrays: one line's state is
  ``store.<field>[set_index * ways + way]``.

Plain Python lists are used rather than ``array('q')``: CPython stores
small ints as shared pointers, so list element access avoids the
box/unbox round-trip ``array`` pays on every read, and ``list.index``
over small-int lists is the fastest membership scan available without
third-party dependencies.  ``valid``/``dirty`` are single-byte flags and
do live in ``bytearray`` (which also supports C-speed ``.index`` for the
free-way scan).

Invariants maintained by :class:`~repro.cache.cache.Cache`:

* an invalid slot's ``tag`` is ``-1`` (so demand addresses, which are
  non-negative, can never false-hit an invalid slot on the fast scan);
* ``valid_count[s]`` equals the number of valid ways in set ``s`` (so
  the fill path knows without scanning whether a free way exists).

Both invariants are *defensively re-checked* where cheap: the lookup
scan confirms ``valid`` before declaring a hit, so even a direct
``store.valid[i] = 0`` write from diagnostic code cannot produce a
false hit.
"""

from __future__ import annotations

from typing import List

__all__ = ["FlatTagStore"]


class FlatTagStore:
    """Parallel per-field arrays for ``num_sets * ways`` tag entries.

    Field semantics are identical to :class:`~repro.cache.line.CacheLine`
    (they are the same fields, transposed into structure-of-arrays form).
    """

    __slots__ = (
        "num_sets",
        "ways",
        "size",
        "tag",
        "valid",
        "dirty",
        "rrpv",
        "stamp",
        "use_count",
        "fill_time",
        "last_access",
        "pd_counter",
        "victim_bits",
        "valid_count",
    )

    def __init__(self, num_sets: int, ways: int) -> None:
        if num_sets < 1 or ways < 1:
            raise ValueError(f"need >= 1 set and way, got {num_sets}x{ways}")
        n = num_sets * ways
        self.num_sets = num_sets
        self.ways = ways
        self.size = n
        self.tag: List[int] = [-1] * n
        self.valid = bytearray(n)
        self.dirty = bytearray(n)
        self.rrpv: List[int] = [0] * n
        self.stamp: List[int] = [0] * n
        self.use_count: List[int] = [0] * n
        self.fill_time: List[int] = [0] * n
        self.last_access: List[int] = [0] * n
        self.pd_counter: List[int] = [0] * n
        self.victim_bits: List[int] = [0] * n
        self.valid_count: List[int] = [0] * num_sets

    # ------------------------------------------------------------------
    # Slot lifecycle
    # ------------------------------------------------------------------
    def fill_slot(self, index: int, tag: int, now: int) -> None:
        """Begin a new generation in ``index`` (mirrors ``CacheLine.fill``)."""
        self.tag[index] = tag
        if not self.valid[index]:
            self.valid[index] = 1
            self.valid_count[index // self.ways] += 1
        self.dirty[index] = 0
        self.use_count[index] = 0
        self.fill_time[index] = now
        self.last_access[index] = now
        self.victim_bits[index] = 0

    def reset_slot(self, index: int) -> None:
        """Invalidate ``index`` and clear all its generation state."""
        self.tag[index] = -1
        if self.valid[index]:
            self.valid[index] = 0
            self.valid_count[index // self.ways] -= 1
        self.dirty[index] = 0
        self.rrpv[index] = 0
        self.stamp[index] = 0
        self.use_count[index] = 0
        self.fill_time[index] = 0
        self.last_access[index] = 0
        self.pd_counter[index] = 0
        self.victim_bits[index] = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FlatTagStore {self.num_sets}x{self.ways}>"

