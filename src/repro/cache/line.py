"""Cache line (tag-array entry) model.

A :class:`CacheLine` models one way of one set in a set-associative cache.
Only the *tag array* state is modelled — data payloads are irrelevant to
management-policy studies, so no data is stored.

The entry carries the fields described in the paper's Figure 6 for the
extended L2 tag entry (state bits, RRPV, tag, victim bits) plus generic
bookkeeping used by the statistics layer (fill time, per-generation reuse
count) and by the PDP policy family (remaining protection distance).
"""

from __future__ import annotations

__all__ = ["CacheLine"]


class CacheLine:
    """One tag-array entry.

    Attributes:
        tag: Line tag (full line address; sets are selected externally, so
            storing the whole line address keeps lookups trivial).
        valid: Whether the entry holds a line.
        dirty: Write-back dirtiness (only meaningful for write-back caches).
        rrpv: Re-Reference Prediction Value (RRIP state); also reused as the
            recency stamp holder for LRU-style policies via ``stamp``.
        stamp: Generic recency stamp (LRU tick or Belady next use).
        use_count: Number of *re*-uses (hits) since the current fill; the
            fill itself is not counted.  Feeds the Fig. 2 reuse histogram.
        fill_time: Time at which the current generation was filled.
        last_access: Time of the most recent access to this generation.
        pd_counter: Remaining-protection-distance counter for PDP policies.
        victim_bits: Per-L1 access-history bitmask (L2 extension, Fig. 6).
            Bit *i* set means L1 cache *i* (or its sharing group) fetched
            this line during the current L2 generation.
    """

    __slots__ = (
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
    )

    def __init__(self) -> None:
        self.tag = -1
        self.valid = False
        self.dirty = False
        self.rrpv = 0
        self.stamp = 0
        self.use_count = 0
        self.fill_time = 0
        self.last_access = 0
        self.pd_counter = 0
        self.victim_bits = 0

    def reset(self) -> None:
        """Invalidate the entry and clear all generation state."""
        self.tag = -1
        self.valid = False
        self.dirty = False
        self.rrpv = 0
        self.stamp = 0
        self.use_count = 0
        self.fill_time = 0
        self.last_access = 0
        self.pd_counter = 0
        self.victim_bits = 0

    def fill(self, tag: int, now: int) -> None:
        """Begin a new generation holding ``tag``, filled at time ``now``."""
        self.tag = tag
        self.valid = True
        self.dirty = False
        self.use_count = 0
        self.fill_time = now
        self.last_access = now
        self.victim_bits = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if not self.valid:
            return "<CacheLine invalid>"
        return (
            f"<CacheLine tag={self.tag:#x} rrpv={self.rrpv} "
            f"uses={self.use_count} dirty={self.dirty}>"
        )
