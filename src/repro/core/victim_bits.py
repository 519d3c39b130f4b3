"""L2 victim-bit directory (paper Section 4.1, Figure 6).

The L2 tag array is extended with a per-line bitmask holding one bit per
L1 cache (or per group of ``share_factor`` L1s, the paper's overhead
reduction).  Bit *g* is set when the L2 serves a request from group *g*
and cleared when the line leaves the L2.  A request from a group whose bit
is *already* set means that L1 fetched the line before and no longer has
it — it was a victim of early eviction, i.e. **contention**.

The bit's prior value travels back to the requesting L1 with the fill
response ("victim hint"), costing no extra interconnect traffic because it
piggybacks on the data response (Section 4.3).

Storage overhead accounting matches the paper's formula
``O_v = P x N x M`` bits (``L_v = P / S_v`` with sharing).
"""

from __future__ import annotations

from repro.cache.tagstore import FlatTagStore

__all__ = ["VictimBitDirectory"]


class VictimBitDirectory:
    """Manages the victim bits stored on L2 cache lines.

    Args:
        num_l1s: Number of L1 caches (``P``; one per SIMT core).
        share_factor: ``S_v`` — how many SIMT cores share one victim bit.
            1 gives the full-accuracy design; ``num_l1s`` collapses to a
            single bit shared by every core (cheapest, least accurate).
    """

    def __init__(self, num_l1s: int, share_factor: int = 1) -> None:
        if num_l1s < 1:
            raise ValueError(f"need at least one L1, got {num_l1s}")
        if share_factor < 1 or num_l1s % share_factor != 0:
            raise ValueError(
                f"share_factor {share_factor} must divide the L1 count {num_l1s}"
            )
        self.num_l1s = num_l1s
        self.share_factor = share_factor
        self.bits_per_line = num_l1s // share_factor
        # observe() runs once per L2 read: the group->mask mapping is
        # precomputed per source id (indexing also bounds-checks src_id).
        self._masks = [1 << (i // share_factor) for i in range(num_l1s)]
        self.hints_returned = 0
        self.contentions_detected = 0

    def group(self, src_id: int) -> int:
        """Victim-bit index for SIMT core ``src_id``."""
        if not 0 <= src_id < self.num_l1s:
            raise ValueError(f"src_id {src_id} out of range [0, {self.num_l1s})")
        return src_id // self.share_factor

    def observe(self, store: FlatTagStore, idx: int, src_id: int) -> bool:
        """Record that the L2 served slot ``idx`` of ``store`` to ``src_id``.

        Returns the *previous* value of the requester's bit — the victim
        hint attached to the response.  ``True`` means this L1 (group)
        already fetched the line during the current L2 generation:
        contention detected.  The bits clear when the slot is refilled
        (:meth:`~repro.cache.tagstore.FlatTagStore.fill_slot`).
        """
        mask = self._masks[src_id]
        vb = store.victim_bits
        prev = vb[idx]
        vb[idx] = prev | mask
        hint = (prev & mask) != 0
        self.hints_returned += 1
        if hint:
            self.contentions_detected += 1
        return hint

    def storage_overhead_bits(self, num_sets: int, num_ways: int) -> int:
        """Total victim-bit storage: ``(P / S_v) x N x M`` bits."""
        return self.bits_per_line * num_sets * num_ways

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<VictimBitDirectory P={self.num_l1s} Sv={self.share_factor} "
            f"bits/line={self.bits_per_line}>"
        )
