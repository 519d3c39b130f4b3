"""Counter-based dead-block prediction bypass.

An additional comparison point from the paper's related work (Kharbutli &
Solihin, IEEE TC '08, and the dead-block line of work [15, 18, 20]): a
prediction table remembers how many times lines from each address region
were reused in their previous generation.  A line predicted *dead on
arrival* (zero prior reuse) is bypassed; a resident line that has
consumed its predicted reuses is marked dead and becomes the preferred
victim.

This is intentionally the CPU-style heuristic the paper argues is "less
effective" on GPUs: its learning signal is destroyed by the same early
evictions it is trying to predict — under heavy inter-warp contention
every generation looks dead, so it over-bypasses genuinely hot data.
Including it lets the repository quantify that argument.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cache.policies.base import ManagementPolicy

__all__ = ["DeadBlockPolicy"]


class DeadBlockPolicy(ManagementPolicy):
    """Counter-based dead-block predictor with bypass.

    Args:
        table_bits: log2 of the prediction-table size.
        region_shift: Line-address bits dropped when indexing the table
            (lines of one region share a predictor entry).
        confidence: Consecutive dead generations required before the
            predictor starts bypassing fills of that region.
    """

    name = "dbp"

    def __init__(
        self,
        table_bits: int = 12,
        region_shift: int = 2,
        confidence: int = 2,
    ) -> None:
        if table_bits < 1:
            raise ValueError(f"table_bits must be >= 1, got {table_bits}")
        if confidence < 1:
            raise ValueError(f"confidence must be >= 1, got {confidence}")
        self.table_size = 1 << table_bits
        self.table_mask = self.table_size - 1
        self.region_shift = region_shift
        self.confidence = confidence
        #: region index -> (predicted reuses, dead-generation streak)
        self._table: Dict[int, tuple] = {}
        self.predictions = 0
        self.dead_on_arrival = 0

    def _index(self, line_addr: int) -> int:
        # The hash's one readable definition; the hooks below inline it
        # (they run once per L1 miss, several probes each).
        region = line_addr >> self.region_shift
        return (region ^ (region >> 7)) & self.table_mask

    def _entry(self, line_addr: int) -> tuple:
        return self._table.get(self._index(line_addr), (1, 0))

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def fill_decision(
        self, set_index: int, line: int, hint: bool, now: int
    ) -> bool:
        region = line >> self.region_shift
        predicted, streak = self._table.get(
            (region ^ (region >> 7)) & self.table_mask, (1, 0)
        )
        self.predictions += 1
        if predicted == 0 and streak >= self.confidence:
            self.dead_on_arrival += 1
            return True
        return False

    def choose_victim(self, set_index: int, now: int) -> Optional[int]:
        # Prefer a resident line that already consumed its predicted
        # reuses (dead); otherwise defer to the replacement policy.
        store = self.store
        ways = store.ways
        base = set_index * ways
        tag = store.tag
        use_count = store.use_count
        shift = self.region_shift
        mask = self.table_mask
        get = self._table.get
        for way in range(ways):
            region = tag[base + way] >> shift
            predicted, _ = get((region ^ (region >> 7)) & mask, (1, 0))
            if use_count[base + way] >= predicted > 0:
                return way
        return None

    def on_evict(self, idx: int, now: int) -> None:
        region = self.store.tag[idx] >> self.region_shift
        table_idx = (region ^ (region >> 7)) & self.table_mask
        _, streak = self._table.get(table_idx, (1, 0))
        uses = self.store.use_count[idx]
        self._table[table_idx] = (0, streak + 1) if uses == 0 else (uses, 0)

    @property
    def dead_prediction_rate(self) -> float:
        return self.dead_on_arrival / self.predictions if self.predictions else 0.0
