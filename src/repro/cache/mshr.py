"""Miss Status Holding Registers (MSHRs).

Each L1 cache owns an MSHR file (Table 2: 32 MSHRs/core).  Outstanding
line fills occupy one entry from the time the miss is issued until the
fill response arrives.  Requests to a line that already has an entry are
*merged*: they complete when the original fill does and generate no new
L2 traffic.  When the file is full the core's memory stage stalls until an
entry retires — in the timing model, a transaction's start time is pushed
to :meth:`MSHRFile.earliest_free`.

Entries are expired lazily: the memory system calls :meth:`expire` with
the current time before consulting the file, which is correct because
transactions are processed in global time order.

The file keeps a min-heap of ``(ready_time, line_addr)`` alongside the
address-keyed dict, so :meth:`expire` is O(1) when nothing has retired
(the overwhelmingly common case — it runs on *every* load) and
:meth:`earliest_free` needs no scan.  An entry's ready time is fixed at
allocation and entries are only removed via :meth:`expire`/:meth:`reset`,
so heap and dict stay exactly in sync — no lazy-deletion bookkeeping.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

__all__ = ["MSHREntry", "MSHRFile"]


class MSHREntry:
    """One in-flight line fill."""

    __slots__ = ("line_addr", "ready_time", "merges", "bypassed")

    def __init__(self, line_addr: int, ready_time: int, bypassed: bool = False) -> None:
        self.line_addr = line_addr
        self.ready_time = ready_time
        self.merges = 0
        self.bypassed = bypassed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MSHREntry line={self.line_addr:#x} ready={self.ready_time} "
            f"merges={self.merges}>"
        )


class MSHRFile:
    """Fixed-capacity table of in-flight misses, keyed by line address."""

    def __init__(self, entries: int = 32, max_merges: int = 8) -> None:
        if entries < 1:
            raise ValueError(f"MSHR file needs >= 1 entry, got {entries}")
        if max_merges < 1:
            raise ValueError(f"max_merges must be >= 1, got {max_merges}")
        self.capacity = entries
        self.max_merges = max_merges
        self._pending: Dict[int, MSHREntry] = {}
        self._ready_heap: List[Tuple[int, int]] = []
        self.peak_occupancy = 0
        self.total_allocations = 0
        self.total_merges = 0
        self.full_stalls = 0

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def full(self) -> bool:
        return len(self._pending) >= self.capacity

    def expire(self, now: int) -> None:
        """Retire entries whose fill response has arrived by ``now``."""
        heap = self._ready_heap
        if not heap or heap[0][0] > now:
            return
        pending = self._pending
        while heap and heap[0][0] <= now:
            _, addr = heapq.heappop(heap)
            del pending[addr]

    def lookup(self, line_addr: int) -> Optional[MSHREntry]:
        """Return the in-flight entry for ``line_addr``, if any."""
        return self._pending.get(line_addr)

    def merge(self, entry: MSHREntry) -> bool:
        """Attach a request to an existing entry.

        Returns ``False`` when the entry's merge capacity is exhausted,
        leaving the entry and :attr:`total_merges` unchanged.  The cap is
        not enforced: :meth:`MemorySystem.load
        <repro.sim.memory_system.MemorySystem.load>` ignores the return
        value, so a request past the cap still completes with the fill
        (and still counts in the L1's ``mshr_merges``).
        """
        if entry.merges + 1 >= self.max_merges:
            return False
        entry.merges += 1
        self.total_merges += 1
        return True

    def allocate(self, line_addr: int, ready_time: int, bypassed: bool = False) -> MSHREntry:
        """Create an entry for a new outstanding miss.

        The caller must ensure the file is not full (``full`` property /
        :meth:`earliest_free`); allocating into a full file is a modelling
        bug and raises.
        """
        if self.full:
            raise RuntimeError("MSHR allocate on a full file; caller must stall")
        if line_addr in self._pending:
            raise RuntimeError(f"duplicate MSHR allocation for line {line_addr:#x}")
        entry = MSHREntry(line_addr, ready_time, bypassed)
        self._pending[line_addr] = entry
        heapq.heappush(self._ready_heap, (ready_time, line_addr))
        self.total_allocations += 1
        if len(self._pending) > self.peak_occupancy:
            self.peak_occupancy = len(self._pending)
        return entry

    def earliest_free(self) -> int:
        """Time at which the next entry retires (stall-until time).

        Only meaningful when the file is non-empty.
        """
        heap = self._ready_heap
        return heap[0][0] if heap else 0

    def note_full_stall(self) -> None:
        self.full_stalls += 1

    def reset(self) -> None:
        self._pending.clear()
        self._ready_heap.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MSHRFile {len(self._pending)}/{self.capacity}>"
