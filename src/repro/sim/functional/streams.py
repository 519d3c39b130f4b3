"""Stream preparation: per-core transaction tuples -> column arrays.

The scalar oracle walks cores round-robin, dropping finished cores out of
the rotation, and increments a global transaction clock ``now`` before
each access.  That interleave is a pure function of the per-core stream
lengths, so every transaction's global ``now`` can be precomputed in
closed form:

    now[c][p] = 1 + sum_c' min(len_c', p) + |{c' < c : len_c' > p}|

(the accesses of earlier rounds, plus the cores ahead of ``c`` in round
``p``).  With ``now`` known up front, per-core runs of private-L1 work
can be applied eagerly while shared-L2 events are ordered by their
precomputed times.

Columns are built **lazily**: the engine's replay routes touch
different subsets (the scalar walk wants plain Python lists, and only
its victim-bit designs want the L2 routing lists; the burst routes want
NumPy columns and never most of the lists), so only
``line_l``/``write_l`` (the tuple split every other column derives
from) and the closed-form ``now`` column are materialized up front.
Everything else is built on first request by an ``ensure_*`` method and
cached, so a sweep sharing one :class:`CoreArrays` across many designs
still pays each conversion at most once.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.sim.addressing import AddressMap
from repro.sim.config import GPUConfig
from repro.sim.replay import Transaction

__all__ = ["CoreArrays", "build_core_arrays"]


class CoreArrays:
    """Column layout of one core's transaction stream.

    ``line_l``/``write_l`` (plain lists) and ``now`` (NumPy) are always
    present; every other column starts as ``None`` and is materialized
    by the matching ``ensure_*`` call.  The engine calls ``ensure_*``
    once per run for exactly the columns its replay route reads, then
    binds the plain attributes in its hot loops — lazy construction
    never adds per-access indirection.
    """

    __slots__ = (
        "n",
        # NumPy columns.
        "line",
        "write",
        "set1",
        "now",
        "part",
        "local",
        "set2",
        # Python-list columns (the scalar walk; element access on a list
        # is several times cheaper than NumPy scalar extraction).  The
        # last two are L2 routing, read only by victim-bit designs.
        "line_l",
        "write_l",
        "set1_l",
        "now_l",
        "local_l",
        # Flat L2 (bank, set) index: `part * l2_bank_sets + set2`.
        "slot_l",
        # Deferred-conversion inputs.
        "_l1_mask",
        "_l2_mask",
        "_addr_map",
    )

    def __init__(
        self,
        line_l: list,
        write_l: list,
        now: np.ndarray,
        l1_mask: int,
        l2_mask: int,
        addr_map: AddressMap,
    ) -> None:
        self.n = len(line_l)
        self.line_l = line_l
        self.write_l = write_l
        self.now = now
        self.line: Optional[np.ndarray] = None
        self.write: Optional[np.ndarray] = None
        self.set1: Optional[np.ndarray] = None
        self.part: Optional[np.ndarray] = None
        self.local: Optional[np.ndarray] = None
        self.set2: Optional[np.ndarray] = None
        self.set1_l: Optional[list] = None
        self.now_l: Optional[list] = None
        self.local_l: Optional[list] = None
        self.slot_l: Optional[list] = None
        self._l1_mask = l1_mask
        self._l2_mask = l2_mask
        self._addr_map = addr_map

    # ------------------------------------------------------------------
    # Lazy column builders (idempotent; each conversion happens once).
    # ------------------------------------------------------------------
    def _line_np(self) -> np.ndarray:
        if self.line is None:
            self.line = np.array(self.line_l, dtype=np.int64)
        return self.line

    def ensure_l1(self) -> None:
        """NumPy ``line``/``write``/``set1`` for the L1 burst kernel."""
        line = self._line_np()
        if self.write is None:
            self.write = np.array(self.write_l, dtype=np.bool_)
        if self.set1 is None:
            self.set1 = line & self._l1_mask

    def ensure_l2(self) -> None:
        """NumPy ``part``/``local``/``set2`` (L2 routing)."""
        if self.part is None:
            line = self._line_np()
            self.part = self._addr_map.partition_array(line)
            self.local = self._addr_map.local_array(line)
            self.set2 = self.local & self._l2_mask

    def ensure_walk(self) -> None:
        """The columns every walk reads: the NumPy L1 ones and the lists
        ``set1_l``/``now_l``."""
        if self.now_l is None:
            self.ensure_l1()
            self.set1_l = self.set1.tolist()
            self.now_l = self.now.tolist()

    def ensure_scalar(self) -> None:
        """The walk's columns plus the L2 routing its victim-bit designs
        read inline: the NumPy ones and the lists ``local_l``/``slot_l``."""
        self.ensure_walk()
        if self.slot_l is None:
            self.ensure_l2()
            self.local_l = self.local.tolist()
            self.slot_l = (
                self.part * (self._l2_mask + 1) + self.set2
            ).tolist()


def build_core_arrays(
    streams: List[List[Transaction]],
    config: GPUConfig,
    addr_map: Optional[AddressMap] = None,
    now_offset: int = 0,
) -> List[CoreArrays]:
    """Vectorize per-core streams and precompute global access times.

    ``now_offset`` continues the transaction clock across kernels in a
    sequence (the oracle restarts ``now`` per kernel; a warm-cache
    sequence run offsets it so fill-time tie-breaks stay monotonic).
    """
    lengths = np.array([len(s) for s in streams], dtype=np.int64)
    max_len = int(lengths.max()) if lengths.size else 0
    p = np.arange(max_len, dtype=np.int64)
    # base[p]: transactions issued by all cores in rounds before p.
    base = np.zeros(max_len, dtype=np.int64)
    for length in lengths:
        base += np.minimum(int(length), p)
    # rank[p]: cores ahead of the current one still live in round p
    # (built incrementally in core order).
    rank = np.zeros(max_len, dtype=np.int64)

    l1_mask = config.l1_sets - 1
    l2_mask = config.l2_bank_sets - 1
    if addr_map is None:
        addr_map = AddressMap(config.num_partitions, config.mc_interleave_lines)
    out: List[CoreArrays] = []
    for stream in streams:
        n = len(stream)
        # Split the tuple stream into columns first: NumPy converts flat
        # int lists far faster than lists of tuples.
        line_l = [t[0] for t in stream]
        write_l = [t[1] for t in stream]
        now = now_offset + 1 + base[:n] + rank[:n]
        rank[:n] += 1
        out.append(
            CoreArrays(line_l, write_l, now, l1_mask, l2_mask, addr_map)
        )
    return out
