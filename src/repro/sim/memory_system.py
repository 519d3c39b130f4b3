"""Memory-system wiring: L1s -> mesh -> banked L2 -> GDDR5 DRAM.

This module glues the substrates together and computes, for each memory
transaction, its completion time by walking the hierarchy with
per-resource next-free-time contention (see DESIGN.md Section 6).  It is
also where the G-Cache control flow lives end-to-end:

* an L1 load miss travels to its L2 bank tagged with the source core,
* the L2 consults/updates the victim-bit directory and attaches the
  *victim hint* to the response,
* the hint drives the L1's bypass switch and fill decision.

Transactions must be presented in non-decreasing time order per core
(the event engine guarantees global time order), which keeps the
next-free-time bookkeeping consistent.
"""

from __future__ import annotations

from heapq import heappush
from typing import List, Optional

from repro.cache.cache import Cache
from repro.cache.mshr import MSHREntry, MSHRFile
from repro.cache.replacement.lru import LRUPolicy
from repro.core.victim_bits import VictimBitDirectory
from repro.dram.controller import MemoryController
from repro.noc.crossbar import CrossbarNoC
from repro.noc.mesh import MeshNoC
from repro.obs.events import (
    EV_MSHR_ALLOC,
    EV_MSHR_MERGE,
    EV_MSHR_STALL,
    EV_VICTIM_CLEAR,
    EV_VICTIM_SET,
)
from repro.sim.addressing import AddressMap
from repro.sim.config import GPUConfig
from repro.sim.designs import DesignSpec
from repro.stats.counters import CacheStats

__all__ = ["MemorySystem"]


class MemorySystem:
    """The full memory hierarchy for one simulation run.

    Args:
        config: Architectural parameters.
        design: Cache-management design under evaluation.
        victim_share_factor: ``S_v`` — SIMT cores per victim bit (only
            meaningful for designs that use victim bits).
    """

    def __init__(
        self,
        config: GPUConfig,
        design: DesignSpec,
        victim_share_factor: int = 1,
    ) -> None:
        self.config = config
        self.design = design
        p = config.num_partitions

        self.l1s: List[Cache] = [
            Cache(
                name=f"L1[{core}]",
                size_bytes=config.l1_size,
                ways=config.l1_ways,
                line_size=config.line_size,
                replacement=design.make_l1_replacement(),
                mgmt=design.make_l1_mgmt(),
                write_back=False,
                write_allocate=False,
            )
            for core in range(config.num_cores)
        ]
        self.mshrs: List[MSHRFile] = [
            MSHRFile(config.l1_mshr_entries, config.l1_mshr_max_merges)
            for _ in range(config.num_cores)
        ]
        # L2 banks operate on partition-local addresses (see AddressMap),
        # so no pre-shift is needed for set selection.
        self.l2_banks: List[Cache] = [
            Cache(
                name=f"L2[{bank}]",
                size_bytes=config.l2_bank_size,
                ways=config.l2_ways,
                line_size=config.line_size,
                replacement=LRUPolicy(),
                write_back=True,
                write_allocate=True,
            )
            for bank in range(p)
        ]
        if config.noc_topology == "crossbar":
            self.noc = CrossbarNoC(
                num_cores=config.num_cores,
                num_partitions=p,
                channel_width=config.noc_channel_width,
                traversal_latency=3 * config.noc_hop_latency,
                ctrl_size=config.noc_ctrl_size,
                data_size=config.line_size,
            )
        else:
            self.noc = MeshNoC(
                num_cores=config.num_cores,
                num_partitions=p,
                channel_width=config.noc_channel_width,
                hop_latency=config.noc_hop_latency,
                ctrl_size=config.noc_ctrl_size,
                data_size=config.line_size,
            )
        self.mcs: List[MemoryController] = [
            MemoryController(
                mc_id=i,
                timing=config.dram_timing,
                num_banks=config.dram_banks_per_mc,
                line_size=config.line_size,
                row_window=config.dram_row_window,
            )
            for i in range(p)
        ]
        self.victim_dir: Optional[VictimBitDirectory] = (
            VictimBitDirectory(config.num_cores, victim_share_factor)
            if design.uses_victim_bits
            else None
        )

        self.addr_map = AddressMap(p, config.mc_interleave_lines)
        self._l1_port_free = [0] * config.num_cores
        self._l2_port_free = [0] * p
        self._aou_free = [0] * p
        # Hot-loop shortcuts: per-core (L1, MSHR) pairs and scalar
        # latencies, so load() does one index instead of several
        # attribute+index chains per transaction.
        self._per_core = list(zip(self.l1s, self.mshrs))
        self._l1_hit_latency = config.l1_hit_latency
        self._partition = self.addr_map.partition
        # AddressMap.local, inlined into _l2_access.
        self._local_shift = self.addr_map._chunk_shift
        self._local_hi_shift = self._local_shift + self.addr_map._part_bits
        self._local_mask = self.addr_map._offset_mask
        # One route-walk call per packet: NoC node ids are core ids for
        # cores and num_cores + partition for memory partitions.
        self._send = self.noc.send
        self._num_cores = config.num_cores
        self._ctrl_flits = self.noc.ctrl_flits
        self._data_flits = self.noc.data_flits
        self._l2_hit_latency = config.l2_hit_latency
        self._l2_port_occupancy = config.l2_port_occupancy
        self._l2_write_validate = config.l2_write_validate

        #: Event bus when tracing is enabled (see repro.obs.wire).
        self.obs = None

        # Diagnostics.
        self.load_latency_sum = 0
        self.load_count = 0

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def partition_of(self, line_addr: int) -> int:
        return self.addr_map.partition(line_addr)

    # ------------------------------------------------------------------
    # L2 + DRAM walk (shared by loads, stores, atomics)
    # ------------------------------------------------------------------
    def _l2_access(
        self,
        core_id: int,
        line_addr: int,
        arrive: int,
        is_write: bool,
        part: int,
        full_line_write: bool = True,
    ):
        """Access the L2 bank ``part``; returns ``(data_time, victim_hint)``.

        ``data_time`` is when the L2 bank has the data (for reads) or has
        accepted the write.  Misses are filled from DRAM, charging the
        memory controller and any dirty-eviction writeback.
        ``full_line_write`` marks stores that cover the whole line and may
        therefore write-validate (skip the allocate fetch); atomics are
        read-modify-write and must not.
        """
        local = ((line_addr >> self._local_hi_shift) << self._local_shift) | (
            line_addr & self._local_mask
        )
        ports = self._l2_port_free
        at = ports[part]
        if arrive > at:
            at = arrive
        ports[part] = at + self._l2_port_occupancy
        bank = self.l2_banks[part]

        idx = bank.lookup_fast(local, at, is_write=is_write)
        if idx >= 0:
            data_time = at + self._l2_hit_latency
        else:
            # Miss: fetch the line from DRAM and write-allocate.  A store
            # that covers the full line skips the fetch (write-validate).
            mc = self.mcs[part]
            if is_write and full_line_write and self._l2_write_validate:
                dram_done = at + self._l2_hit_latency
            else:
                dram_done = mc.request(local, at + self._l2_hit_latency)
            # The L2 has no management policy and never bypasses, so the
            # fill always returns a slot.
            idx = bank.fill_fast(local, dram_done, False, is_write)
            if bank.last_writeback:
                mc.request(bank.last_evicted_tag, dram_done, is_write=True)
            if (
                self.obs is not None
                and self.victim_dir is not None
                and bank.last_evicted_tag != -1
            ):
                # The evicted L2 line's victim bits die with it (Fig. 6).
                self.obs.emit(
                    EV_VICTIM_CLEAR, dram_done, f"L2[{part}]",
                    line=bank.last_evicted_tag, set=idx // bank.ways,
                )
            data_time = dram_done

        hint = False
        if self.victim_dir is not None and not is_write:
            hint = self.victim_dir.observe(bank.store, idx, core_id)
            if self.obs is not None:
                self.obs.emit(
                    EV_VICTIM_SET, data_time, f"L2[{part}]",
                    line=line_addr, l1=f"L1[{core_id}]",
                    group=self.victim_dir.group(core_id), hint=hint,
                )
        return data_time, hint

    # ------------------------------------------------------------------
    # Core-facing operations
    # ------------------------------------------------------------------
    def load(self, core_id: int, line_addr: int, now: int) -> int:
        """One read transaction; returns its data-ready time at the core."""
        ports = self._l1_port_free
        port = ports[core_id]
        if now > port:
            port = now
        ports[core_id] = port + 1

        l1, mshr = self._per_core[core_id]
        # Inlined MSHR expiry early-out (the overwhelmingly common case).
        heap = mshr._ready_heap
        if heap and heap[0][0] <= port:
            mshr.expire(port)

        pending = mshr._pending
        entry = pending.get(line_addr)
        if entry is not None:
            # The line is already in flight: merge, complete with the fill.
            # The merge cap is not enforced: past it, merge() returns False
            # and the request still completes with the fill.
            l1.stats.loads += 1
            l1.stats.mshr_merges += 1
            mshr.merge(entry)
            if self.obs is not None:
                self.obs.emit(
                    EV_MSHR_MERGE, port, f"MSHR[{core_id}]",
                    line=line_addr, ready=entry.ready_time,
                )
            return entry.ready_time

        if l1.lookup_fast(line_addr, port) >= 0:
            done = port + self._l1_hit_latency
            self.load_latency_sum += done - now
            self.load_count += 1
            return done

        # Miss: wait for a free MSHR, then walk the lower hierarchy.
        t = port + 1
        if len(pending) >= mshr.capacity:  # inlined MSHRFile.full
            mshr.note_full_stall()
            stall_until = max(t, mshr.earliest_free())
            if self.obs is not None:
                self.obs.emit(
                    EV_MSHR_STALL, t, f"MSHR[{core_id}]",
                    line=line_addr, until=stall_until,
                )
            t = stall_until
            mshr.expire(t)

        part = self._partition(line_addr)
        node = self._num_cores + part
        arrive = self._send(core_id, node, t, self._ctrl_flits, "request")
        data_time, hint = self._l2_access(core_id, line_addr, arrive, False, part)
        resp = self._send(node, core_id, data_time, self._data_flits, "response")

        bypassed = l1.fill_fast(line_addr, resp, hint) < 0
        # Inlined MSHRFile.allocate: the stall logic above guarantees a
        # free entry, and the pending-dict probe at the top of this method
        # rules out duplicates, so the guard raises cannot trigger here.
        pending[line_addr] = MSHREntry(line_addr, resp, bypassed)
        heappush(heap, (resp, line_addr))
        mshr.total_allocations += 1
        occ = len(pending)
        if occ > mshr.peak_occupancy:
            mshr.peak_occupancy = occ
        if self.obs is not None:
            self.obs.emit(
                EV_MSHR_ALLOC, t, f"MSHR[{core_id}]",
                line=line_addr, ready=resp, bypassed=bypassed,
            )
        self.load_latency_sum += resp - now
        self.load_count += 1
        return resp

    def store(self, core_id: int, line_addr: int, now: int) -> int:
        """One write transaction (write-through, non-blocking for the warp).

        Returns the time the write is accepted by the L2 — callers may
        ignore it; it exists so tests can observe write timing.
        """
        ports = self._l1_port_free
        port = ports[core_id]
        if now > port:
            port = now
        ports[core_id] = port + 1

        # Write-through, write-no-allocate L1: update on hit, never fill.
        self.l1s[core_id].lookup_fast(line_addr, port, is_write=True)

        part = self._partition(line_addr)
        arrive = self._send(
            core_id, self._num_cores + part, port + 1, self._data_flits,
            "data_request",
        )
        return self._l2_access(core_id, line_addr, arrive, True, part)[0]

    def atomic(self, core_id: int, line_addr: int, now: int) -> int:
        """One read-modify-write at the partition's Atomic Operation Unit.

        Atomics bypass the L1 entirely (they are performed at the memory
        partition, Section 2.2) and serialize on the per-partition AOU.
        """
        port = max(now, self._l1_port_free[core_id])
        self._l1_port_free[core_id] = port + 1
        part = self._partition(line_addr)

        arrive = self._send(
            core_id, self._num_cores + part, port + 1, self._data_flits,
            "data_request",
        )
        at = max(arrive, self._aou_free[part])
        self._aou_free[part] = at + self.config.aou_occupancy
        data_time, _ = self._l2_access(
            core_id, line_addr, at, True, part, full_line_write=False
        )
        return data_time

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Close out reuse generations in every cache (end of run)."""
        for cache in self.l1s:
            cache.finalize()
        for bank in self.l2_banks:
            bank.finalize()

    def l1_stats(self) -> CacheStats:
        """All per-core L1 statistics merged into one view."""
        merged = CacheStats()
        for cache in self.l1s:
            merged.merge(cache.stats)
        return merged

    def l2_stats(self) -> CacheStats:
        merged = CacheStats()
        for bank in self.l2_banks:
            merged.merge(bank.stats)
        return merged

    @property
    def average_load_latency(self) -> float:
        return self.load_latency_sum / self.load_count if self.load_count else 0.0

    @property
    def dram_requests(self) -> int:
        return sum(mc.total_requests for mc in self.mcs)

    @property
    def dram_row_hit_rate(self) -> float:
        hits = sum(b.row_hits for mc in self.mcs for b in mc.banks)
        total = hits + sum(b.row_misses for mc in self.mcs for b in mc.banks)
        return hits / total if total else 0.0
