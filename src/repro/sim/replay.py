"""Coalesced per-core streams, and the scalar replay oracle over them.

:func:`build_core_streams` flattens a kernel into one coalesced
transaction stream per core.  The access *sequence* is independent of
the cache design (bypassing never changes which addresses a kernel
touches), so the streams are built once and replayed through many
designs by the functional backend (:mod:`repro.sim.functional`).

:func:`replay` is the test oracle, which production code never calls: a
plain scalar walk of the streams through per-core L1s and the banked
L2, one transaction per core per round.  The functional backend runs
every cache-only result and is pinned bit-identical to it by
``tests/test_functional_equivalence.py``.  It also offers a Belady-OPT
L1 (``oracle=True``) and an L1-only mode (``include_l2=False``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Dict, List, Optional, Tuple

from repro.cache.cache import Cache
from repro.cache.policies.base import FillContext
from repro.cache.replacement.belady import NEVER, BeladyPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.core.victim_bits import VictimBitDirectory
from repro.gpu.coalescer import Coalescer
from repro.sim.addressing import AddressMap
from repro.sim.config import GPUConfig
from repro.sim.designs import DesignSpec
from repro.stats.counters import CacheStats
from repro.trace.trace import KernelTrace, OP_ATOM, OP_LOAD, OP_STORE

__all__ = ["build_core_streams", "replay", "ReplayResult", "SCHEDULERS"]

#: One transaction: (line address, is_write).
Transaction = Tuple[int, bool]

#: Warp interleavings understood by :func:`build_core_streams`.
SCHEDULERS = ("lrr", "gto", "two-level")

#: Active-warp window for the two-level interleave (fetch group size).
_TWO_LEVEL_WINDOW = 8


def _emit(op: int, arg, coalescer: Coalescer, stream: List[Transaction]) -> None:
    # ALU / SMEM / BAR / ATOM produce no L1 traffic.
    if op == OP_LOAD:
        for line in coalescer.coalesce(arg):
            stream.append((line, False))
    elif op == OP_STORE:
        for line in coalescer.coalesce(arg):
            stream.append((line, True))


def _interleave_wave(warps, scheduler, coalescer, stream) -> None:
    """Append one wave's transactions in the chosen warp interleave."""
    coalesce = coalescer.coalesce
    append = stream.append
    if scheduler == "gto":
        # Greedy-then-oldest analogue: run each warp to completion,
        # oldest (lowest-numbered) first.
        for warp in warps:
            for op, arg in warp:
                if op == OP_LOAD:
                    for line in coalesce(arg):
                        append((line, False))
                elif op == OP_STORE:
                    for line in coalesce(arg):
                        append((line, True))
        return
    if scheduler == "two-level":
        # Round-robin inside a small active window; a finished warp's
        # slot is backfilled by the next pending warp in arrival order.
        active = list(range(min(_TWO_LEVEL_WINDOW, len(warps))))
        next_warp = len(active)
        pcs = [0] * len(warps)
        while active:
            i = 0
            while i < len(active):
                w = active[i]
                warp = warps[w]
                pc = pcs[w]
                if pc < len(warp):
                    op, arg = warp[pc]
                    pcs[w] = pc + 1
                    _emit(op, arg, coalescer, stream)
                if pcs[w] >= len(warp):
                    if next_warp < len(warps):
                        active[i] = next_warp
                        next_warp += 1
                        i += 1
                    else:
                        active.pop(i)
                else:
                    i += 1
        return
    # "lrr": round-robin one instruction per live warp per pass.  Pass k
    # is row k of the warps zipped together; a finished warp pads its
    # column with None, which the row walk skips.  This default path
    # inlines Coalescer.coalesce (same shift/dedup, minus the per-warp
    # call and statistics bumps — the coalescer object is discarded by
    # build_core_streams, so its counters are unobservable).
    shift = coalescer._shift
    max_lanes = coalescer.max_lanes
    for row in zip_longest(*warps):
        for op, arg in filter(None, row):
            if op == OP_LOAD:
                is_write = False
            elif op == OP_STORE:
                is_write = True
            else:
                continue
            n = len(arg)
            if n > max_lanes:
                raise ValueError(
                    f"warp presented {n} lanes, max is {max_lanes}"
                )
            if n == 1:
                append((arg[0] >> shift, is_write))
                continue
            if not n:
                continue
            lines = [a >> shift for a in arg]
            first = lines[0]
            if lines.count(first) == n:
                append((first, is_write))
            else:
                for line in dict.fromkeys(lines):
                    append((line, is_write))


def build_core_streams(
    trace: KernelTrace,
    config: Optional[GPUConfig] = None,
    scheduler: str = "lrr",
) -> List[List[Transaction]]:
    """Flatten a kernel into one coalesced transaction stream per core.

    CTAs are placed round-robin; each core executes its CTAs in waves of
    ``max_ctas_per_core``, interleaving the wave's warps according to
    ``scheduler`` — the no-timing analogue of the warp scheduler.  Atomics
    are excluded: they bypass the L1 entirely.

    Schedulers: ``"lrr"`` (loose round-robin, one instruction per warp
    per pass — the historical default), ``"gto"`` (greedy-then-oldest:
    each warp runs to completion in order) and ``"two-level"``
    (round-robin within an 8-warp active window).
    """
    if config is None:
        config = GPUConfig()
    if scheduler not in SCHEDULERS:
        raise ValueError(
            f"unknown scheduler {scheduler!r}; expected one of {SCHEDULERS}"
        )
    coalescer = Coalescer(config.line_size, config.simt_width)

    # Round-robin CTA placement.
    per_core_ctas: List[List] = [[] for _ in range(config.num_cores)]
    for i, cta in enumerate(trace.ctas):
        per_core_ctas[i % config.num_cores].append(cta)

    streams: List[List[Transaction]] = []
    for ctas in per_core_ctas:
        stream: List[Transaction] = []
        for wave_start in range(0, len(ctas), config.max_ctas_per_core):
            wave = ctas[wave_start : wave_start + config.max_ctas_per_core]
            # Warps are read-only here; no defensive copies.
            warps = [w for cta in wave for w in cta.warps]
            _interleave_wave(warps, scheduler, coalescer, stream)
        streams.append(stream)
    return streams


def _next_use_chain(stream: List[Transaction]) -> List[int]:
    """For each position, the index of the next access to the same line."""
    next_use = [NEVER] * len(stream)
    last_seen: Dict[int, int] = {}
    for pos in range(len(stream) - 1, -1, -1):
        line = stream[pos][0]
        next_use[pos] = last_seen.get(line, NEVER)
        last_seen[line] = pos
    return next_use


@dataclass
class ReplayResult:
    """Aggregate statistics from a timing-free replay."""

    benchmark: str
    design: str
    l1: CacheStats
    l2: CacheStats
    extras: Dict[str, object] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ReplayResult {self.benchmark}/{self.design}: "
            f"L1 miss={self.l1.miss_rate:.1%}>"
        )


def replay(
    trace: KernelTrace,
    config: Optional[GPUConfig] = None,
    design: Optional[DesignSpec] = None,
    streams: Optional[List[List[Transaction]]] = None,
    oracle: bool = False,
    include_l2: bool = True,
    scheduler: str = "lrr",
    victim_share_factor: int = 1,
) -> ReplayResult:
    """Replay a kernel through the cache hierarchy without timing.

    Args:
        trace: Kernel to replay.
        config: Architectural parameters (geometry only is used).
        design: Cache design; ignored when ``oracle`` is set.
        streams: Pre-built per-core streams (reuse across designs).
        oracle: Replace the L1 replacement policy with Belady OPT.
        include_l2: Model the shared L2 (needed for G-Cache hints).
        scheduler: Warp interleave used when building streams (ignored
            when ``streams`` is given).
        victim_share_factor: ``S_v``, the L1s sharing one victim bit
            (designs with victim-bit hints only).
    """
    if config is None:
        config = GPUConfig()
    if streams is None:
        streams = build_core_streams(trace, config, scheduler=scheduler)

    if oracle:
        l1_policies = [BeladyPolicy() for _ in range(config.num_cores)]
        l1s = [
            Cache(
                f"L1[{i}]",
                config.l1_size,
                config.l1_ways,
                config.line_size,
                replacement=pol,
            )
            for i, pol in enumerate(l1_policies)
        ]
        next_uses = [_next_use_chain(s) for s in streams]
        design_key = "opt"
        uses_victim_bits = False
    else:
        if design is None:
            from repro.sim.designs import make_design

            design = make_design("bs")
        l1_policies = None
        next_uses = None
        l1s = [
            Cache(
                f"L1[{i}]",
                config.l1_size,
                config.l1_ways,
                config.line_size,
                replacement=design.make_l1_replacement(),
                mgmt=design.make_l1_mgmt(),
            )
            for i in range(config.num_cores)
        ]
        design_key = design.key
        uses_victim_bits = design.uses_victim_bits

    l2s: List[Cache] = []
    victim_dir = None
    if include_l2:
        l2s = [
            Cache(
                f"L2[{b}]",
                config.l2_bank_size,
                config.l2_ways,
                config.line_size,
                replacement=LRUPolicy(),
                write_back=True,
                write_allocate=True,
            )
            for b in range(config.num_partitions)
        ]
        if uses_victim_bits:
            victim_dir = VictimBitDirectory(
                config.num_cores, victim_share_factor
            )

    addr_map = AddressMap(config.num_partitions, config.mc_interleave_lines)

    def l2_access(core: int, line: int, now: int, is_write: bool) -> bool:
        """Returns the victim hint for loads; False otherwise."""
        if not include_l2:
            return False
        bank = l2s[addr_map.partition(line)]
        local = addr_map.local(line)
        idx = bank.lookup_fast(local, now, is_write=is_write)
        if idx < 0:
            fill = bank.fill(
                local, now, FillContext(line_addr=local, src_id=core, is_write=is_write)
            )
            idx = fill.set_index * bank.ways + fill.way
        if victim_dir is not None and not is_write:
            return victim_dir.observe(bank.store, idx, core)
        return False

    positions = [0] * len(streams)
    live = sum(1 for s in streams if s)
    now = 0
    while live:
        for core, stream in enumerate(streams):
            pos = positions[core]
            if pos >= len(stream):
                continue
            line, is_write = stream[pos]
            positions[core] += 1
            if positions[core] >= len(stream):
                live -= 1
            now += 1
            l1 = l1s[core]
            if oracle:
                l1_policies[core].next_use_hint = next_uses[core][pos]
            if is_write:
                l1.lookup(line, now, is_write=True)
                l2_access(core, line, now, is_write=True)
            else:
                res = l1.lookup(line, now)
                if not res.hit:
                    hint = l2_access(core, line, now, is_write=False)
                    l1.fill(
                        line,
                        now,
                        FillContext(line_addr=line, victim_hint=hint, src_id=core),
                    )

    merged_l1 = CacheStats()
    for c in l1s:
        c.finalize()
        merged_l1.merge(c.stats)
    merged_l2 = CacheStats()
    for c in l2s:
        c.finalize()
        merged_l2.merge(c.stats)

    extras: Dict[str, object] = {}
    if victim_dir is not None:
        extras["contentions_detected"] = victim_dir.contentions_detected
    return ReplayResult(
        benchmark=trace.name,
        design=design_key,
        l1=merged_l1,
        l2=merged_l2,
        extras=extras,
    )
