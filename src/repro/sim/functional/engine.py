"""The vectorized functional replay engine.

Bit-identical (by contract and by ``tests/test_functional_equivalence.py``)
to the scalar oracle :func:`repro.sim.replay.replay`, at a fraction of the
cost.  The speed comes from three observations about the oracle:

1. Its global interleave is a pure function of the per-core stream
   lengths, so every transaction's global time is precomputed up front
   (:mod:`repro.sim.functional.streams`).
2. L1 state, including each core's management policy, is core-private.
   The L1 is write-through no-allocate, so store misses leave it
   untouched and store hits restamp exactly like load hits.
3. The only globally-ordered state is the shared L2 (tags, recency,
   dirty bits, victim bits), and it is all **per-(bank, set)**: the
   observable order is per-set order, not global order.

:meth:`FunctionalEngine.run` picks one of two routes on a single fact:
does L2 state feed back into L1?

* **No feedback** (no victim-bit hints and no periodic tick: bs, bs-s,
  dbp and the PDP family).  L1 evolution is then a pure function of the
  core's own stream, so each core's L1 replays start to finish on its
  own, and the entire L2 event stream follows as batched per-set bursts
  with vectorized victim selection (:mod:`repro.sim.functional.bursts`).
  Null-management designs replay L1 as a burst too; managed designs
  walk it scalar, calling the policy's hooks with the precomputed
  ``now`` of each access.  That makes the walk exact even for policies
  that act on every access: PDP's per-set clocks, PDCs and sampler all
  live in the core's own policy object, and its victim order reads the
  ``fill_time`` the walk stores.
* **Feedback** (gc, gc-m: a hint changes the fill, which changes the
  core's future hits).  A hint is a *second* L2 request for a line from
  the same L1, or the same victim-bit share group (paper Section 4.2),
  so only a load whose group loaded the line before in this run, or
  whose line starts the run in L2 with the group's bit set, can carry
  one.  Only those *hint-capable* load misses resolve in global order,
  through a min-heap.  Everything else is folded into the per-core
  walks: hits, stores, and the other load misses, which fill inline
  with ``hint=False`` (they could never see a hint, whenever their L2
  access runs).  The L2 effects of stores and inline misses are parked
  in per-(bank, set) buffers, flushed in time order just before the
  next same-set heap miss, and the rest replay in one :func:`l2_burst`
  when the heap drains.  An event's time is always below every heap
  time when its core walks past it, so the deferral never reorders
  observable same-set state.  The walks skip the hit hooks, so this
  route requires a batchable policy.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left
from collections import Counter
from time import perf_counter
from typing import List, Optional

import numpy as np

from repro.cache.policies.base import ManagementPolicy
from repro.sim.addressing import AddressMap
from repro.sim.config import GPUConfig
from repro.sim.designs import DesignSpec, make_design
from repro.sim.functional.bursts import l1_burst, l2_burst
from repro.sim.functional.replacement import (
    FunctionalUnsupportedError,
    replacement_model,
)
from repro.sim.functional.streams import CoreArrays, build_core_arrays
from repro.sim.replay import SCHEDULERS, ReplayResult, build_core_streams
from repro.stats.counters import CacheStats
from repro.trace.trace import KernelTrace

__all__ = [
    "FunctionalEngine",
    "FunctionalUnsupportedError",
    "build_run_arrays",
    "functional_replay",
    "stream_scheduler",
]


class _L1State:
    """Structure-of-arrays L1 state (FlatTagStore's flat layout).

    It carries the planes management policies are written against (see
    :mod:`repro.cache.policies.base`), so each core's policy object
    attaches to it directly.  All state lives in plain Python lists:
    scalar element access on a list is several times cheaper than NumPy
    item extraction, and the walks are scalar.
    """

    __slots__ = (
        "num_sets",
        "ways",
        "tag",
        "stamp",
        "rrpv",
        "use_count",
        "fill_time",
        "pd_counter",
        "valid_count",
    )

    def __init__(self, num_sets: int, ways: int) -> None:
        n = num_sets * ways
        self.num_sets = num_sets
        self.ways = ways
        self.tag = [-1] * n
        self.stamp = [0] * n
        self.rrpv = [0] * n
        self.use_count = [0] * n
        self.fill_time = [0] * n
        self.pd_counter = [0] * n
        self.valid_count = [0] * num_sets


class _L2Bank:
    """One L2 bank: scalar-only state (plain Python lists)."""

    __slots__ = (
        "ways",
        "tag",
        "stamp",
        "dirty",
        "use",
        "vb",
        "valid_count",
        "tick",
    )

    def __init__(self, num_sets: int, ways: int) -> None:
        n = num_sets * ways
        self.ways = ways
        self.tag = [-1] * n
        self.stamp = [0] * n
        self.dirty = bytearray(n)
        self.use = [0] * n
        self.vb = [0] * n
        self.valid_count = [0] * num_sets
        self.tick = 0


class FunctionalEngine:
    """Replays kernel traces through structure-of-arrays cache state.

    Persistent across :meth:`run` calls, so a warm-cache kernel sequence
    behaves like the oracle driven over the same cache objects.  Call
    :meth:`result` to snapshot merged statistics (resident generations
    are counted into the snapshot without disturbing live state, so the
    engine can keep running afterwards).

    With ``profile=True`` the engine accumulates a wall-clock breakdown
    in :attr:`phase_seconds` — ``"burst"`` (vectorized per-set L1/L2
    rounds, including the miss heap's drain-end burst) and
    ``"scalar_event"`` (everything else: walks, heap events, parked-event
    flushes and the miss heap's hint-capable pre-pass) — so the
    remaining scalar residue is measurable.  ``"probe"`` is always 0.0;
    it stays because profilers read the key set by name.
    """

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        design: Optional[DesignSpec] = None,
        victim_share_factor: int = 1,
        scheduler: str = "lrr",
        profile: bool = False,
    ) -> None:
        self.config = config if config is not None else GPUConfig()
        self.design = design if design is not None else make_design("bs")
        self.scheduler = scheduler
        cfg = self.config
        self.l1 = [
            _L1State(cfg.l1_sets, cfg.l1_ways) for _ in range(cfg.num_cores)
        ]
        # One real management policy per core, attached to that core's
        # L1 planes, just as the timing memory system builds one per L1.
        repls = [self.design.make_l1_replacement() for _ in self.l1]
        self.repl = replacement_model(repls[0], self.design.key)
        self.mgmt: List[ManagementPolicy] = [
            self.design.make_l1_mgmt() for _ in self.l1
        ]
        for c, policy in enumerate(self.mgmt):
            policy.attach(self.l1[c], repls[c], f"L1[{c}]")
        policy = self.mgmt[0]
        self._lru = self.repl.kind == "lru"
        # Which hooks the policy overrides; the replay loops skip the
        # Python call entirely for base-class no-ops.
        has = {
            hook: getattr(type(policy), hook)
            is not getattr(ManagementPolicy, hook)
            for hook in (
                "on_hit", "on_miss", "fill_decision", "on_bypass",
                "choose_victim", "on_evict", "on_insert",
            )
        }
        self._has_hit = has["on_hit"]
        self._has_miss = has["on_miss"]
        self._has_fill = has["fill_decision"]
        self._has_bypass = has["on_bypass"]
        self._has_choose = has["choose_victim"]
        self._has_evict = has["on_evict"]
        self._has_insert = has["on_insert"]
        self._tick_interval = max(0, policy.tick_interval)
        self._null_mgmt = not self._tick_interval and not any(has.values())
        # Victim-bit hints and periodic ticks are the only ways L2 state
        # or the global clock reach back into L1 decisions.
        self._feedback = self.design.uses_victim_bits or bool(
            self._tick_interval
        )
        if self._feedback and not policy.batchable:
            raise FunctionalUnsupportedError(
                f"design {self.design.key!r}: a policy with victim-bit "
                f"hints or a periodic tick must be batchable "
                f"({type(policy).__name__} is not)"
            )
        self._repl_st = [self.repl.new_core() for _ in range(cfg.num_cores)]
        self._tick_left = [self._tick_interval] * cfg.num_cores
        self.l2 = [
            _L2Bank(cfg.l2_bank_sets, cfg.l2_ways)
            for _ in range(cfg.num_partitions)
        ]
        self._vd_masks: Optional[List[int]] = None
        self._share = victim_share_factor
        if self.design.uses_victim_bits:
            if victim_share_factor < 1 or (
                cfg.num_cores % victim_share_factor
            ):
                raise ValueError(
                    f"share_factor {victim_share_factor} must divide "
                    f"the L1 count {cfg.num_cores}"
                )
            self._vd_masks = [
                1 << (i // victim_share_factor)
                for i in range(cfg.num_cores)
            ]
            # NumPy dtype of victim-bit masks: int64 while every group's
            # bit fits, else Python ints.
            self._vb_dtype = (
                np.int64 if cfg.num_cores // victim_share_factor < 64
                else object
            )
        self.addr_map = AddressMap(cfg.num_partitions, cfg.mc_interleave_lines)
        self.phase_seconds = {"burst": 0.0, "probe": 0.0, "scalar_event": 0.0}
        self._prof = self.phase_seconds if profile else None
        # Merged counters (per-core/per-bank breakdown is never reported).
        self.l1_loads = 0
        self.l1_stores = 0
        self.l1_load_hits = 0
        self.l1_store_hits = 0
        self.l1_fills = 0
        self.l1_bypasses = 0
        self.l1_evictions = 0
        self.l1_reuse: Counter = Counter()
        self.l2_loads = 0
        self.l2_stores = 0
        self.l2_load_hits = 0
        self.l2_store_hits = 0
        self.l2_fills = 0
        self.l2_evictions = 0
        self.l2_writebacks = 0
        self.l2_reuse: Counter = Counter()
        self.contentions_detected = 0
        self.instructions = 0
        self.transactions = 0
        self.kernels: List[str] = []

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(self, trace: KernelTrace, streams=None, arrays=None) -> None:
        """Replay one kernel, continuing from the current cache state.

        ``streams`` (from :func:`build_core_streams`) and ``arrays``
        (from :func:`~repro.sim.functional.streams.build_core_arrays`)
        are design-independent, so sweeps replaying one trace through
        many designs can prepare them once.  Prebuilt ``arrays`` carry
        absolute transaction times and are only valid on a cold engine.
        """
        if arrays is not None:
            if self.transactions:
                raise ValueError(
                    "prebuilt arrays carry kernel-start transaction "
                    "times; they cannot continue a warm engine"
                )
        else:
            arrays = build_run_arrays(
                trace,
                self.config,
                self.scheduler,
                streams=streams,
                addr_map=self.addr_map,
                now_offset=self.transactions,
            )
        if self._feedback:
            self._run_missheap(arrays)
        else:
            self._run_decoupled(arrays)
        self.transactions += sum(a.n for a in arrays)
        self.instructions += trace.instruction_count()
        self.kernels.append(trace.name)

    # ------------------------------------------------------------------
    # No-feedback route: per-core L1 replay, then one batched per-set L2
    # burst.
    # ------------------------------------------------------------------
    def _run_decoupled(self, arrays) -> None:
        """Replay without any global ordering structure.

        Valid when the design raises no victim-bit hints and has no
        periodic tick: L1 evolution is then a pure function of the
        core-private stream (each core's policy is its own and sees the
        precomputed ``now`` of every access), and the L2 event stream is
        order-observable only within each (bank, set) — exactly what the
        burst kernel preserves.
        """
        if self._null_mgmt:
            self._run_decoupled_burst(arrays)
            return
        prof = self._prof
        if prof is not None:
            t0 = perf_counter()
        ev_now: List[np.ndarray] = []
        ev_part: List[np.ndarray] = []
        ev_local: List[np.ndarray] = []
        ev_set2: List[np.ndarray] = []
        ev_write: List[np.ndarray] = []
        for c in range(len(arrays)):
            A = arrays[c]
            A.ensure_scalar_l1()
            A.ensure_times()
            ev: List[int] = []
            self._walk_core(c, A, ev)
            if ev:
                A.ensure_l1()
                A.ensure_l2()
                ep = np.array(ev, dtype=np.int64)
                ev_now.append(A.now[ep])
                ev_part.append(A.part[ep])
                ev_local.append(A.local[ep])
                ev_set2.append(A.set2[ep])
                ev_write.append(A.write[ep])
        if prof is not None:
            prof["scalar_event"] += perf_counter() - t0
        if not ev_now:
            return
        if prof is not None:
            t1 = perf_counter()
        self._l2_burst(
            np.concatenate(ev_now),
            np.concatenate(ev_part),
            np.concatenate(ev_local),
            np.concatenate(ev_set2),
            np.concatenate(ev_write),
        )
        if prof is not None:
            prof["burst"] += perf_counter() - t1

    def _run_decoupled_burst(self, arrays) -> None:
        """Null-management fast path (bs, bs-s): no scalar L1 at all.

        With no management hooks and no tick, L1 behaviour is a pure
        per-(core, set) function of the stream, so the whole L1 replay
        runs as one :func:`l1_burst` over every core's concatenated
        columns, and the events it emits feed :func:`l2_burst` directly.
        """
        prof = self._prof
        if prof is not None:
            t0 = perf_counter()
        S1 = self.config.l1_sets
        for A in arrays:
            A.ensure_l1()
        group = np.concatenate(
            [A.set1 + c * S1 for c, A in enumerate(arrays)]
        )
        line = np.concatenate([A.line for A in arrays])
        write = np.concatenate([A.write for A in arrays])
        (
            loads,
            load_hits,
            stores,
            store_hits,
            fills,
            evictions,
            ev,
        ) = l1_burst(
            self.l1,
            S1,
            self.repl.kind,
            self.repl.max_rrpv,
            self.repl.insertion_rrpv,
            self._repl_st,
            group,
            line,
            write,
            self.l1_reuse,
        )
        self.l1_loads += loads
        self.l1_load_hits += load_hits
        self.l1_stores += stores
        self.l1_store_hits += store_hits
        self.l1_fills += fills
        self.l1_evictions += evictions
        if ev.size:
            for A in arrays:
                A.ensure_l2()
            self._l2_burst(
                np.concatenate([A.now for A in arrays])[ev],
                np.concatenate([A.part for A in arrays])[ev],
                np.concatenate([A.local for A in arrays])[ev],
                np.concatenate([A.set2 for A in arrays])[ev],
                write[ev],
            )
        if prof is not None:
            prof["burst"] += perf_counter() - t0

    def _walk_core(self, c: int, A, ev: List[int]) -> None:
        """Sequential start-to-finish replay of one core's L1.

        Every access reaches the policy's hooks in the oracle's order
        with its precomputed ``now``; load misses fill immediately with
        ``hint=False``.  Every L2 event's stream position (all stores +
        all load misses) is appended to ``ev``, unordered — the burst
        kernel re-sorts per (bank, set) by precomputed time.
        """
        l1 = self.l1[c]
        ways = l1.ways
        tag = l1.tag
        use = l1.use_count
        stamp = l1.stamp
        rrpv = l1.rrpv
        fill_time = l1.fill_time
        vc_l = l1.valid_count
        line_l = A.line_l
        write_l = A.write_l
        set1_l = A.set1_l
        now_l = A.now_l
        n = A.n
        lru = self._lru
        rst = self._repl_st[c]
        has_hit = self._has_hit
        has_miss = self._has_miss
        has_fill = self._has_fill
        has_bypass = self._has_bypass
        has_choose = self._has_choose
        has_evict = self._has_evict
        has_insert = self._has_insert
        insertion_rrpv = self.repl.insertion_rrpv
        select_victim = self.repl.select_victim
        policy = self.mgmt[c]
        on_hit = policy.on_hit
        on_miss = policy.on_miss
        fill_decision = policy.fill_decision
        on_bypass = policy.on_bypass
        choose_victim = policy.choose_victim
        on_evict = policy.on_evict
        on_insert = policy.on_insert
        reuse = self.l1_reuse
        append = ev.append
        loads = stores = load_hits = store_hits = 0
        fills = bypasses = evictions = 0
        pos = 0
        while pos < n:
            line = line_l[pos]
            set_index = set1_l[pos]
            base = set_index * ways
            seg = tag[base : base + ways]
            if line in seg:
                idx = base + seg.index(line)
                use[idx] += 1
                if lru:
                    t = rst[0] + 1
                    rst[0] = t
                    stamp[idx] = t
                else:
                    rrpv[idx] = 0
                if has_hit:
                    on_hit(set_index, idx, now_l[pos])
                if write_l[pos]:
                    stores += 1
                    store_hits += 1
                    append(pos)
                else:
                    loads += 1
                    load_hits += 1
                pos += 1
                continue
            if has_miss:
                on_miss(set_index, now_l[pos])
            if write_l[pos]:
                # Write-through no-allocate: store misses skip L1 state.
                stores += 1
                append(pos)
                pos += 1
                continue
            # Load miss: fill inline (hints never fire on this route).
            now = now_l[pos]
            loads += 1
            append(pos)
            if has_fill and fill_decision(set_index, line, False, now):
                bypasses += 1
                if has_bypass:
                    on_bypass(set_index, now)
            else:
                vcv = vc_l[set_index]
                if vcv < ways:
                    way = vcv
                    vc_l[set_index] = vcv + 1
                else:
                    way = choose_victim(set_index, now) if has_choose else None
                    if way is None:
                        if lru:
                            sseg = stamp[base : base + ways]
                            way = sseg.index(min(sseg))
                        else:
                            way = select_victim(rst, l1, base, base + ways)
                    idx = base + way
                    evictions += 1
                    reuse[use[idx]] += 1
                    if has_evict:
                        on_evict(idx, now)
                idx = base + way
                tag[idx] = line
                use[idx] = 0
                fill_time[idx] = now
                fills += 1
                if lru:
                    t = rst[0] + 1
                    rst[0] = t
                    stamp[idx] = t
                else:
                    rrpv[idx] = insertion_rrpv
                if has_insert:
                    on_insert(idx, False, now)
            pos += 1
        self.l1_loads += loads
        self.l1_stores += stores
        self.l1_load_hits += load_hits
        self.l1_store_hits += store_hits
        self.l1_fills += fills
        self.l1_bypasses += bypasses
        self.l1_evictions += evictions

    # ------------------------------------------------------------------
    # Feedback route (gc, gc-m): hint-capable load misses take the heap;
    # every other L2 event parks per (bank, set).
    # ------------------------------------------------------------------
    def _run_missheap(self, arrays) -> None:
        for A in arrays:
            A.ensure_l1()
            A.ensure_scalar_l1()
            A.ensure_times()
            A.ensure_scalar_l2()
        prof = self._prof
        if prof is not None:
            t0 = perf_counter()
        parked = self._drain_missheap(arrays, self._hint_capable(arrays))
        if prof is not None:
            t1 = perf_counter()
            prof["scalar_event"] += t1 - t0
        self._burst_parked(arrays, parked)
        if prof is not None:
            prof["burst"] += perf_counter() - t1

    def _hint_capable(self, arrays) -> List[bytearray]:
        """Per-core flags, 1 at each load that may receive a victim hint.

        A hint is the requester group's victim bit found already set on
        the L2 line: a *second* L2 request from the same L1 (or share
        group) within the line's L2 generation (paper Section 4.2).  A
        load can therefore carry one only if its group loaded the line
        earlier in this run, or if the line sits in L2 at run start with
        the group's bit set (a warm engine).  Every other load is its
        group's first to the line, and its hint is ``False`` however its
        L2 access interleaves with other cores'.  The test counts L1
        hits as loads too, so it flags a superset of the second
        requests: that costs heap traffic, never exactness.
        """
        if self._vd_masks is None:
            # A tick alone puts a design on this route; no load hints.
            return [bytearray(A.n) for A in arrays]
        share = self._share
        warm = any(any(b.vb) for b in self.l2)
        if warm:
            # Resident lines with any victim bit set, keyed like the
            # loads below: `local * P + bank`.
            P = len(self.l2)
            tag = np.array([b.tag for b in self.l2], dtype=np.int64)
            vb = np.array([b.vb for b in self.l2], dtype=self._vb_dtype)
            keep = vb != 0
            key = (tag * P + np.arange(P)[:, None])[keep]
            srt = np.argsort(key)
            key = key[srt]
            bits = vb[keep][srt]
        out = []
        # One share group at a time keeps the temporaries small.
        for g in range(len(arrays) // share):
            members = arrays[g * share : (g + 1) * share]
            ld = [np.flatnonzero(~A.write) for A in members]
            line = np.concatenate([A.line[p] for A, p in zip(members, ld)])
            flag = np.zeros(line.size, dtype=np.bool_)
            if line.size:
                # Loads of the group's line in time order; all but the
                # first are hint-capable.
                now = np.concatenate([A.now[p] for A, p in zip(members, ld)])
                order = np.lexsort((now, line))
                sl = line[order]
                first = np.empty(order.size, dtype=np.bool_)
                first[0] = True
                np.not_equal(sl[1:], sl[:-1], out=first[1:])
                flag[order[~first]] = True
                if warm:
                    # A first load whose line is resident with the
                    # group's bit set is hint-capable too.
                    fo = order[first]
                    q = (
                        np.concatenate(
                            [A.local[p] for A, p in zip(members, ld)]
                        )[fo] * P
                        + np.concatenate(
                            [A.part[p] for A, p in zip(members, ld)]
                        )[fo]
                    )
                    i = np.minimum(np.searchsorted(key, q), key.size - 1)
                    flag[fo] = (key[i] == q) & ((bits[i] >> g) & 1 != 0)
            o = 0
            for A, p in zip(members, ld):
                f = np.zeros(A.n, dtype=np.uint8)
                f[p] = flag[o : o + p.size]
                o += p.size
                out.append(bytearray(f))
        return out

    def _drain_missheap(self, arrays, hint_capable) -> List[array]:
        """Event loop whose heap carries **hint-capable load misses only**.

        Each core walks inline through its hits, stores and the load
        misses that cannot carry a victim hint (``hint_capable`` is 0:
        the first load of the line from the core's share group, see
        :meth:`_hint_capable`), and stops at its next hint-capable load
        miss, which re-arms it in the heap.  The heap starts with one
        walk-only entry per core at time -1 (below every transaction
        time), so that same walk also reaches each core's first stop.

        L1 state is core-private, so a walk may run ahead of other
        cores: the inline misses fill with ``hint=False`` through the
        same hooks the heap calls, and due ticks fire before each of
        them.  Their L2 loads, and every store's L2 write, are parked
        in per-(bank, set) buffers as ``now * num_cores + core`` and
        flushed oldest first just before a same-set hint-capable miss
        runs its L2 access.  That keeps the oracle's per-set order: a
        popped miss holds the minimum heap time, and every other core
        has walked past (and therefore parked) all its events below it.
        Across sets, order is unobservable.  Returns the events still
        parked at drain end; :meth:`_burst_parked` replays them.
        """
        C = len(arrays)
        # Sorted, so already a valid heap.
        heap: List = [(-1, c) for c in range(C)]
        push = heapq.heappush
        pop = heapq.heappop
        pos_l = [0] * C
        has_fill = self._has_fill
        has_bypass = self._has_bypass
        has_choose = self._has_choose
        has_evict = self._has_evict
        has_insert = self._has_insert
        tick_interval = self._tick_interval
        tick_left = self._tick_left
        tick_run = self._tick_run
        policies = self.mgmt
        repl_st = self._repl_st
        l1s = self.l1
        vd_masks = self._vd_masks or [0] * C
        lru = self._lru
        insertion_rrpv = self.repl.insertion_rrpv
        max_rrpv = self.repl.max_rrpv
        # Declared no-op fill path (ManagementPolicy.fill_gate_switches):
        # a hint-free fill into a set whose switch byte is 0 never
        # bypasses, so the call is skipped.
        fill_gate = has_fill and policies[0].fill_gate_switches
        insert_skip_cold = policies[0].insert_skip_cold
        flush = self._flush_parked
        S2 = self.config.l2_bank_sets
        l1_reuse = self.l1_reuse
        l2_reuse = self.l2_reuse
        # One buffer per (bank, set), indexed by `part * S2 + set2`.
        parked = [array("q") for _ in range(len(self.l2) * S2)]
        parked_cols = [
            (A.now_l, A.local_l, A.write_l, vd_masks[c])
            for c, A in enumerate(arrays)
        ]
        l1_store_hits = 0
        l1_fills = l1_bypasses = l1_evictions = 0
        l2_loads = l2_load_hits = l2_fills = 0
        l2_evictions = l2_writebacks = 0
        contentions = 0

        # One tuple per core / per bank bundling every hot attribute; a
        # single indexed load + unpack per event replaces ~25 attribute
        # lookups through __slots__ descriptors.  All bundled objects are
        # mutated in place, so the bindings stay valid for the whole
        # drain (`bank.tick` is a plain int and stays an attribute).
        core_cols = [
            (
                A.line_l, A.write_l, A.set1_l, A.now_l, A.part_l,
                A.local_l, A.set2_l, A.n, hint_capable[c], vd_masks[c],
                l1s[c].tag, l1s[c].use_count, l1s[c].stamp, l1s[c].rrpv,
                l1s[c].valid_count, l1s[c].ways, repl_st[c], policies[c],
                policies[c].switches.bits if fill_gate else None,
            )
            for c, A in enumerate(arrays)
        ]
        bank_cols = [
            (b, b.tag, b.stamp, b.use, b.dirty, b.vb, b.valid_count,
             b.ways)
            for b in self.l2
        ]

        while heap:
            now, c = pop(heap)
            (line_l, write_l, set1_l, now_l, part_l, local_l, set2_l,
             n, capable, mask, tag, use, stamp, rrpv, l1_vc, ways, rst,
             policy, gate) = core_cols[c]
            p = pos_l[c]
            # A real time marks this core's turn: the access at p is the
            # hint-capable load miss its last walk stopped at.
            due = now >= 0
            # First access not yet counted down toward the next tick.
            run = p
            while p < n:
                line = line_l[p]
                set_index = set1_l[p]
                base = set_index * ways
                seg = tag[base : base + ways]
                if line in seg:
                    idx = base + seg.index(line)
                    use[idx] += 1
                    if lru:
                        t = rst[0] + 1
                        rst[0] = t
                        stamp[idx] = t
                    else:
                        rrpv[idx] = 0
                    if not write_l[p]:
                        p += 1
                        continue
                    l1_store_hits += 1
                elif write_l[p]:
                    # Write-through no-allocate: store misses skip L1.
                    pass
                elif capable[p] and not due:
                    break
                else:
                    # Load miss: the due hint-capable one runs its L2
                    # access now; any other parks it (no hint possible).
                    now = now_l[p]
                    part = part_l[p]
                    bset = set2_l[p]
                    hint = False
                    if due:
                        due = False
                        (bank, btag, bstamp_l, buse, bdirty, bvb, bvc_l,
                         bways) = bank_cols[part]
                        buf = parked[part * S2 + bset]
                        if buf:
                            flush(bank, bset, buf, now, parked_cols)
                        bbase = bset * bways
                        l2_loads += 1
                        bseg = btag[bbase : bbase + bways]
                        local = local_l[p]
                        if local in bseg:
                            bidx = bbase + bseg.index(local)
                            buse[bidx] += 1
                            l2_load_hits += 1
                            bank.tick += 1
                            bstamp_l[bidx] = bank.tick
                        else:
                            vc = bvc_l[bset]
                            if vc < bways:
                                bidx = bbase + vc
                                bvc_l[bset] = vc + 1
                            else:
                                bstamp = bstamp_l[bbase : bbase + bways]
                                bidx = bbase + bstamp.index(min(bstamp))
                                l2_evictions += 1
                                if bdirty[bidx]:
                                    l2_writebacks += 1
                                l2_reuse[buse[bidx]] += 1
                            btag[bidx] = local
                            bdirty[bidx] = 0
                            buse[bidx] = 0
                            bvb[bidx] = 0
                            l2_fills += 1
                            bank.tick += 1
                            bstamp_l[bidx] = bank.tick
                        prev = bvb[bidx]
                        bvb[bidx] = prev | mask
                        if prev & mask:
                            contentions += 1
                            hint = True
                    else:
                        parked[part * S2 + bset].append(now * C + c)
                    if tick_interval:
                        k = p + 1 - run
                        if k >= tick_left[c]:
                            # Ticks due by this access fire before its
                            # hooks.
                            tick_run(c, k, now)
                            run = p + 1
                    # L1 fill.
                    if (
                        has_fill
                        and (hint or gate is None or gate[set_index])
                        and policy.fill_decision(set_index, line, hint, now)
                    ):
                        l1_bypasses += 1
                        if has_bypass:
                            policy.on_bypass(set_index, now)
                    else:
                        vc = l1_vc[set_index]
                        if vc < ways:
                            way = vc
                            l1_vc[set_index] = vc + 1
                        else:
                            way = (
                                policy.choose_victim(set_index, now)
                                if has_choose
                                else None
                            )
                            if way is None:
                                if lru:
                                    sseg = stamp[base : base + ways]
                                    way = sseg.index(min(sseg))
                                else:
                                    # Inline of ReplacementModel
                                    # .select_victim (SRRIP): age to
                                    # max, take the first line that
                                    # held the pre-aging maximum.
                                    rseg = rrpv[base : base + ways]
                                    top_val = max(rseg)
                                    if top_val < max_rrpv:
                                        delta = max_rrpv - top_val
                                        rrpv[base : base + ways] = [
                                            v + delta for v in rseg
                                        ]
                                    way = rseg.index(top_val)
                            idx = base + way
                            l1_evictions += 1
                            l1_reuse[use[idx]] += 1
                            if has_evict:
                                policy.on_evict(idx, now)
                        idx = base + way
                        tag[idx] = line
                        use[idx] = 0
                        # fill_time is not maintained here: only
                        # non-batchable policies read it, and the
                        # constructor keeps them off this route.
                        l1_fills += 1
                        if lru:
                            rst[0] += 1
                            stamp[idx] = rst[0]
                        else:
                            rrpv[idx] = insertion_rrpv
                        if has_insert and (hint or not insert_skip_cold):
                            policy.on_insert(idx, hint, now)
                    p += 1
                    continue
                # A store, hit or miss: park its L2 write.
                parked[part_l[p] * S2 + set2_l[p]].append(now_l[p] * C + c)
                p += 1
            pos_l[c] = p
            if tick_interval and p > run:
                tick_run(c, p - run, now_l[p - 1])
            if p < n:
                push(heap, (now_l[p], c))

        # Every access was walked once, and a load hit is a load that
        # neither filled nor bypassed.
        stores = sum(int(np.count_nonzero(A.write)) for A in arrays)
        loads = sum(A.n for A in arrays) - stores
        self.l1_loads += loads
        self.l1_load_hits += loads - l1_fills - l1_bypasses
        self.l1_stores += stores
        self.l1_store_hits += l1_store_hits
        self.l1_fills += l1_fills
        self.l1_bypasses += l1_bypasses
        self.l1_evictions += l1_evictions
        self.l2_loads += l2_loads
        self.l2_load_hits += l2_load_hits
        self.l2_fills += l2_fills
        self.l2_evictions += l2_evictions
        self.l2_writebacks += l2_writebacks
        self.contentions_detected += contentions
        return parked

    def _tick_run(self, c: int, accesses: int, now: int) -> None:
        """Count ``accesses`` walked accesses down core ``c``'s tick.

        Every tick that falls inside them is delivered now, with ``now``
        (used only for tracing) the time of the last one.  That is exact
        for batchable policies as long as the walk calls it before each
        hooked access a tick is due by: hits and stores call no hook, so
        nothing else can observe when a tick fired.
        """
        left = self._tick_left[c]
        if accesses < left:
            self._tick_left[c] = left - accesses
            return
        interval = self._tick_interval
        over = accesses - left
        self._tick_left[c] = interval - over % interval
        on_tick = self.mgmt[c].on_tick
        for _ in range(1 + over // interval):
            on_tick(now)

    def _flush_parked(
        self, bank: _L2Bank, bset: int, buf: array, upto: int, cols: list
    ) -> None:
        """Apply one (bank, set)'s parked events before ``upto``, oldest
        first.

        ``buf`` holds ``now * num_cores + core`` codes (unsorted: it
        merges one sorted run per core); times are globally unique, so
        the order is total.  ``cols[core]`` is that core's ``(now_l,
        local_l, write_l, mask)``.  A parked load is its share group's
        first load of the line (:meth:`_hint_capable`).  A hint needs a
        second request from the group (paper Section 4.2), so the
        group's victim bit is clear and the load only ORs its mask in;
        its L1 fill already ran, with ``hint=False``, in its core's
        walk.
        """
        C = len(cols)
        events = sorted(buf)
        k = bisect_left(events, upto * C)
        if not k:
            return
        del buf[:]
        buf.extend(events[k:])
        ways = bank.ways
        base = bset * ways
        tag = bank.tag
        use = bank.use
        stamp = bank.stamp
        dirty = bank.dirty
        vb = bank.vb
        vc_l = bank.valid_count
        tick = bank.tick
        l2_reuse = self.l2_reuse
        stores = store_hits = load_hits = 0
        fills = evictions = writebacks = 0
        for code in events[:k]:
            now, c = divmod(code, C)
            now_l, local_l, write_l, mask = cols[c]
            p = bisect_left(now_l, now)
            local = local_l[p]
            write = write_l[p]
            if write:
                stores += 1
            seg = tag[base : base + ways]
            tick += 1
            if local in seg:
                i = base + seg.index(local)
                use[i] += 1
                stamp[i] = tick
                if write:
                    store_hits += 1
                    dirty[i] = 1
                else:
                    load_hits += 1
                    vb[i] |= mask
            else:
                vcv = vc_l[bset]
                if vcv < ways:
                    i = base + vcv
                    vc_l[bset] = vcv + 1
                else:
                    sseg = stamp[base : base + ways]
                    i = base + sseg.index(min(sseg))
                    evictions += 1
                    if dirty[i]:
                        writebacks += 1
                    l2_reuse[use[i]] += 1
                tag[i] = local
                use[i] = 0
                stamp[i] = tick
                if write:
                    dirty[i] = 1
                    vb[i] = 0
                else:
                    dirty[i] = 0
                    vb[i] = mask
                fills += 1
        bank.tick = tick
        self.l2_loads += k - stores
        self.l2_stores += stores
        self.l2_load_hits += load_hits
        self.l2_store_hits += store_hits
        self.l2_fills += fills
        self.l2_evictions += evictions
        self.l2_writebacks += writebacks

    def _burst_parked(self, arrays, parked: List[array]) -> None:
        """Replay the events still parked at drain end in one
        :func:`l2_burst`.

        Each is later than every hint-capable miss of its (bank, set),
        so the burst's per-set order is the oracle's.  None can meet a
        victim bit of its own group: the burst's contention count is
        checked to be 0.
        """
        code = np.frombuffer(b"".join(parked), dtype=np.int64)
        if not code.size:
            return
        C = len(arrays)
        core = code % C
        part = np.empty_like(code)
        local = np.empty_like(code)
        set2 = np.empty_like(code)
        write = np.empty(code.size, dtype=np.bool_)
        for c, A in enumerate(arrays):
            sel = np.flatnonzero(core == c)
            if sel.size:
                p = np.searchsorted(A.now, code[sel] // C)
                part[sel] = A.part[p]
                local[sel] = A.local[p]
                set2[sel] = A.set2[p]
                write[sel] = A.write[p]
        mask = (
            np.array(self._vd_masks, dtype=self._vb_dtype)[core]
            if self._vd_masks is not None
            else None
        )
        # The codes sort like the event times, which is all the burst
        # reads of them.
        if self._l2_burst(code, part, local, set2, write, mask):
            raise RuntimeError(
                "a parked L2 load met its own victim bit: the "
                "hint-capable test missed a second request"
            )

    def _l2_burst(self, now, part, local, set2, write, mask=None) -> int:
        """Run :func:`l2_burst` on the banks and add up its counters;
        returns its contention count."""
        (
            loads,
            stores,
            load_hits,
            store_hits,
            fills,
            evictions,
            writebacks,
            contentions,
        ) = l2_burst(
            self.l2,
            self.config.l2_bank_sets,
            now,
            part,
            local,
            set2,
            write,
            self.l2_reuse,
            mask,
        )
        self.l2_loads += loads
        self.l2_stores += stores
        self.l2_load_hits += load_hits
        self.l2_store_hits += store_hits
        self.l2_fills += fills
        self.l2_evictions += evictions
        self.l2_writebacks += writebacks
        return contentions

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def result(self, benchmark: Optional[str] = None) -> ReplayResult:
        """Snapshot merged statistics as a :class:`ReplayResult`.

        Resident lines' reuse generations are finalized into the snapshot
        copy only — the engine remains usable for further kernels.
        """
        l1_reuse = Counter(self.l1_reuse)
        use = np.array([l1.use_count for l1 in self.l1], dtype=np.int64)
        tag = np.array([l1.tag for l1 in self.l1], dtype=np.int64)
        vals, cnts = np.unique(use[tag != -1], return_counts=True)
        for v, cnt in zip(vals.tolist(), cnts.tolist()):
            l1_reuse[v] += cnt
        l2_reuse = Counter(self.l2_reuse)
        use = np.array([b.use for b in self.l2], dtype=np.int64)
        tag = np.array([b.tag for b in self.l2], dtype=np.int64)
        vals, cnts = np.unique(use[tag != -1], return_counts=True)
        for v, cnt in zip(vals.tolist(), cnts.tolist()):
            l2_reuse[v] += cnt
        l1_stats = CacheStats(
            loads=self.l1_loads,
            stores=self.l1_stores,
            load_hits=self.l1_load_hits,
            store_hits=self.l1_store_hits,
            fills=self.l1_fills,
            bypasses=self.l1_bypasses,
            evictions=self.l1_evictions,
        )
        l1_stats.reuse._counts = l1_reuse
        l2_stats = CacheStats(
            loads=self.l2_loads,
            stores=self.l2_stores,
            load_hits=self.l2_load_hits,
            store_hits=self.l2_store_hits,
            fills=self.l2_fills,
            evictions=self.l2_evictions,
            writebacks=self.l2_writebacks,
        )
        l2_stats.reuse._counts = l2_reuse
        extras = {}
        if self._vd_masks is not None:
            extras["contentions_detected"] = self.contentions_detected
        return ReplayResult(
            benchmark=(
                benchmark
                if benchmark is not None
                else "+".join(self.kernels) or "<empty>"
            ),
            design=self.design.key,
            l1=l1_stats,
            l2=l2_stats,
            extras=extras,
        )


def stream_scheduler(config: GPUConfig) -> str:
    """The stream interleave a functional run under ``config`` replays:
    the config's warp scheduler where the stream builder models it, else
    ``"lrr"``."""
    return config.warp_scheduler if config.warp_scheduler in SCHEDULERS else "lrr"


def build_run_arrays(
    trace: KernelTrace,
    config: GPUConfig,
    scheduler: str,
    streams=None,
    addr_map: Optional[AddressMap] = None,
    now_offset: int = 0,
) -> List[CoreArrays]:
    """The column arrays one :meth:`FunctionalEngine.run` of ``trace``
    replays.

    Coalesces the trace into per-core streams (unless ``streams`` are
    given) and lays them out with global transaction times starting at
    ``now_offset``.  Nothing here depends on the design, so a caller
    replaying one trace through many designs on cold engines builds the
    arrays once (``now_offset=0``) and passes them as ``run(...,
    arrays=...)``; the replays only read them.
    """
    if streams is None:
        streams = build_core_streams(trace, config, scheduler)
    return build_core_arrays(
        streams, config, addr_map=addr_map, now_offset=now_offset
    )


def functional_replay(
    trace: KernelTrace,
    config: Optional[GPUConfig] = None,
    design: Optional[DesignSpec] = None,
    streams=None,
    arrays=None,
    scheduler: str = "lrr",
    victim_share_factor: int = 1,
) -> ReplayResult:
    """One-shot functional replay; mirrors :func:`repro.sim.replay.replay`
    (which alone also offers an L1-only mode)."""
    engine = FunctionalEngine(
        config, design, victim_share_factor, scheduler=scheduler
    )
    engine.run(trace, streams=streams, arrays=arrays)
    return engine.result(benchmark=trace.name)
