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

:meth:`FunctionalEngine.run` picks one of four routes.

* **Burst** (null management, no tick and no victim bits: bs, bs-s).
  L1 behaviour is then a pure per-(core, set) function of the stream,
  so every core's L1 replays as one :func:`l1_burst` (LRU) or one
  hint-free :func:`gcache_burst` (SRRIP) and the L2 events it emits as
  one :func:`l2_burst`, all with vectorized victim selection
  (:mod:`repro.sim.functional.bursts`).
* **PDP burst** (exactly :class:`StaticPDPPolicy` or
  :class:`DynamicPDPPolicy`, no victim bits: spdp-b, pdp-3, pdp-8).
  PDP's state is per set too (tags, PDCs, fill times, the set's tick
  clock), so the L1 replays as :func:`pdp_burst` and its L2 events as
  one :func:`l2_burst`.  A dynamic policy's PD changes only where an
  epoch ends, so the engine plans each core's PD schedule up front and
  settles it as a fixpoint over the store hits (see
  :meth:`FunctionalEngine._run_pdp_burst`).
* **G-Cache burst** (exactly :class:`GCachePolicy` without adaptive
  aging: gc).  Given each load miss's victim hint, G-Cache's L1 state
  is per set (:func:`gcache_burst`), and given the L1's L2 events, the
  hints are per (bank, set) (:func:`l2_burst`'s flags).  Hints settle
  one window of the transaction clock at a time, as a fixpoint of the
  two bursts; a window past a round cap splits in half (see
  :meth:`FunctionalEngine._run_gcache_burst`).
* **Walk** (every other design: dbp, gc-m).  Each core's L1 replays in
  a scalar walk that calls the hooks its policy overrides, with the
  precomputed ``now`` of each access, and stores ``fill_time`` on every
  fill.  That is exact even for policies that act on every access: their
  state lives in the core's own policy object.  A victim-bit design
  (gc-m) makes every L2 event, a store or a load miss, a stop of a
  min-heap keyed by time, and runs its L2 access inline when its core is
  popped.  That is exact because L1 state is private to each core and
  every L2 event runs in global time order, so each load reads the
  oracle's victim hint.  A design without victim bits takes no hint, so
  each core walks to its end and one :func:`l2_burst` replays the L2
  events it recorded.

  A periodic tick counts down per core and fires just before the next
  fill hook, so it can arrive after accesses it was due by.  Only a hit
  or miss hook could observe that, so the engine refuses a policy that
  combines a tick with an ``on_hit`` or ``on_miss`` override.
"""

from __future__ import annotations

import heapq
import sys
from collections import Counter
from time import perf_counter
from typing import List, Optional

import numpy as np

from repro.cache.policies.base import ManagementPolicy
from repro.cache.policies.pdp import DynamicPDPPolicy, StaticPDPPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.rrip import SRRIPPolicy
from repro.core.gcache import GCachePolicy
from repro.sim.addressing import AddressMap
from repro.sim.config import GPUConfig
from repro.sim.designs import DesignSpec, make_design
from repro.sim.functional.bursts import (
    count_into,
    gcache_burst,
    l1_burst,
    l2_burst,
    l2_commit,
    l2_counters,
    l2_planes,
    pdp_burst,
)
from repro.sim.functional.hints import (
    GCacheRun,
    commit_srrip_planes,
    srrip_planes,
)
from repro.sim.functional.streams import CoreArrays, build_core_arrays
from repro.sim.replay import ReplayResult, build_core_streams
from repro.stats.counters import CacheStats
from repro.trace.trace import KernelTrace

__all__ = [
    "FunctionalEngine",
    "FunctionalUnsupportedError",
    "build_run_arrays",
    "functional_replay",
]


class FunctionalUnsupportedError(NotImplementedError):
    """The design uses a policy the functional backend does not model."""


#: PDP burst rounds per run before the run falls back to the walk.  Each
#: round settles the dynamic PD schedule at least up to one more epoch
#: end, and a run with no epoch end needs one round.
_SCHEDULE_ROUNDS = 8

class _L1State:
    """Structure-of-arrays L1 state (FlatTagStore's flat layout).

    It carries the planes management policies are written against (see
    :mod:`repro.cache.policies.base`), so each core's policy object
    attaches to it directly.  All state lives in plain Python lists:
    scalar element access on a list is several times cheaper than NumPy
    item extraction, and the walk is scalar.
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

    The stream interleave is ``config.warp_scheduler``'s, as in
    :func:`build_run_arrays`.

    With ``profile=True`` the engine accumulates a wall-clock breakdown
    in :attr:`phase_seconds` — ``"burst"`` (vectorized per-set L1/L2
    rounds, including the PDP route's schedule planning, the G-Cache
    route's hint windows and the L2 burst after a walk without victim
    bits) and ``"scalar_event"`` (the walk, including the inline L2
    accesses of a victim-bit design) — so the remaining scalar residue
    is measurable.  ``"probe"`` is always 0.0; it stays because
    profilers read the key set by name.
    """

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        design: Optional[DesignSpec] = None,
        victim_share_factor: int = 1,
        profile: bool = False,
    ) -> None:
        self.config = config if config is not None else GPUConfig()
        self.design = design if design is not None else make_design("bs")
        cfg = self.config
        self.l1 = [
            _L1State(cfg.l1_sets, cfg.l1_ways) for _ in range(cfg.num_cores)
        ]
        # One real management policy per core, attached to that core's
        # L1 planes, just as the timing memory system builds one per L1.
        repls = [self.design.make_l1_replacement() for _ in self.l1]
        # The walk and burst kernels inline LRU and SRRIP over the flat
        # stamp/rrpv planes; they read the kind and SRRIP's two RRPVs.
        repl = repls[0]
        self._lru = type(repl) is LRUPolicy
        if self._lru:
            self._max_rrpv = self._insertion_rrpv = 0
        elif type(repl) is SRRIPPolicy:
            self._max_rrpv = repl.max_rrpv
            self._insertion_rrpv = repl.insertion_rrpv
        else:
            raise FunctionalUnsupportedError(
                f"functional backend does not model replacement policy "
                f"{type(repl).__name__} (design {self.design.key!r})"
            )
        self.mgmt: List[ManagementPolicy] = [
            self.design.make_l1_mgmt() for _ in self.l1
        ]
        for c, policy in enumerate(self.mgmt):
            policy.attach(self.l1[c], repls[c], f"L1[{c}]")
        policy = self.mgmt[0]
        # Which hooks the policy overrides; the walk skips the
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
        if self._tick_interval and (self._has_hit or self._has_miss):
            raise FunctionalUnsupportedError(
                f"design {self.design.key!r}: the walk delivers a periodic "
                f"tick late, just before the next fill hook, so a policy "
                f"with a tick cannot hook hits or misses "
                f"({type(policy).__name__} does)"
            )
        # The burst route has no hooks, no tick and no victim bits.
        self._null_mgmt = not (
            self._tick_interval
            or any(has.values())
            or self.design.uses_victim_bits
        )
        # The PDP burst route: PDP's exact classes (no tick), no victim
        # bits, and the LRU stamps it keeps like the walk does.
        self._pdp = (
            type(policy) in (StaticPDPPolicy, DynamicPDPPolicy)
            and self._lru
            and not self.design.uses_victim_bits
        )
        # The G-Cache burst route: G-Cache with a fixed M (adaptive M
        # couples a core's sets through its fill epochs).
        self._gcache = (
            type(policy) is GCachePolicy and not policy.config.adaptive_aging
        )
        # LRU's per-core stamp tick, one mutable cell per core.
        self._repl_st = [[0] for _ in range(cfg.num_cores)]
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
        #: G-Cache burst: settled hint windows by the rounds each took,
        #: and the windows split at the round cap.
        self.window_rounds: Counter = Counter()
        self.window_splits = 0
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
                streams=streams,
                addr_map=self.addr_map,
                now_offset=self.transactions,
            )
        if self._null_mgmt:
            self._run_decoupled_burst(arrays)
        elif self._pdp:
            self._run_pdp_burst(arrays)
        elif self._gcache:
            self._run_gcache_burst(arrays)
        else:
            self._run_walk(arrays)
        self.transactions += sum(a.n for a in arrays)
        self.instructions += trace.instruction_count()
        self.kernels.append(trace.name)

    # ------------------------------------------------------------------
    # Burst route (bs, bs-s): one batched L1 burst, then one L2 burst.
    # ------------------------------------------------------------------
    def _run_decoupled_burst(self, arrays) -> None:
        """Null-management fast path (bs, bs-s): no scalar L1 at all.

        With no management hooks, no tick and no victim bits, L1
        behaviour is a pure per-(core, set) function of the stream, so
        the whole L1 replay runs as one burst over every core's
        concatenated columns (:func:`l1_burst` under LRU, under SRRIP
        :func:`gcache_burst` with no hint, so no switch ever turns on),
        and the events it emits feed :func:`l2_burst` directly.
        """
        prof = self._prof
        if prof is not None:
            t0 = perf_counter()
        group, line, write = self._l1_columns(arrays)
        if self._lru:
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
                self.config.l1_sets,
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
        else:
            ev = self._srrip_l1(arrays, group, line, write)
        self._l2_events(arrays, ev, write)
        if prof is not None:
            prof["burst"] += perf_counter() - t0

    def _srrip_l1(self, arrays, group, line, write) -> np.ndarray:
        """The null-management SRRIP L1 as one hint-free
        :func:`gcache_burst`; returns the positions of its L2 events."""
        planes = srrip_planes(self.l1, self.config.l1_sets)
        ins = self._insertion_rrpv
        hit, _, evict, _, _ = gcache_burst(
            planes,
            group,
            line,
            write,
            np.zeros(write.size, dtype=np.bool_),
            np.zeros(write.size, dtype=np.int32),
            np.concatenate([A.now for A in arrays]),
            (self._max_rrpv, 0, 0, ins, ins, 1),
        )
        commit_srrip_planes(planes, self.l1)
        self._count_l1(write, hit, 0, evict)
        return np.flatnonzero(write | ~hit)

    def _count_l1(self, write, hit, bypasses: int, evict) -> None:
        """Add a burst's L1 counters: its accesses' write and hit flags,
        its bypass count and its evicted lines' use counts (-1 for no
        eviction).  Every load that neither hit nor bypassed filled."""
        stores = int(np.count_nonzero(write))
        store_hits = int(np.count_nonzero(hit & write))
        load_hits = int(np.count_nonzero(hit)) - store_hits
        evicted = evict[evict >= 0]
        self.l1_loads += write.size - stores
        self.l1_load_hits += load_hits
        self.l1_stores += stores
        self.l1_store_hits += store_hits
        self.l1_bypasses += bypasses
        self.l1_fills += write.size - stores - load_hits - bypasses
        self.l1_evictions += evicted.size
        count_into(self.l1_reuse, [evicted])

    def _l1_columns(self, arrays):
        """Every core's ``(group, line, write)`` L1 columns, concatenated,
        with ``group = core * l1_sets + set``."""
        S1 = self.config.l1_sets
        for A in arrays:
            A.ensure_l1()
        return (
            np.concatenate([A.set1 + c * S1 for c, A in enumerate(arrays)]),
            np.concatenate([A.line for A in arrays]),
            np.concatenate([A.write for A in arrays]),
        )

    def _l2_events(self, arrays, ev: np.ndarray, write: np.ndarray) -> None:
        """Replay the L2 events at concatenated-stream positions ``ev``
        (stores and L1 load misses) in one :func:`l2_burst`."""
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

    def _l2_burst(self, now, part, local, set2, write) -> None:
        """Run :func:`l2_burst` on the banks and add up its counters."""
        S2 = self.config.l2_bank_sets
        planes = l2_planes(self.l2, S2)
        hit, evict, wback, _ = l2_burst(
            planes, part * S2 + set2, local, write, None, now
        )
        l2_commit(planes, self.l2)
        self._count_l2(write, hit, evict, wback)

    # ------------------------------------------------------------------
    # PDP burst route (spdp-b, pdp-3, pdp-8): the PD schedule, one PDP
    # burst per schedule round, then one L2 burst.
    # ------------------------------------------------------------------
    def _run_pdp_burst(self, arrays) -> None:
        """PDP fast path: no per-access hook.

        Everything PDP reads is per (core, set): tags, PDCs, fill times
        and the set's tick clock.  The victim is the first invalid way,
        else the unprotected way filled longest ago, so LRU stamps never
        pick one, and PDP ignores victim hints, so L2 never feeds back.
        What is not per set is a dynamic policy's PD, which changes at
        the observed access that ends an epoch (every load, and every
        store hit).  Which stores hit depends on the PDs, so the
        schedule is a fixpoint: plan it from the loads alone, burst,
        re-plan from the store hits the burst found, and repeat until
        the plan stops changing.  Each round settles at least one more
        epoch end, and a run with none settles in one.  Rounds run on
        copies of the L1 state; past :data:`_SCHEDULE_ROUNDS` they are
        discarded and the run takes the walk.
        """
        prof = self._prof
        if prof is not None:
            t0 = perf_counter()
        events = self.pdp_l1(arrays)
        if events is None:
            if prof is not None:
                prof["burst"] += perf_counter() - t0
            self._run_walk(arrays)
            return
        self._l2_events(arrays, *events)
        if prof is not None:
            prof["burst"] += perf_counter() - t0

    def pdp_l1(self, arrays):
        """The PDP route's L1 replay, committed once its schedule
        settles.  Returns the concatenated-stream positions of its L2
        events (stores and load misses) and the write column, or
        ``None`` past the round cap, with nothing changed.

        PDP takes no L2 hint, so a caller that reads only L1 counters
        (:func:`~repro.runner.task.sweep_optimal_pd`) runs it alone."""
        group, line, write = self._l1_columns(arrays)
        now = np.concatenate([A.now for A in arrays])
        offsets = np.cumsum([0] + [A.n for A in arrays])
        C = len(arrays)
        S1 = self.config.l1_sets
        policies = self.mgmt
        dynamic = type(policies[0]) is DynamicPDPPolicy

        def stack(planes):
            return np.array(planes, dtype=np.int64).reshape(C * S1, -1)

        state = {
            name: stack([getattr(l1, name) for l1 in self.l1])
            for name in ("tag", "use_count", "pd_counter", "fill_time")
        }
        state["valid_count"] = stack(
            [l1.valid_count for l1 in self.l1]
        ).reshape(-1)
        state["ticks"] = stack([p._set_ticks for p in policies]).reshape(-1)
        schedule = plans = None
        if dynamic:
            # First guess: no store hits, and no epoch end at all while
            # no core can complete its epoch.
            schedule = [((), ())] * C
            if any(
                policy._since_epoch + A.n >= policy.epoch_accesses
                for A, policy in zip(arrays, policies)
            ):
                schedule = self._pd_schedule(arrays, ~write, offsets)[0]
        for _ in range(_SCHEDULE_ROUNDS):
            trial = {name: plane.copy() for name, plane in state.items()}
            hit, slot, evict_use = pdp_burst(
                trial,
                group,
                line,
                write,
                now,
                *self._pd_columns(schedule, offsets),
                policies[0].bypass,
            )
            if not dynamic:
                break
            replanned, plans = self._pd_schedule(
                arrays, hit | ~write, offsets
            )
            if replanned == schedule:
                break
            schedule = replanned
        else:
            return None
        self._commit_pdp(trial, hit, slot, evict_use, write, offsets, plans)
        return np.flatnonzero(write | ~hit), write

    def _pd_schedule(self, arrays, observed, offsets):
        """Each core's dynamic-PDP epoch ends as ``(positions, pds)``:
        the stream positions of the observed accesses (``observed``
        flags them over the concatenated stream) that end an epoch, and
        the PD each chooses; and each core's
        :class:`~repro.cache.policies.pdp.EpochPlan`.
        """
        schedule = []
        plans = []
        for c, (A, policy) in enumerate(zip(arrays, self.mgmt)):
            pos = np.flatnonzero(observed[offsets[c] : offsets[c + 1]])
            plan = policy.plan(A.set1[pos], A.line[pos])
            schedule.append((tuple(pos[plan.at].tolist()), tuple(plan.pds)))
            plans.append(plan)
        return schedule, plans

    def _pd_columns(self, schedule, offsets):
        """:func:`pdp_burst`'s per-access ``(step_hit, step_miss, ins)``
        under ``schedule`` (``None``: every core keeps its PD)."""
        policies = self.mgmt
        n = int(offsets[-1])
        # Steps and PDCs are small; int32 halves these per-access columns
        # and the burst's permuted copies of them.
        step_hit = np.empty(n, dtype=np.int32)
        step_miss = np.empty(n, dtype=np.int32)
        ins = np.empty(n, dtype=np.int32)
        for c, policy in enumerate(policies):
            lo, hi = offsets[c], offsets[c + 1]
            pos, pds = schedule[c] if schedule else ((), ())
            # Entry i holds the quanta after the i-th epoch end.
            steps, pdcs = np.array(
                [(policy.step, policy.initial_pdc)]
                + [policy.quantize(pd) for pd in pds]
            ).T
            # A hit ticks after the policy observes it, a miss before.
            p = np.arange(hi - lo)
            after = np.searchsorted(pos, p, side="right")
            step_hit[lo:hi] = steps[after]
            step_miss[lo:hi] = steps[np.searchsorted(pos, p, side="left")]
            ins[lo:hi] = pdcs[after]
        return step_hit, step_miss, ins

    def _commit_pdp(
        self, state, hit, slot, evict_use, write, offsets, plans
    ) -> None:
        """Write a settled PDP burst back: L1 planes, the walk's LRU
        stamps, tick clocks, epoch plans and counters."""
        C = len(self.l1)
        S1 = self.config.l1_sets
        # The walk's LRU clock is per core: each hit or fill takes the
        # next stamp, and a slot keeps the stamp of its last touch.
        touched = np.flatnonzero(slot >= 0)
        first = np.searchsorted(touched, offsets)
        last = np.full(C * S1 * self.config.l1_ways, -1, dtype=np.int64)
        np.maximum.at(last, slot[touched], touched)
        slots = np.flatnonzero(last >= 0)
        last = last[slots]
        core = np.searchsorted(offsets, last, side="right") - 1
        rst0 = np.array([st[0] for st in self._repl_st], dtype=np.int64)
        stamp = np.array(
            [l1.stamp for l1 in self.l1], dtype=np.int64
        ).reshape(-1)
        stamp[slots] = (
            (rst0 - first[:-1] + 1)[core] + np.searchsorted(touched, last)
        )
        for c, l1 in enumerate(self.l1):
            self._repl_st[c][0] = int(rst0[c] + first[c + 1] - first[c])
            rows = slice(c * S1, (c + 1) * S1)
            l1.tag = state["tag"][rows].ravel().tolist()
            l1.use_count = state["use_count"][rows].ravel().tolist()
            l1.pd_counter = state["pd_counter"][rows].ravel().tolist()
            l1.fill_time = state["fill_time"][rows].ravel().tolist()
            l1.valid_count = state["valid_count"][rows].tolist()
            l1.stamp = stamp.reshape(C, -1)[c].tolist()
            self.mgmt[c]._set_ticks = state["ticks"][rows].tolist()
            if plans is not None:
                self.mgmt[c].apply(plans[c])
        stores = int(np.count_nonzero(write))
        loads = write.size - stores
        store_hits = int(np.count_nonzero(hit & write))
        load_hits = int(np.count_nonzero(hit)) - store_hits
        fills = touched.size - int(np.count_nonzero(hit))
        self.l1_loads += loads
        self.l1_load_hits += load_hits
        self.l1_stores += stores
        self.l1_store_hits += store_hits
        self.l1_fills += fills
        self.l1_bypasses += loads - load_hits - fills
        self.l1_evictions += evict_use.size
        count_into(self.l1_reuse, [evict_use])

    # ------------------------------------------------------------------
    # G-Cache burst route (gc): hints settle window by window as a
    # fixpoint of an L1 burst and an L2 burst.
    # ------------------------------------------------------------------
    def _run_gcache_burst(self, arrays) -> None:
        """G-Cache fast path: no per-access hook.

        Given each load miss's victim hint, G-Cache's L1 is per (core,
        set) (:func:`gcache_burst`), and given the L1's L2 events, the
        hints are per (bank, set) (:func:`l2_burst`'s flags).  Hints
        settle one window of
        :data:`~repro.sim.functional.hints.HINT_WINDOW` transactions at
        a time (:class:`~repro.sim.functional.hints.GCacheRun`): guess
        each load's hint from the window-start L2 state, burst the
        window's L1 with the current hints, burst its L2 events, take
        the flags as the new hints, re-run only the (core, set) and
        (bank, set) groups whose inputs changed (from the window-start
        state), and repeat until no load miss's hint changes.  That is
        exact by induction on time: a hint depends only on earlier
        accesses and its own L2 event, so if the hints are right before
        time ``t``, every L1 event up to ``t`` and every flag up to
        ``t`` is right, and each round fixes every hint up to the
        earliest wrong one.  A window past
        :data:`~repro.sim.functional.hints.HINT_ROUNDS` rounds is rolled
        back and split in half; one transaction settles in one round.
        """
        prof = self._prof
        if prof is not None:
            t0 = perf_counter()
        total = sum(A.n for A in arrays)
        if total:
            for A in arrays:
                A.ensure_l1()
                A.ensure_l2()
            GCacheRun(self, arrays).run(
                min(int(A.now[0]) for A in arrays if A.n), total
            )
        if prof is not None:
            prof["burst"] += perf_counter() - t0

    # ------------------------------------------------------------------
    # Walk route (every other managed design: dbp, gc-m): one scalar
    # walk per core; a victim-bit design's L2 events take the heap.
    # ------------------------------------------------------------------
    def _run_walk(self, arrays) -> None:
        stop = self._vd_masks is not None
        for A in arrays:
            if stop:
                A.ensure_scalar()
            else:
                A.ensure_walk()
        prof = self._prof
        if prof is not None:
            t0 = perf_counter()
        positions = self._walk(arrays, stop)
        if prof is not None:
            t1 = perf_counter()
            prof["scalar_event"] += t1 - t0
        # The L2 events a design without victim bits recorded, by
        # concatenated-stream position.
        offsets = np.cumsum([0] + [A.n for A in arrays])
        self._l2_events(
            arrays,
            np.concatenate(
                [np.array(p, dtype=np.int64) + o
                 for p, o in zip(positions, offsets)]
            ),
            np.concatenate([A.write for A in arrays]),
        )
        if prof is not None:
            prof["burst"] += perf_counter() - t1

    def _walk(self, arrays, stop: bool) -> List[List[int]]:
        """Walk each core's L1 in a scalar loop, handing over between
        cores through a min-heap of their next stops.

        The walk calls ``on_hit`` on hits, ``on_miss`` on store misses
        and on load misses before the fill hooks, and fills through the
        policy's fill hooks; due ticks fire before each fill, counted
        across the core's stops.  L1 state is core-private, so a core
        may walk ahead of the others through its load hits.

        With ``stop`` (a victim-bit design), every L2 event, a store or
        a load miss, runs its L2 access inline in global time order: a
        core hands over at an L2 event later than another core's next
        stop, and the heap re-arms it at that event's time.  A load ORs
        its group's mask into the line's victim bits and reads its hint
        before its fill hooks; a store writes the line and marks it
        dirty.  The heap starts with one seed per core below every real
        key, so no core runs an L2 event before every core has reached
        its first.

        Without ``stop`` no load carries a hint: each core walks to its
        end, and the walk returns each core's L2 event positions for
        one :func:`l2_burst`.
        """
        C = len(arrays)
        # Keys are `now * C + core`: times are unique, so keys order the
        # cores by next stop.  The seeds, one per core, sit below every
        # real key and are sorted, so already a valid heap.
        heap = list(range(-C, 0))
        pushpop = heapq.heappushpop
        pop = heapq.heappop
        # Later than every transaction: without victim bits no core
        # hands over.
        never = sys.maxsize
        pos_l = [0] * C
        # Each core's first access not yet counted down toward its next
        # tick.
        run_l = [0] * C
        has_hit = self._has_hit
        has_miss = self._has_miss
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
        insertion_rrpv = self._insertion_rrpv
        max_rrpv = self._max_rrpv
        # Declared no-op fill path (ManagementPolicy.fill_gate_switches):
        # a hint-free fill into a set whose switch byte is 0 never
        # bypasses, so the call is skipped.
        fill_gate = has_fill and policies[0].fill_gate_switches
        insert_skip_cold = policies[0].insert_skip_cold
        S2 = self.config.l2_bank_sets
        l1_reuse = self.l1_reuse
        l2_reuse = self.l2_reuse
        positions: List[List[int]] = [[] for _ in range(C)]
        l1_store_hits = 0
        l1_fills = l1_bypasses = l1_evictions = 0
        l2_load_hits = l2_store_hits = l2_fills = 0
        l2_evictions = l2_writebacks = 0
        contentions = 0

        # One tuple per core / per bank bundling every hot attribute and
        # bound hook; a single indexed load + unpack per event replaces
        # ~25 attribute lookups through __slots__ descriptors.  All
        # bundled objects are mutated in place, so the bindings stay
        # valid for the whole walk (`bank.tick` is a plain int and
        # stays an attribute).
        core_cols = [
            (
                A.line_l, A.write_l, A.set1_l, A.now_l, A.slot_l,
                A.local_l, A.n, vd_masks[c],
                l1s[c].tag, l1s[c].use_count, l1s[c].stamp, l1s[c].rrpv,
                l1s[c].fill_time, l1s[c].valid_count, l1s[c].ways,
                repl_st[c], pol.on_hit, pol.on_miss, pol.fill_decision,
                pol.on_bypass, pol.choose_victim, pol.on_evict,
                pol.on_insert, pol.switches.bits if fill_gate else None,
                positions[c].append,
            )
            for c, (A, pol) in enumerate(zip(arrays, policies))
        ]
        bank_cols = [
            (b, b.tag, b.stamp, b.use, b.dirty, b.vb, b.valid_count,
             b.ways)
            for b in self.l2
        ]

        key = pop(heap)
        while True:
            c = key % C
            # The time of the earliest next stop of any other core.
            rival = heap[0] // C if stop and heap else never
            (line_l, write_l, set1_l, now_l, slot_l, local_l, n, mask,
             tag, use, stamp, rrpv, fill_time, l1_vc, ways, rst,
             on_hit, on_miss, fill_decision, on_bypass, choose_victim,
             on_evict, on_insert, gate, record) = core_cols[c]
            p = pos_l[c]
            run = run_l[c]
            while p < n:
                line = line_l[p]
                set_index = set1_l[p]
                base = set_index * ways
                seg = tag[base : base + ways]
                write = write_l[p]
                hit = line in seg
                if (write or not hit) and now_l[p] > rival:
                    # Another core's next stop comes first.
                    break
                if hit:
                    idx = base + seg.index(line)
                    use[idx] += 1
                    if lru:
                        t = rst[0] + 1
                        rst[0] = t
                        stamp[idx] = t
                    else:
                        rrpv[idx] = 0
                    if has_hit:
                        on_hit(set_index, idx, now_l[p])
                    if not write:
                        p += 1
                        continue
                    l1_store_hits += 1
                elif has_miss:
                    # Write-through no-allocate: a store miss skips L1.
                    on_miss(set_index, now_l[p])
                # An L2 event: a store, or a load miss.
                now = now_l[p]
                hint = False
                if stop:
                    part, bset = divmod(slot_l[p], S2)
                    (bank, btag, bstamp_l, buse, bdirty, bvb, bvc_l,
                     bways) = bank_cols[part]
                    bbase = bset * bways
                    bseg = btag[bbase : bbase + bways]
                    local = local_l[p]
                    if local in bseg:
                        bidx = bbase + bseg.index(local)
                        buse[bidx] += 1
                        if write:
                            bdirty[bidx] = 1
                            l2_store_hits += 1
                        else:
                            l2_load_hits += 1
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
                        bdirty[bidx] = write
                        buse[bidx] = 0
                        bvb[bidx] = 0
                        l2_fills += 1
                    bank.tick += 1
                    bstamp_l[bidx] = bank.tick
                    if not write:
                        prev = bvb[bidx]
                        bvb[bidx] = prev | mask
                        if prev & mask:
                            contentions += 1
                            hint = True
                else:
                    record(p)
                p += 1
                if write:
                    continue
                if tick_interval:
                    k = p - run
                    if k >= tick_left[c]:
                        # Ticks due by this access fire before its fill
                        # hooks.
                        tick_run(c, k, now)
                        run = p
                # L1 fill.
                if (
                    has_fill
                    and (gate is None or hint or gate[set_index])
                    and fill_decision(set_index, line, hint, now)
                ):
                    l1_bypasses += 1
                    if has_bypass:
                        on_bypass(set_index, now)
                    continue
                vc = l1_vc[set_index]
                if vc < ways:
                    way = vc
                    l1_vc[set_index] = vc + 1
                else:
                    way = (
                        choose_victim(set_index, now) if has_choose else None
                    )
                    if way is None:
                        if lru:
                            sseg = stamp[base : base + ways]
                            way = sseg.index(min(sseg))
                        else:
                            # SRRIP: age to max, take the first line
                            # that held the pre-aging maximum.
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
                        on_evict(idx, now)
                idx = base + way
                tag[idx] = line
                use[idx] = 0
                fill_time[idx] = now
                l1_fills += 1
                if lru:
                    rst[0] += 1
                    stamp[idx] = rst[0]
                else:
                    rrpv[idx] = insertion_rrpv
                if has_insert and (hint or not insert_skip_cold):
                    on_insert(idx, hint, now)
            pos_l[c] = p
            if p < n:
                run_l[c] = run
                key = pushpop(heap, now_l[p] * C + c)
                continue
            if tick_interval and p > run:
                tick_run(c, p - run, now_l[p - 1])
            if not heap:
                break
            key = pop(heap)

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
        if stop:
            # Every store and every load miss accessed L2.
            self.l2_loads += l1_fills + l1_bypasses
            self.l2_stores += stores
            self.l2_load_hits += l2_load_hits
            self.l2_store_hits += l2_store_hits
            self.l2_fills += l2_fills
            self.l2_evictions += l2_evictions
            self.l2_writebacks += l2_writebacks
            self.contentions_detected += contentions
        return positions

    def _tick_run(self, c: int, accesses: int, now: int) -> None:
        """Count ``accesses`` walked accesses down core ``c``'s tick.

        Every tick that falls inside them is delivered now, with ``now``
        (used only for tracing) the time of the last one.  That is exact
        as long as the walk calls it before each fill a tick is due by
        and the policy hooks neither hits nor misses (the constructor
        refuses it otherwise): no other hook can observe when a tick
        fired.
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

    def _count_l2(self, write, hit, evict, wback) -> None:
        """Add :func:`l2_burst` events' counters to the engine's."""
        (
            loads,
            stores,
            load_hits,
            store_hits,
            fills,
            evictions,
            writebacks,
        ) = l2_counters(write, hit, evict, wback, self.l2_reuse)
        self.l2_loads += loads
        self.l2_stores += stores
        self.l2_load_hits += load_hits
        self.l2_store_hits += store_hits
        self.l2_fills += fills
        self.l2_evictions += evictions
        self.l2_writebacks += writebacks

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


def build_run_arrays(
    trace: KernelTrace,
    config: GPUConfig,
    streams=None,
    addr_map: Optional[AddressMap] = None,
    now_offset: int = 0,
) -> List[CoreArrays]:
    """The column arrays one :meth:`FunctionalEngine.run` of ``trace``
    replays.

    Coalesces the trace into per-core streams in the interleave of
    ``config.warp_scheduler`` (unless ``streams`` are given) and lays
    them out with global transaction times starting at ``now_offset``.
    Nothing here depends on the design, so a caller replaying one trace
    through many designs on cold engines builds the arrays once
    (``now_offset=0``) and passes them as ``run(..., arrays=...)``; the
    replays only read them.
    """
    if streams is None:
        streams = build_core_streams(trace, config, config.warp_scheduler)
    return build_core_arrays(
        streams, config, addr_map=addr_map, now_offset=now_offset
    )


def functional_replay(
    trace: KernelTrace,
    config: Optional[GPUConfig] = None,
    design: Optional[DesignSpec] = None,
    streams=None,
    arrays=None,
    victim_share_factor: int = 1,
) -> ReplayResult:
    """One-shot functional replay; mirrors :func:`repro.sim.replay.replay`
    (which alone also offers an L1-only mode, and takes its interleave
    as a ``scheduler`` argument rather than from ``config``)."""
    engine = FunctionalEngine(config, design, victim_share_factor)
    engine.run(trace, streams=streams, arrays=arrays)
    return engine.result(benchmark=trace.name)
