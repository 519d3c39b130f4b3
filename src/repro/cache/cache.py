"""Set-associative cache with pluggable replacement and management.

The cache models the *tag array only* and works in **line addresses**
(byte address >> log2(line size)); coalescing happens upstream in
:mod:`repro.gpu.coalescer`.  Write semantics (write-through no-allocate
for the GPU L1, write-back write-allocate for the L2) are selected by
constructor flags, matching Section 2.2 of the paper.

Lookups and fills are separate operations because in the modelled GPU an
L1 miss travels to the L2 and the *response* (carrying the victim-bit
hint) triggers the fill — the management policy needs that hint to make
its bypass/insertion decision.

Hot-path layout (see docs/performance.md): tag/RRPV/dirty/victim state
lives in the packed parallel arrays of a
:class:`~repro.cache.tagstore.FlatTagStore`; the tag scan is a C-speed
``list.index`` over the set's slice.  Replacement updates go through the
policy's ``flat_*`` hooks, and management policies work on the same flat
arrays (see :mod:`repro.cache.policies.base`).  Callers read a line's
state as ``cache.store.<field>[slot]``, where ``slot`` is the flat index
:meth:`Cache.lookup_fast` returns, or ``set_index * ways + way``.  The
retained :class:`~repro.cache.reference.ReferenceCache` is pinned to
bit-identical behaviour under property test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cache.policies.base import (
    FillContext,
    ManagementPolicy,
    NullManagementPolicy,
)
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.tagstore import FlatTagStore
from repro.obs.events import EV_BYPASS, EV_EVICT, EV_FILL, EV_HIT, EV_MISS
from repro.stats.counters import CacheStats

__all__ = ["Cache", "LookupResult", "FillResult"]


@dataclass(slots=True)
class LookupResult:
    """Outcome of a tag lookup."""

    hit: bool
    set_index: int
    way: int = -1


@dataclass(slots=True)
class FillResult:
    """Outcome of a fill attempt."""

    set_index: int
    inserted: bool = False
    bypassed: bool = False
    already_present: bool = False
    way: int = -1
    evicted_tag: int = -1
    writeback: bool = False


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class Cache:
    """One set-associative cache bank.

    Args:
        name: Human-readable identifier (appears in reports).
        size_bytes: Total data capacity.
        ways: Associativity.
        line_size: Line size in bytes (Table 2: 128 B).
        replacement: Replacement policy instance; one per cache (an
            instance already bound to another cache raises ``ValueError``).
        mgmt: Management (bypass/insertion) policy; defaults to a
            conventional always-insert policy.
        write_back: ``True`` for write-back (L2), ``False`` for
            write-through (L1).
        write_allocate: Whether store misses allocate a line (L2 yes,
            L1 no).
        pre_shift: Number of low line-address bits consumed by bank
            interleaving before set selection (log2 of the bank count for
            an L2 bank; 0 for a private L1).
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        line_size: int,
        replacement: ReplacementPolicy,
        mgmt: Optional[ManagementPolicy] = None,
        write_back: bool = False,
        write_allocate: bool = False,
        pre_shift: int = 0,
    ) -> None:
        if size_bytes % (ways * line_size) != 0:
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by ways*line "
                f"({ways}*{line_size})"
            )
        num_sets = size_bytes // (ways * line_size)
        if not _is_pow2(num_sets):
            raise ValueError(f"{name}: number of sets must be a power of two, got {num_sets}")
        if write_allocate and not write_back:
            raise ValueError(f"{name}: write-allocate requires write-back in this model")

        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_size = line_size
        self.num_sets = num_sets
        self.pre_shift = pre_shift
        self.write_back = write_back
        self.write_allocate = write_allocate
        self.replacement = replacement
        self.mgmt = mgmt if mgmt is not None else NullManagementPolicy()
        #: Event bus when tracing is enabled (see repro.obs.wire).
        self.obs = None
        self.stats = CacheStats()
        #: Packed tag-array state (structure-of-arrays).
        self.store = FlatTagStore(num_sets, ways)
        self._set_mask = num_sets - 1
        replacement.flat_bind(self.store)
        self._flat_on_hit = replacement.flat_on_hit
        self._flat_on_fill = replacement.flat_on_fill
        self._flat_select_victim = replacement.flat_select_victim
        self.mgmt.attach(self.store, replacement, name)
        # The policy's periodic tick: one integer countdown inside
        # lookup_fast, so a policy that only needs "every N accesses"
        # defines no on_hit/on_miss and the lookup pays no call for it.
        self._tick_interval = max(0, self.mgmt.tick_interval)
        self._tick_left = self._tick_interval
        #: What the last fill_fast() evicted: its tag (-1 if nothing) and
        #: whether it was written back.
        self.last_evicted_tag = -1
        self.last_writeback = False

        # Management hooks that are base-class no-ops are skipped on the
        # hot path entirely (bound method, or None when default).
        mgmt_cls = type(self.mgmt)

        def _hook(hook_name: str):
            if getattr(mgmt_cls, hook_name) is getattr(ManagementPolicy, hook_name):
                return None
            return getattr(self.mgmt, hook_name)

        self._mgmt_on_hit = _hook("on_hit")
        self._mgmt_on_miss = _hook("on_miss")
        self._mgmt_fill_decision = _hook("fill_decision")
        self._mgmt_choose_victim = _hook("choose_victim")
        self._mgmt_on_insert = _hook("on_insert")
        self._mgmt_on_bypass = _hook("on_bypass")
        self._mgmt_on_evict = _hook("on_evict")

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def set_index(self, line_addr: int) -> int:
        """Map a line address to its set."""
        return (line_addr >> self.pre_shift) & self._set_mask

    def _find_slot(self, line_addr: int, base: int, top: int) -> int:
        """Flat index of the valid slot holding ``line_addr``, or -1.

        Invalid slots carry tag ``-1``, so a demand address never matches
        them; the validity re-check only loops if external code planted an
        inconsistent tag/valid pair.
        """
        tags = self.store.tag
        valid = self.store.valid
        start = base
        while True:
            try:
                idx = tags.index(line_addr, start, top)
            except ValueError:
                return -1
            if valid[idx]:
                return idx
            start = idx + 1

    def find_way(self, line_addr: int) -> int:
        """Return the way holding ``line_addr``, or -1 (no state change)."""
        set_index = (line_addr >> self.pre_shift) & self._set_mask
        base = set_index * self.ways
        idx = self._find_slot(line_addr, base, base + self.ways)
        return idx - base if idx >= 0 else -1

    def probe(self, line_addr: int) -> bool:
        """Tag check with no statistics or state updates."""
        return self.find_way(line_addr) >= 0

    # ------------------------------------------------------------------
    # Access operations
    # ------------------------------------------------------------------
    def lookup_fast(self, line_addr: int, now: int, is_write: bool = False) -> int:
        """Demand lookup; returns the flat slot index on a hit, -1 on a miss.

        Identical statistics and policy effects to :meth:`lookup` — that
        method is a thin wrapper over this one — but no
        :class:`LookupResult` is allocated, which matters to the memory
        system's per-transaction path (most callers only need the hit
        boolean or the hit slot, never the full result object).
        """
        store = self.store
        set_index = (line_addr >> self.pre_shift) & self._set_mask
        base = set_index * self.ways
        top = base + self.ways

        stats = self.stats
        if is_write:
            stats.stores += 1
        else:
            stats.loads += 1

        interval = self._tick_interval
        if interval:
            left = self._tick_left - 1
            if left:
                self._tick_left = left
            else:
                self._tick_left = interval
                self.mgmt.on_tick(now)

        # Inlined _find_slot (this is the hottest loop in the simulator).
        tags = store.tag
        valid = store.valid
        idx = -1
        start = base
        while True:
            try:
                i = tags.index(line_addr, start, top)
            except ValueError:
                break
            if valid[i]:
                idx = i
                break
            start = i + 1
        if idx >= 0:
            store.use_count[idx] += 1
            store.last_access[idx] = now
            if is_write:
                stats.store_hits += 1
                if self.write_back:
                    store.dirty[idx] = 1
            else:
                stats.load_hits += 1
            self._flat_on_hit(idx, now)
            mgmt_hit = self._mgmt_on_hit
            if mgmt_hit is not None:
                mgmt_hit(set_index, idx, now)
            if self.obs is not None:
                self.obs.emit(
                    EV_HIT, now, self.name,
                    line=line_addr, set=set_index, way=idx - base, write=is_write,
                )
            return idx

        mgmt_miss = self._mgmt_on_miss
        if mgmt_miss is not None:
            mgmt_miss(set_index, now)
        if self.obs is not None:
            self.obs.emit(
                EV_MISS, now, self.name,
                line=line_addr, set=set_index, write=is_write,
            )
        return -1

    def lookup(self, line_addr: int, now: int, is_write: bool = False) -> LookupResult:
        """Perform a demand lookup, updating stats and recency state."""
        idx = self.lookup_fast(line_addr, now, is_write)
        set_index = (line_addr >> self.pre_shift) & self._set_mask
        if idx >= 0:
            return LookupResult(True, set_index, idx - set_index * self.ways)
        return LookupResult(False, set_index)

    def fill(
        self,
        line_addr: int,
        now: int,
        ctx: Optional[FillContext] = None,
        is_write: bool = False,
    ) -> FillResult:
        """Bring ``line_addr`` into the cache, subject to the management policy.

        Returns a :class:`FillResult` describing whether the line was
        inserted, bypassed, or found already present (e.g. filled by a
        concurrent request that was merged in the MSHRs).  A thin wrapper
        over :meth:`fill_fast`, the way :meth:`lookup` wraps
        :meth:`lookup_fast`.

        ``is_write`` is consulted only when ``ctx`` is omitted (an explicit
        context carries its own ``is_write``); it lets callers that have no
        victim hint to pass skip building a context.
        """
        if ctx is not None:
            is_write = ctx.is_write
            hint = ctx.victim_hint
        else:
            hint = False
        set_index = (line_addr >> self.pre_shift) & self._set_mask
        base = set_index * self.ways
        idx = self._find_slot(line_addr, base, base + self.ways)
        if idx >= 0:
            return FillResult(set_index, already_present=True, way=idx - base)
        idx = self.fill_fast(line_addr, now, hint, is_write)
        if idx < 0:
            return FillResult(set_index, bypassed=True)
        return FillResult(
            set_index,
            inserted=True,
            way=idx - base,
            evicted_tag=self.last_evicted_tag,
            writeback=self.last_writeback,
        )

    def fill_fast(
        self, line_addr: int, now: int, hint: bool = False, is_write: bool = False
    ) -> int:
        """Fill an absent line; returns its flat slot, or -1 on a bypass.

        The one copy of the fill logic: identical statistics and policy
        effects to :meth:`fill`, but nothing is allocated.  The evicted
        line's tag (-1 if none) and whether it was written back are left
        in :attr:`last_evicted_tag` and :attr:`last_writeback`.

        The caller guarantees ``line_addr`` is not resident, so there is
        no presence scan.  The memory system may assert it because each
        transaction's lookup-miss and fill execute back to back with
        nothing else touching that cache in between (in-flight duplicates
        are merged in the MSHRs before the lookup ever runs).
        """
        store = self.store
        set_index = (line_addr >> self.pre_shift) & self._set_mask

        fill_decision = self._mgmt_fill_decision
        if fill_decision is not None and fill_decision(
            set_index, line_addr, hint, now
        ):
            self.stats.bypasses += 1
            on_bypass = self._mgmt_on_bypass
            if on_bypass is not None:
                on_bypass(set_index, now)
            if self.obs is not None:
                self.obs.emit(
                    EV_BYPASS, now, self.name,
                    line=line_addr, set=set_index, hint=hint,
                )
            self.last_evicted_tag = -1
            self.last_writeback = False
            return -1

        # Prefer an invalid way; otherwise ask the management policy, then
        # the replacement policy, for a victim.
        base = set_index * self.ways
        top = base + self.ways
        evicted_tag = -1
        writeback = False
        if store.valid_count[set_index] < self.ways:
            way = store.valid.index(0, base, top) - base
            idx = base + way
        else:
            choose_victim = self._mgmt_choose_victim
            chosen = None if choose_victim is None else choose_victim(set_index, now)
            if chosen is not None:
                way = chosen
            else:
                way = self._flat_select_victim(base, top, now)
            idx = base + way
            evicted_tag = store.tag[idx]
            writeback = self.write_back and bool(store.dirty[idx])
            # Inlined _retire (eviction accounting; invalidate() still
            # uses the method).  use_count is never negative, so the
            # histogram's Counter is bumped directly.
            stats = self.stats
            stats.evictions += 1
            if writeback:
                stats.writebacks += 1
            stats.reuse._counts[store.use_count[idx]] += 1
            on_evict = self._mgmt_on_evict
            if on_evict is not None:
                on_evict(idx, now)
            if self.obs is not None:
                self.obs.emit(
                    EV_EVICT, now, self.name,
                    line=evicted_tag, set=set_index, way=way,
                    uses=store.use_count[idx], dirty=bool(store.dirty[idx]),
                )
        self.last_evicted_tag = evicted_tag
        self.last_writeback = writeback

        store.fill_slot(idx, line_addr, now)
        if is_write and self.write_allocate:
            store.dirty[idx] = 1
        self.stats.fills += 1
        self._flat_on_fill(idx, now)
        on_insert = self._mgmt_on_insert
        if on_insert is not None:
            on_insert(idx, hint, now)
        if self.obs is not None:
            self.obs.emit(
                EV_FILL, now, self.name,
                line=line_addr, set=set_index, way=way,
                hint=hint, evicted=evicted_tag,
            )
        return idx

    def invalidate(self, line_addr: int, now: int = 0) -> bool:
        """Drop ``line_addr`` if present; returns whether it was resident."""
        set_index = (line_addr >> self.pre_shift) & self._set_mask
        base = set_index * self.ways
        idx = self._find_slot(line_addr, base, base + self.ways)
        if idx < 0:
            return False
        self._retire(set_index, idx - base, idx, now)
        self.store.reset_slot(idx)
        return True

    def _retire(self, set_index: int, way: int, idx: int, now: int) -> None:
        """Account for the end of a generation (eviction path)."""
        store = self.store
        stats = self.stats
        stats.evictions += 1
        dirty = bool(store.dirty[idx])
        if self.write_back and dirty:
            stats.writebacks += 1
        stats.reuse.record(store.use_count[idx])
        on_evict = self._mgmt_on_evict
        if on_evict is not None:
            on_evict(idx, now)
        if self.obs is not None:
            self.obs.emit(
                EV_EVICT, now, self.name,
                line=store.tag[idx], set=set_index, way=way,
                uses=store.use_count[idx], dirty=dirty,
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Close out remaining generations (call once, at end of run)."""
        store = self.store
        record = self.stats.reuse.record
        use_count = store.use_count
        for i, v in enumerate(store.valid):
            if v:
                record(use_count[i])

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty writebacks."""
        store = self.store
        dirty = 0
        for i, v in enumerate(store.valid):
            if v:
                if self.write_back and store.dirty[i]:
                    dirty += 1
                store.reset_slot(i)
        return dirty

    def resident_lines(self) -> List[int]:
        """Line addresses currently resident (diagnostics and tests)."""
        store = self.store
        return [store.tag[i] for i, v in enumerate(store.valid) if v]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Cache {self.name}: {self.size_bytes >> 10}KB "
            f"{self.ways}-way x{self.num_sets} sets, "
            f"repl={self.replacement.name}, mgmt={self.mgmt.name}>"
        )
