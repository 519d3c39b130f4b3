"""Reference (object-per-line) cache implementation.

This is the original :class:`~repro.cache.cache.Cache` hot-loop retained
verbatim after the array-backed rewrite (see
:mod:`repro.cache.tagstore`).  It walks per-way
:class:`~repro.cache.line.CacheLine` objects exactly as the pre-overhaul
model did, and exists for one purpose: the equivalence property suite
(``tests/test_cache_equivalence.py``) drives it and the production
:class:`~repro.cache.cache.Cache` with identical random access streams
and asserts bit-identical hit/miss/bypass/eviction behaviour.

It intentionally shares the :class:`LookupResult` / :class:`FillResult`
types and the policy interfaces with the production cache, so any future
policy change is automatically cross-checked against both
implementations.  Policies address a tag array by flat index through its
planes (see :mod:`repro.cache.policies.base`); this cache hands them
:class:`LinePlanes`, a view that reads and writes its line objects.  Do
not "optimise" this module — its slowness is the point.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.cache import FillResult, LookupResult, _is_pow2
from repro.cache.line import CacheLine
from repro.cache.policies.base import (
    FillContext,
    ManagementPolicy,
    NullManagementPolicy,
)
from repro.cache.replacement.base import ReplacementPolicy
from repro.stats.counters import CacheStats

__all__ = ["ReferenceCache"]


class _Plane:
    """One :class:`CacheLine` field, indexed like a flat tag-store plane."""

    __slots__ = ("_lines", "_field")

    def __init__(self, lines: List[CacheLine], field: str) -> None:
        self._lines = lines
        self._field = field

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [getattr(line, self._field) for line in self._lines[i]]
        return getattr(self._lines[i], self._field)

    def __setitem__(self, i, value) -> None:
        if isinstance(i, slice):
            for line, v in zip(self._lines[i], value):
                setattr(line, self._field, v)
        else:
            setattr(self._lines[i], self._field, value)


class _ValidCount:
    """Per-set count of valid lines, recounted on every read."""

    __slots__ = ("_sets",)

    def __init__(self, sets: List[List[CacheLine]]) -> None:
        self._sets = sets

    def __getitem__(self, set_index: int) -> int:
        return sum(1 for line in self._sets[set_index] if line.valid)


class LinePlanes:
    """The policy planes of a :class:`ReferenceCache`, over its lines."""

    def __init__(self, sets: List[List[CacheLine]]) -> None:
        lines = [line for ways in sets for line in ways]
        self.num_sets = len(sets)
        self.ways = len(sets[0])
        self.tag = _Plane(lines, "tag")
        self.rrpv = _Plane(lines, "rrpv")
        self.use_count = _Plane(lines, "use_count")
        self.fill_time = _Plane(lines, "fill_time")
        self.pd_counter = _Plane(lines, "pd_counter")
        self.valid_count = _ValidCount(sets)


class ReferenceCache:
    """One set-associative cache bank, modelled line-object by line-object.

    Constructor arguments mirror :class:`~repro.cache.cache.Cache`.
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
        self.obs = None
        self.stats = CacheStats()
        self.sets: List[List[CacheLine]] = [
            [CacheLine() for _ in range(ways)] for _ in range(num_sets)
        ]
        self._set_mask = num_sets - 1
        self.mgmt.attach(LinePlanes(self.sets), replacement, name)
        self._tick_left = self.mgmt.tick_interval

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def set_index(self, line_addr: int) -> int:
        return (line_addr >> self.pre_shift) & self._set_mask

    def find_way(self, line_addr: int) -> int:
        ways = self.sets[self.set_index(line_addr)]
        for i, line in enumerate(ways):
            if line.valid and line.tag == line_addr:
                return i
        return -1

    def probe(self, line_addr: int) -> bool:
        return self.find_way(line_addr) >= 0

    # ------------------------------------------------------------------
    # Access operations
    # ------------------------------------------------------------------
    def lookup(self, line_addr: int, now: int, is_write: bool = False) -> LookupResult:
        set_index = self.set_index(line_addr)
        ways = self.sets[set_index]

        if is_write:
            self.stats.stores += 1
        else:
            self.stats.loads += 1

        if self.mgmt.tick_interval > 0:
            self._tick_left -= 1
            if not self._tick_left:
                self._tick_left = self.mgmt.tick_interval
                self.mgmt.on_tick(now)

        for way, line in enumerate(ways):
            if line.valid and line.tag == line_addr:
                line.use_count += 1
                line.last_access = now
                if is_write:
                    self.stats.store_hits += 1
                    if self.write_back:
                        line.dirty = True
                else:
                    self.stats.load_hits += 1
                self.replacement.on_hit(ways, way, now)
                self.mgmt.on_hit(set_index, set_index * self.ways + way, now)
                return LookupResult(hit=True, set_index=set_index, way=way)

        self.mgmt.on_miss(set_index, now)
        return LookupResult(hit=False, set_index=set_index)

    def fill(self, line_addr: int, now: int, ctx: Optional[FillContext] = None) -> FillResult:
        if ctx is None:
            ctx = FillContext(line_addr=line_addr)
        set_index = self.set_index(line_addr)
        ways = self.sets[set_index]

        for way, line in enumerate(ways):
            if line.valid and line.tag == line_addr:
                return FillResult(set_index=set_index, already_present=True, way=way)

        if self.mgmt.fill_decision(set_index, line_addr, ctx.victim_hint, now):
            self.stats.bypasses += 1
            self.mgmt.on_bypass(set_index, now)
            return FillResult(set_index=set_index, bypassed=True)

        way = -1
        for i, line in enumerate(ways):
            if not line.valid:
                way = i
                break

        evicted_tag = -1
        writeback = False
        if way < 0:
            chosen = self.mgmt.choose_victim(set_index, now)
            way = chosen if chosen is not None else self.replacement.select_victim(ways, now)
            victim = ways[way]
            evicted_tag = victim.tag
            writeback = self.write_back and victim.dirty
            self._retire(set_index, way, victim, now)

        line = ways[way]
        line.fill(line_addr, now)
        if ctx.is_write and self.write_allocate:
            line.dirty = True
        self.stats.fills += 1
        self.replacement.on_fill(ways, way, now)
        self.mgmt.on_insert(set_index * self.ways + way, ctx.victim_hint, now)
        return FillResult(
            set_index=set_index,
            inserted=True,
            way=way,
            evicted_tag=evicted_tag,
            writeback=writeback,
        )

    def invalidate(self, line_addr: int, now: int = 0) -> bool:
        set_index = self.set_index(line_addr)
        for way, line in enumerate(self.sets[set_index]):
            if line.valid and line.tag == line_addr:
                self._retire(set_index, way, line, now)
                line.reset()
                return True
        return False

    def _retire(self, set_index: int, way: int, line: CacheLine, now: int) -> None:
        self.stats.evictions += 1
        if self.write_back and line.dirty:
            self.stats.writebacks += 1
        self.stats.reuse.record(line.use_count)
        self.mgmt.on_evict(set_index * self.ways + way, now)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        for set_lines in self.sets:
            for line in set_lines:
                if line.valid:
                    self.stats.reuse.record(line.use_count)

    def flush(self) -> int:
        dirty = 0
        for set_lines in self.sets:
            for line in set_lines:
                if line.valid:
                    if self.write_back and line.dirty:
                        dirty += 1
                    line.reset()
        return dirty

    def resident_lines(self) -> List[int]:
        return [
            line.tag
            for set_lines in self.sets
            for line in set_lines
            if line.valid
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ReferenceCache {self.name}: {self.size_bytes >> 10}KB "
            f"{self.ways}-way x{self.num_sets} sets, "
            f"repl={self.replacement.name}, mgmt={self.mgmt.name}>"
        )
