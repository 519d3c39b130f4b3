"""Property-based tests (hypothesis) for core data structures.

These check invariants the rest of the system silently relies on:
tag-array consistency under arbitrary access sequences, address-map
bijectivity, coalescer conservation, statistic identities, and the
optimality property of Belady replacement on single-set traces.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.cache.policies.base import FillContext
from repro.cache.replacement.belady import NEVER, BeladyPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.rrip import SRRIPPolicy
from repro.core.gcache import GCacheConfig, GCachePolicy
from repro.gpu.coalescer import Coalescer
from repro.sim.addressing import AddressMap
from repro.stats.counters import ReuseHistogram
from repro.stats.report import geomean

LINE = 128

access_seqs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=31), st.booleans()),
    min_size=1,
    max_size=200,
)


def drive(cache: Cache, seq, mgmt_hints=False) -> None:
    """Replay (line, is_write) pairs with demand fills on load misses."""
    for now, (line, is_write) in enumerate(seq):
        result = cache.lookup(line, now, is_write=is_write)
        if not result.hit and not is_write:
            cache.fill(
                line,
                now,
                FillContext(line, victim_hint=mgmt_hints and (line % 3 == 0)),
            )


class TestCacheInvariants:
    @given(access_seqs)
    @settings(max_examples=60, deadline=None)
    def test_no_duplicate_tags(self, seq):
        cache = Cache("c", 1024, 2, LINE, LRUPolicy())
        drive(cache, seq)
        resident = cache.resident_lines()
        assert len(resident) == len(set(resident))

    @given(access_seqs)
    @settings(max_examples=60, deadline=None)
    def test_lines_stay_in_their_set(self, seq):
        cache = Cache("c", 1024, 2, LINE, LRUPolicy())
        drive(cache, seq)
        store = cache.store
        for slot in range(store.size):
            if store.valid[slot]:
                assert cache.set_index(store.tag[slot]) == slot // cache.ways

    @given(access_seqs)
    @settings(max_examples=60, deadline=None)
    def test_stats_identities(self, seq):
        cache = Cache("c", 1024, 2, LINE, LRUPolicy())
        drive(cache, seq)
        stats = cache.stats
        assert stats.hits + stats.misses == stats.accesses
        assert stats.fills <= stats.misses
        assert stats.evictions <= stats.fills
        assert 0.0 <= stats.miss_rate <= 1.0

    @given(access_seqs)
    @settings(max_examples=60, deadline=None)
    def test_generation_conservation(self, seq):
        # Every fill either stays resident or was retired to the reuse
        # histogram; finalize() closes the residents.
        cache = Cache("c", 1024, 2, LINE, LRUPolicy())
        drive(cache, seq)
        fills = cache.stats.fills
        cache.finalize()
        assert cache.stats.reuse.generations == fills

    @given(access_seqs)
    @settings(max_examples=60, deadline=None)
    def test_gcache_preserves_invariants(self, seq):
        cache = Cache(
            "c", 1024, 2, LINE, SRRIPPolicy(3), mgmt=GCachePolicy(GCacheConfig())
        )
        drive(cache, seq, mgmt_hints=True)
        stats = cache.stats
        assert stats.fills + stats.bypasses <= stats.misses
        resident = cache.resident_lines()
        assert len(resident) == len(set(resident))
        max_rrpv = cache.replacement.max_rrpv
        for rrpv in cache.store.rrpv:
            assert 0 <= rrpv <= max_rrpv

    @given(access_seqs)
    @settings(max_examples=40, deadline=None)
    def test_rrpv_bounded_under_srrip(self, seq):
        cache = Cache("c", 1024, 2, LINE, SRRIPPolicy(3))
        drive(cache, seq)
        for rrpv in cache.store.rrpv:
            assert 0 <= rrpv <= 7


class TestBeladyOptimality:
    @given(
        st.lists(st.integers(min_value=0, max_value=7), min_size=4, max_size=120)
    )
    @settings(max_examples=60, deadline=None)
    def test_opt_beats_lru_on_single_set(self, lines):
        """On any single-set trace, OPT's hits >= LRU's hits."""
        sets, ways = 1, 3

        def run_lru():
            cache = Cache("c", sets * ways * LINE, ways, LINE, LRUPolicy())
            hits = 0
            for now, line in enumerate(lines):
                if cache.lookup(line, now).hit:
                    hits += 1
                else:
                    cache.fill(line, now)
            return hits

        def run_opt():
            pol = BeladyPolicy()
            cache = Cache("c", sets * ways * LINE, ways, LINE, pol)
            nxt = {}
            next_use = [NEVER] * len(lines)
            for pos in range(len(lines) - 1, -1, -1):
                next_use[pos] = nxt.get(lines[pos], NEVER)
                nxt[lines[pos]] = pos
            hits = 0
            for now, line in enumerate(lines):
                pol.next_use_hint = next_use[now]
                if cache.lookup(line, now).hit:
                    hits += 1
                else:
                    cache.fill(line, now)
            return hits

        assert run_opt() >= run_lru()


class TestAddressMapProperties:
    @given(
        st.integers(min_value=0, max_value=1 << 40),
        st.sampled_from([1, 2, 4, 8, 16]),
        st.sampled_from([1, 4, 16, 64]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bijective(self, line, partitions, interleave):
        amap = AddressMap(partitions, interleave)
        part = amap.partition(line)
        assert 0 <= part < partitions
        assert amap.globalize(part, amap.local(line)) == line

    @given(st.integers(min_value=0, max_value=1 << 30))
    @settings(max_examples=100, deadline=None)
    def test_distinct_lines_distinct_slots(self, line):
        amap = AddressMap(8, 16)
        a = (amap.partition(line), amap.local(line))
        b = (amap.partition(line + 1), amap.local(line + 1))
        assert a != b


class TestCoalescerProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_conservation(self, lanes):
        unit = Coalescer(line_size=128)
        result = unit.coalesce(lanes)
        assert set(result) == {a >> 7 for a in lanes}
        assert len(result) == len(set(result))
        assert 1 <= len(result) <= len(lanes)


class TestStatsProperties:
    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_histogram_fractions_sum_to_one(self, counts):
        hist = ReuseHistogram()
        for c in counts:
            hist.record(c)
        buckets = hist.buckets()
        assert abs(sum(buckets.values()) - 1.0) < 1e-9

    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_geomean_bounded_by_extremes(self, values):
        g = geomean(values)
        assert min(values) - 1e-9 <= g <= max(values) + 1e-9
