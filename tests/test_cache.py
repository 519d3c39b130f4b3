"""Unit tests for the set-associative cache."""

import pytest

from repro.cache.cache import Cache
from repro.cache.policies.base import FillContext
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.rrip import SRRIPPolicy

LINE = 128


def l1(size=1024, ways=2):
    return Cache("L1", size, ways, LINE, LRUPolicy())


def l2(size=2048, ways=2):
    return Cache("L2", size, ways, LINE, LRUPolicy(), write_back=True, write_allocate=True)


class TestGeometry:
    def test_set_count(self):
        cache = l1(size=1024, ways=2)  # 1024 / (2*128) = 4 sets
        assert cache.num_sets == 4

    def test_indivisible_size_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            Cache("bad", 1000, 2, LINE, LRUPolicy())

    def test_non_pow2_sets_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            Cache("bad", 3 * 2 * LINE, 2, LINE, LRUPolicy())

    def test_write_allocate_requires_write_back(self):
        with pytest.raises(ValueError, match="write-allocate"):
            Cache("bad", 1024, 2, LINE, LRUPolicy(), write_allocate=True)

    def test_set_index_wraps(self):
        cache = l1()
        assert cache.set_index(0) == cache.set_index(4)  # 4 sets

    def test_pre_shift_drops_bank_bits(self):
        cache = Cache("L2", 1024, 2, LINE, LRUPolicy(), pre_shift=3)
        assert cache.set_index(0b1000) == cache.set_index(0b1001 << 3 >> 3 << 3)
        assert cache.set_index(8) == 1


class TestReplacementBinding:
    @pytest.mark.parametrize("make", [LRUPolicy, lambda: SRRIPPolicy(bits=3)],
                             ids=["lru", "srrip"])
    def test_policy_shared_with_another_cache_is_refused(self, make):
        policy = make()
        Cache("L1a", 1024, 2, LINE, policy)
        with pytest.raises(ValueError, match="another cache"):
            Cache("L1b", 1024, 2, LINE, policy)


class TestLookupAndFill:
    def test_cold_miss(self):
        cache = l1()
        assert not cache.lookup(0, now=0).hit
        assert cache.stats.loads == 1
        assert cache.stats.load_hits == 0

    def test_fill_then_hit(self):
        cache = l1()
        cache.fill(0, now=0)
        result = cache.lookup(0, now=1)
        assert result.hit
        slot = result.set_index * cache.ways + result.way
        assert cache.store.use_count[slot] == 1

    def test_fill_already_present(self):
        cache = l1()
        cache.fill(0, now=0)
        result = cache.fill(0, now=1)
        assert result.already_present
        assert cache.stats.fills == 1

    def test_fill_prefers_invalid_way(self):
        cache = l1()
        r1 = cache.fill(0, now=0)
        r2 = cache.fill(4, now=1)  # same set (4 sets)
        assert r1.way != r2.way
        assert cache.stats.evictions == 0

    def test_eviction_when_set_full(self):
        cache = l1(ways=2)
        cache.fill(0, now=0)
        cache.fill(4, now=1)
        result = cache.fill(8, now=2)
        assert result.inserted
        assert result.evicted_tag == 0  # LRU
        assert cache.stats.evictions == 1
        assert not cache.probe(0)

    def test_probe_is_stateless(self):
        cache = l1()
        cache.fill(0, now=0)
        before = cache.stats.accesses
        assert cache.probe(0)
        assert not cache.probe(1)
        assert cache.stats.accesses == before


class TestWriteSemantics:
    def test_write_through_hit_not_dirty(self):
        cache = l1()  # write-through
        cache.fill(0, now=0)
        res = cache.lookup(0, now=1, is_write=True)
        assert res.hit
        assert not cache.store.dirty[res.set_index * cache.ways + res.way]

    def test_write_back_hit_sets_dirty(self):
        cache = l2()
        cache.fill(0, now=0)
        res = cache.lookup(0, now=1, is_write=True)
        assert res.hit
        assert cache.store.dirty[res.set_index * cache.ways + res.way]

    def test_write_allocate_fill_dirty(self):
        cache = l2()
        ctx = FillContext(line_addr=0, is_write=True)
        res = cache.fill(0, now=0, ctx=ctx)
        assert cache.store.dirty[res.set_index * cache.ways + res.way]

    def test_dirty_eviction_reports_writeback(self):
        cache = l2(size=512, ways=2)  # 2 sets
        cache.fill(0, now=0, ctx=FillContext(0, is_write=True))
        cache.fill(2, now=1)
        res = cache.fill(4, now=2)
        assert res.writeback
        assert res.evicted_tag == 0
        assert cache.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache = l2(size=512, ways=2)
        cache.fill(0, now=0)
        cache.fill(2, now=1)
        res = cache.fill(4, now=2)
        assert not res.writeback


class TestReuseAccounting:
    def test_eviction_records_reuse(self):
        cache = l1(ways=2)
        cache.fill(0, now=0)
        cache.lookup(0, now=1)
        cache.lookup(0, now=2)
        cache.fill(4, now=3)
        cache.fill(8, now=4)  # evicts line 0 with 2 uses
        assert cache.stats.reuse.as_dict().get(2) == 1

    def test_finalize_flushes_residents(self):
        cache = l1()
        cache.fill(0, now=0)
        cache.finalize()
        assert cache.stats.reuse.generations == 1
        assert cache.stats.reuse.fraction(0) == 1.0

    def test_zero_reuse_fraction(self):
        cache = l1(ways=2)
        for i in range(6):  # streaming: never reused
            cache.fill(i * 4, now=i)
        cache.finalize()
        assert cache.stats.reuse.fraction(0) == 1.0


class TestInvalidateAndFlush:
    def test_invalidate_resident(self):
        cache = l1()
        cache.fill(0, now=0)
        assert cache.invalidate(0)
        assert not cache.probe(0)
        assert cache.stats.evictions == 1

    def test_invalidate_absent(self):
        cache = l1()
        assert not cache.invalidate(0)

    def test_flush_counts_dirty(self):
        cache = l2()
        cache.fill(0, now=0, ctx=FillContext(0, is_write=True))
        cache.fill(2, now=1)
        assert cache.flush() == 1
        assert cache.resident_lines() == []


class TestStatsConsistency:
    def test_miss_rate(self):
        cache = l1()
        cache.fill(0, now=0)
        cache.lookup(0, now=1)
        cache.lookup(1, now=2)
        assert cache.stats.miss_rate == pytest.approx(0.5)

    def test_store_counters(self):
        cache = l1()
        cache.lookup(0, now=0, is_write=True)
        assert cache.stats.stores == 1
        assert cache.stats.store_hits == 0

    def test_resident_lines(self):
        cache = l1()
        cache.fill(0, now=0)
        cache.fill(5, now=1)
        assert sorted(cache.resident_lines()) == [0, 5]


class TestSRRIPIntegration:
    def test_srrip_cache_protects_reused_lines(self):
        cache = Cache("L1", 512, 2, LINE, SRRIPPolicy(bits=3))  # 2 sets
        cache.fill(0, now=0)
        cache.lookup(0, now=1)  # rrpv -> 0
        # Stream through the same set: line 0 must survive several fills.
        for i in range(1, 4):
            cache.fill(i * 2, now=i + 1)
        assert cache.probe(0)
