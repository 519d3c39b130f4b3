"""Unit tests for the replacement policies' object hooks."""

import pytest

from repro.cache.line import CacheLine
from repro.cache.replacement import (
    BeladyPolicy,
    LRUPolicy,
    NEVER,
    SRRIPPolicy,
)


def make_ways(n=4):
    ways = [CacheLine() for _ in range(n)]
    for i, line in enumerate(ways):
        line.fill(i, now=0)
    return ways


class TestLRU:
    def test_victim_is_least_recent(self):
        pol = LRUPolicy()
        ways = make_ways()
        for i in range(4):
            pol.on_fill(ways, i, now=i)
        pol.on_hit(ways, 0, now=10)  # refresh way 0
        assert pol.select_victim(ways, now=11) == 1

    def test_hits_update_recency(self):
        pol = LRUPolicy()
        ways = make_ways(2)
        pol.on_fill(ways, 0, now=0)
        pol.on_fill(ways, 1, now=1)
        pol.on_hit(ways, 0, now=2)
        assert pol.select_victim(ways, now=3) == 1

    def test_fill_order_without_hits(self):
        pol = LRUPolicy()
        ways = make_ways(3)
        for i in range(3):
            pol.on_fill(ways, i, now=i)
        assert pol.select_victim(ways, now=5) == 0


class TestSRRIP:
    def test_insertion_at_long_interval(self):
        pol = SRRIPPolicy(bits=3)
        ways = make_ways(2)
        pol.on_fill(ways, 0, now=0)
        assert ways[0].rrpv == 6  # max(7) - 1

    def test_hit_promotes_to_zero(self):
        pol = SRRIPPolicy(bits=3)
        ways = make_ways(2)
        pol.on_fill(ways, 0, now=0)
        pol.on_hit(ways, 0, now=1)
        assert ways[0].rrpv == 0

    def test_victim_prefers_max_rrpv(self):
        pol = SRRIPPolicy(bits=3)
        ways = make_ways(3)
        ways[0].rrpv, ways[1].rrpv, ways[2].rrpv = 2, 7, 5
        assert pol.select_victim(ways, now=0) == 1

    def test_victim_ages_until_one_reaches_max(self):
        pol = SRRIPPolicy(bits=3)
        ways = make_ways(2)
        ways[0].rrpv, ways[1].rrpv = 3, 5
        assert pol.select_victim(ways, now=0) == 1
        # Aging must have advanced both lines by the same amount.
        assert ways[0].rrpv == 5
        assert ways[1].rrpv == 7

    def test_tie_breaks_to_lowest_way(self):
        pol = SRRIPPolicy(bits=3)
        ways = make_ways(3)
        for w in ways:
            w.rrpv = 7
        assert pol.select_victim(ways, now=0) == 0

    def test_width_validation(self):
        with pytest.raises(ValueError):
            SRRIPPolicy(bits=0)

    def test_insertion_rrpv_validation(self):
        with pytest.raises(ValueError):
            SRRIPPolicy(bits=2, insertion_rrpv=9)

    def test_custom_insertion(self):
        pol = SRRIPPolicy(bits=3, insertion_rrpv=7)
        ways = make_ways(1)
        pol.on_fill(ways, 0, now=0)
        assert ways[0].rrpv == 7


class TestBelady:
    def test_evicts_furthest_next_use(self):
        pol = BeladyPolicy()
        ways = make_ways(3)
        for i, nxt in enumerate([10, 100, 50]):
            pol.next_use_hint = nxt
            pol.on_fill(ways, i, now=0)
        assert pol.select_victim(ways, now=0) == 1

    def test_never_used_is_first_victim(self):
        pol = BeladyPolicy()
        ways = make_ways(2)
        pol.next_use_hint = 5
        pol.on_fill(ways, 0, now=0)
        pol.next_use_hint = NEVER
        pol.on_fill(ways, 1, now=0)
        assert pol.select_victim(ways, now=0) == 1
