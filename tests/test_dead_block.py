"""Tests for the counter-based dead-block bypass baseline."""

import pytest

from repro.cache.cache import Cache
from repro.cache.policies.dead_block import DeadBlockPolicy
from repro.cache.replacement.lru import LRUPolicy

LINE = 128


def dbp_cache(confidence=1, sets=2, ways=2):
    policy = DeadBlockPolicy(confidence=confidence)
    return Cache("L1", sets * ways * LINE, ways, LINE, LRUPolicy(), mgmt=policy), policy


def churn(cache, line, now):
    """Push `line` out with conflicting fills from distinct regions.

    Fillers step by 4 * num_sets so they stay in `line`'s set but never
    share a predictor region with it (region_shift=2 groups 4 lines).
    """
    set_index = cache.set_index(line)
    if not cache.probe(line):
        cache.fill(line, now)
    filler = line + 4 * cache.num_sets
    while cache.probe(line):
        cache.fill(filler, now)
        filler += 4 * cache.num_sets
    return set_index


class TestLearning:
    def test_dead_generation_recorded(self):
        cache, policy = dbp_cache()
        churn(cache, 0, now=0)  # line 0 evicted with zero reuse
        predicted, streak = policy._entry(0)
        assert predicted == 0
        assert streak >= 1

    def test_live_generation_resets_streak(self):
        # High confidence so the dead prediction cannot bypass the refill.
        cache, policy = dbp_cache(confidence=99)
        churn(cache, 0, now=0)
        cache.fill(0, now=10)
        cache.lookup(0, now=11)  # reuse it this time
        churn(cache, 0, now=12)
        predicted, streak = policy._entry(0)
        assert predicted >= 1
        assert streak == 0


class TestBypass:
    def test_dead_on_arrival_bypassed_after_confidence(self):
        cache, policy = dbp_cache(confidence=1)
        churn(cache, 0, now=0)
        result = cache.fill(0, now=100)
        assert result.bypassed
        assert policy.dead_on_arrival == 1

    def test_confidence_gate(self):
        cache, policy = dbp_cache(confidence=3)
        churn(cache, 0, now=0)
        assert cache.fill(0, now=100).inserted  # streak 1 < 3

    def test_unknown_region_inserted(self):
        cache, policy = dbp_cache()
        assert cache.fill(0, now=0).inserted


class TestVictimPreference:
    def test_prefers_consumed_line(self):
        cache, policy = dbp_cache()
        # Teach the predictor that region of line 0 is reused exactly once.
        cache.fill(0, now=0)
        cache.lookup(0, now=1)
        churn(cache, 0, now=2)
        # Refill and consume its predicted single reuse.
        cache.fill(0, now=10)
        cache.lookup(0, now=11)
        # Same set, different predictor region, second way.
        cache.fill(8 * cache.num_sets, now=12)
        victim_way = policy.choose_victim(cache.set_index(0), now=13)
        assert victim_way == cache.find_way(0)

    def test_defers_when_no_dead_line(self):
        cache, policy = dbp_cache()
        cache.fill(0, now=0)
        assert policy.choose_victim(cache.set_index(0), now=1) is None


class TestValidation:
    def test_parameters(self):
        with pytest.raises(ValueError):
            DeadBlockPolicy(table_bits=0)
        with pytest.raises(ValueError):
            DeadBlockPolicy(confidence=0)

    def test_design_registry(self):
        from repro.sim.designs import make_design

        spec = make_design("dbp")
        assert isinstance(spec.make_l1_mgmt(), DeadBlockPolicy)

    def test_prediction_rate(self):
        cache, policy = dbp_cache(confidence=1)
        churn(cache, 0, now=0)
        cache.fill(0, now=100)
        assert 0.0 < policy.dead_prediction_rate <= 1.0
