"""Unit tests for the PDP policy family (static SPDP-B and dynamic PDP)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.cache.policies.pdp import (
    DynamicPDPPolicy,
    ReuseDistanceSampler,
    StaticPDPPolicy,
    optimal_pd,
)
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.tagstore import FlatTagStore

LINE = 128


def pdp_cache(pd=4, ways=2, sets=2, **kwargs):
    policy = StaticPDPPolicy(pd=pd, **kwargs)
    cache = Cache("L1", sets * ways * LINE, ways, LINE, LRUPolicy(), mgmt=policy)
    return cache, policy


class TestStaticPDPProtection:
    def test_fresh_fill_is_protected(self):
        cache, pol = pdp_cache(pd=4)
        cache.fill(0, now=0)
        assert cache.store.pd_counter[0] > 0

    def test_protection_decays_with_set_accesses(self):
        cache, pol = pdp_cache(pd=2)
        cache.fill(0, now=0)
        cache.lookup(2, now=1)   # miss in same set decrements
        cache.lookup(2, now=2)
        assert cache.store.pd_counter[0] == 0

    def test_hit_reprotects(self):
        cache, pol = pdp_cache(pd=2)
        cache.fill(0, now=0)
        cache.lookup(2, now=1)
        cache.lookup(0, now=2)   # hit: PDC reset
        assert cache.store.pd_counter[0] == pol.initial_pdc

    def test_bypass_when_all_protected(self):
        cache, pol = pdp_cache(pd=8, ways=2)
        cache.fill(0, now=0)
        cache.fill(2, now=1)
        result = cache.fill(4, now=2)
        assert result.bypassed
        assert cache.stats.bypasses == 1

    def test_insert_when_unprotected_exists(self):
        cache, pol = pdp_cache(pd=1, ways=2)
        cache.fill(0, now=0)
        cache.fill(2, now=1)
        # Two more set accesses expire both protections.
        cache.lookup(4, now=2)
        cache.lookup(4, now=3)
        result = cache.fill(4, now=4)
        assert result.inserted

    def test_no_bypass_mode_evicts_lowest_pdc(self):
        cache, pol = pdp_cache(pd=8, ways=2, bypass=False)
        cache.fill(0, now=0)
        cache.fill(2, now=1)
        result = cache.fill(4, now=2)
        assert result.inserted

    def test_pd_validation(self):
        with pytest.raises(ValueError):
            StaticPDPPolicy(pd=0)


class TestQuantizedCounters:
    def test_small_pd_no_quantization(self):
        pol = StaticPDPPolicy(pd=6, counter_bits=3)
        assert pol.step == 1
        assert pol.initial_pdc == 6

    def test_large_pd_quantized(self):
        pol = StaticPDPPolicy(pd=21, counter_bits=3)  # max counter 7
        assert pol.step == 3
        assert pol.initial_pdc == 7

    def test_8bit_counters_exact_for_table3_range(self):
        # Table 3's largest optimal PD is 68; 8-bit PDCs hold it exactly.
        pol = StaticPDPPolicy(pd=68, counter_bits=8)
        assert pol.step == 1

    def test_quantized_decrement_cadence(self):
        cache, pol = pdp_cache(pd=14, counter_bits=3)  # step=2
        cache.fill(0, now=0)
        start = cache.store.pd_counter[0]
        cache.lookup(2, now=1)  # 1st access: no decrement (step boundary)
        assert cache.store.pd_counter[0] == start
        cache.lookup(2, now=2)  # 2nd access: decrement
        assert cache.store.pd_counter[0] == start - 1


class TestOptimalPDEstimator:
    def test_prefers_distance_with_mass(self):
        rdd = [0] * 64
        rdd[8] = 100
        assert optimal_pd(rdd, total=120, max_pd=32) == 8

    def test_ignores_mass_beyond_max_pd(self):
        rdd = [0] * 64
        rdd[40] = 1000
        rdd[4] = 10
        assert optimal_pd(rdd, total=1100, max_pd=16) == 4

    def test_empty_sample_returns_min(self):
        assert optimal_pd([0] * 16, total=0, max_pd=8) == 1

    def test_balances_hits_against_occupancy(self):
        # Mass at 2 and a little at 30: protecting to 30 wastes occupancy.
        rdd = [0] * 64
        rdd[2] = 100
        rdd[30] = 5
        assert optimal_pd(rdd, total=200, max_pd=32) == 2


class TestSampler:
    def test_measures_reuse_distance(self):
        sampler = ReuseDistanceSampler(num_sets=1, fifo_depth=8)
        sampler.observe(0, 100)
        sampler.observe(0, 101)
        rd = sampler.observe(0, 100)
        assert rd == 2
        assert sampler.rdd[2] == 1

    def test_beyond_fifo_reach_unmeasured(self):
        sampler = ReuseDistanceSampler(num_sets=1, fifo_depth=2)
        sampler.observe(0, 1)
        sampler.observe(0, 2)
        sampler.observe(0, 3)  # pushes 1 out
        assert sampler.observe(0, 1) is None

    def test_total_counts_all_observations(self):
        sampler = ReuseDistanceSampler(num_sets=1)
        for i in range(5):
            sampler.observe(0, i)
        assert sampler.total == 5

    def test_set_sampling_filter(self):
        sampler = ReuseDistanceSampler(num_sets=4, sample_every=2)
        assert sampler.observe(1, 5) is None
        assert sampler.total == 0

    def test_decay_halves(self):
        sampler = ReuseDistanceSampler(num_sets=1)
        sampler.observe(0, 1)
        sampler.observe(0, 1)
        sampler.decay()
        assert sampler.total == 1


class TestDynamicPDP:
    def test_recomputes_pd_each_epoch(self):
        pol = DynamicPDPPolicy(counter_bits=8, epoch_accesses=64, initial_pd=4)
        cache = Cache("L1", 2 * 2 * LINE, 2, LINE, LRUPolicy(), mgmt=pol)
        # Drive a strict 2-distance reuse pattern through set 0.
        for i in range(200):
            line = (i % 2) * 2  # lines 0 and 2 alternate in set 0
            if not cache.lookup(line, now=i).hit:
                cache.fill(line, now=i)
        assert len(pol.pd_history) > 1
        assert pol.pd <= 8  # short-distance pattern -> small PD

    def test_name_reflects_width(self):
        assert DynamicPDPPolicy(counter_bits=3).name == "pdp-3"
        assert DynamicPDPPolicy(counter_bits=8).name == "pdp-8"


class TestBatchPlan:
    """``plan`` + ``apply`` over a batch leave exactly the state that
    observing the same accesses one at a time leaves."""

    @staticmethod
    def _state(pol):
        sampler = pol._sampler
        return (
            pol.pd_history, pol._since_epoch, pol.pd, pol.step,
            pol.initial_pdc, sampler.rdd, sampler.total,
            {s: list(f) for s, f in sampler._fifos.items()},
        )

    @given(
        epoch=st.integers(1, 40),
        depth=st.integers(1, 8),
        rdd_size=st.sampled_from((4, 256)),
        sample_every=st.integers(1, 3),
        batches=st.lists(
            st.lists(st.tuples(st.integers(0, 7), st.integers(0, 12)),
                     max_size=60),
            min_size=1, max_size=3,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_plan_matches_observe(self, epoch, depth, rdd_size,
                                  sample_every, batches):
        one, batch = (
            DynamicPDPPolicy(counter_bits=3, fifo_depth=depth,
                             rdd_size=rdd_size, epoch_accesses=epoch)
            for _ in range(2)
        )
        for pol in (one, batch):
            pol.attach(FlatTagStore(8, 2), LRUPolicy())
            pol._sampler = ReuseDistanceSampler(
                8, fifo_depth=depth, rdd_size=rdd_size,
                sample_every=sample_every,
            )
        for accesses in batches:
            sets = np.array([s for s, _ in accesses], dtype=np.int64)
            lines = np.array([a for _, a in accesses], dtype=np.int64)
            plan = batch.plan(sets, lines)
            assert len(plan.at) == len(plan.pds)
            batch.apply(plan)
            for s, a in accesses:
                one._observe(s, a)
            assert self._state(batch) == self._state(one)
