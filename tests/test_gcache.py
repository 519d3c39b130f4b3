"""Unit tests for the G-Cache policy (the paper's Section 4 mechanism)."""

import pytest

from repro.cache.cache import Cache
from repro.cache.policies.base import FillContext
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.rrip import SRRIPPolicy
from repro.core.gcache import GCacheConfig, GCachePolicy

LINE = 128


def gcache(sets=2, ways=2, config=None):
    policy = GCachePolicy(config or GCacheConfig())
    cache = Cache(
        "L1", sets * ways * LINE, ways, LINE, SRRIPPolicy(bits=3), mgmt=policy
    )
    return cache, policy


def set0_rrpvs(cache):
    """RRPVs of set 0, whose ways are slots ``0 .. ways-1``."""
    return cache.store.rrpv[: cache.ways]


def set_set0_rrpvs(cache, value):
    cache.store.rrpv[: cache.ways] = [value] * cache.ways


def hot_fill(cache, line, now):
    """Fill with a victim hint (contention-detected block)."""
    return cache.fill(line, now, FillContext(line, victim_hint=True))


class TestAttachment:
    def test_requires_rrip_replacement(self):
        with pytest.raises(TypeError, match="RRIP"):
            Cache("L1", 512, 2, LINE, LRUPolicy(), mgmt=GCachePolicy())

    def test_threshold_resolves_to_max_rrpv(self):
        cache, pol = gcache()
        assert pol.th_hot == 7
        assert pol.th_hot_victim == 6

    def test_explicit_threshold_validated(self):
        cfg = GCacheConfig(th_hot=9)
        with pytest.raises(ValueError, match="exceeds"):
            Cache("L1", 512, 2, LINE, SRRIPPolicy(bits=3), mgmt=GCachePolicy(cfg))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GCacheConfig(th_hot=0)
        with pytest.raises(ValueError):
            GCacheConfig(initial_m=2, max_m=1)
        with pytest.raises(ValueError):
            GCacheConfig(th_hot_victim=-1)

    def test_negative_insertion_rrpv_rejected(self):
        with pytest.raises(ValueError, match="hot_insert_rrpv"):
            GCacheConfig(hot_insert_rrpv=-2)
        with pytest.raises(ValueError, match="cold_insert_rrpv"):
            GCacheConfig(cold_insert_rrpv=-1)

    @pytest.mark.parametrize("field", ["hot_insert_rrpv", "cold_insert_rrpv"])
    def test_insertion_rrpv_above_max_rejected_at_attach(self, field):
        cfg = GCacheConfig(**{field: 8})  # 3-bit SRRIP: max RRPV 7
        with pytest.raises(ValueError, match=f"{field}=8 exceeds"):
            Cache("L1", 512, 2, LINE, SRRIPPolicy(bits=3), mgmt=GCachePolicy(cfg))

    def test_max_insertion_rrpv_accepted(self):
        cfg = GCacheConfig(hot_insert_rrpv=7, cold_insert_rrpv=7)
        Cache("L1", 512, 2, LINE, SRRIPPolicy(bits=3), mgmt=GCachePolicy(cfg))

    def test_out_of_range_insertion_rrpv_fails_on_both_backends(self):
        from repro.sim.config import GPUConfig
        from repro.sim.designs import make_design
        from repro.sim.functional import FunctionalEngine
        from repro.sim.memory_system import MemorySystem

        design = make_design("gc", gcache_config=GCacheConfig(cold_insert_rrpv=9))
        with pytest.raises(ValueError, match="cold_insert_rrpv=9"):
            MemorySystem(GPUConfig(), design)
        with pytest.raises(ValueError, match="cold_insert_rrpv=9"):
            FunctionalEngine(GPUConfig(), design)


class TestBypassSwitchControl:
    def test_victim_hint_turns_switch_on(self):
        cache, pol = gcache()
        hot_fill(cache, 0, now=0)
        assert pol.switches.is_on(0)

    def test_cold_fill_leaves_switch_off(self):
        cache, pol = gcache()
        cache.fill(0, now=0)
        assert not pol.switches.is_on(0)

    def test_switch_off_means_insert(self):
        cache, pol = gcache()
        cache.fill(0, now=0)
        cache.fill(2, now=1)
        result = cache.fill(4, now=2)  # set full, all "hot", switch off
        assert result.inserted


class TestBypassDecision:
    def test_all_hot_set_bypasses_cold_fill(self):
        cache, pol = gcache()
        hot_fill(cache, 0, now=0)   # switch on; rrpv 0
        hot_fill(cache, 2, now=1)   # rrpv 0
        result = cache.fill(4, now=2)
        assert result.bypassed
        assert cache.stats.bypasses == 1

    def test_partial_set_inserts(self):
        cache, pol = gcache()
        hot_fill(cache, 0, now=0)
        result = cache.fill(2, now=1)  # invalid way available
        assert result.inserted

    def test_non_hot_line_prevents_bypass(self):
        cache, pol = gcache()
        hot_fill(cache, 0, now=0)
        cache.fill(2, now=1)
        cache.store.rrpv[cache.find_way(2)] = 7  # eviction candidate (set 0)
        result = cache.fill(4, now=2)
        assert result.inserted

    def test_hint_fill_uses_lower_threshold(self):
        # With the lower TH_hot, lines at rrpv >= th_hot-1 do not count as
        # hot, so a reused (hint) block gets inserted where a cold one
        # bypasses.
        cache, pol = gcache()
        hot_fill(cache, 0, now=0)
        hot_fill(cache, 2, now=1)
        set_set0_rrpvs(cache, pol.th_hot_victim)  # stale enough for a hint block
        cold = cache.fill(4, now=2)
        assert cold.bypassed
        hot = hot_fill(cache, 6, now=3)
        assert hot.inserted

    def test_hint_fill_bypasses_when_residents_recently_hot(self):
        # Protection must be sticky: a homeless hot block may not evict a
        # recently-reused resident (no musical-chairs churn).
        cache, pol = gcache()
        hot_fill(cache, 0, now=0)
        hot_fill(cache, 2, now=1)
        set_set0_rrpvs(cache, 1)
        assert hot_fill(cache, 6, now=3).bypassed


class TestAgingOnBypass:
    def test_bypass_increments_rrpvs(self):
        cache, pol = gcache()
        hot_fill(cache, 0, now=0)
        hot_fill(cache, 2, now=1)
        before = set0_rrpvs(cache)
        cache.fill(4, now=2)  # bypassed
        after = set0_rrpvs(cache)
        assert after == [b + 1 for b in before]

    def test_rrpv_saturates_at_max(self):
        cache, pol = gcache()
        hot_fill(cache, 0, now=0)
        hot_fill(cache, 2, now=1)
        set_set0_rrpvs(cache, 6)
        cache.fill(4, now=2)
        assert all(rrpv == 7 for rrpv in set0_rrpvs(cache))

    def test_persistent_bypass_eventually_inserts(self):
        # The anti-starvation property from Fig. 7: a block that keeps
        # being bypassed ages the set until it wins a slot.
        cache, pol = gcache()
        hot_fill(cache, 0, now=0)
        hot_fill(cache, 2, now=1)
        inserted = False
        for i in range(10):
            if cache.fill(4, now=2 + i).inserted:
                inserted = True
                break
        assert inserted


class TestInsertionPolicy:
    def test_hint_block_inserts_near_mru(self):
        cache, pol = gcache()
        result = hot_fill(cache, 0, now=0)
        assert cache.store.rrpv[result.way] == 0  # set 0

    def test_cold_block_inserts_distant(self):
        cache, pol = gcache()
        result = cache.fill(0, now=0)
        assert cache.store.rrpv[result.way] == 6  # set 0; SRRIP long

    def test_cold_insert_override(self):
        cache, pol = gcache(config=GCacheConfig(cold_insert_rrpv=7))
        result = cache.fill(0, now=0)
        assert cache.store.rrpv[result.way] == 7  # set 0


class TestMthBypassAging:
    def test_m_of_two_halves_aging(self):
        cfg = GCacheConfig(initial_m=2, adaptive_aging=False)
        cache, pol = gcache(config=cfg)
        pol.m = 2
        hot_fill(cache, 0, now=0)
        hot_fill(cache, 2, now=1)
        before = set0_rrpvs(cache)
        cache.fill(4, now=2)  # 1st bypass: no aging
        assert set0_rrpvs(cache) == before
        cache.fill(6, now=3)  # 2nd bypass: aging
        assert set0_rrpvs(cache) == [b + 1 for b in before]

    def test_adaptive_m_grows_under_contention(self):
        cfg = GCacheConfig(adaptive_aging=True, aging_epoch=4)
        cache, pol = gcache(config=cfg)
        # Saturate the epoch with hint-carrying fills + bypasses.
        hot_fill(cache, 0, now=0)
        hot_fill(cache, 2, now=1)
        for i in range(12):
            hot_fill(cache, 4 + 2 * i, now=2 + i)
        assert pol.m > 1
        assert pol.m_history[-1] == pol.m

    def test_adaptive_m_relaxes_without_contention(self):
        cfg = GCacheConfig(adaptive_aging=True, aging_epoch=4, initial_m=8)
        cache, pol = gcache(sets=8, config=cfg)
        for i in range(32):
            cache.fill(i * 2, now=i)  # cold fills, no hints
        assert pol.m < 8


class TestPeriodicShutdown:
    def test_switches_reset_after_interval(self):
        cfg = GCacheConfig(shutdown_interval=4)
        cache, pol = gcache(config=cfg)
        hot_fill(cache, 0, now=0)
        assert pol.switches.is_on(0)
        for i in range(5):
            cache.lookup(0, now=1 + i)
        assert not pol.switches.is_on(0)
        assert pol.switches.shutdowns >= 1

    def test_zero_interval_disables_shutdown(self):
        cfg = GCacheConfig(shutdown_interval=0)
        cache, pol = gcache(config=cfg)
        hot_fill(cache, 0, now=0)
        for i in range(100):
            cache.lookup(0, now=1 + i)
        assert pol.switches.is_on(0)


class TestDiagnostics:
    def test_hint_fill_accounting(self):
        cache, pol = gcache()
        hot_fill(cache, 0, now=0)
        cache.fill(2, now=1)
        assert pol.hint_fills == 1
        # Every fill decision ends as an insert or a bypass.
        assert cache.stats.fills + cache.stats.bypasses == 2


class TestBatchContracts:
    """The functional engine skips calls on the strength of these
    declarations, so they must hold for the class that makes them."""

    @staticmethod
    def state(pol):
        return (
            bytes(pol.switches.bits), pol.m, pol.hint_fills,
            pol._epoch_fills, pol._epoch_hints, list(pol._bypass_counters),
        )

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_fill_gate_declared_only_when_side_effect_free(self, adaptive):
        cache, pol = gcache(config=GCacheConfig(adaptive_aging=adaptive))
        cache.fill(0, now=0)
        cache.fill(2, now=1)  # set 0 full, switch off
        before = self.state(pol)
        assert pol.fill_decision(0, 4, False, 2) is False
        assert pol.fill_gate_switches is not adaptive
        assert (self.state(pol) == before) is pol.fill_gate_switches

    @pytest.mark.parametrize("cold", [None, 7])
    def test_insert_skip_cold_declared_only_for_default_insertion(self, cold):
        cache, pol = gcache(config=GCacheConfig(cold_insert_rrpv=cold))
        cache.fill(0, now=0)
        pol.store.rrpv[0] = 3
        pol.on_insert(0, False, 1)
        assert pol.insert_skip_cold is (cold is None)
        assert (pol.store.rrpv[0] == 3) is pol.insert_skip_cold
