"""Behavioural tests for G-Cache's end-to-end dynamics.

These recreate, at unit scale, the scenarios that drove the design (see
docs/workloads.md): the protection-horizon ordering between LRU, SRRIP
and G-Cache, the bootstrap cascade, and the Figure-7 walkthrough.
"""

import random

import pytest

from repro.cache.cache import Cache
from repro.cache.policies.base import FillContext
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.rrip import SRRIPPolicy
from repro.core.gcache import GCacheConfig, GCachePolicy
from repro.core.victim_bits import VictimBitDirectory

LINE = 128


def make_hierarchy(design: str, l1_kb: int = 32):
    if design == "gc":
        l1 = Cache("L1", l1_kb * 1024, 4, LINE, SRRIPPolicy(3),
                   mgmt=GCachePolicy(GCacheConfig()))
    elif design == "srrip":
        l1 = Cache("L1", l1_kb * 1024, 4, LINE, SRRIPPolicy(3))
    else:
        l1 = Cache("L1", l1_kb * 1024, 4, LINE, LRUPolicy())
    l2 = Cache("L2", 1024 * 1024, 16, LINE, LRUPolicy(),
               write_back=True, write_allocate=True)
    directory = VictimBitDirectory(1)
    return l1, l2, directory, design == "gc"


def run_mix(design: str, accesses):
    """Drive (line) accesses through an L1+L2 pair with victim hints."""
    l1, l2, directory, hints = make_hierarchy(design)
    for now, line in enumerate(accesses):
        if l1.lookup(line, now).hit:
            continue
        l2_slot = l2.lookup_fast(line, now)
        if l2_slot < 0:
            fill = l2.fill(line, now, FillContext(line))
            l2_slot = fill.set_index * l2.ways + fill.way
        hint = directory.observe(l2.store, l2_slot, 0) if hints else False
        l1.fill(line, now, FillContext(line, victim_hint=hint))
    return l1.stats


def scan_plus_stream(footprint: int, n: int = 40000, stream_frac: float = 0.3,
                     warps: int = 48, seed: int = 0):
    """The calibration workload: 48 staggered scans + a stream."""
    rng = random.Random(seed)
    cursors = [(w * 41) % footprint for w in range(warps)]
    stream_line = 10 ** 6
    w = 0
    out = []
    for _ in range(n):
        if rng.random() < stream_frac:
            out.append(stream_line)
            stream_line += 1
        else:
            w = (w + 1) % warps
            out.append(2 * 10 ** 6 + cursors[w])
            cursors[w] = (cursors[w] + 1) % footprint
    return out


class TestProtectionHorizonOrdering:
    """On the LRU-cliff scan, the miss ordering must be GC < SRRIP < LRU."""

    @pytest.fixture(scope="class")
    def results(self):
        accesses = scan_plus_stream(footprint=320)
        return {d: run_mix(d, accesses) for d in ("lru", "srrip", "gc")}

    def test_lru_falls_off_the_cliff(self, results):
        assert results["lru"].miss_rate > 0.75

    def test_srrip_partially_recovers(self, results):
        assert results["srrip"].miss_rate < results["lru"].miss_rate

    def test_gcache_beats_srrip(self, results):
        assert results["gc"].miss_rate < results["srrip"].miss_rate - 0.05

    def test_gcache_bypasses_meaningfully(self, results):
        assert results["gc"].bypass_ratio > 0.05


class TestBootstrapCascade:
    def test_miss_rate_declines_over_time(self):
        accesses = scan_plus_stream(footprint=320, n=30000)
        l1, l2, directory, _ = make_hierarchy("gc")
        half = len(accesses) // 2
        stats_at_half = None
        for now, line in enumerate(accesses):
            if now == half:
                stats_at_half = (l1.stats.accesses, l1.stats.hits)
            if l1.lookup(line, now).hit:
                continue
            l2_slot = l2.lookup_fast(line, now)
            if l2_slot < 0:
                fill = l2.fill(line, now, FillContext(line))
                l2_slot = fill.set_index * l2.ways + fill.way
            hint = directory.observe(l2.store, l2_slot, 0)
            l1.fill(line, now, FillContext(line, victim_hint=hint))
        acc0, hit0 = stats_at_half
        first_half_miss = 1 - hit0 / acc0
        second_half_miss = 1 - (l1.stats.hits - hit0) / (l1.stats.accesses - acc0)
        assert second_half_miss < first_half_miss


class TestFigure7Walkthrough:
    """The paper's worked example on a 2-way set, step by step."""

    def test_example_sequence(self):
        policy = GCachePolicy(GCacheConfig(shutdown_interval=0))
        l1 = Cache("L1", 2 * LINE, 2, LINE, SRRIPPolicy(3), mgmt=policy)
        l2 = Cache("L2", 64 * LINE, 4, LINE, LRUPolicy(),
                   write_back=True, write_allocate=True)
        directory = VictimBitDirectory(1)

        def access(line, now):
            if l1.lookup(line, now).hit:
                return "hit"
            l2_slot = l2.lookup_fast(line, now)
            if l2_slot < 0:
                fill = l2.fill(line, now, FillContext(line))
                l2_slot = fill.set_index * l2.ways + fill.way
            hint = directory.observe(l2.store, l2_slot, 0)
            result = l1.fill(line, now, FillContext(line, victim_hint=hint))
            return "bypass" if result.bypassed else "fill"

        a1, a2, b1, b2 = 0, 4, 1, 5
        # Warm-up: a1 and a2 enter; streaming b1 evicts one of them.
        assert access(a1, 0) == "fill"
        assert access(a2, 1) == "fill"
        assert access(b1, 2) == "fill"
        # Second a1 miss: the L2 detects contention, arms the switch,
        # and the block is re-inserted hot.
        assert access(a1, 3) == "fill"
        assert policy.switches.is_on(0)
        assert access(a1, 4) == "hit"
        # Hot set + armed switch: the next streaming block is bypassed.
        access(b1, 5)
        assert access(b2, 6) == "bypass"
        # The protected hot line keeps hitting.
        assert access(a1, 7) == "hit"
