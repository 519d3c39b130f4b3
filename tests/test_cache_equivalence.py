"""Equivalence property suite: array-backed Cache vs the reference model.

The production :class:`~repro.cache.cache.Cache` stores tag-array state in
flat parallel arrays (:mod:`repro.cache.tagstore`) and calls the
replacement policies' index-based flat hooks.  This suite drives it and the
retained object-per-line :class:`~repro.cache.reference.ReferenceCache`,
which calls their object hooks, with *identical* random access streams and
asserts bit-identical behaviour: every lookup's hit/way, every fill's
insert/bypass/eviction/writeback, every invalidate, the final statistics
counters, and the final per-line tag-array state.

Any divergence here means the tag-store rewrite changed simulation
semantics — exactly the regression the golden-number fixtures would catch
at whole-simulator granularity, but localised to a single cache op.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.cache.policies.base import FillContext
from repro.cache.policies.dead_block import DeadBlockPolicy
from repro.cache.policies.pdp import DynamicPDPPolicy, StaticPDPPolicy
from repro.cache.reference import ReferenceCache
from repro.cache.replacement.belady import NEVER, BeladyPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.rrip import SRRIPPolicy
from repro.core.gcache import GCacheConfig, GCachePolicy

# Tiny geometry so random streams produce constant conflict pressure:
# 4 sets x 4 ways, 16 B lines, addresses drawn from 8 lines per set.
WAYS = 4
NUM_SETS = 4
LINE = 16
SIZE = NUM_SETS * WAYS * LINE
ADDR_SPACE = NUM_SETS * 8

# Each entry builds a *fresh* policy pair per cache: replacement policies
# carry per-cache state (LRU ticks), so the two implementations must get
# independent instances.
CONFIGS = {
    "lru": lambda: dict(replacement=LRUPolicy()),
    "srrip": lambda: dict(replacement=SRRIPPolicy(bits=2)),
    # Belady OPT; _drive feeds it each op's real next-use position.
    "opt": lambda: dict(replacement=BeladyPolicy()),
    "srrip-gcache": lambda: dict(
        replacement=SRRIPPolicy(bits=2),
        mgmt=GCachePolicy(GCacheConfig(shutdown_interval=64)),
    ),
    "lru-spdp": lambda: dict(
        replacement=LRUPolicy(),
        mgmt=StaticPDPPolicy(pd=3, bypass=True),
    ),
    "lru-pdp3": lambda: dict(
        replacement=LRUPolicy(),
        # A short epoch so short streams reach the sampler's PD update.
        mgmt=DynamicPDPPolicy(counter_bits=3, epoch_accesses=16),
    ),
    "lru-dbp": lambda: dict(replacement=LRUPolicy(), mgmt=DeadBlockPolicy()),
    "srrip-gcache-adaptive": lambda: dict(
        replacement=SRRIPPolicy(bits=2),
        mgmt=GCachePolicy(
            GCacheConfig(adaptive_aging=True, aging_epoch=8, max_m=4)
        ),
    ),
    "lru-writeback": lambda: dict(
        replacement=LRUPolicy(), write_back=True, write_allocate=True
    ),
}

# An op is (kind, line_addr, flag):
#   kind 0 -> read access  (lookup; fill on miss, flag = victim hint)
#   kind 1 -> write access (lookup is_write=True; fill only if the cache
#             write-allocates, mirroring the memory system's usage)
#   kind 2 -> invalidate
OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=ADDR_SPACE - 1),
        st.booleans(),
    ),
    min_size=1,
    max_size=200,
)


def _build(cls, key: str):
    kwargs = dict(
        name=f"{key}-{cls.__name__}",
        size_bytes=SIZE,
        ways=WAYS,
        line_size=LINE,
    )
    kwargs.update(CONFIGS[key]())
    return cls(**kwargs)


def _next_uses(ops):
    """Position of the next op on the same line address, or NEVER."""
    nxt = [NEVER] * len(ops)
    seen = {}
    for pos in range(len(ops) - 1, -1, -1):
        addr = ops[pos][1]
        nxt[pos] = seen.get(addr, NEVER)
        seen[addr] = pos
    return nxt


def _drive(cache, ops):
    """Apply the op stream; return the full observable event trace."""
    trace = []
    now = 0
    belady = cache.replacement if isinstance(cache.replacement, BeladyPolicy) else None
    next_uses = _next_uses(ops) if belady is not None else None
    for pos, (kind, addr, flag) in enumerate(ops):
        now += 1
        if belady is not None:
            belady.next_use_hint = next_uses[pos]
        if kind == 2:
            trace.append(("inv", cache.invalidate(addr, now)))
            continue
        is_write = kind == 1
        r = cache.lookup(addr, now, is_write=is_write)
        trace.append(("lookup", is_write, r.hit, r.set_index, r.way))
        wants_fill = not r.hit and (not is_write or cache.write_allocate)
        if wants_fill:
            ctx = FillContext(
                line_addr=addr, src_id=0, is_write=is_write, victim_hint=flag
            )
            f = cache.fill(addr, now, ctx)
            trace.append(
                (
                    "fill",
                    f.set_index,
                    f.inserted,
                    f.bypassed,
                    f.already_present,
                    f.way,
                    f.evicted_tag,
                    f.writeback,
                )
            )
    cache.finalize()
    return trace


def _line_state(cache):
    """Per-slot (valid, tag, dirty, rrpv, stamp, pd_counter), set-major."""
    if isinstance(cache, ReferenceCache):
        return [
            (ln.valid, ln.tag, ln.dirty, ln.rrpv, ln.stamp, ln.pd_counter)
            for s in cache.sets
            for ln in s
        ]
    st = cache.store
    return [
        (bool(st.valid[i]), st.tag[i], bool(st.dirty[i]), st.rrpv[i],
         st.stamp[i], st.pd_counter[i])
        for i in range(st.size)
    ]


def _stats(cache):
    """Flatten CacheStats to comparable values (ReuseHistogram lacks __eq__)."""
    out = {}
    for k, v in vars(cache.stats).items():
        out[k] = dict(v._counts) if hasattr(v, "_counts") else v
    return out


@pytest.mark.parametrize("key", sorted(CONFIGS))
@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_flat_cache_matches_reference(key, ops):
    fast = _build(Cache, key)
    ref = _build(ReferenceCache, key)

    fast_trace = _drive(fast, ops)
    ref_trace = _drive(ref, ops)

    assert fast_trace == ref_trace
    assert _line_state(fast) == _line_state(ref)
    assert _stats(fast) == _stats(ref)
    assert sorted(fast.resident_lines()) == sorted(ref.resident_lines())


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_flush_matches_reference(key):
    """Deterministic smoke: fill past capacity, then flush both."""
    fast = _build(Cache, key)
    ref = _build(ReferenceCache, key)
    ops = [(0, (7 * i) % ADDR_SPACE, i % 3 == 0) for i in range(3 * SIZE // LINE)]
    assert _drive(fast, ops) == _drive(ref, ops)
    assert fast.flush() == ref.flush()
    assert _line_state(fast) == _line_state(ref)
