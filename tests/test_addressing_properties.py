"""Property suite for the address map (scalar and vectorized paths).

The fast-functional backend maps whole address streams through
:meth:`AddressMap.partition_array` / :meth:`AddressMap.local_array`; any
divergence from the scalar :meth:`partition` / :meth:`local` (which the
timing engine and the replay oracle use) would silently route traffic to
different L2 banks under the two fidelities.  This suite pins:

* vectorized == scalar, element for element, over random addresses and
  every (partition-count, interleave) geometry,
* the map is bijective: ``globalize(partition(a), local(a)) == a``,
* partition values stay in range and local addresses are dense
  (offset bits preserved, partition bits squeezed out).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.addressing import AddressMap

GEOMETRIES = [
    (1, 1),
    (1, 16),
    (2, 4),
    (4, 16),
    (8, 16),
    (16, 2),
    (32, 64),
]

LINE_ADDRS = st.lists(
    st.integers(min_value=0, max_value=(1 << 40) - 1), min_size=1, max_size=200
)


@pytest.mark.parametrize("parts,interleave", GEOMETRIES)
@settings(max_examples=40, deadline=None)
@given(addrs=LINE_ADDRS)
def test_vectorized_matches_scalar(parts, interleave, addrs):
    amap = AddressMap(parts, interleave)
    part_vec = amap.partition_array(addrs)
    local_vec = amap.local_array(addrs)
    assert part_vec.dtype == np.int64 and local_vec.dtype == np.int64
    for i, addr in enumerate(addrs):
        assert part_vec[i] == amap.partition(addr)
        assert local_vec[i] == amap.local(addr)


@pytest.mark.parametrize("parts,interleave", GEOMETRIES)
@settings(max_examples=40, deadline=None)
@given(addrs=LINE_ADDRS)
def test_roundtrip_bijection(parts, interleave, addrs):
    amap = AddressMap(parts, interleave)
    for addr in addrs:
        part = amap.partition(addr)
        assert 0 <= part < parts
        assert amap.globalize(part, amap.local(addr)) == addr


@pytest.mark.parametrize("parts,interleave", GEOMETRIES)
def test_local_addresses_are_dense(parts, interleave):
    """Every partition's local space is hit contiguously: mapping the
    first N*parts chunks yields local chunk indices 0..N-1 per partition."""
    amap = AddressMap(parts, interleave)
    chunks_per_part = 8
    seen = {p: [] for p in range(parts)}
    for line in range(parts * chunks_per_part * interleave):
        seen[amap.partition(line)].append(amap.local(line))
    for part, locals_ in seen.items():
        # Each partition owns exactly chunks_per_part chunks...
        assert len(locals_) == chunks_per_part * interleave, part
        # ...and their local addresses tile [0, chunks_per_part*interleave).
        assert sorted(locals_) == list(range(chunks_per_part * interleave))


@settings(max_examples=30, deadline=None)
@given(
    addrs=LINE_ADDRS,
    parts=st.sampled_from([1, 2, 4, 8]),
    interleave=st.sampled_from([1, 2, 16, 64]),
)
def test_memoized_scalar_is_consistent(addrs, parts, interleave):
    """The scalar partition() memo must never change an answer: querying
    the same addresses twice (warm cache) matches a fresh map."""
    amap = AddressMap(parts, interleave)
    first = [amap.partition(a) for a in addrs]
    second = [amap.partition(a) for a in addrs]
    fresh = AddressMap(parts, interleave)
    assert first == second == [fresh.partition(a) for a in addrs]


@settings(max_examples=40, deadline=None)
@given(
    addrs=st.lists(
        st.integers(min_value=0, max_value=255), min_size=1, max_size=150
    )
)
def test_cache_set_tag_decomposition(addrs):
    """Set/tag invariants the flat tag scan relies on.

    The tag store keys lines by full line address, so (set, tag) must
    identify a line uniquely: after any access sequence, no set holds
    two lines with the same tag, and every resident tag maps back (via
    ``set_index``) to exactly the set holding it.
    """
    from repro.cache.cache import Cache
    from repro.cache.policies.base import FillContext
    from repro.cache.replacement.lru import LRUPolicy

    cache = Cache("prop", 4 * 4 * 16, 4, 16, replacement=LRUPolicy())
    for now, addr in enumerate(addrs, start=1):
        if not cache.lookup(addr, now).hit:
            cache.fill(addr, now, FillContext(line_addr=addr, src_id=0))
    store = cache.store
    for set_index in range(cache.num_sets):
        slots = range(set_index * cache.ways, (set_index + 1) * cache.ways)
        tags = [store.tag[i] for i in slots if store.valid[i]]
        assert len(tags) == len(set(tags)), f"duplicate tag in set {set_index}"
        for tag in tags:
            assert cache.set_index(tag) == set_index


def test_invalid_geometries_rejected():
    with pytest.raises(ValueError):
        AddressMap(3)
    with pytest.raises(ValueError):
        AddressMap(0)
    with pytest.raises(ValueError):
        AddressMap(4, interleave_lines=12)
    with pytest.raises(ValueError):
        AddressMap(4, interleave_lines=0)
