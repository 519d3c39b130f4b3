"""Unit tests for the L2 victim-bit directory."""

import pytest

from repro.cache.tagstore import FlatTagStore
from repro.core.victim_bits import VictimBitDirectory


def filled_store(tag=1):
    """A one-slot tag store holding ``tag`` in slot 0."""
    store = FlatTagStore(1, 1)
    store.fill_slot(0, tag, now=0)
    return store


class TestObservation:
    def test_first_request_no_hint(self):
        directory = VictimBitDirectory(num_l1s=4)
        store = filled_store()
        assert directory.observe(store, 0, src_id=0) is False

    def test_second_request_same_core_detects_contention(self):
        directory = VictimBitDirectory(num_l1s=4)
        store = filled_store()
        directory.observe(store, 0, src_id=0)
        assert directory.observe(store, 0, src_id=0) is True
        assert directory.contentions_detected == 1

    def test_requests_from_different_cores_independent(self):
        directory = VictimBitDirectory(num_l1s=4)
        store = filled_store()
        directory.observe(store, 0, src_id=0)
        assert directory.observe(store, 0, src_id=1) is False

    def test_l2_eviction_clears_history(self):
        directory = VictimBitDirectory(num_l1s=4)
        store = filled_store()
        directory.observe(store, 0, src_id=0)
        store.fill_slot(0, 2, now=1)  # new generation resets victim bits
        assert directory.observe(store, 0, src_id=0) is False

    def test_src_id_validated(self):
        directory = VictimBitDirectory(num_l1s=4)
        with pytest.raises(ValueError):
            directory.group(4)


class TestSharing:
    def test_share_factor_groups_cores(self):
        directory = VictimBitDirectory(num_l1s=16, share_factor=4)
        assert directory.group(0) == directory.group(3)
        assert directory.group(0) != directory.group(4)
        assert directory.bits_per_line == 4

    def test_shared_bit_causes_false_hints(self):
        # The paper's accuracy/overhead trade-off: cores sharing a bit see
        # each other's history as (false) contention.
        directory = VictimBitDirectory(num_l1s=16, share_factor=16)
        store = filled_store()
        directory.observe(store, 0, src_id=0)
        assert directory.observe(store, 0, src_id=9) is True

    def test_share_factor_must_divide(self):
        with pytest.raises(ValueError):
            VictimBitDirectory(num_l1s=16, share_factor=3)


class TestStorageOverhead:
    def test_paper_overhead_formula(self):
        # Section 4.3: 16 cores, 512-set 16-way L2 -> O_v = 16 KB.
        directory = VictimBitDirectory(num_l1s=16)
        bits = directory.storage_overhead_bits(num_sets=512, num_ways=16)
        assert bits == 16 * 512 * 16
        assert bits // 8 // 1024 == 16  # 16 KB

    def test_sharing_divides_overhead(self):
        full = VictimBitDirectory(16, 1).storage_overhead_bits(512, 16)
        shared = VictimBitDirectory(16, 4).storage_overhead_bits(512, 16)
        assert shared == full // 4
