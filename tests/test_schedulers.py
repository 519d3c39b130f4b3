"""Unit tests for warp schedulers (LRR, GTO)."""

import pytest

from repro.gpu.schedulers import (
    GTOScheduler,
    LRRScheduler,
    make_scheduler,
)
from repro.gpu.warp import Warp


def make_warps(n, instrs=3):
    program = [(0, 1)] * instrs  # OP_ALU groups
    return [Warp(i, 0, list(program), age=i) for i in range(n)]


class TestLRR:
    def test_rotates_through_ready_warps(self):
        sched = LRRScheduler()
        warps = make_warps(3)
        picks = [sched.pick(warps, now=0).warp_id for _ in range(3)]
        assert picks == [0, 1, 2]

    def test_skips_stalled_warps(self):
        sched = LRRScheduler()
        warps = make_warps(3)
        warps[1].ready_time = 100
        picks = [sched.pick(warps, now=0).warp_id for _ in range(2)]
        assert picks == [0, 2]

    def test_returns_none_when_all_stalled(self):
        sched = LRRScheduler()
        warps = make_warps(2)
        for w in warps:
            w.ready_time = 50
        assert sched.pick(warps, now=0) is None

    def test_empty_pool(self):
        assert LRRScheduler().pick([], now=0) is None


class TestGTO:
    def test_greedy_sticks_with_same_warp(self):
        sched = GTOScheduler()
        warps = make_warps(3)
        first = sched.pick(warps, now=0)
        second = sched.pick(warps, now=1)
        assert first is second

    def test_falls_back_to_oldest(self):
        sched = GTOScheduler()
        warps = make_warps(3)
        first = sched.pick(warps, now=0)
        first.ready_time = 100  # stall the greedy warp
        nxt = sched.pick(warps, now=1)
        assert nxt is not first
        assert nxt.age == min(w.age for w in warps if w is not first)

    def test_drops_finished_greedy_warp(self):
        sched = GTOScheduler()
        warps = make_warps(2)
        first = sched.pick(warps, now=0)
        first.done = True
        assert sched.pick(warps, now=1) is not first


class TestRegistry:
    @pytest.mark.parametrize("name", ["lrr", "gto"])
    def test_make_scheduler(self, name):
        assert make_scheduler(name).name == name

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("ccws")
