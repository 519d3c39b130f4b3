#!/usr/bin/env python3
"""Anatomy of a bypass decision: the paper's Figure 7 walkthrough.

Recreates the Section 4.2 example on a real 2-way cache set: a mixed
access stream of hot lines (a1, a2) and streaming lines (b1, b2), with
the L2 victim-bit directory detecting contention and the L1 bypass
switch protecting the hot lines.  Every step prints the set state so you
can watch the mechanism work.

Run:
    python examples/bypass_anatomy.py
"""

from __future__ import annotations

from repro.cache.cache import Cache
from repro.cache.policies.base import FillContext
from repro.cache.replacement.rrip import SRRIPPolicy
from repro.core.gcache import GCacheConfig, GCachePolicy
from repro.core.victim_bits import VictimBitDirectory

LINE = 128


def show(step: str, cache: Cache, policy: GCachePolicy, outcome: str) -> None:
    store = cache.store
    state = ", ".join(
        f"{chr(ord('a') + (store.tag[i] % 4))}{store.tag[i] // 4 + 1}"
        f"(rrpv={store.rrpv[i]})" if store.valid[i] else "I"
        for i in range(cache.ways)  # set 0
    )
    switch = "ON " if policy.switches.is_on(0) else "off"
    print(f"{step:<14} switch={switch}  set0=[{state}]  -> {outcome}")


def main() -> None:
    # A 2-way single-set L1, exactly like the paper's Figure 7.
    policy = GCachePolicy(GCacheConfig(shutdown_interval=0))
    l1 = Cache("L1", 2 * LINE, 2, LINE, SRRIPPolicy(bits=3), mgmt=policy)
    l2 = Cache("L2", 64 * LINE, 4, LINE, SRRIPPolicy(bits=3),
               write_back=True, write_allocate=True)
    directory = VictimBitDirectory(num_l1s=1)

    # Line naming: a1=0, b1=1, a2=4, b2=5 (all map to set 0 of 1 set).
    names = {0: "a1", 4: "a2", 1: "b1", 5: "b2"}

    def access(line: int, now: int) -> None:
        label = names[line]
        result = l1.lookup(line, now)
        if result.hit:
            show(f"{label} @t={now}", l1, policy, "L1 hit")
            return
        # L1 miss: go to the L2, collect the victim hint.
        l2_slot = l2.lookup_fast(line, now)
        if l2_slot < 0:
            fill = l2.fill(line, now, FillContext(line))
            l2_slot = fill.set_index * l2.ways + fill.way
        hint = directory.observe(l2.store, l2_slot, src_id=0)
        fill = l1.fill(line, now, FillContext(line, victim_hint=hint))
        outcome = "BYPASSED" if fill.bypassed else "filled"
        if hint:
            outcome += " (victim hint: contention!)"
        show(f"{label} @t={now}", l1, policy, f"L1 miss, {outcome}")

    # The paper's access stream: a1 a2 b1 (evicts) a1 a1 b1 b2 a1 a2 b1 b1
    print("Figure 7 walkthrough on a 2-way set\n" + "=" * 60)
    stream = [0, 4, 1, 0, 0, 1, 5, 0, 4, 1, 1]
    for now, line in enumerate(stream):
        access(line, now)

    print()
    print(f"bypasses: {l1.stats.bypasses}, "
          f"contentions detected: {directory.contentions_detected}, "
          f"L1 miss rate: {l1.stats.miss_rate:.0%}")


if __name__ == "__main__":
    main()
