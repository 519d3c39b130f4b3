"""The functional walk on a warm engine: adaptive-M G-Cache (``gc-m``).

``gc-m`` is the one registry design that still takes the walk with
victim bits, so every store and load miss runs its L2 access inline in
global time order.  A second kernel on the same engine meets lines the
first left in L2 with victim bits set, so some of its first loads of a
line already carry a hint.  The counters are pinned from the engine
that ordered only hint-capable load misses through its heap and parked
every other L2 event per set.
"""

from __future__ import annotations

import pytest

from repro.sim.config import GPUConfig
from repro.sim.designs import make_design
from repro.sim.functional import FunctionalEngine
from repro.trace.suite import build_benchmark

FIELDS = ("loads", "stores", "hits", "fills", "bypasses", "evictions",
          "writebacks")

#: Per share factor: contentions after SPMV, after SPMV then KMN, and
#: the L1 and L2 counters of the pair.
PINNED = {
    1: (428, 3403,
        {"loads": 17045, "stores": 2304, "hits": 6582, "fills": 6974,
         "bypasses": 3489, "evictions": 4926, "writebacks": 0},
        {"loads": 10463, "stores": 2304, "hits": 8804, "fills": 3963,
         "bypasses": 0, "evictions": 0, "writebacks": 0}),
    2: (1167, 5013,
        {"loads": 17045, "stores": 2304, "hits": 6882, "fills": 5661,
         "bypasses": 4502, "evictions": 3613, "writebacks": 0},
        {"loads": 10163, "stores": 2304, "hits": 8504, "fills": 3963,
         "bypasses": 0, "evictions": 0, "writebacks": 0}),
}


@pytest.mark.parametrize("share", sorted(PINNED))
def test_warm_gc_m_sequence(share):
    first, both, l1, l2 = PINNED[share]
    engine = FunctionalEngine(GPUConfig(), make_design("gc-m"), share)
    engine.run(build_benchmark("SPMV", scale=0.03, seed=7))
    assert engine.contentions_detected == first
    engine.run(build_benchmark("KMN", scale=0.05, seed=3))
    result = engine.result()
    assert result.extras == {"contentions_detected": both}
    assert {f: result.l1.snapshot()[f] for f in FIELDS} == l1
    assert {f: result.l2.snapshot()[f] for f in FIELDS} == l2
