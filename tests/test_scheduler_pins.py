"""Pinned timing results under every warp scheduler.

The golden fixture runs only ``lrr``, whose pick the SIMT core inlines;
``gto``, ``two-level`` and ``throttle`` take the scheduler's own
``pick`` and the readiness view's ``warps.index`` path.  This pins
cycles and the merged L1/L2 counters of two kernels under each of them:

* ``BFS+bar``: BFS with a CTA barrier after every sixth instruction.
  No Table-1 generator emits a barrier, so this is the barrier-heavy
  variant of a Table-1 kernel.  Its CTAs differ in length, so some
  retire while a co-resident CTA has warps parked at a barrier.
* ``SPMV``: the Table-1 kernel as generated.

Both run on four cores with two CTA slots each, so CTAs retire mid-run
and the dispatcher backfills their slots.

The values were produced by the timing engine before its issue loop
moved to the readiness view; regenerate them only after an intentional
modelling change (``python tests/test_scheduler_pins.py`` prints them).
"""

from __future__ import annotations

import dataclasses
import pprint

import pytest

from repro.sim.config import WARP_SCHEDULERS, GPUConfig
from repro.sim.designs import make_design
from repro.sim.simulator import simulate
from repro.trace.suite import build_benchmark
from repro.trace.trace import CTATrace

from conftest import bar

KERNELS = ("BFS+bar", "SPMV")


def _kernel(name: str):
    benchmark, _, variant = name.partition("+")
    trace = build_benchmark(benchmark, scale=0.1, seed=0)
    if variant != "bar":
        return trace
    ctas = [
        CTATrace(warps=[
            [op for i, ins in enumerate(program)
             for op in ((ins, bar()) if i % 6 == 5 else (ins,))]
            for program in cta.warps
        ])
        for cta in trace.ctas
    ]
    return dataclasses.replace(trace, ctas=ctas)


def observe(kernel: str, scheduler: str):
    config = GPUConfig(num_cores=4, max_ctas_per_core=2, warp_scheduler=scheduler)
    result = simulate(_kernel(kernel), config, make_design("gc"))
    return {
        "cycles": result.cycles,
        "l1": result.l1.snapshot(),
        "l2": result.l2.snapshot(),
    }


PINNED = {
    "BFS+bar": {"lrr": {"cycles": 42753,
                        "l1": {"accesses": 15842,
                               "loads": 14178,
                               "stores": 1664,
                               "hits": 3523,
                               "miss_rate": 0.7776164625678575,
                               "mshr_merges": 126,
                               "fills": 8125,
                               "bypasses": 2404,
                               "bypass_ratio": 0.1517485166014392,
                               "evictions": 7101,
                               "writebacks": 0},
                        "l2": {"accesses": 12193,
                               "loads": 10529,
                               "stores": 1664,
                               "hits": 2924,
                               "miss_rate": 0.7601902731075207,
                               "mshr_merges": 0,
                               "fills": 9269,
                               "bypasses": 0,
                               "bypass_ratio": 0.0,
                               "evictions": 1273,
                               "writebacks": 230}},
                "gto": {"cycles": 40760,
                        "l1": {"accesses": 15842,
                               "loads": 14178,
                               "stores": 1664,
                               "hits": 3543,
                               "miss_rate": 0.7763539957076127,
                               "mshr_merges": 107,
                               "fills": 8155,
                               "bypasses": 2373,
                               "bypass_ratio": 0.14979169296805958,
                               "evictions": 7131,
                               "writebacks": 0},
                        "l2": {"accesses": 12192,
                               "loads": 10528,
                               "stores": 1664,
                               "hits": 2924,
                               "miss_rate": 0.7601706036745407,
                               "mshr_merges": 0,
                               "fills": 9268,
                               "bypasses": 0,
                               "bypass_ratio": 0.0,
                               "evictions": 1272,
                               "writebacks": 228}},
                "two-level": {"cycles": 41381,
                              "l1": {"accesses": 15842,
                                     "loads": 14178,
                                     "stores": 1664,
                                     "hits": 3543,
                                     "miss_rate": 0.7763539957076127,
                                     "mshr_merges": 102,
                                     "fills": 8159,
                                     "bypasses": 2374,
                                     "bypass_ratio": 0.14985481631107184,
                                     "evictions": 7135,
                                     "writebacks": 0},
                              "l2": {"accesses": 12197,
                                     "loads": 10533,
                                     "stores": 1664,
                                     "hits": 2926,
                                     "miss_rate": 0.7601049438386488,
                                     "mshr_merges": 0,
                                     "fills": 9271,
                                     "bypasses": 0,
                                     "bypass_ratio": 0.0,
                                     "evictions": 1275,
                                     "writebacks": 230}},
                "throttle": {"cycles": 40725,
                             "l1": {"accesses": 15842,
                                    "loads": 14178,
                                    "stores": 1664,
                                    "hits": 3523,
                                    "miss_rate": 0.7776164625678575,
                                    "mshr_merges": 107,
                                    "fills": 8177,
                                    "bypasses": 2371,
                                    "bypass_ratio": 0.1496654462820351,
                                    "evictions": 7153,
                                    "writebacks": 0},
                             "l2": {"accesses": 12212,
                                    "loads": 10548,
                                    "stores": 1664,
                                    "hits": 2943,
                                    "miss_rate": 0.7590075335735342,
                                    "mshr_merges": 0,
                                    "fills": 9269,
                                    "bypasses": 0,
                                    "bypass_ratio": 0.0,
                                    "evictions": 1273,
                                    "writebacks": 230}}},
    "SPMV": {"lrr": {"cycles": 24895,
                     "l1": {"accesses": 14820,
                            "loads": 13156,
                            "stores": 1664,
                            "hits": 5602,
                            "miss_rate": 0.6219973009446693,
                            "mshr_merges": 155,
                            "fills": 4564,
                            "bypasses": 2835,
                            "bypass_ratio": 0.19129554655870445,
                            "evictions": 3540,
                            "writebacks": 0},
                     "l2": {"accesses": 9063,
                            "loads": 7399,
                            "stores": 1664,
                            "hits": 3431,
                            "miss_rate": 0.6214277832947148,
                            "mshr_merges": 0,
                            "fills": 5632,
                            "bypasses": 0,
                            "bypass_ratio": 0.0,
                            "evictions": 0,
                            "writebacks": 0}},
             "gto": {"cycles": 24903,
                     "l1": {"accesses": 14820,
                            "loads": 13156,
                            "stores": 1664,
                            "hits": 5584,
                            "miss_rate": 0.6232118758434548,
                            "mshr_merges": 173,
                            "fills": 4569,
                            "bypasses": 2830,
                            "bypass_ratio": 0.19095816464237517,
                            "evictions": 3545,
                            "writebacks": 0},
                     "l2": {"accesses": 9063,
                            "loads": 7399,
                            "stores": 1664,
                            "hits": 3431,
                            "miss_rate": 0.6214277832947148,
                            "mshr_merges": 0,
                            "fills": 5632,
                            "bypasses": 0,
                            "bypass_ratio": 0.0,
                            "evictions": 0,
                            "writebacks": 0}},
             "two-level": {"cycles": 25287,
                           "l1": {"accesses": 14820,
                                  "loads": 13156,
                                  "stores": 1664,
                                  "hits": 5570,
                                  "miss_rate": 0.6241565452091767,
                                  "mshr_merges": 164,
                                  "fills": 4552,
                                  "bypasses": 2870,
                                  "bypass_ratio": 0.19365721997300944,
                                  "evictions": 3528,
                                  "writebacks": 0},
                           "l2": {"accesses": 9086,
                                  "loads": 7422,
                                  "stores": 1664,
                                  "hits": 3454,
                                  "miss_rate": 0.6198547215496368,
                                  "mshr_merges": 0,
                                  "fills": 5632,
                                  "bypasses": 0,
                                  "bypass_ratio": 0.0,
                                  "evictions": 0,
                                  "writebacks": 0}},
             "throttle": {"cycles": 24942,
                          "l1": {"accesses": 14820,
                                 "loads": 13156,
                                 "stores": 1664,
                                 "hits": 5603,
                                 "miss_rate": 0.6219298245614036,
                                 "mshr_merges": 153,
                                 "fills": 4574,
                                 "bypasses": 2826,
                                 "bypass_ratio": 0.19068825910931175,
                                 "evictions": 3550,
                                 "writebacks": 0},
                          "l2": {"accesses": 9064,
                                 "loads": 7400,
                                 "stores": 1664,
                                 "hits": 3432,
                                 "miss_rate": 0.6213592233009708,
                                 "mshr_merges": 0,
                                 "fills": 5632,
                                 "bypasses": 0,
                                 "bypass_ratio": 0.0,
                                 "evictions": 0,
                                 "writebacks": 0}}},
}


@pytest.mark.parametrize("scheduler", WARP_SCHEDULERS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_scheduler_results_are_pinned(kernel, scheduler):
    assert observe(kernel, scheduler) == PINNED[kernel][scheduler]


if __name__ == "__main__":
    pprint.pprint({
        kernel: {s: observe(kernel, s) for s in WARP_SCHEDULERS}
        for kernel in KERNELS
    }, sort_dicts=False, width=78)
