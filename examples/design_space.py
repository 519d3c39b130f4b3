#!/usr/bin/env python3
"""Design-space exploration: cache designs across L1 capacities.

Crosses cache designs with L1 capacities on one workload, prints metric
tables, and closes with the paper's Section-4.3 hardware-cost comparison
— the "is the speedup worth the silicon" view.

Each L1 size is one :class:`EvalSuite` on a shared campaign engine, so
the grid runs as ordinary campaign tasks (SPDP-B takes the PD its own
offline sweep picks at that size, as in Figs. 8-10).

Run:
    python examples/design_space.py --benchmark SYRK --scale 0.5
"""

from __future__ import annotations

import argparse

from repro.core.overhead import overhead_table
from repro.experiments.common import EvalSuite
from repro.runner import CampaignEngine
from repro.sim.config import GPUConfig
from repro.stats.report import Table
from repro.trace.suite import ALL_BENCHMARKS

DESIGNS = ("bs", "bs-s", "spdp-b", "gc")
L1_SIZES = (16 * 1024, 32 * 1024, 64 * 1024)
METRICS = {
    "ipc": lambda r: f"{r.ipc:.3f}",
    "miss_rate": lambda r: f"{r.l1.miss_rate:.1%}",
    "bypass_ratio": lambda r: f"{r.l1.bypass_ratio:.1%}",
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="SYRK", choices=ALL_BENCHMARKS)
    parser.add_argument("--scale", type=float, default=0.5)
    args = parser.parse_args()

    engine = CampaignEngine(jobs=1)
    runs = {
        size: EvalSuite(
            config=GPUConfig().with_l1_size(size),
            benchmarks=[args.benchmark],
            scale=args.scale,
            engine=engine,
        ).run_matrix(DESIGNS)
        for size in L1_SIZES
    }
    for metric, extract in METRICS.items():
        table = Table(
            ["config"] + list(DESIGNS),
            title=f"{args.benchmark}: {metric} sweep",
        )
        for size, results in runs.items():
            table.row(
                [f"l1_size={size}"]
                + [extract(results[(args.benchmark, d)]) for d in DESIGNS]
            )
        print(table.render())
        print()
    print(overhead_table(GPUConfig()).render())


if __name__ == "__main__":
    main()
