"""End-to-end smoke across architectural variants.

Degenerate and scaled geometries exercise corner paths (single
partition, single core, huge warp counts) that the Table-2 defaults
never touch — the 1-partition XOR-hash hang was exactly such a bug.
"""

import pytest

from repro.sim.config import GPUConfig
from repro.sim.designs import make_design
from repro.sim.simulator import simulate

from conftest import alu, ld, make_kernel, st


def workload():
    return make_kernel(
        [[op for i in range(6) for op in (ld(i * 8), alu(2), st(i * 8))]] * 2,
        ctas=6,
    )


VARIANTS = {
    "single-core": dict(num_cores=1, num_partitions=1, l1_size=4 * 1024,
                        l2_bank_size=32 * 1024, l2_ways=4, max_warps_per_core=8,
                        max_ctas_per_core=2),
    "two-partition": dict(num_cores=4, num_partitions=2, l1_size=8 * 1024,
                          l2_bank_size=64 * 1024, l2_ways=8,
                          max_warps_per_core=16, max_ctas_per_core=4),
    "wide-l1": dict(num_cores=2, num_partitions=2, l1_size=64 * 1024,
                    l1_ways=16, l2_bank_size=64 * 1024, l2_ways=8,
                    max_warps_per_core=16, max_ctas_per_core=4),
    "direct-mapped-ish": dict(num_cores=2, num_partitions=2, l1_size=512,
                              l1_ways=1, l2_bank_size=64 * 1024, l2_ways=8,
                              max_warps_per_core=16, max_ctas_per_core=4),
    "crossbar": dict(num_cores=4, num_partitions=4, noc_topology="crossbar",
                     l1_size=8 * 1024, l2_bank_size=64 * 1024, l2_ways=8,
                     max_warps_per_core=16, max_ctas_per_core=4),
}


@pytest.mark.parametrize("label", sorted(VARIANTS))
@pytest.mark.parametrize("design", ["bs", "gc", "pdp-3"])
class TestVariantMatrix:
    def test_runs_to_completion(self, label, design):
        config = GPUConfig(**VARIANTS[label])
        kernel = workload()
        result = simulate(kernel, config, make_design(design))
        assert result.instructions == kernel.instruction_count(), (label, design)
        assert 0 < result.ipc <= config.num_cores
        assert 0.0 <= result.l1.miss_rate <= 1.0


class TestSchedulerMatrix:
    @pytest.mark.parametrize("sched", ["lrr", "gto"])
    def test_every_scheduler_completes(self, tiny_config, sched):
        config = tiny_config.with_scheduler(sched)
        kernel = workload()
        result = simulate(kernel, config, make_design("gc"))
        assert result.instructions == kernel.instruction_count()

    @pytest.mark.parametrize("sched", ["lrr", "gto"])
    def test_schedulers_change_timing_not_work(self, tiny_config, sched):
        kernel = workload()
        lrr = simulate(kernel, tiny_config.with_scheduler("lrr"))
        other = simulate(kernel, tiny_config.with_scheduler(sched))
        assert other.instructions == lrr.instructions
