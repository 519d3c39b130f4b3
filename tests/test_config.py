"""Unit tests for GPUConfig (Table 2 parameters)."""

import pytest

from repro.gpu.schedulers import make_scheduler
from repro.sim.config import WARP_SCHEDULERS, GPUConfig


class TestDefaults:
    def test_table2_values(self):
        cfg = GPUConfig()
        assert cfg.num_cores == 16
        assert cfg.max_warps_per_core == 48
        assert cfg.l1_size == 32 * 1024
        assert cfg.l1_ways == 4
        assert cfg.line_size == 128
        assert cfg.l2_bank_size == 128 * 1024
        assert cfg.l2_ways == 16
        assert cfg.num_partitions == 8
        assert cfg.l1_mshr_entries == 32
        assert cfg.warp_scheduler == "lrr"
        assert cfg.dram_banks_per_mc == 4

    def test_derived_geometry(self):
        cfg = GPUConfig()
        assert cfg.l1_sets == 64
        assert cfg.l2_bank_sets == 64
        assert cfg.l2_total_size == 1024 * 1024  # 1 MB
        assert cfg.partition_shift == 3

    def test_gddr5_timing(self):
        t = GPUConfig().dram_timing
        assert (t.tCL, t.tRP, t.tRC) == (12, 12, 40)


class TestVariants:
    def test_with_l1_size(self):
        cfg = GPUConfig().with_l1_size(64 * 1024)
        assert cfg.l1_size == 64 * 1024
        assert cfg.l1_sets == 128
        assert cfg.num_cores == 16  # everything else preserved

    def test_with_scheduler(self):
        assert GPUConfig().with_scheduler("gto").warp_scheduler == "gto"

    def test_frozen(self):
        with pytest.raises(Exception):
            GPUConfig().num_cores = 4

    def test_describe_mentions_key_facts(self):
        text = GPUConfig().describe()
        assert "16 cores" in text
        assert "32KB" in text


class TestValidation:
    def test_core_count(self):
        with pytest.raises(ValueError):
            GPUConfig(num_cores=0)

    def test_partition_power_of_two(self):
        with pytest.raises(ValueError):
            GPUConfig(num_partitions=6)

    def test_l1_geometry(self):
        with pytest.raises(ValueError):
            GPUConfig(l1_size=1000)

    def test_l2_geometry(self):
        with pytest.raises(ValueError):
            GPUConfig(l2_bank_size=1000)

    def test_warp_slots(self):
        with pytest.raises(ValueError):
            GPUConfig(max_warps_per_core=0)

    @pytest.mark.parametrize(
        "geometry",
        [dict(l1_size=48 * 1024),  # 96 sets: a real Fermi L1 size
         dict(l2_bank_size=96 * 1024)],
    )
    def test_set_counts_power_of_two(self, geometry):
        with pytest.raises(ValueError, match="power of two"):
            GPUConfig(**geometry)

    def test_unknown_warp_scheduler(self):
        with pytest.raises(ValueError, match="unknown warp scheduler"):
            GPUConfig(warp_scheduler="bogus")
        with pytest.raises(ValueError, match="unknown warp scheduler"):
            GPUConfig().with_scheduler("ccws")

    @pytest.mark.parametrize("name", WARP_SCHEDULERS)
    def test_every_known_scheduler_builds(self, name):
        """The config accepts exactly the names make_scheduler builds."""
        cfg = GPUConfig(warp_scheduler=name)
        assert make_scheduler(cfg.warp_scheduler).name == name
