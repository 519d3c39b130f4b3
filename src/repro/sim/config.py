"""Simulation configuration (paper Table 2 defaults).

:class:`GPUConfig` collects every architectural parameter in one frozen
dataclass.  ``GPUConfig()`` reproduces the paper's baseline: a 16-core
Fermi-class GPU with 32 KB 4-way L1s, a 1 MB 16-way L2 in 8 banks, a 2D
mesh and 8 GDDR5 memory controllers.  Latency parameters not given in the
paper (hit latencies, hop latency, ...) follow GPGPU-Sim v3.x Fermi
defaults; all times are in core cycles at 1.4 GHz, with the L2's 700 MHz
domain folded in by doubling its service latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.dram.timing import GDDR5Timing

__all__ = ["GPUConfig", "WARP_SCHEDULERS"]

#: Warp scheduler names: the timing engine's schedulers
#: (:func:`repro.gpu.schedulers.make_scheduler`) and the functional
#: backend's stream interleaves (:func:`repro.sim.replay.build_core_streams`).
WARP_SCHEDULERS = ("lrr", "gto")


@dataclass(frozen=True)
class GPUConfig:
    """Architectural parameters for one simulation run.

    The defaults reproduce Table 2.  Use :meth:`with_l1_size` (or
    ``dataclasses.replace``) for the sensitivity sweeps.
    """

    # --- SIMT cores -------------------------------------------------
    num_cores: int = 16
    simt_width: int = 32
    max_warps_per_core: int = 48
    max_ctas_per_core: int = 8
    scratchpad_bytes: int = 48 * 1024
    alu_latency: int = 4
    smem_latency: int = 24
    warp_scheduler: str = "lrr"

    # --- L1 data cache ------------------------------------------------
    l1_size: int = 32 * 1024
    l1_ways: int = 4
    line_size: int = 128
    l1_hit_latency: int = 28
    l1_mshr_entries: int = 32
    l1_mshr_max_merges: int = 8

    # --- L2 cache -------------------------------------------------------
    num_partitions: int = 8
    l2_bank_size: int = 128 * 1024
    l2_ways: int = 16
    # Core-observed L2 service latency (700 MHz domain, queuing excluded).
    # Fermi microbenchmarks put the full L2-hit round trip at ~250-350
    # core cycles; the NoC model adds ~50 on top of this value.
    l2_hit_latency: int = 160
    l2_port_occupancy: int = 2

    # --- Interconnect ---------------------------------------------------
    #: "mesh" (Table 2) or "crossbar" (GPGPU-Sim's Fermi default).
    noc_topology: str = "mesh"
    noc_channel_width: int = 32
    noc_hop_latency: int = 2
    noc_ctrl_size: int = 8

    # --- DRAM -------------------------------------------------------------
    dram_banks_per_mc: int = 4
    dram_timing: GDDR5Timing = field(default_factory=GDDR5Timing)
    #: FR-FCFS reorder reach: rows per bank treated as open (see
    #: repro.dram.bank for the approximation this parameterizes).  GPU
    #: controllers carry deep (32-64 entry) queues; 24 rows/bank lets the
    #: model batch that many concurrent stream rows.
    dram_row_window: int = 24
    #: Partition interleave granularity in lines (16 lines = 2 KB, one
    #: DRAM row) — see repro.sim.addressing.
    mc_interleave_lines: int = 16
    #: Skip the DRAM fetch when a store write-allocates a fully covered
    #: line in the L2 (write-validate; coalesced warp stores always cover
    #: the full 128 B line).
    l2_write_validate: bool = True
    aou_occupancy: int = 4

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError(f"need >= 1 core, got {self.num_cores}")
        if self.num_partitions < 1:
            raise ValueError(f"need >= 1 partition, got {self.num_partitions}")
        if self.num_partitions & (self.num_partitions - 1):
            raise ValueError(
                f"partition count must be a power of two, got {self.num_partitions}"
            )
        if self.l1_size % (self.l1_ways * self.line_size) != 0:
            raise ValueError("L1 geometry does not divide evenly")
        if self.l2_bank_size % (self.l2_ways * self.line_size) != 0:
            raise ValueError("L2 bank geometry does not divide evenly")
        # Set indexing masks the line address, as every cache model does.
        for name, sets in (("L1", self.l1_sets), ("L2 bank", self.l2_bank_sets)):
            if sets < 1 or sets & (sets - 1):
                raise ValueError(
                    f"{name} set count must be a power of two, got {sets}"
                )
        if self.warp_scheduler not in WARP_SCHEDULERS:
            raise ValueError(
                f"unknown warp scheduler {self.warp_scheduler!r}; "
                f"known: {', '.join(WARP_SCHEDULERS)}"
            )
        if self.max_warps_per_core < 1:
            raise ValueError("need at least one warp slot per core")
        if self.noc_topology not in ("mesh", "crossbar"):
            raise ValueError(
                f"unknown NoC topology {self.noc_topology!r}; "
                "known: mesh, crossbar"
            )

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def l1_sets(self) -> int:
        return self.l1_size // (self.l1_ways * self.line_size)

    @property
    def l2_bank_sets(self) -> int:
        return self.l2_bank_size // (self.l2_ways * self.line_size)

    @property
    def l2_total_size(self) -> int:
        return self.l2_bank_size * self.num_partitions

    @property
    def partition_shift(self) -> int:
        """log2(number of partitions), for bank-interleaved set indexing."""
        return self.num_partitions.bit_length() - 1

    # ------------------------------------------------------------------
    # Variants
    # ------------------------------------------------------------------
    def with_l1_size(self, size_bytes: int) -> "GPUConfig":
        """Clone this config with a different L1 capacity (Figs. 3/4/10)."""
        return replace(self, l1_size=size_bytes)

    def with_scheduler(self, name: str) -> "GPUConfig":
        return replace(self, warp_scheduler=name)

    def describe(self) -> str:
        """One-line summary used in report headers."""
        return (
            f"{self.num_cores} cores x {self.max_warps_per_core} warps, "
            f"L1 {self.l1_size >> 10}KB/{self.l1_ways}w, "
            f"L2 {self.l2_total_size >> 10}KB/{self.l2_ways}w x"
            f"{self.num_partitions} banks, {self.warp_scheduler.upper()} sched"
        )
