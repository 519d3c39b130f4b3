"""Simulator: configuration, designs, memory system, engine, replay."""

from repro.sim.config import GPUConfig
from repro.sim.designs import DESIGN_KEYS, DesignSpec, make_design
from repro.sim.replay import ReplayResult, build_core_streams, replay
from repro.sim.simulator import GPU, RunResult, simulate, simulate_sequence
from repro.sim.validation import ValidationReport, validate_run

__all__ = [
    "GPUConfig",
    "DesignSpec",
    "DESIGN_KEYS",
    "make_design",
    "GPU",
    "RunResult",
    "simulate",
    "simulate_sequence",
    "replay",
    "ReplayResult",
    "build_core_streams",
    "ValidationReport",
    "validate_run",
]
