"""GPU execution model: warps, schedulers, coalescing, SIMT cores."""

from repro.gpu.coalescer import Coalescer
from repro.gpu.schedulers import (
    GTOScheduler,
    LRRScheduler,
    WarpScheduler,
    make_scheduler,
)
from repro.gpu.warp import Warp

__all__ = [
    "Coalescer",
    "Warp",
    "WarpScheduler",
    "LRRScheduler",
    "GTOScheduler",
    "make_scheduler",
]
