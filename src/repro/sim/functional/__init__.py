"""Vectorized fast-functional replay backend.

Replays whole coalesced address streams over set-indexed
structure-of-arrays cache state (:class:`FlatTagStore`'s flat layout),
with NumPy per-set burst kernels where no policy hook needs a scalar
walk.  Counters are pinned
bit-identical to the scalar :func:`repro.sim.replay.replay` oracle by
``tests/test_functional_equivalence.py``; a calibrated linear timing
estimator (:mod:`repro.sim.functional.estimator`) supplies cycle numbers
so speedup-style figures still render in ``fidelity="functional"`` runs.
"""

from repro.sim.functional.engine import (
    FunctionalEngine,
    FunctionalUnsupportedError,
    functional_replay,
)
from repro.sim.functional.estimator import TimingEstimator
from repro.sim.functional.streams import build_core_arrays

__all__ = [
    "FunctionalEngine",
    "FunctionalUnsupportedError",
    "functional_replay",
    "TimingEstimator",
    "build_core_arrays",
]
