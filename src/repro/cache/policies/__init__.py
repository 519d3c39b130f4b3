"""Cache management (bypass / insertion) policies.

The baseline designs use :class:`NullManagementPolicy`; the PDP family
(PDP-3, PDP-8, SPDP-B) lives in :mod:`repro.cache.policies.pdp`; the
paper's G-Cache policy lives in :mod:`repro.core.gcache`.
"""

from repro.cache.policies.base import (
    FillContext,
    ManagementPolicy,
    NullManagementPolicy,
)
from repro.cache.policies.dead_block import DeadBlockPolicy
from repro.cache.policies.pdp import (
    DynamicPDPPolicy,
    ReuseDistanceSampler,
    StaticPDPPolicy,
    optimal_pd,
)

__all__ = [
    "FillContext",
    "ManagementPolicy",
    "NullManagementPolicy",
    "StaticPDPPolicy",
    "DynamicPDPPolicy",
    "ReuseDistanceSampler",
    "DeadBlockPolicy",
    "optimal_pd",
]
