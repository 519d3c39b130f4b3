"""Per-set L1 bypass switches (paper Section 4.1, Figure 5).

Each L1 cache set carries one bit controlling whether fills into that set
may be bypassed.  The switch is turned on when a fill response arrives
with its victim hint set (the L2 detected contention for that line), and
all switches are shut down periodically to bound the side effects of
bypassing (Section 4.2: "the bypass switch can be shut down periodically
to reduce side effect of bypassing").

The shutdown period is measured in L1 accesses.  The owning policy
declares it as its ``tick_interval``; the cache (or the functional
engine) counts the accesses and the policy calls :meth:`reset_all`, so
the mechanism needs no global clock.
"""

from __future__ import annotations

__all__ = ["BypassSwitchArray"]


class BypassSwitchArray:
    """One bypass bit per cache set.

    The bits live in :attr:`bits`, a ``bytearray`` that fill paths read
    directly (one byte per set, 0 = off).

    Args:
        num_sets: Number of L1 sets.
        shutdown_interval: L1 accesses between global resets; ``0``
            disables periodic shutdown.
    """

    def __init__(self, num_sets: int, shutdown_interval: int = 8192) -> None:
        if num_sets < 1:
            raise ValueError(f"need at least one set, got {num_sets}")
        if shutdown_interval < 0:
            raise ValueError(
                f"shutdown_interval must be >= 0, got {shutdown_interval}"
            )
        self.num_sets = num_sets
        self.shutdown_interval = shutdown_interval
        self.bits = bytearray(num_sets)
        self.activations = 0
        self.shutdowns = 0

    def is_on(self, set_index: int) -> bool:
        return bool(self.bits[set_index])

    def turn_on(self, set_index: int) -> None:
        if not self.bits[set_index]:
            self.bits[set_index] = 1
            self.activations += 1

    def turn_off(self, set_index: int) -> None:
        self.bits[set_index] = 0

    def reset_all(self) -> None:
        # In place: fill paths may hold a reference to `bits`.
        self.bits[:] = bytes(self.num_sets)

    @property
    def fraction_on(self) -> float:
        """Fraction of sets currently in bypass mode (diagnostics)."""
        return sum(self.bits) / self.num_sets

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BypassSwitchArray {sum(self.bits)}/{self.num_sets} on>"
