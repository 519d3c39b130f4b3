"""Management-policy interface: bypass + insertion control.

A *management policy* sits above the replacement policy and decides, per
fill, whether to insert or bypass, which victim to evict, and with what
insertion state.  The baseline designs (BS, BS-S) use the
:class:`NullManagementPolicy`, which never bypasses and delegates fully to
the replacement policy; PDP, dead-block and G-Cache override the hooks.

Every policy is written once, against the tag array's *planes*: flat
per-line sequences indexed by ``set_index * ways + way`` (``tag``,
``rrpv``, ``use_count``, ``fill_time``, ``pd_counter``), the per-set
``valid_count``, and the geometry ``num_sets`` / ``ways``.  An invalid
slot's ``tag`` is ``-1`` and its ``pd_counter`` is 0.  Three holders
provide those planes — the timing :class:`~repro.cache.cache.Cache`'s
:class:`~repro.cache.tagstore.FlatTagStore`, the functional engine's
per-core L1 state, and a line view inside the
:class:`~repro.cache.reference.ReferenceCache` oracle — so all three
drive the very same policy objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["FillContext", "ManagementPolicy", "NullManagementPolicy"]


@dataclass(slots=True)
class FillContext:
    """Metadata accompanying a fill request into a cache.

    Attributes:
        line_addr: Line address being filled.
        victim_hint: The victim-bit value attached to the L2 response
            (G-Cache, Section 4.2): ``True`` means this L1 requested the
            line before and lost it to early eviction.
        src_id: Identifier of the requesting L1 / SIMT core (used by the
            L2 victim-bit directory).
        is_write: Whether the triggering access was a store (only relevant
            for write-allocate caches).
    """

    line_addr: int
    victim_hint: bool = False
    src_id: int = 0
    is_write: bool = False


class ManagementPolicy:
    """Bypass / insertion hooks layered over a replacement policy.

    All hooks are optional; the defaults implement "always insert, let the
    replacement policy pick victims", i.e. a conventional cache.  Hooks
    that a subclass leaves as these defaults are never called on the hot
    paths.  ``idx`` is a flat slot index into :attr:`store`'s planes.

    ``obs`` holds the run's event bus when tracing is enabled
    (:func:`repro.obs.wire`); ``None`` — the default — disables all
    emission at the cost of one attribute check per site.
    """

    name = "none"
    obs = None
    #: The attached planes and the owning cache's name (see :meth:`attach`).
    store = None
    cache_name = ""

    #: Demand accesses between :meth:`on_tick` calls (0 = never).  The
    #: owner (cache or functional engine) runs the countdown.
    tick_interval = 0

    # Batch contracts, read by the functional engine (docs/performance.md,
    # "Adding a new design's batch hooks").  Each must be true of the
    # class that declares it.
    #: ``fill_decision(hint=False)`` returns False with no side effects
    #: whenever ``switches.bits[set_index]`` is 0.
    fill_gate_switches = False
    #: ``on_insert(hint=False)`` is a no-op.
    insert_skip_cold = False

    def attach(self, store, replacement, name: str = "") -> None:
        """Bind to a tag array's planes (once, before any access).

        ``replacement`` is the cache's replacement policy, for policies
        that depend on its kind or width; ``name`` labels traced events.
        """
        self.store = store
        self.cache_name = name

    def on_hit(self, set_index: int, idx: int, now: int) -> None:
        """A demand lookup hit slot ``idx``."""

    def on_miss(self, set_index: int, now: int) -> None:
        """A demand lookup missed in ``set_index`` (before any fill)."""

    def fill_decision(
        self, set_index: int, line: int, hint: bool, now: int
    ) -> bool:
        """Return True to bypass the fill of ``line`` (victim hint ``hint``)."""
        return False

    def choose_victim(self, set_index: int, now: int) -> Optional[int]:
        """Pick the victim way of a full set, or ``None`` to defer to
        replacement."""
        return None

    def on_insert(self, idx: int, hint: bool, now: int) -> None:
        """Adjust insertion state after the replacement policy's fill."""

    def on_bypass(self, set_index: int, now: int) -> None:
        """A fill into ``set_index`` was bypassed."""

    def on_evict(self, idx: int, now: int) -> None:
        """Slot ``idx`` is about to be evicted (its state is still intact)."""

    def on_tick(self, now: int) -> None:
        """Periodic callback, every :attr:`tick_interval` demand accesses.

        ``now`` is for tracing only: the functional engine may deliver a
        tick late, with a later access's time, just before its next fill
        hook.
        """

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__}>"


class NullManagementPolicy(ManagementPolicy):
    """Conventional cache behaviour: insert everything, never bypass."""

    name = "none"
