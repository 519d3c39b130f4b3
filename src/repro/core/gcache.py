"""G-Cache: the paper's adaptive bypass and insertion policy (Section 4).

:class:`GCachePolicy` is the management policy installed in each **L1**
data cache.  It requires an RRIP-family replacement policy (hotness is
judged by RRPV) and consumes the victim hints produced by the L2-side
:class:`~repro.core.victim_bits.VictimBitDirectory`.

Decision flow on a fill response (Section 4.2, Figure 7):

1. If the response's victim hint is set, the L2 detected contention for
   this line — turn on the target set's bypass switch.
2. If the switch is on and *every* resident line in the set is hot
   (``rrpv < TH_hot``), bypass the fill.  A hint-carrying (reused) block
   uses a *lower* threshold, making it easier for it to find a non-hot
   victim and be inserted.
3. On every bypass (or every ``M``-th with the adaptive-aging extension)
   the RRPVs of all resident lines are incremented, so repeatedly
   bypassed blocks eventually win a slot.
4. Insertion treats hot and cold blocks differently: a hint-carrying
   block inserts near-MRU (RRPV 0); a cold block inserts at the distant
   SRRIP position so streaming data leaves quickly.

The ``M``-th-bypass counter is the extension sketched in Section 5.1 for
very large reuse distances (KMN, NW): ``M`` starts at 1 and is adapted at
runtime from the contention feedback collected via victim hints.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.policies.base import ManagementPolicy
from repro.cache.replacement.rrip import SRRIPPolicy
from repro.core.bypass_switch import BypassSwitchArray
from repro.obs.events import (
    EV_BYPASS_DECISION,
    EV_M_ADAPT,
    EV_SWITCH_ON,
    EV_SWITCH_SHUTDOWN,
)

__all__ = ["GCachePolicy", "GCacheConfig"]


class GCacheConfig:
    """Tunables for the G-Cache L1 policy.

    Attributes:
        th_hot: RRPV threshold below which a resident line counts as hot
            when the incoming block carries *no* victim hint.  ``None``
            (default) resolves to the replacement policy's max RRPV at
            attach time: a line is hot unless it is already an eviction
            candidate.  This permissive default is what produces the
            paper's 30-56 % bypass ratios — with a strict threshold the
            one in-flight streaming line per set defeats the all-hot test
            and bypass almost never engages.
        th_hot_victim: Lower threshold used when the incoming block's
            victim hint is set ("TH_hot will be lower to make it easier
            to replace one of the existing lines").  ``None`` (default)
            resolves to ``th_hot - 1``: a reused block may replace a line
            that is *nearly* an eviction candidate, but recently-touched
            protected lines stay put — a too-permissive victim threshold
            lets homeless hot blocks evict each other in a musical-chairs
            churn that destroys the very protection bypassing buys.
        hot_insert_rrpv: Insertion RRPV for hint-carrying (hot) blocks.
        cold_insert_rrpv: Insertion RRPV for cold blocks; ``None`` means
            the replacement policy's default (SRRIP long: max-1).
        shutdown_interval: L1 accesses between periodic bypass-switch
            shutdowns (0 disables).
        adaptive_aging: Enable the M-th-bypass aging extension.
        initial_m: Starting value of ``M`` (paper: 1).
        max_m: Upper bound for adapted ``M``.
        aging_epoch: Fills between ``M`` adaptation steps.

    The insertion RRPVs must be at least 0 here and at most the
    replacement policy's max RRPV, which is checked at attach time.
    """

    def __init__(
        self,
        th_hot: Optional[int] = None,
        th_hot_victim: Optional[int] = None,
        hot_insert_rrpv: int = 0,
        cold_insert_rrpv: Optional[int] = None,
        shutdown_interval: int = 8192,
        adaptive_aging: bool = False,
        initial_m: int = 1,
        max_m: int = 64,
        aging_epoch: int = 512,
    ) -> None:
        if th_hot is not None and th_hot < 1:
            raise ValueError(f"th_hot must be >= 1, got {th_hot}")
        if th_hot_victim is not None and th_hot_victim < 0:
            raise ValueError(f"th_hot_victim must be >= 0, got {th_hot_victim}")
        if hot_insert_rrpv < 0:
            raise ValueError(
                f"hot_insert_rrpv must be >= 0, got {hot_insert_rrpv}"
            )
        if cold_insert_rrpv is not None and cold_insert_rrpv < 0:
            raise ValueError(
                f"cold_insert_rrpv must be >= 0, got {cold_insert_rrpv}"
            )
        if initial_m < 1 or max_m < initial_m:
            raise ValueError(f"need 1 <= initial_m <= max_m, got {initial_m}, {max_m}")
        self.th_hot = th_hot
        self.th_hot_victim = th_hot_victim
        self.hot_insert_rrpv = hot_insert_rrpv
        self.cold_insert_rrpv = cold_insert_rrpv
        self.shutdown_interval = shutdown_interval
        self.adaptive_aging = adaptive_aging
        self.initial_m = initial_m
        self.max_m = max_m
        self.aging_epoch = aging_epoch


class GCachePolicy(ManagementPolicy):
    """Adaptive bypass + insertion for the GPU L1 (the paper's G-Cache)."""

    name = "gcache"
    # Hits and stores touch no switch, counter or RRPV state of ours, and
    # `now` only timestamps traced events.
    batchable = True

    def __init__(self, config: Optional[GCacheConfig] = None) -> None:
        self.config = cfg = config if config is not None else GCacheConfig()
        #: Periodic switch shutdown, counted by the cache or engine.
        self.tick_interval = cfg.shutdown_interval
        # Fixed-M fill_decision touches no state before the switch test
        # unless the fill carries a hint; adaptive M counts every fill
        # toward its epoch, so it must see every call.
        self.fill_gate_switches = not cfg.adaptive_aging
        self.insert_skip_cold = cfg.cold_insert_rrpv is None
        #: Thresholds resolved against the RRIP width at attach time.
        self.th_hot = 0
        self.th_hot_victim = 0
        self.max_rrpv = 0
        self.switches: Optional[BypassSwitchArray] = None
        self._bypass_counters: List[int] = []
        self.m = cfg.initial_m
        # Adaptation bookkeeping (adaptive aging only).
        self._epoch_fills = 0
        self._epoch_hints = 0
        self._epoch_bypasses = 0
        # Diagnostics.  Total fill decisions are the cache's
        # fills + bypasses.
        self.hint_fills = 0
        self.agings = 0
        self.m_history: List[int] = [self.m]

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, store, replacement, name: str = "") -> None:
        if not isinstance(replacement, SRRIPPolicy):
            raise TypeError(
                "G-Cache requires an RRIP-family replacement policy in the L1 "
                f"(got {type(replacement).__name__}); hotness is judged "
                "by RRPV"
            )
        cfg = self.config
        max_rrpv = replacement.max_rrpv
        th_hot = cfg.th_hot if cfg.th_hot is not None else max_rrpv
        if th_hot > max_rrpv:
            raise ValueError(
                f"th_hot={th_hot} exceeds the replacement policy's "
                f"max RRPV {max_rrpv}"
            )
        for field in ("hot_insert_rrpv", "cold_insert_rrpv"):
            value = getattr(cfg, field)
            if value is not None and value > max_rrpv:
                raise ValueError(
                    f"{field}={value} exceeds the replacement policy's "
                    f"max RRPV {max_rrpv}"
                )
        super().attach(store, replacement, name)
        self.th_hot = th_hot
        self.th_hot_victim = (
            min(cfg.th_hot_victim, th_hot)
            if cfg.th_hot_victim is not None
            else max(1, th_hot - 1)
        )
        self.max_rrpv = max_rrpv
        self.switches = BypassSwitchArray(
            store.num_sets, shutdown_interval=cfg.shutdown_interval
        )
        self._bypass_counters = [0] * store.num_sets

    def on_tick(self, now: int) -> None:
        """Periodic switch shutdown (every ``shutdown_interval`` accesses)."""
        sw = self.switches
        sw.reset_all()
        sw.shutdowns += 1
        if self.obs is not None:
            self.obs.emit(
                EV_SWITCH_SHUTDOWN, now, self.cache_name,
                interval=self.tick_interval,
            )

    # ------------------------------------------------------------------
    # Fill path
    # ------------------------------------------------------------------
    def fill_decision(
        self, set_index: int, line: int, hint: bool, now: int
    ) -> bool:
        bits = self.switches.bits
        if hint:
            self.hint_fills += 1
            if not bits[set_index]:
                if self.obs is not None:
                    self.obs.emit(
                        EV_SWITCH_ON, now, self.cache_name, set=set_index
                    )
                bits[set_index] = 1
                self.switches.activations += 1
        if self.config.adaptive_aging:
            self._epoch_fills += 1
            if hint:
                self._epoch_hints += 1
            if self._epoch_fills >= self.config.aging_epoch:
                self._adapt_m(now)

        if not bits[set_index]:
            return False
        # All-hot test: the set is full and every RRPV is below threshold.
        store = self.store
        ways = store.ways
        if store.valid_count[set_index] < ways:
            return False
        threshold = self.th_hot_victim if hint else self.th_hot
        base = set_index * ways
        if max(store.rrpv[base : base + ways]) >= threshold:
            return False
        if self.obs is not None:
            self.obs.emit(
                EV_BYPASS_DECISION, now, self.cache_name,
                set=set_index,
                reason="all_hot_victim_th" if hint else "all_hot",
                threshold=threshold,
                m=self.m,
            )
        return True

    def on_bypass(self, set_index: int, now: int) -> None:
        """Age the set so a persistently bypassed block can eventually enter.

        With adaptive aging, RRPVs are incremented only on every M-th
        bypass to the set, preserving protection across very large reuse
        distances.
        """
        if self.config.adaptive_aging:
            self._epoch_bypasses += 1
        counters = self._bypass_counters
        counters[set_index] += 1
        if counters[set_index] < self.m:
            return
        counters[set_index] = 0
        # A bypass implies a full set (the all-hot test), so every slot
        # is valid: age the whole segment, saturating at max.
        max_rrpv = self.max_rrpv
        ways = self.store.ways
        base = set_index * ways
        rrpv = self.store.rrpv
        rrpv[base : base + ways] = [
            v + 1 if v < max_rrpv else v for v in rrpv[base : base + ways]
        ]
        self.agings += 1

    def on_insert(self, idx: int, hint: bool, now: int) -> None:
        if hint:
            # The block demonstrated reuse (and lost it to contention):
            # insert near-MRU so it is protected.
            self.store.rrpv[idx] = self.config.hot_insert_rrpv
        elif self.config.cold_insert_rrpv is not None:
            self.store.rrpv[idx] = self.config.cold_insert_rrpv
        # Otherwise keep the replacement policy's default insertion
        # (SRRIP long re-reference: max-1).

    # ------------------------------------------------------------------
    # M-th bypass adaptation (Section 5.1 extension)
    # ------------------------------------------------------------------
    def _adapt_m(self, now: int) -> None:
        """Adapt M from L2 contention feedback once per epoch.

        Heuristic: when contention hints remain frequent *while* bypassing
        is already heavy, aging on every bypass is evicting hot lines
        before their (large) reuse distance elapses — slow aging down by
        doubling M.  When hints subside, relax M back toward 1.
        """
        hint_rate = self._epoch_hints / self._epoch_fills
        bypass_rate = self._epoch_bypasses / self._epoch_fills
        if hint_rate > 0.25 and bypass_rate > 0.25:
            self.m = min(self.config.max_m, self.m * 2)
        else:
            self.m = max(1, self.m // 2)
        self.m_history.append(self.m)
        if self.obs is not None:
            self.obs.emit(
                EV_M_ADAPT, now, self.cache_name,
                m=self.m, hint_rate=hint_rate, bypass_rate=bypass_rate,
            )
        self._epoch_fills = 0
        self._epoch_hints = 0
        self._epoch_bypasses = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<GCachePolicy th_hot={self.th_hot}/{self.th_hot_victim} M={self.m}>"
