"""Protection-Distance Policies (PDP) [Duong et al., MICRO-45 '12].

The paper compares G-Cache against three PDP configurations applied to the
GPU L1:

* **PDP-3** — dynamic PDP with 3-bit per-line protecting-distance counters
  (coarsely quantized decrements, cheaper but less stable),
* **PDP-8** — dynamic PDP with 8-bit counters (near-exact),
* **SPDP-B** — *static* PDP with bypass, using the best per-benchmark PD
  found by an offline sweep (the paper's Table 3 lists the optimal PDs).

Mechanism: every line carries a protecting-distance counter (PDC).  A fill
or a hit (re)sets the PDC; every access to the set decrements the PDCs of
all its lines (once per ``step`` accesses when quantized).  A line is
*protected* while its PDC is positive.  The victim must be an unprotected
line; if every line is protected, the incoming fill is **bypassed**.

The dynamic variants sample reuse distances (RD, measured in accesses to
the same set) through per-set FIFOs into an RDD histogram and periodically
choose the PD maximizing the hits-per-unit-occupancy estimator from the
PDP paper:

    E(dp) = sum_{i<=dp} N_i  /  ( sum_{i<=dp} i*N_i + (N_t - sum_{i<=dp} N_i) * dp )

where ``N_i`` is the RDD count at distance ``i`` and ``N_t`` the total
number of sampled accesses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.cache.policies.base import ManagementPolicy

__all__ = ["StaticPDPPolicy", "DynamicPDPPolicy", "ReuseDistanceSampler", "optimal_pd"]


def optimal_pd(rdd: List[int], total: int, max_pd: int, min_pd: int = 1) -> int:
    """Choose the protecting distance maximizing the PDP estimator.

    Args:
        rdd: Histogram of sampled reuse distances; ``rdd[i]`` counts
            accesses whose previous touch was ``i`` set-accesses earlier.
            Index 0 is unused (an RD of 0 is impossible).
        total: Total number of sampled accesses, including those whose
            reuse distance exceeded the sampler's reach (treated as
            never-reused within any candidate PD).
        max_pd: Largest representable PD.
        min_pd: Smallest PD to consider.

    Returns:
        The PD in ``[min_pd, max_pd]`` with the highest estimated hit rate
        per unit of cache occupancy; ties go to the smaller PD.
    """
    if total <= 0:
        return max(min_pd, 1)
    best_pd = min_pd
    best_e = -1.0
    hits = 0
    weighted = 0
    limit = min(max_pd, len(rdd) - 1)
    for dp in range(1, limit + 1):
        n = rdd[dp] if dp < len(rdd) else 0
        hits += n
        weighted += dp * n
        if dp < min_pd:
            continue
        denom = weighted + (total - hits) * dp
        e = hits / denom if denom > 0 else 0.0
        if e > best_e + 1e-12:
            best_e = e
            best_pd = dp
    return best_pd


class ReuseDistanceSampler:
    """Per-set FIFO reuse-distance sampler feeding an RDD histogram.

    Each sampled set keeps a FIFO of the last ``fifo_depth`` line
    addresses accessed in it.  An access whose line appears at position
    ``d`` from the most-recent end has reuse distance ``d``; accesses not
    found in the FIFO count only toward the total (distance unknown and
    larger than the FIFO reach).

    Args:
        num_sets: Sets in the cache being sampled.
        fifo_depth: FIFO length (paper: 32 for PDP-3/PDP-8, 256 for
            SPDP-B's offline characterization).
        rdd_size: Number of RDD counters (paper: 256).
        sample_every: Sample one set in ``sample_every`` (1 = all sets).
    """

    def __init__(
        self,
        num_sets: int,
        fifo_depth: int = 32,
        rdd_size: int = 256,
        sample_every: int = 1,
    ) -> None:
        if fifo_depth < 1:
            raise ValueError(f"fifo_depth must be >= 1, got {fifo_depth}")
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.fifo_depth = fifo_depth
        self.rdd_size = rdd_size
        self.sample_every = sample_every
        self._fifos: dict[int, Deque[int]] = {
            s: deque(maxlen=fifo_depth)
            for s in range(num_sets)
            if s % sample_every == 0
        }
        self.rdd: List[int] = [0] * (rdd_size + 1)
        self.total = 0

    def observe(self, set_index: int, line_addr: int) -> Optional[int]:
        """Record an access; returns the measured RD or ``None``."""
        fifo = self._fifos.get(set_index)
        if fifo is None:
            return None
        self.total += 1
        rd: Optional[int] = None
        # Scan from the most recent entry (right end of the deque).
        for pos, addr in enumerate(reversed(fifo), start=1):
            if addr == line_addr:
                rd = pos
                break
        if rd is not None:
            self.rdd[min(rd, self.rdd_size)] += 1
        fifo.append(line_addr)
        return rd

    def decay(self) -> None:
        """Halve all counters (epoch aging, as in the PDP paper)."""
        self.rdd, self.total = _halved(self.rdd, self.total)

    def distances(self, sets: np.ndarray, lines: np.ndarray) -> np.ndarray:
        """The reuse distance each of a batch of observations, in order,
        would measure, without recording any of them.

        The distance of an observation is how many observations of its
        set back the same line was last seen, the FIFO's current contents
        counting as the most recent ones before the batch; beyond
        ``fifo_depth`` it is 0 (not found), and in an unsampled set -1.
        """
        m = sets.size
        warm = [(s, f) for s, f in self._fifos.items() if f]
        ws = np.array([s for s, f in warm for _ in f], dtype=np.int64)
        wl = np.array([a for _, f in warm for a in f], dtype=np.int64)
        # Warm entries sit at -len..-1 of their set's sequence, the batch
        # at 0, 1, ... in order.
        wi = np.concatenate(
            [np.arange(-len(f), 0, dtype=np.int64) for _, f in warm]
            or [np.empty(0, dtype=np.int64)]
        )
        order = np.argsort(sets, kind="stable")
        ss = sets[order]
        start = np.flatnonzero(np.r_[True, ss[1:] != ss[:-1]])
        rank = np.arange(m, dtype=np.int64) - np.repeat(
            start, np.diff(np.r_[start, m])
        )
        pos = np.empty(m, dtype=np.int64)
        pos[order] = rank
        all_s = np.concatenate((ws, sets))
        all_l = np.concatenate((wl, lines))
        all_i = np.concatenate((wi, pos))
        o = np.lexsort((all_i, all_l, all_s))
        so, lo, io = all_s[o], all_l[o], all_i[o]
        # Sorted by (set, line, position), an observation's predecessor
        # is its line's previous one in the set, if the set and line match.
        gap = io[1:] - io[:-1]
        d = np.zeros(o.size, dtype=np.int64)
        d[1:] = np.where(
            (so[1:] == so[:-1]) & (lo[1:] == lo[:-1])
            & (gap <= self.fifo_depth),
            gap,
            0,
        )
        rd = np.empty(o.size, dtype=np.int64)
        rd[o] = d
        rd = rd[wi.size :]
        if self.sample_every > 1:
            rd[sets % self.sample_every != 0] = -1
        return rd

    def extend(self, sets: np.ndarray, lines: np.ndarray) -> None:
        """Push a batch of observations into the FIFOs (in order)."""
        if not sets.size:
            return
        order = np.argsort(sets, kind="stable")
        ss = sets[order]
        starts = np.flatnonzero(np.r_[True, ss[1:] != ss[:-1]])
        ll = lines[order].tolist()
        bounds = starts.tolist() + [len(ll)]
        for s, lo, hi in zip(ss[starts].tolist(), bounds, bounds[1:]):
            fifo = self._fifos.get(s)
            if fifo is not None:
                # Only the newest `fifo_depth` can stay.
                fifo.extend(ll[max(lo, hi - self.fifo_depth) : hi])


def _halved(rdd: List[int], total: int) -> Tuple[List[int], int]:
    """RDD counters and total after one epoch's decay."""
    return [c >> 1 for c in rdd], total >> 1


@dataclass
class EpochPlan:
    """What one batch of observations does to a :class:`DynamicPDPPolicy`
    (see :meth:`DynamicPDPPolicy.plan`).

    ``at`` lists the batch indices of the observations that end an
    epoch, and ``pds`` the PD each one chooses; the rest is the sampler
    and epoch state the batch leaves behind.
    """

    at: List[int]
    pds: List[int]
    rdd: List[int]
    total: int
    since_epoch: int
    sets: np.ndarray
    lines: np.ndarray


class StaticPDPPolicy(ManagementPolicy):
    """PDP with a fixed protecting distance and bypass (SPDP-B).

    Args:
        pd: The protecting distance.
        counter_bits: Width of the per-line PDC.  When ``pd`` exceeds the
            representable range, decrements happen once every
            ``ceil(pd / (2**bits - 1))`` set accesses (the PDP paper's
            quantization scheme).
        bypass: Whether a fully protected set bypasses the incoming fill
            (the "-B" in SPDP-B).  Without bypass, the line with the
            smallest PDC is evicted.
    """

    name = "spdp-b"

    def __init__(self, pd: int, counter_bits: int = 8, bypass: bool = True) -> None:
        if pd < 1:
            raise ValueError(f"protecting distance must be >= 1, got {pd}")
        if counter_bits < 1:
            raise ValueError(f"counter_bits must be >= 1, got {counter_bits}")
        self.counter_bits = counter_bits
        self.counter_max = (1 << counter_bits) - 1
        self.bypass = bypass
        self._set_ticks: List[int] = []
        self.pd = 0
        self.step = 1
        self.initial_pdc = 0
        self.set_pd(pd)

    def set_pd(self, pd: int) -> None:
        """Change the protecting distance (used by the dynamic variant)."""
        self.pd = pd
        #: Set accesses per PDC decrement, and the PDC given to a line on
        #: fill or hit.
        self.step, self.initial_pdc = self.quantize(pd)

    def quantize(self, pd: int) -> Tuple[int, int]:
        """``(step, initial_pdc)`` for protecting distance ``pd``: a PDC
        decrement represents ``step`` set accesses."""
        step = max(1, -(-pd // self.counter_max))  # ceil division
        return step, min(self.counter_max, -(-pd // step))

    def attach(self, store, replacement, name: str = "") -> None:
        super().attach(store, replacement, name)
        self._set_ticks = [0] * store.num_sets

    def _tick_set(self, set_index: int) -> None:
        """Advance the set's access clock; decrement PDCs on step boundary."""
        ticks = self._set_ticks
        ticks[set_index] += 1
        if ticks[set_index] % self.step:
            return
        # Invalid slots hold PDC 0, so they are skipped without a test.
        pd_counter = self.store.pd_counter
        ways = self.store.ways
        base = set_index * ways
        for i in range(base, base + ways):
            if pd_counter[i] > 0:
                pd_counter[i] -= 1

    def on_hit(self, set_index: int, idx: int, now: int) -> None:
        self._tick_set(set_index)
        self.store.pd_counter[idx] = self.initial_pdc

    def on_miss(self, set_index: int, now: int) -> None:
        self._tick_set(set_index)

    def _unprotected_way(self, set_index: int) -> Optional[int]:
        """First invalid way, else the least-recently filled unprotected
        way, else ``None``."""
        store = self.store
        ways = store.ways
        base = set_index * ways
        tag = store.tag
        pd_counter = store.pd_counter
        fill_time = store.fill_time
        best = None
        best_ft = 0
        for way in range(ways):
            i = base + way
            if tag[i] == -1:
                return way
            if pd_counter[i] == 0 and (best is None or fill_time[i] < best_ft):
                best = way
                best_ft = fill_time[i]
        return best

    def fill_decision(
        self, set_index: int, line: int, hint: bool, now: int
    ) -> bool:
        return self.bypass and self._unprotected_way(set_index) is None

    def choose_victim(self, set_index: int, now: int) -> Optional[int]:
        way = self._unprotected_way(set_index)
        if way is not None:
            return way
        # Reachable only with bypass disabled: evict the smallest PDC.
        base = set_index * self.store.ways
        seg = self.store.pd_counter[base : base + self.store.ways]
        return seg.index(min(seg))

    def on_insert(self, idx: int, hint: bool, now: int) -> None:
        self.store.pd_counter[idx] = self.initial_pdc


class DynamicPDPPolicy(StaticPDPPolicy):
    """Dynamic PDP (PDP-3 / PDP-8): PD recomputed from sampled RDDs.

    Args:
        counter_bits: PDC width — 3 for PDP-3, 8 for PDP-8.
        fifo_depth: Reuse-distance sampler FIFO length (paper: 32).
        rdd_size: Number of RDD counters (paper: 256).
        epoch_accesses: Recompute the PD every this many observed
            accesses; counters decay (halve) at each recompute.
        initial_pd: PD used before the first recompute.
        max_pd: Upper bound on the chosen PD (defaults to the sampler's
            RDD reach).
    """

    def __init__(
        self,
        counter_bits: int = 3,
        fifo_depth: int = 32,
        rdd_size: int = 256,
        epoch_accesses: int = 4096,
        initial_pd: int = 4,
        max_pd: Optional[int] = None,
    ) -> None:
        super().__init__(pd=initial_pd, counter_bits=counter_bits, bypass=True)
        self.name = f"pdp-{counter_bits}"
        self.fifo_depth = fifo_depth
        self.rdd_size = rdd_size
        self.epoch_accesses = epoch_accesses
        self.max_pd = max_pd if max_pd is not None else rdd_size
        self._sampler: Optional[ReuseDistanceSampler] = None
        self._since_epoch = 0
        self.pd_history: List[int] = [initial_pd]

    def attach(self, store, replacement, name: str = "") -> None:
        super().attach(store, replacement, name)
        self._sampler = ReuseDistanceSampler(
            num_sets=store.num_sets,
            fifo_depth=self.fifo_depth,
            rdd_size=self.rdd_size,
        )

    def _observe(self, set_index: int, line_addr: int) -> None:
        sampler = self._sampler
        sampler.observe(set_index, line_addr)
        self._since_epoch += 1
        if self._since_epoch >= self.epoch_accesses:
            self._since_epoch = 0
            new_pd = optimal_pd(sampler.rdd, sampler.total, self.max_pd)
            sampler.decay()
            self.set_pd(new_pd)
            self.pd_history.append(new_pd)

    def plan(self, sets: np.ndarray, lines: np.ndarray) -> EpochPlan:
        """What observing ``lines`` in ``sets``, in order, would do, as
        :meth:`_observe` one at a time would do it; nothing changes until
        :meth:`apply`.

        At the observation that ends an epoch, the epoch's reuse
        distances (that observation's included) are folded into the RDD,
        :func:`optimal_pd` chooses the PD from it, and the counters
        decay.
        """
        sampler = self._sampler
        rd = sampler.distances(sets, lines)
        m = rd.size
        E = self.epoch_accesses
        since = self._since_epoch
        n_ends = (since + m) // E
        at = list(range(E - since - 1, m, E))
        # Observation j belongs to the epoch its count (since + j + 1)
        # completes, or to the open one after the last end.
        epoch = (since + np.arange(m, dtype=np.int64)) // E
        R = sampler.rdd_size
        found = rd > 0
        hist = np.bincount(
            epoch[found] * (R + 1) + np.minimum(rd[found], R),
            minlength=(n_ends + 1) * (R + 1),
        ).reshape(n_ends + 1, R + 1)
        counted = np.bincount(epoch[rd >= 0], minlength=n_ends + 1)
        rdd = sampler.rdd
        total = sampler.total
        pds = []
        for e in range(n_ends + 1):
            if hist[e].any():
                rdd = [a + b for a, b in zip(rdd, hist[e].tolist())]
            total += int(counted[e])
            if e < n_ends:
                pds.append(optimal_pd(rdd, total, self.max_pd))
                rdd, total = _halved(rdd, total)
        return EpochPlan(
            at, pds, list(rdd), total, (since + m) % E, sets, lines
        )

    def apply(self, plan: EpochPlan) -> None:
        """Commit a :meth:`plan`: the state its observations leave."""
        self._sampler.extend(plan.sets, plan.lines)
        self._sampler.rdd = plan.rdd
        self._sampler.total = plan.total
        self._since_epoch = plan.since_epoch
        if plan.pds:
            self.set_pd(plan.pds[-1])
            self.pd_history.extend(plan.pds)

    def on_hit(self, set_index: int, idx: int, now: int) -> None:
        self._observe(set_index, self.store.tag[idx])
        super().on_hit(set_index, idx, now)

    def fill_decision(
        self, set_index: int, line: int, hint: bool, now: int
    ) -> bool:
        # A miss is observed here, where its address is known (both the
        # insert and the bypass outcome funnel through this call).
        self._observe(set_index, line)
        return super().fill_decision(set_index, line, hint, now)
