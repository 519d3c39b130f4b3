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
from typing import Deque, List, Optional

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
        self.rdd = [c >> 1 for c in self.rdd]
        self.total >>= 1


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
    # Not batchable: every access ticks its set's clock (possibly
    # decrementing the whole set's PDCs), and victims are ordered by
    # fill time.

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
        # Quantization: a PDC decrement represents `step` set accesses.
        self.step = max(1, -(-pd // self.counter_max))  # ceil division
        #: PDC given to a line on fill or hit.
        self.initial_pdc = min(self.counter_max, -(-pd // self.step))

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
