"""G-Cache's hint windows: the run behind the functional engine's
G-Cache burst route.

A victim hint is the one way L2 state reaches an L1.  Given each load
miss's hint, G-Cache's L1 is per (core, set)
(:func:`~repro.sim.functional.bursts.gcache_burst`); given the L1's L2
events, the hints are per (bank, set)
(:func:`~repro.sim.functional.bursts.l2_burst`'s flags).
:class:`GCacheRun` settles the hints one window of the global
transaction clock at a time, as a fixpoint of the two bursts (see
:meth:`~repro.sim.functional.engine.FunctionalEngine._run_gcache_burst`
for why that is exact), on NumPy planes it keeps for the whole run and
commits once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

import numpy as np

from repro.sim.functional.bursts import (
    gcache_burst,
    l2_burst,
    l2_commit,
    l2_planes,
)

if TYPE_CHECKING:
    from repro.sim.functional.engine import FunctionalEngine

__all__ = [
    "GCacheRun",
    "HINT_ROUNDS",
    "HINT_WINDOW",
    "commit_srrip_planes",
    "srrip_planes",
]

#: Transactions per hint window of the G-Cache burst: hints settle one
#: window of the global transaction clock at a time.
HINT_WINDOW = 4096

#: Burst rounds a hint window may take before it is split in half.  A
#: one-transaction window settles in one: its first guess reads the very
#: L2 state its access meets.
HINT_ROUNDS = 6


#: The L1 planes :func:`gcache_burst` reads from the engine's lists.
_SRRIP_PLANES = ("tag", "rrpv", "use_count", "fill_time")


def srrip_planes(l1s: List, num_sets: int) -> dict:
    """Stack the L1s' SRRIP state into :func:`gcache_burst` planes, with
    every bypass switch off."""
    rows = len(l1s) * num_sets

    def stack(name):
        return np.array(
            [getattr(l1, name) for l1 in l1s], dtype=np.int64
        ).reshape(rows, -1)

    planes = {name: stack(name) for name in _SRRIP_PLANES}
    planes["valid_count"] = stack("valid_count").reshape(rows)
    planes["switch"] = np.full(rows, -1, dtype=np.int64)
    planes["bypass_count"] = np.zeros(rows, dtype=np.int64)
    return planes


def commit_srrip_planes(planes: dict, l1s: List) -> None:
    """Write :func:`srrip_planes` state back to the L1s' lists."""
    C = len(l1s)
    for name in _SRRIP_PLANES + ("valid_count",):
        plane = planes[name].reshape(C, -1)
        for c, l1 in enumerate(l1s):
            setattr(l1, name, plane[c].tolist())


class GCacheRun:
    """One run on the G-Cache burst route: the L1 and L2 planes it keeps
    for the whole run, and the policy counters it commits once at the
    end."""

    def __init__(self, engine: "FunctionalEngine", arrays) -> None:
        self.engine = engine
        self.arrays = arrays
        cfg = engine.config
        C = len(arrays)
        self.S1 = S1 = cfg.l1_sets
        self.S2 = cfg.l2_bank_sets
        policy = engine.mgmt[0]
        gcfg = policy.config
        self.params = (
            policy.max_rrpv,
            policy.th_hot,
            policy.th_hot_victim,
            gcfg.hot_insert_rrpv,
            engine._insertion_rrpv
            if gcfg.cold_insert_rrpv is None
            else gcfg.cold_insert_rrpv,
            policy.m,
        )
        self.l1 = srrip_planes(engine.l1, S1)
        # A switch holds the epoch it was turned on in; one left on by
        # an earlier run is on in this run's first epoch.
        bits = np.frombuffer(
            b"".join(bytes(p.switches.bits) for p in engine.mgmt),
            dtype=np.uint8,
        )
        self.l1["switch"][bits != 0] = 0
        self.l1["bypass_count"] = np.array(
            [p._bypass_counters for p in engine.mgmt], dtype=np.int64
        ).reshape(-1)
        self.masks = (
            None
            if engine._vd_masks is None
            else np.array(engine._vd_masks, dtype=engine._vb_dtype)
        )
        self.l2 = l2_planes(
            engine.l2, self.S2, None if self.masks is None else self.masks.dtype
        )
        self.left = np.array(engine._tick_left, dtype=np.int64)
        # Per-core policy counters.
        self.activations = np.zeros(C, dtype=np.int64)
        self.agings = np.zeros(C, dtype=np.int64)
        self.hint_fills = np.zeros(C, dtype=np.int64)

    def run(self, first: int, total: int) -> None:
        """Settle the windows of transaction times ``first`` to
        ``first + total - 1`` in time order, then commit."""
        end = first + total
        pending = [
            (t, min(t + HINT_WINDOW, end))
            for t in range(first, end, HINT_WINDOW)
        ][::-1]
        while pending:
            lo, hi = pending.pop()
            if not self.window(lo, hi):
                mid = (lo + hi) // 2
                pending += [(mid, hi), (lo, mid)]
                self.engine.window_splits += 1
        self.commit()

    def _columns(self, T0: int, T1: int) -> Dict[str, np.ndarray]:
        """The window's columns: every core's accesses at times ``T0``
        to ``T1 - 1``, core by core, and ``order``, their positions in
        time order."""
        spans = [
            (A, *np.searchsorted(A.now, (T0, T1)).tolist())
            for A in self.arrays
        ]
        b = {
            name: np.concatenate(
                [getattr(A, name)[lo:hi] for A, lo, hi in spans]
            )
            for name in ("line", "local", "write", "set1", "part", "set2",
                         "now")
        }
        lengths = [hi - lo for _, lo, hi in spans]
        core = np.repeat(np.arange(len(spans)), lengths)
        b["core"] = core
        b["row1"] = b["set1"] + core * self.S1
        b["row2"] = b["part"] * self.S2 + b["set2"]
        interval = self.engine._tick_interval
        if interval:
            # Shutdowns by each access: one at the access that runs the
            # countdown out, then one every `interval`.
            starts = np.cumsum([0] + lengths[:-1])
            pos = np.arange(core.size) + np.repeat(
                [lo for _, lo, _ in spans] - starts, lengths
            )
            b["epoch"] = np.maximum(
                (pos + (1 + interval) - self.left[core]) // interval, 0
            )
        else:
            b["epoch"] = np.zeros(core.size, dtype=np.int64)
        # Transaction times are dense, so time `T0 + i` is the i-th.
        order = np.empty(core.size, dtype=np.int64)
        order[b["now"] - T0] = np.arange(core.size)
        b["order"] = order
        return b

    def window(self, T0: int, T1: int) -> bool:
        """Settle and count one window; ``False`` (with every plane
        rolled back) past the round cap."""
        b = self._columns(T0, T1)
        line, local, write, now = b["line"], b["local"], b["write"], b["now"]
        order = b["order"]
        row1, row2, epoch = b["row1"], b["row2"], b["epoch"]
        l1, l2, params = self.l1, self.l2, self.params
        snap1 = {name: plane.copy() for name, plane in l1.items()}
        snap2 = {name: plane.copy() for name, plane in l2.items()}
        mask = None if self.masks is None else self.masks[b["core"]]
        W = T1 - T0
        hint = np.zeros(W, dtype=np.bool_)
        if mask is not None:
            # First guess: a load hints if its line sits in L2 with its
            # group's bit set at window start.
            ldp = np.flatnonzero(~write)
            r2 = row2[ldp]
            eq = l2["tag"].take(r2, axis=0) == local[ldp][:, None]
            way = eq.argmax(axis=1)
            hint[ldp] = eq[np.arange(ldp.size), way] & (
                (l2["vb"][r2, way] & mask[ldp]) != 0
            )
        hit, byp, evict, aged, act = gcache_burst(
            l1, row1, line, write, hint, epoch, now, params
        )
        ev = write | ~hit
        hit2 = np.zeros(W, dtype=np.bool_)
        evict2 = np.full(W, -1, dtype=np.int32)
        wback2 = np.zeros(W, dtype=np.bool_)
        flag = np.zeros(W, dtype=np.bool_)
        # L2 events in time order, which l2_burst keeps within a set.
        sel2 = order[ev[order]]
        rounds = 1
        while True:
            h2, e2, w2, f2 = l2_burst(
                l2, row2[sel2], local[sel2], write[sel2],
                None if mask is None else mask[sel2],
            )
            hit2[sel2] = h2
            evict2[sel2] = e2
            wback2[sel2] = w2
            if f2 is not None:
                flag[sel2] = f2
            changed = np.flatnonzero((flag != hint) & ~hit)
            if not changed.size:
                break
            if rounds == HINT_ROUNDS:
                for planes, snap in ((l1, snap1), (l2, snap2)):
                    for name, plane in planes.items():
                        plane[...] = snap[name]
                return False
            rounds += 1
            hint = flag.copy()
            # Re-run the (core, set) groups whose hints changed...
            g1 = np.unique(row1[changed])
            rerun = np.zeros(l1["valid_count"].size, dtype=np.bool_)
            rerun[g1] = True
            sel = np.flatnonzero(rerun[row1])
            for name, plane in l1.items():
                plane[g1] = snap1[name][g1]
            (
                hit[sel], byp[sel], evict[sel], aged[sel], act[sel]
            ) = gcache_burst(
                l1, row1[sel], line[sel], write[sel], hint[sel],
                epoch[sel], now[sel], params,
            )
            # ...and the (bank, set) groups whose events changed.
            new_ev = write | ~hit
            moved = np.flatnonzero(new_ev != ev)
            ev = new_ev
            if not moved.size:
                break
            g2 = np.unique(row2[moved])
            rerun = np.zeros(l2["valid_count"].size, dtype=np.bool_)
            rerun[g2] = True
            pos2 = rerun[row2]
            hit2[pos2] = False
            evict2[pos2] = -1
            wback2[pos2] = False
            flag[pos2] = False
            for name, plane in l2.items():
                plane[g2] = snap2[name][g2]
            sel2 = order[(pos2 & ev)[order]]

        engine = self.engine
        engine._count_l1(write, hit, int(np.count_nonzero(byp)), evict)
        core = b["core"]
        C = self.activations.size
        self.activations += np.bincount(core[act], minlength=C)
        self.agings += np.bincount(core[aged], minlength=C)
        self.hint_fills += np.bincount(core[flag], minlength=C)
        events = np.flatnonzero(ev)
        engine._count_l2(
            write[events], hit2[events], evict2[events], wback2[events]
        )
        engine.contentions_detected += int(np.count_nonzero(flag))
        engine.window_rounds[rounds] += 1
        return True

    def commit(self) -> None:
        """Write the planes back to the engine's lists, and each core's
        switches, policy counters and shutdown countdown."""
        engine = self.engine
        S1 = self.S1
        interval = engine._tick_interval
        l1 = self.l1
        commit_srrip_planes(l1, engine.l1)
        for c, (policy, A) in enumerate(zip(engine.mgmt, self.arrays)):
            rows = slice(c * S1, (c + 1) * S1)
            left = int(self.left[c])
            ticks = 0
            if interval:
                if A.n >= left:
                    ticks = 1 + (A.n - left) // interval
                    engine._tick_left[c] = interval - (A.n - left) % interval
                else:
                    engine._tick_left[c] = left - A.n
            switches = policy.switches
            switches.bits[:] = (
                (l1["switch"][rows] == ticks).astype(np.uint8).tobytes()
            )
            switches.shutdowns += ticks
            switches.activations += int(self.activations[c])
            policy.hint_fills += int(self.hint_fills[c])
            policy.agings += int(self.agings[c])
            policy._bypass_counters = l1["bypass_count"][rows].tolist()
        l2_commit(self.l2, engine.l2)
