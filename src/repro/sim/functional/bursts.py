"""Batched per-set burst processing for the functional backend.

The scalar oracle orders every shared-L2 access through one global
clock, but the only ordering that is *observable* in the counters is the
per-(bank, set) ordering: all L2 state (tags, recency stamps, dirty
bits, use counts, victim bits) is per-set, and the bank-wide recency
tick only ever feeds ``stamp.index(min(stamp))`` **within one set**, so
any per-set monotone clock selects the same victims.  Any L2 event
stream whose outcome feeds no L1 decision can therefore replay *grouped
by (bank, set)* instead of interleaved: the whole stream of a design
without victim-bit hints, and, for G-Cache, the stores and the loads
that cannot carry a hint (victim bits are per-line state, so they ride
along).

This module implements that replay as **rounds over a CSR grouping**:
events are sorted by ``(group, time)``; round ``r`` processes the
``r``-th event of every still-active group at once.  Each group
contributes at most one event per round, so every gather/scatter in the
round body is conflict-free and the tag compare, hit classification,
victim selection (arg-min recency stamp) and fill updates all vectorize
across groups.  When the number of active groups drops below a
threshold (a few long, skewed groups — e.g. a set-conflict storm), the
remaining events finish in a tight per-group scalar loop, so wall-clock
never degrades to one vector op per event.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = ["csr_group", "l1_burst", "l2_burst"]

#: Below this many active groups a vectorized round costs more than the
#: per-group scalar tail; measured crossover is ~20-40 on CPython 3.12.
_TAIL_THRESHOLD = 24


def csr_group(
    group: np.ndarray, time: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sort events by ``(group, time)`` and find group extents.

    Returns ``(perm, gids, starts, counts)`` with groups ordered by
    descending event count, so round ``r`` always touches a prefix of
    the group list.
    """
    perm = np.lexsort((time, group))
    g = group[perm]
    starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
    counts = np.diff(np.r_[starts, g.size])
    order = np.argsort(-counts, kind="stable")
    return perm, g[starts][order], starts[order], counts[order]


def l1_burst(
    l1s: List,
    num_sets: int,
    kind: str,
    max_rrpv: int,
    insertion_rrpv: int,
    repl_st: List,
    group: np.ndarray,
    line: np.ndarray,
    write: np.ndarray,
    reuse,
    tail_threshold: int = _TAIL_THRESHOLD,
) -> Tuple[int, int, int, int, int, int, np.ndarray]:
    """Replay every core's whole L1 stream grouped by (core, set).

    Only valid for **null-management** designs (no fill/evict/insert
    hooks, no tick): L1 state is then core-private and every decision —
    hit classification, LRU/SRRIP victim selection, insertion — is a
    pure per-(core, set) function, so the per-set ordering argument that
    justifies :func:`l2_burst` applies verbatim with "set" meaning
    "(core, set)".  LRU stamps use a per-group clock (only within-set
    stamp order is observable; each core's shared counter ``repl_st`` is
    re-seeded to its resident maximum afterwards so later scalar kernels
    stay monotone).

    ``group`` is ``core * num_sets + l1_set`` over the cores'
    concatenated streams; ``line``/``write`` are the matching columns.
    L1 is write-through no-allocate: store hits restamp like load hits,
    store misses touch nothing.  Returns ``(loads, load_hits, stores,
    store_hits, fills, evictions, events)`` where ``events`` holds the
    concatenated-stream positions of every L2 event (all stores + all
    load misses), unordered.
    """
    n_ev = int(group.size)
    if not n_ev:
        return 0, 0, 0, 0, 0, 0, np.empty(0, dtype=np.int64)
    stores = int(np.count_nonzero(write))
    loads = n_ev - stores
    lru = kind == "lru"
    C = len(l1s)
    ways = l1s[0].ways
    n_rows = C * num_sets
    tag2d = np.array([l1.tag for l1 in l1s], dtype=np.int64).reshape(
        n_rows, ways
    )
    use2d = np.array([l1.use_count for l1 in l1s], dtype=np.int64).reshape(
        n_rows, ways
    )
    vc = np.array(
        [l1.valid_count for l1 in l1s], dtype=np.int64
    ).reshape(n_rows)
    if lru:
        stamp2d = np.array(
            [l1.stamp for l1 in l1s], dtype=np.int64
        ).reshape(n_rows, ways)
        tick = stamp2d.max(axis=1)
        rrpv2d = None
    else:
        rrpv2d = np.array(
            [l1.rrpv for l1 in l1s], dtype=np.int64
        ).reshape(n_rows, ways)
        stamp2d = tick = None

    perm, gids, starts, counts = csr_group(
        group, np.arange(n_ev, dtype=np.int64)
    )
    ln = line[perm]
    wr = write[perm]

    # Flat views over the same buffers: one `row*ways + way` index per
    # scatter beats NumPy's 2-array fancy indexing in the round loop.
    tag1 = tag2d.reshape(-1)
    use1 = use2d.reshape(-1)
    stamp1 = stamp2d.reshape(-1) if lru else None
    rrpv1 = rrpv2d.reshape(-1) if not lru else None

    load_hits = store_hits = fills = evictions = 0
    miss_pos: List[np.ndarray] = []
    evict_use: List[np.ndarray] = []
    counts_asc = np.sort(counts)
    n_groups = counts.size
    max_rounds = int(counts[0])
    searchsorted = np.searchsorted

    r = 0
    while r < max_rounds:
        k = n_groups - int(searchsorted(counts_asc, r, side="right"))
        if k < tail_threshold:
            break
        rows = gids[:k]
        base = rows * ways
        idx = starts[:k] + r
        lv = ln[idx]
        w = wr[idx]
        t = tag2d[rows]
        eq = t == lv[:, None]
        hitm = eq.any(axis=1)
        way = eq.argmax(axis=1)
        if lru:
            tk = tick[rows] + 1
            tick[rows] = tk
        hflat = base[hitm] + way[hitm]
        if hflat.size:
            use1[hflat] += 1
            if lru:
                stamp1[hflat] = tk[hitm]
            else:
                rrpv1[hflat] = 0
            hw = w[hitm]
            sh = int(np.count_nonzero(hw))
            store_hits += sh
            load_hits += hflat.size - sh
        # Load misses fill; store misses touch nothing (no-allocate).
        fm = ~(hitm | w)
        frows = rows[fm]
        if frows.size:
            miss_pos.append(perm[idx[fm]])
            fvc = vc[frows]
            cold = fvc < ways
            wayf = fvc.copy()
            evm = ~cold
            if evm.any():
                erows = frows[evm]
                if lru:
                    vway = stamp2d[erows].argmin(axis=1)
                else:
                    sub = rrpv2d[erows]
                    mx = sub.max(axis=1)
                    vway = sub.argmax(axis=1)
                    # Bulk-age every line to max; the victim slot is
                    # overwritten by the insertion value below.
                    rrpv2d[erows] += (max_rrpv - mx)[:, None]
                wayf[evm] = vway
                evictions += erows.size
                evict_use.append(use1[erows * ways + vway].copy())
            if cold.any():
                vc[frows[cold]] += 1
            fflat = base[fm] + wayf
            tag1[fflat] = lv[fm]
            use1[fflat] = 0
            if lru:
                stamp1[fflat] = tk[fm]
            else:
                rrpv1[fflat] = insertion_rrpv
            fills += frows.size
        r += 1

    # Scalar tail for the few groups still active (set-conflict storms).
    if r < max_rounds:
        k = n_groups - int(searchsorted(counts_asc, r, side="right"))
        tail_use: List[int] = []
        tail_miss: List[int] = []
        perm_l = None
        for j in range(k):
            gid = int(gids[j])
            lo = int(starts[j]) + r
            hi = int(starts[j]) + int(counts[j])
            seg = tag2d[gid].tolist()
            us = use2d[gid].tolist()
            vcg = int(vc[gid])
            if lru:
                stp = stamp2d[gid].tolist()
                tkg = int(tick[gid])
            else:
                rv = rrpv2d[gid].tolist()
            if perm_l is None:
                perm_l = perm.tolist()
            loc_l = ln[lo:hi].tolist()
            wr_l = wr[lo:hi].tolist()
            for o, (lvv, ww) in enumerate(zip(loc_l, wr_l)):
                if lru:
                    tkg += 1
                if lvv in seg:
                    i = seg.index(lvv)
                    us[i] += 1
                    if lru:
                        stp[i] = tkg
                    else:
                        rv[i] = 0
                    if ww:
                        store_hits += 1
                    else:
                        load_hits += 1
                elif not ww:
                    tail_miss.append(perm_l[lo + o])
                    if vcg < ways:
                        i = vcg
                        vcg += 1
                    else:
                        if lru:
                            i = stp.index(min(stp))
                        else:
                            top_val = max(rv)
                            i = rv.index(top_val)
                            if top_val < max_rrpv:
                                delta = max_rrpv - top_val
                                rv = [v + delta for v in rv]
                        evictions += 1
                        tail_use.append(us[i])
                    seg[i] = lvv
                    us[i] = 0
                    if lru:
                        stp[i] = tkg
                    else:
                        rv[i] = insertion_rrpv
                    fills += 1
            tag2d[gid] = seg
            use2d[gid] = us
            vc[gid] = vcg
            if lru:
                stamp2d[gid] = stp
                tick[gid] = tkg
            else:
                rrpv2d[gid] = rv
        for u in tail_use:
            reuse[u] += 1
        if tail_miss:
            miss_pos.append(np.array(tail_miss, dtype=np.int64))

    if evict_use:
        vals, cnts = np.unique(np.concatenate(evict_use), return_counts=True)
        for v, cnt in zip(vals.tolist(), cnts.tolist()):
            reuse[v] += cnt

    # Write state back per core.
    tagf = tag2d.reshape(C, num_sets * ways)
    usef = use2d.reshape(C, num_sets * ways)
    vcf = vc.reshape(C, num_sets)
    if lru:
        stampf = stamp2d.reshape(C, num_sets * ways)
        tickf = tick.reshape(C, num_sets)
    else:
        rrpvf = rrpv2d.reshape(C, num_sets * ways)
    for c, l1 in enumerate(l1s):
        l1.tag = tagf[c].tolist()
        l1.use_count = usef[c].tolist()
        l1.valid_count = vcf[c].tolist()
        if lru:
            l1.stamp = stampf[c].tolist()
            repl_st[c][0] = int(tickf[c].max())
        else:
            l1.rrpv = rrpvf[c].tolist()

    if miss_pos:
        events = np.concatenate(
            [np.flatnonzero(write)] + miss_pos
        )
    else:
        events = np.flatnonzero(write)
    return loads, load_hits, stores, store_hits, fills, evictions, events


def l2_burst(
    banks: List,
    num_sets: int,
    now: np.ndarray,
    part: np.ndarray,
    local: np.ndarray,
    set2: np.ndarray,
    write: np.ndarray,
    reuse,
    mask: Optional[np.ndarray] = None,
    tail_threshold: int = _TAIL_THRESHOLD,
) -> Tuple[int, int, int, int, int, int, int, int]:
    """Replay all L2 events grouped by (bank, set), vectorized.

    ``banks`` are the engine's ``_L2Bank`` objects; their list state is
    loaded into stacked arrays, mutated in rounds, and written back, so
    callers (and :meth:`FunctionalEngine.result`) keep seeing the plain
    lists.  Eviction-time reuse generations are merged into ``reuse``
    (a ``Counter``).  Returns ``(loads, stores, load_hits, store_hits,
    fills, evictions, writebacks, contentions)``.

    ``mask`` gives each event its requester's victim-bit group mask
    (designs with hints; object dtype once the bits outgrow 64), and the
    victim-bit plane takes its dtype: a load hit ORs it into the bits,
    a load fill sets them to it and a store fill clears them.  A load
    hit that finds its bit already set is a contention the oracle would
    have returned as a hint; ``contentions`` counts them, so a caller
    that bursts only loads which cannot carry a hint checks it is 0.
    Without ``mask`` the bits are left alone (they stay zero for
    hint-free designs) and ``contentions`` is 0.
    """
    n_ev = int(now.size)
    stores = int(np.count_nonzero(write)) if n_ev else 0
    loads = n_ev - stores
    if not n_ev:
        return 0, 0, 0, 0, 0, 0, 0, 0
    P = len(banks)
    ways = banks[0].ways
    # ------------------------------------------------------------------
    # Load bank state into stacked (bank*set, way) planes.
    # ------------------------------------------------------------------
    tag2d = np.array([b.tag for b in banks], dtype=np.int64).reshape(
        P * num_sets, ways
    )
    stamp2d = np.array([b.stamp for b in banks], dtype=np.int64).reshape(
        P * num_sets, ways
    )
    use2d = np.array([b.use for b in banks], dtype=np.int64).reshape(
        P * num_sets, ways
    )
    dirty2d = np.frombuffer(
        b"".join(bytes(b.dirty) for b in banks), dtype=np.uint8
    ).reshape(P * num_sets, ways).copy()
    vc = np.array(
        [b.valid_count for b in banks], dtype=np.int64
    ).reshape(P * num_sets)
    if mask is not None:
        vb2d = np.array([b.vb for b in banks], dtype=mask.dtype).reshape(
            P * num_sets, ways
        )
        vb1 = vb2d.reshape(-1)
    # Per-group recency clock.  The oracle's clock is bank-wide, but only
    # within-set stamp *order* is observable; seeding from the resident
    # maximum keeps warm-engine stamps monotone.
    tick = stamp2d.max(axis=1)

    perm, gids, starts, counts = csr_group(part * num_sets + set2, now)
    loc = local[perm]
    wr = write[perm]
    if mask is not None:
        # Loads carry their group mask, stores 0 (a store fill clears).
        ms = mask[perm]
        ms[wr] = 0
    else:
        ms = None

    # Flat views over the same buffers: one `row*ways + way` index per
    # scatter beats NumPy's 2-array fancy indexing in the round loop.
    tag1 = tag2d.reshape(-1)
    stamp1 = stamp2d.reshape(-1)
    use1 = use2d.reshape(-1)
    dirty1 = dirty2d.reshape(-1)

    load_hits = store_hits = fills = evictions = writebacks = 0
    contentions = 0
    evict_use: List[np.ndarray] = []
    counts_asc = np.sort(counts)
    n_groups = counts.size
    max_rounds = int(counts[0])
    searchsorted = np.searchsorted

    r = 0
    while r < max_rounds:
        k = n_groups - int(searchsorted(counts_asc, r, side="right"))
        if k < tail_threshold:
            break
        rows = gids[:k]
        base = rows * ways
        idx = starts[:k] + r
        lv = loc[idx]
        w = wr[idx]
        t = tag2d[rows]
        eq = t == lv[:, None]
        hitm = eq.any(axis=1)
        way = eq.argmax(axis=1)
        tk = tick[rows] + 1
        tick[rows] = tk
        # Hits: bump use, restamp, dirty on store hits.
        hflat = base[hitm] + way[hitm]
        if hflat.size:
            use1[hflat] += 1
            stamp1[hflat] = tk[hitm]
            hw = w[hitm]
            sh = int(np.count_nonzero(hw))
            store_hits += sh
            load_hits += hflat.size - sh
            if sh:
                dirty1[hflat[hw]] = 1
            if ms is not None:
                hm = ms[idx[hitm]]
                prev = vb1[hflat]
                contentions += int(np.count_nonzero(prev & hm))
                vb1[hflat] = prev | hm
        # Misses: fill into the cold prefix or the min-stamp victim.
        mm = ~hitm
        mrows = rows[mm]
        if mrows.size:
            mvc = vc[mrows]
            cold = mvc < ways
            wayf = mvc.copy()
            ev = ~cold
            if ev.any():
                erows = mrows[ev]
                vway = stamp2d[erows].argmin(axis=1)
                wayf[ev] = vway
                eflat = erows * ways + vway
                evictions += erows.size
                writebacks += int(dirty1[eflat].sum())
                evict_use.append(use1[eflat].copy())
            if cold.any():
                crows = mrows[cold]
                vc[crows] += 1
            mflat = base[mm] + wayf
            tag1[mflat] = lv[mm]
            dirty1[mflat] = w[mm]
            use1[mflat] = 0
            stamp1[mflat] = tk[mm]
            if ms is not None:
                vb1[mflat] = ms[idx[mm]]
            fills += mrows.size
        r += 1

    # ------------------------------------------------------------------
    # Scalar tail: the few groups still active after round r finish in
    # per-group scalar loops over plain lists (set-conflict storms land
    # here instead of degrading the round loop to one event per op).
    # ------------------------------------------------------------------
    if r < max_rounds:
        k = n_groups - int(searchsorted(counts_asc, r, side="right"))
        tail_use: List[int] = []
        for j in range(k):
            gid = int(gids[j])
            lo = int(starts[j]) + r
            hi = int(starts[j]) + int(counts[j])
            seg = tag2d[gid].tolist()
            stp = stamp2d[gid].tolist()
            us = use2d[gid].tolist()
            dt = dirty2d[gid].tolist()
            vcg = int(vc[gid])
            tkg = int(tick[gid])
            loc_l = loc[lo:hi].tolist()
            wr_l = wr[lo:hi].tolist()
            if ms is not None:
                vbg = vb2d[gid].tolist()
                ms_l = ms[lo:hi].tolist()
            else:
                vbg = ms_l = None
            for o, (lvv, ww) in enumerate(zip(loc_l, wr_l)):
                tkg += 1
                if lvv in seg:
                    i = seg.index(lvv)
                    us[i] += 1
                    stp[i] = tkg
                    if ww:
                        store_hits += 1
                        dt[i] = 1
                    else:
                        load_hits += 1
                        if vbg is not None:
                            m = ms_l[o]
                            if vbg[i] & m:
                                contentions += 1
                            vbg[i] |= m
                else:
                    if vcg < ways:
                        i = vcg
                        vcg += 1
                    else:
                        i = stp.index(min(stp))
                        evictions += 1
                        if dt[i]:
                            writebacks += 1
                        tail_use.append(us[i])
                    seg[i] = lvv
                    dt[i] = 1 if ww else 0
                    us[i] = 0
                    stp[i] = tkg
                    if vbg is not None:
                        vbg[i] = ms_l[o]
                    fills += 1
            tag2d[gid] = seg
            stamp2d[gid] = stp
            use2d[gid] = us
            dirty2d[gid] = dt
            vc[gid] = vcg
            tick[gid] = tkg
            if vbg is not None:
                vb2d[gid] = vbg
        for u in tail_use:
            reuse[u] += 1

    if evict_use:
        vals, cnts = np.unique(np.concatenate(evict_use), return_counts=True)
        for v, cnt in zip(vals.tolist(), cnts.tolist()):
            reuse[v] += cnt

    # ------------------------------------------------------------------
    # Write state back to the banks' plain lists.
    # ------------------------------------------------------------------
    tagf = tag2d.reshape(P, num_sets * ways)
    stampf = stamp2d.reshape(P, num_sets * ways)
    usef = use2d.reshape(P, num_sets * ways)
    dirtyf = dirty2d.reshape(P, num_sets * ways)
    vcf = vc.reshape(P, num_sets)
    tickf = tick.reshape(P, num_sets)
    vbf = vb2d.reshape(P, num_sets * ways) if mask is not None else None
    for b, bank in enumerate(banks):
        if vbf is not None:
            bank.vb = vbf[b].tolist()
        bank.tag = tagf[b].tolist()
        bank.stamp = stampf[b].tolist()
        bank.use = usef[b].tolist()
        bank.dirty = bytearray(dirtyf[b].tobytes())
        bank.valid_count = vcf[b].tolist()
        bank.tick = int(tickf[b].max())
    return (
        loads, stores, load_hits, store_hits, fills, evictions, writebacks,
        contentions,
    )
