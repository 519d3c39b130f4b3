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

Four kernels share that scaffolding: :func:`l1_burst` (null-management
LRU L1s), :func:`pdp_burst` (protecting-distance L1s, whose state is per
set too), :func:`gcache_burst` (G-Cache L1s under fixed victim hints,
and hint-free SRRIP L1s) and :func:`l2_burst`, which also reports each
load's victim hint.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "count_into",
    "csr_group",
    "gcache_burst",
    "l1_burst",
    "l2_burst",
    "l2_commit",
    "l2_counters",
    "l2_planes",
    "pdp_burst",
]

#: Below this many active groups a vectorized round costs more than the
#: per-group scalar tail; measured crossover is ~20-40 on CPython 3.12.
_TAIL_THRESHOLD = 24


def csr_group(
    group: np.ndarray, time: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sort events by ``(group, time)`` and find group extents.

    Without ``time``, events keep their order within a group.  Returns
    ``(perm, gids, starts, counts)`` with groups ordered by descending
    event count, so round ``r`` always touches a prefix of the group
    list.
    """
    if time is None:
        perm = np.argsort(group, kind="stable")
    else:
        perm = np.lexsort((time, group))
    g = group[perm]
    starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
    counts = np.diff(np.r_[starts, g.size])
    order = np.argsort(-counts, kind="stable")
    return perm, g[starts][order], starts[order], counts[order]


def _round_plan(counts: np.ndarray, tail_threshold: int) -> List[int]:
    """How many groups (listed by descending count) each round touches.

    Round ``r`` runs vectorized over the ``active[r]`` groups that have
    an ``r``-th event while there are at least ``tail_threshold`` of
    them.  The list has one entry per vectorized round plus a last one:
    how many groups the scalar tail finishes (0 for none).
    """
    n_vec = (
        int(counts[tail_threshold - 1]) if counts.size >= tail_threshold else 0
    )
    return (
        counts.size
        - np.searchsorted(np.sort(counts), np.arange(n_vec + 1), side="right")
    ).tolist()


def count_into(reuse, values: List[np.ndarray]) -> None:
    """Add each value of the ``values`` arrays to the ``reuse`` Counter."""
    if values:
        vals, cnts = np.unique(np.concatenate(values), return_counts=True)
        for v, cnt in zip(vals.tolist(), cnts.tolist()):
            reuse[v] += cnt


def l1_burst(
    l1s: List,
    num_sets: int,
    repl_st: List,
    group: np.ndarray,
    line: np.ndarray,
    write: np.ndarray,
    reuse,
    tail_threshold: int = _TAIL_THRESHOLD,
) -> Tuple[int, int, int, int, int, int, np.ndarray]:
    """Replay every core's whole LRU L1 stream grouped by (core, set).

    Only valid for **null-management** designs (no fill/evict/insert
    hooks, no tick): L1 state is then core-private and every decision —
    hit classification, LRU victim selection, insertion — is a pure
    per-(core, set) function, so the per-set ordering argument that
    justifies :func:`l2_burst` applies verbatim with "set" meaning
    "(core, set)".  Stamps use a per-group clock (only within-set stamp
    order is observable; each core's shared counter ``repl_st`` is
    re-seeded to its resident maximum afterwards so later scalar kernels
    stay monotone).  A null-management SRRIP L1 runs as a hint-free
    :func:`gcache_burst` instead.

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
    stamp2d = np.array(
        [l1.stamp for l1 in l1s], dtype=np.int64
    ).reshape(n_rows, ways)
    tick = stamp2d.max(axis=1)

    perm, gids, starts, counts = csr_group(group)
    ln = line[perm]
    wr = write[perm]

    # Flat views over the same buffers: one `row*ways + way` index per
    # scatter beats NumPy's 2-array fancy indexing in the round loop.
    tag1 = tag2d.reshape(-1)
    use1 = use2d.reshape(-1)
    stamp1 = stamp2d.reshape(-1)

    load_hits = store_hits = fills = evictions = 0
    miss_pos: List[np.ndarray] = []
    evict_use: List[np.ndarray] = []
    active = _round_plan(counts, tail_threshold)

    for r, k in enumerate(active[:-1]):
        rows = gids[:k]
        base = rows * ways
        idx = starts[:k] + r
        lv = ln[idx]
        w = wr[idx]
        t = tag2d[rows]
        eq = t == lv[:, None]
        hitm = eq.any(axis=1)
        way = eq.argmax(axis=1)
        tk = tick[rows] + 1
        tick[rows] = tk
        hflat = base[hitm] + way[hitm]
        if hflat.size:
            use1[hflat] += 1
            stamp1[hflat] = tk[hitm]
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
                vway = stamp2d[erows].argmin(axis=1)
                wayf[evm] = vway
                evictions += erows.size
                evict_use.append(use1[erows * ways + vway].copy())
            if cold.any():
                vc[frows[cold]] += 1
            fflat = base[fm] + wayf
            tag1[fflat] = lv[fm]
            use1[fflat] = 0
            stamp1[fflat] = tk[fm]
            fills += frows.size

    # Scalar tail for the few groups still active (set-conflict storms).
    r = len(active) - 1
    k = active[r]
    if k:
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
            stp = stamp2d[gid].tolist()
            tkg = int(tick[gid])
            if perm_l is None:
                perm_l = perm.tolist()
            loc_l = ln[lo:hi].tolist()
            wr_l = wr[lo:hi].tolist()
            for o, (lvv, ww) in enumerate(zip(loc_l, wr_l)):
                tkg += 1
                if lvv in seg:
                    i = seg.index(lvv)
                    us[i] += 1
                    stp[i] = tkg
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
                        i = stp.index(min(stp))
                        evictions += 1
                        tail_use.append(us[i])
                    seg[i] = lvv
                    us[i] = 0
                    stp[i] = tkg
                    fills += 1
            tag2d[gid] = seg
            use2d[gid] = us
            vc[gid] = vcg
            stamp2d[gid] = stp
            tick[gid] = tkg
        evict_use.append(np.array(tail_use, dtype=np.int64))
        if tail_miss:
            miss_pos.append(np.array(tail_miss, dtype=np.int64))
    count_into(reuse, evict_use)

    # Write state back per core.
    tagf = tag2d.reshape(C, num_sets * ways)
    usef = use2d.reshape(C, num_sets * ways)
    vcf = vc.reshape(C, num_sets)
    stampf = stamp2d.reshape(C, num_sets * ways)
    tickf = tick.reshape(C, num_sets)
    for c, l1 in enumerate(l1s):
        l1.tag = tagf[c].tolist()
        l1.use_count = usef[c].tolist()
        l1.valid_count = vcf[c].tolist()
        l1.stamp = stampf[c].tolist()
        repl_st[c][0] = int(tickf[c].max())

    if miss_pos:
        events = np.concatenate(
            [np.flatnonzero(write)] + miss_pos
        )
    else:
        events = np.flatnonzero(write)
    return loads, load_hits, stores, store_hits, fills, evictions, events


#: Fill-time key of a protected line: never the least recently filled.
_PROTECTED = np.iinfo(np.int64).max


def pdp_burst(
    planes: Dict[str, np.ndarray],
    group: np.ndarray,
    line: np.ndarray,
    write: np.ndarray,
    now: np.ndarray,
    step_hit: np.ndarray,
    step_miss: np.ndarray,
    ins: np.ndarray,
    bypass: bool,
    tail_threshold: int = _TAIL_THRESHOLD,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replay every core's whole L1 stream under PDP, grouped by (core,
    set).

    Valid for :class:`~repro.cache.policies.pdp.StaticPDPPolicy` and
    :class:`~repro.cache.policies.pdp.DynamicPDPPolicy` with the PD
    schedule given up front: everything PDP reads is per set.  Each
    access ticks its set's clock, and every ``step``-th tick decrements
    the set's positive PDCs; a hit then resets the line's PDC to
    ``ins``.  A load miss into a set whose lines are all valid and
    protected bypasses (with ``bypass``); otherwise it fills the first
    invalid way, else the unprotected way filled longest ago, else (no
    bypass) the first way with the smallest PDC, and the line gets
    PDC ``ins`` and fill time ``now``.  Store misses only tick
    (write-through no-allocate).

    ``planes`` holds the stacked ``(core * num_sets + set, way)``
    planes ``tag``, ``use_count``, ``pd_counter`` and ``fill_time``
    and the per-row ``valid_count`` and ``ticks``; they are updated in
    place.  ``step_hit`` is the tick step of an access that hits and
    ``step_miss`` of one that misses (they differ only at the access
    that ends a dynamic PDP epoch: a miss ticks before the policy
    observes it, a hit after), and ``ins`` the PDC a hit or fill sets,
    each one value per access.  Replacement stamps are left
    to the caller, which knows each core's clock.

    Returns, in stream order, the hit flags, the flat plane index each
    access hit or filled (-1 for store misses and bypasses) and the use
    counts of the evicted lines.
    """
    n_ev = int(group.size)
    hit = np.zeros(n_ev, dtype=np.bool_)
    slot = np.full(n_ev, -1, dtype=np.int32)
    if not n_ev:
        return hit, slot, np.empty(0, dtype=np.int64)
    tag2d = planes["tag"]
    use2d = planes["use_count"]
    pdc2d = planes["pd_counter"]
    ft2d = planes["fill_time"]
    vc = planes["valid_count"]
    ticks = planes["ticks"]
    ways = tag2d.shape[1]
    tag1 = tag2d.reshape(-1)
    use1 = use2d.reshape(-1)
    ft1 = ft2d.reshape(-1)

    perm, gids, starts, counts = csr_group(group)
    ln = line[perm]
    wr = write[perm]
    sh = step_hit[perm]
    sm = step_miss[perm]
    ins = ins[perm]
    quantized = bool((sh > 1).any() or (sm > 1).any())
    # Each group's clock at its first event of this burst.
    t0 = ticks[gids]
    hit_s = np.zeros(n_ev, dtype=np.bool_)
    slot_s = np.full(n_ev, -1, dtype=np.int32)
    evict_use: List[np.ndarray] = []
    active = _round_plan(counts, tail_threshold)

    for r, k in enumerate(active[:-1]):
        rows = gids[:k]
        idx = starts[:k] + r
        lv = ln[idx]
        eq = tag2d[rows] == lv[:, None]
        hitm = eq.any(axis=1)
        P = pdc2d[rows]
        if quantized:
            st = np.where(hitm, sh[idx], sm[idx])
            P -= (P > 0) & ((t0[:k] + (r + 1)) % st == 0)[:, None]
        else:
            P -= P > 0
        hr = np.flatnonzero(hitm)
        if hr.size:
            hway = eq[hr].argmax(axis=1)
            P[hr, hway] = ins[idx[hr]]
            hflat = rows[hr] * ways + hway
            use1[hflat] += 1
            hit_s[idx[hr]] = True
            slot_s[idx[hr]] = hflat
        fr = np.flatnonzero(~(hitm | wr[idx]))
        if fr.size:
            way = vc[rows[fr]]
            full = way >= ways
            if full.any():
                fe = np.flatnonzero(full)
                Pf = P[fr[fe]]
                unprot = Pf == 0
                vway = np.where(
                    unprot, ft2d[rows[fr[fe]]], _PROTECTED
                ).argmin(axis=1)
                anyu = unprot.any(axis=1)
                if not anyu.all():
                    if bypass:
                        keep = np.ones(fr.size, dtype=np.bool_)
                        keep[fe[~anyu]] = False
                        vway = vway[anyu]
                        fr = fr[keep]
                        full = full[keep]
                        way = way[keep]
                    else:
                        vway[~anyu] = Pf[~anyu].argmin(axis=1)
                way[full] = vway
            if fr.size:
                frows = rows[fr]
                fflat = frows * ways + way
                if full.any():
                    evict_use.append(use1[fflat[full]])
                vc[frows[~full]] += 1
                fi = idx[fr]
                tag1[fflat] = lv[fr]
                use1[fflat] = 0
                ft1[fflat] = now[perm[fi]]
                P[fr, way] = ins[fi]
                slot_s[fi] = fflat
        pdc2d[rows] = P

    # Scalar tail for the few groups still active (set-conflict storms).
    r = len(active) - 1
    if active[r]:
        tail_use: List[int] = []
        tail_hit: List[int] = []
        tail_idx: List[int] = []
        tail_slot: List[int] = []
        for j in range(active[r]):
            gid = int(gids[j])
            base = gid * ways
            lo = int(starts[j]) + r
            hi = int(starts[j]) + int(counts[j])
            seg = tag2d[gid].tolist()
            us = use2d[gid].tolist()
            pc = pdc2d[gid].tolist()
            ft = ft2d[gid].tolist()
            vcg = int(vc[gid])
            tk = int(t0[j]) + r
            ln_l = ln[lo:hi].tolist()
            wr_l = wr[lo:hi].tolist()
            nw_l = now[perm[lo:hi]].tolist()
            sh_l = sh[lo:hi].tolist()
            sm_l = sm[lo:hi].tolist()
            ins_l = ins[lo:hi].tolist()
            for o, lvv in enumerate(ln_l):
                tk += 1
                hit_now = lvv in seg
                step = sh_l[o] if hit_now else sm_l[o]
                insv = ins_l[o]
                if tk % step == 0:
                    pc = [v - 1 if v else 0 for v in pc]
                if hit_now:
                    i = seg.index(lvv)
                    us[i] += 1
                    pc[i] = insv
                    tail_hit.append(lo + o)
                elif wr_l[o]:
                    continue
                elif vcg < ways:
                    i = vcg
                    vcg += 1
                else:
                    i = -1
                    for w in range(ways):
                        if pc[w] == 0 and (i < 0 or ft[w] < ft[i]):
                            i = w
                    if i < 0:
                        if bypass:
                            continue
                        i = pc.index(min(pc))
                    tail_use.append(us[i])
                if not hit_now:
                    seg[i] = lvv
                    us[i] = 0
                    ft[i] = nw_l[o]
                    pc[i] = insv
                tail_idx.append(lo + o)
                tail_slot.append(base + i)
            tag2d[gid] = seg
            use2d[gid] = us
            pdc2d[gid] = pc
            ft2d[gid] = ft
            vc[gid] = vcg
        hit_s[tail_hit] = True
        slot_s[tail_idx] = tail_slot
        evict_use.append(np.array(tail_use, dtype=np.int64))

    ticks[gids] += counts
    hit[perm] = hit_s
    slot[perm] = slot_s
    return hit, slot, (
        np.concatenate(evict_use) if evict_use
        else np.empty(0, dtype=np.int64)
    )


def gcache_burst(
    planes: Dict[str, np.ndarray],
    group: np.ndarray,
    line: np.ndarray,
    write: np.ndarray,
    hint: np.ndarray,
    epoch: np.ndarray,
    now: np.ndarray,
    params: Tuple[int, int, int, int, int, int],
    tail_threshold: int = _TAIL_THRESHOLD,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Replay L1 accesses under G-Cache with fixed hints, grouped by
    (core, set).

    Valid for :class:`~repro.core.gcache.GCachePolicy` without adaptive
    aging over SRRIP: given each load miss's victim hint, everything it
    reads is per set.  A hit resets the line's RRPV to 0.  A load miss
    with a hint turns its set's bypass switch on; the miss bypasses if
    the switch is on, the set is full and every RRPV is below the hot
    threshold (the lower victim threshold with a hint), and every
    ``m``-th bypass of a set ages its RRPVs by one, saturating.  Other
    load misses fill the first invalid way, else SRRIP's victim (the
    first way holding the maximum RRPV, after aging the set to max),
    with the hot insertion RRPV under a hint and the cold one without.
    Store misses touch nothing (write-through no-allocate).

    The periodic switch shutdown is the per-access ``epoch`` column:
    the number of shutdowns the core has had by that access.  A switch
    is on while the row's ``switch`` plane holds the access's epoch
    (-1: off), so a shutdown needs no event of its own.

    ``planes`` holds the stacked ``(core * num_sets + set, way)`` planes
    ``tag``, ``rrpv``, ``use_count`` and ``fill_time`` and the per-row
    ``valid_count``, ``switch`` and ``bypass_count``; they are updated
    in place.  Events replay in their given order within a group.
    ``params`` is ``(max_rrpv, th_hot, th_hot_victim, hot_insert_rrpv,
    cold_insert_rrpv, m)``.

    Returns per-event columns in input order: hit flags, bypass flags,
    the use count of the line each fill evicted (-1 for none), the
    flags of bypasses that aged their set, and the flags of hinted
    misses that turned their switch on.
    """
    max_rrpv, th_hot, th_victim, hot_ins, cold_ins, m = params
    n_ev = int(group.size)
    outs = (
        np.zeros(n_ev, dtype=np.bool_),
        np.zeros(n_ev, dtype=np.bool_),
        np.full(n_ev, -1, dtype=np.int32),
        np.zeros(n_ev, dtype=np.bool_),
        np.zeros(n_ev, dtype=np.bool_),
    )
    if not n_ev:
        return outs
    tag2d = planes["tag"]
    rrpv2d = planes["rrpv"]
    use2d = planes["use_count"]
    ft2d = planes["fill_time"]
    vc = planes["valid_count"]
    sw = planes["switch"]
    bcnt = planes["bypass_count"]
    ways = tag2d.shape[1]
    tag1 = tag2d.reshape(-1)
    rrpv1 = rrpv2d.reshape(-1)
    use1 = use2d.reshape(-1)
    ft1 = ft2d.reshape(-1)

    perm, gids, starts, counts = csr_group(group)
    ln = line[perm]
    wr = write[perm]
    ld = ~wr
    hn = hint[perm]
    ep = epoch[perm]
    nw = now[perm]
    hit_s, byp_s, evict_s, aged_s, act_s = (
        np.zeros(n_ev, dtype=np.bool_),
        np.zeros(n_ev, dtype=np.bool_),
        np.full(n_ev, -1, dtype=np.int32),
        np.zeros(n_ev, dtype=np.bool_),
        np.zeros(n_ev, dtype=np.bool_),
    )
    active = _round_plan(counts, tail_threshold)

    for r, k in enumerate(active[:-1]):
        rows = gids[:k]
        idx = starts[:k] + r
        eq = tag2d.take(rows, axis=0) == ln[idx][:, None]
        hitm = eq.any(axis=1)
        hi = hitm.nonzero()[0]
        if hi.size:
            hflat = rows[hi] * ways + eq.take(hi, axis=0).argmax(axis=1)
            use1[hflat] += 1
            rrpv1[hflat] = 0
            hit_s[idx[hi]] = True
        mi = (hitm < ld[idx]).nonzero()[0]
        if not mi.size:
            continue
        fidx = idx[mi]
        frows = rows[mi]
        R = rrpv2d.take(frows, axis=0)
        top = R.max(axis=1)
        h = hn[fidx]
        e = ep[fidx]
        hinted = np.count_nonzero(h)
        if hinted:
            # A hinted miss turns its set's switch on.
            hrows = frows[h]
            act_s[fidx[h]] = sw[hrows] != e[h]
            sw[hrows] = e[h]
        way = vc[frows]
        full = way >= ways
        byp = sw[frows] == e
        if np.count_nonzero(byp):
            byp &= full & (
                top < (np.where(h, th_victim, th_hot) if hinted else th_hot)
            )
        if np.count_nonzero(byp):
            b = byp.nonzero()[0]
            brows = frows[b]
            byp_s[fidx[b]] = True
            cnt = bcnt[brows] + 1
            age = cnt >= m
            bcnt[brows] = np.where(age, 0, cnt)
            if np.count_nonzero(age):
                # Every m-th bypass ages the (full) set, saturating.
                rrpv2d[brows[age]] = np.minimum(R[b[age]] + 1, max_rrpv)
                aged_s[fidx[b[age]]] = True
            fill = ~byp
            fidx = fidx[fill]
            if not fidx.size:
                continue
            frows = frows[fill]
            R = R[fill]
            top = top[fill]
            h = h[fill]
            way = way[fill]
            full = full[fill]
        # SRRIP: age the set to max, evict the first way that held the
        # maximum; the victim slot is overwritten below.
        if np.count_nonzero(full) == full.size:
            way = R.argmax(axis=1)
            rrpv2d[frows] = R + (max_rrpv - top)[:, None]
            fflat = frows * ways + way
            evict_s[fidx] = use1[fflat]
        else:
            f = full.nonzero()[0]
            if f.size:
                erows = frows[f]
                vway = R[f].argmax(axis=1)
                rrpv2d[erows] = R[f] + (max_rrpv - top[f])[:, None]
                way[f] = vway
                evict_s[fidx[f]] = use1[erows * ways + vway]
            vc[frows[~full]] += 1
            fflat = frows * ways + way
        tag1[fflat] = ln[fidx]
        use1[fflat] = 0
        ft1[fflat] = nw[fidx]
        rrpv1[fflat] = np.where(h, hot_ins, cold_ins) if hinted else cold_ins

    # Scalar tail for the few groups still active (set-conflict storms).
    r = len(active) - 1
    if active[r]:
        t_hit: List[int] = []
        t_byp: List[int] = []
        t_aged: List[int] = []
        t_act: List[int] = []
        t_evict: List[int] = []
        t_use: List[int] = []
        for j in range(active[r]):
            gid = int(gids[j])
            lo = int(starts[j]) + r
            hi = int(starts[j]) + int(counts[j])
            seg = tag2d[gid].tolist()
            rv = rrpv2d[gid].tolist()
            us = use2d[gid].tolist()
            ft = ft2d[gid].tolist()
            vcg = int(vc[gid])
            swg = int(sw[gid])
            cg = int(bcnt[gid])
            wr_l = wr[lo:hi].tolist()
            hn_l = hn[lo:hi].tolist()
            ep_l = ep[lo:hi].tolist()
            nw_l = nw[lo:hi].tolist()
            for o, lvv in enumerate(ln[lo:hi].tolist()):
                if lvv in seg:
                    i = seg.index(lvv)
                    us[i] += 1
                    rv[i] = 0
                    t_hit.append(lo + o)
                    continue
                if wr_l[o]:
                    continue
                hv = hn_l[o]
                ev = ep_l[o]
                if hv and swg != ev:
                    swg = ev
                    t_act.append(lo + o)
                top_val = max(rv)
                if (
                    swg == ev
                    and vcg == ways
                    and top_val < (th_victim if hv else th_hot)
                ):
                    t_byp.append(lo + o)
                    cg += 1
                    if cg >= m:
                        cg = 0
                        rv = [v + 1 if v < max_rrpv else v for v in rv]
                        t_aged.append(lo + o)
                    continue
                if vcg < ways:
                    i = vcg
                    vcg += 1
                else:
                    i = rv.index(top_val)
                    if top_val < max_rrpv:
                        delta = max_rrpv - top_val
                        rv = [v + delta for v in rv]
                    t_evict.append(lo + o)
                    t_use.append(us[i])
                seg[i] = lvv
                us[i] = 0
                ft[i] = nw_l[o]
                rv[i] = hot_ins if hv else cold_ins
            tag2d[gid] = seg
            rrpv2d[gid] = rv
            use2d[gid] = us
            ft2d[gid] = ft
            vc[gid] = vcg
            sw[gid] = swg
            bcnt[gid] = cg
        hit_s[t_hit] = True
        byp_s[t_byp] = True
        aged_s[t_aged] = True
        act_s[t_act] = True
        evict_s[t_evict] = t_use

    for out, col in zip(outs, (hit_s, byp_s, evict_s, aged_s, act_s)):
        out[perm] = col
    return outs


def l2_planes(
    banks: List, num_sets: int, vb_dtype=None
) -> Dict[str, np.ndarray]:
    """Stack the banks' list state into ``(bank * num_sets + set, way)``
    planes ``tag``, ``stamp``, ``use``, ``dirty`` (and ``vb`` with
    ``vb_dtype``) and per-row ``valid_count`` and ``tick``.

    The oracle's recency clock is bank-wide, but only within-set stamp
    *order* is observable, so each row keeps its own clock, seeded from
    its resident maximum so warm stamps stay monotone.
    """
    rows = len(banks) * num_sets
    ways = banks[0].ways

    def stack(name):
        return np.array(
            [getattr(b, name) for b in banks], dtype=np.int64
        ).reshape(rows, -1)

    planes = {name: stack(name) for name in ("tag", "stamp", "use")}
    planes["dirty"] = np.frombuffer(
        b"".join(bytes(b.dirty) for b in banks), dtype=np.uint8
    ).reshape(rows, ways).copy()
    planes["valid_count"] = stack("valid_count").reshape(rows)
    planes["tick"] = planes["stamp"].max(axis=1)
    if vb_dtype is not None:
        planes["vb"] = np.array(
            [b.vb for b in banks], dtype=vb_dtype
        ).reshape(rows, ways)
    return planes


def l2_commit(planes: Dict[str, np.ndarray], banks: List) -> None:
    """Write :func:`l2_planes` state back to the banks' plain lists."""
    P = len(banks)
    for name in ("tag", "stamp", "use", "valid_count", "vb"):
        if name in planes:
            plane = planes[name].reshape(P, -1)
            for b, bank in enumerate(banks):
                setattr(bank, name, plane[b].tolist())
    dirty = planes["dirty"].reshape(P, -1)
    tick = planes["tick"].reshape(P, -1).max(axis=1).tolist()
    for b, bank in enumerate(banks):
        bank.dirty = bytearray(dirty[b].tobytes())
        bank.tick = tick[b]


def l2_burst(
    planes: Dict[str, np.ndarray],
    group: np.ndarray,
    local: np.ndarray,
    write: np.ndarray,
    mask: Optional[np.ndarray] = None,
    time: Optional[np.ndarray] = None,
    tail_threshold: int = _TAIL_THRESHOLD,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Replay L2 events grouped by (bank, set), vectorized, on
    :func:`l2_planes` state (updated in place).

    ``group`` is each event's ``bank * num_sets + set``; events replay
    in ``time`` order within a group, or in their given order without
    ``time``.  Returns per-event columns in input order: the hit flags,
    the use count of the line each event evicted (-1 for none), the
    writeback flags and, with ``mask``, the hint flags (else ``None``).

    ``mask`` gives each event its requester's victim-bit group mask
    (designs with hints; object dtype once the bits outgrow 64), in the
    planes' ``vb`` dtype: a load hit ORs it into the bits, a load fill
    sets them to it and a store fill clears them.  A load hit that
    finds its bit already set carries the oracle's victim hint: its
    flag is set.
    """
    n_ev = int(group.size)
    hit = np.zeros(n_ev, dtype=np.bool_)
    evict = np.full(n_ev, -1, dtype=np.int32)
    wback = np.zeros(n_ev, dtype=np.bool_)
    flag = np.zeros(n_ev, dtype=np.bool_) if mask is not None else None
    if not n_ev:
        return hit, evict, wback, flag
    tag2d = planes["tag"]
    stamp2d = planes["stamp"]
    use2d = planes["use"]
    dirty2d = planes["dirty"]
    vc = planes["valid_count"]
    tick = planes["tick"]
    ways = tag2d.shape[1]
    # Flat views over the same buffers: one `row*ways + way` index per
    # scatter beats NumPy's 2-array fancy indexing in the round loop.
    tag1 = tag2d.reshape(-1)
    stamp1 = stamp2d.reshape(-1)
    use1 = use2d.reshape(-1)
    dirty1 = dirty2d.reshape(-1)

    perm, gids, starts, counts = csr_group(group, time)
    loc = local[perm]
    wr = write[perm]
    if mask is not None:
        vb2d = planes["vb"]
        vb1 = vb2d.reshape(-1)
        # Loads carry their group mask, stores 0 (a store fill clears).
        ms = mask[perm]
        ms[wr] = 0
    else:
        ms = None
    hit_s = np.zeros(n_ev, dtype=np.bool_)
    evict_s = np.full(n_ev, -1, dtype=np.int32)
    wback_s = np.zeros(n_ev, dtype=np.bool_)
    flag_s = np.zeros(n_ev, dtype=np.bool_)
    active = _round_plan(counts, tail_threshold)

    for r, k in enumerate(active[:-1]):
        rows = gids[:k]
        base = rows * ways
        idx = starts[:k] + r
        lv = loc[idx]
        w = wr[idx]
        eq = tag2d.take(rows, axis=0) == lv[:, None]
        hitm = eq.any(axis=1)
        tk = tick[rows] + 1
        tick[rows] = tk
        # Hits: bump use, restamp, dirty on store hits.
        hi = hitm.nonzero()[0]
        if hi.size:
            hidx = idx[hi]
            hflat = base[hi] + eq.take(hi, axis=0).argmax(axis=1)
            use1[hflat] += 1
            stamp1[hflat] = tk[hi]
            hit_s[hidx] = True
            hw = w[hi]
            if np.count_nonzero(hw):
                dirty1[hflat[hw]] = 1
            if ms is not None:
                hm = ms[hidx]
                prev = vb1[hflat]
                flag_s[hidx] = (prev & hm) != 0
                vb1[hflat] = prev | hm
        # Misses: fill into the cold prefix or the min-stamp victim.
        mi = (~hitm).nonzero()[0]
        if mi.size:
            mrows = rows[mi]
            wayf = vc[mrows]
            cold = wayf < ways
            ev = ~cold
            if np.count_nonzero(ev):
                erows = mrows[ev]
                vway = stamp2d.take(erows, axis=0).argmin(axis=1)
                wayf[ev] = vway
                eflat = erows * ways + vway
                eidx = idx[mi[ev]]
                evict_s[eidx] = use1[eflat]
                wback_s[eidx] = dirty1[eflat] != 0
            if np.count_nonzero(cold):
                vc[mrows[cold]] += 1
            mflat = base[mi] + wayf
            tag1[mflat] = lv[mi]
            dirty1[mflat] = w[mi]
            use1[mflat] = 0
            stamp1[mflat] = tk[mi]
            if ms is not None:
                vb1[mflat] = ms[idx[mi]]

    # ------------------------------------------------------------------
    # Scalar tail: the few groups still active after round r finish in
    # per-group scalar loops over plain lists (set-conflict storms land
    # here instead of degrading the round loop to one event per op).
    # ------------------------------------------------------------------
    r = len(active) - 1
    k = active[r]
    if k:
        t_hit: List[int] = []
        t_flag: List[int] = []
        t_evict: List[int] = []
        t_use: List[int] = []
        t_wback: List[int] = []
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
            for o, (lvv, ww) in enumerate(zip(loc_l, wr_l), lo):
                tkg += 1
                if lvv in seg:
                    i = seg.index(lvv)
                    us[i] += 1
                    stp[i] = tkg
                    t_hit.append(o)
                    if ww:
                        dt[i] = 1
                    elif vbg is not None:
                        m = ms_l[o - lo]
                        if vbg[i] & m:
                            t_flag.append(o)
                        vbg[i] |= m
                else:
                    if vcg < ways:
                        i = vcg
                        vcg += 1
                    else:
                        i = stp.index(min(stp))
                        t_evict.append(o)
                        t_use.append(us[i])
                        if dt[i]:
                            t_wback.append(o)
                    seg[i] = lvv
                    dt[i] = 1 if ww else 0
                    us[i] = 0
                    stp[i] = tkg
                    if vbg is not None:
                        vbg[i] = ms_l[o - lo]
            tag2d[gid] = seg
            stamp2d[gid] = stp
            use2d[gid] = us
            dirty2d[gid] = dt
            vc[gid] = vcg
            tick[gid] = tkg
            if vbg is not None:
                vb2d[gid] = vbg
        hit_s[t_hit] = True
        flag_s[t_flag] = True
        evict_s[t_evict] = t_use
        wback_s[t_wback] = True

    hit[perm] = hit_s
    evict[perm] = evict_s
    wback[perm] = wback_s
    if flag is not None:
        flag[perm] = flag_s
    return hit, evict, wback, flag


def l2_counters(
    write: np.ndarray, hit: np.ndarray, evict: np.ndarray,
    wback: np.ndarray, reuse,
) -> Tuple[int, int, int, int, int, int, int]:
    """Counters of :func:`l2_burst` events: ``(loads, stores,
    load_hits, store_hits, fills, evictions, writebacks)``; the evicted
    lines' use counts go into the ``reuse`` Counter."""
    stores = int(np.count_nonzero(write))
    hits = int(np.count_nonzero(hit))
    store_hits = int(np.count_nonzero(hit & write))
    evicted = evict[evict >= 0]
    count_into(reuse, [evicted])
    return (
        write.size - stores, stores, hits - store_hits, store_hits,
        write.size - hits, evicted.size, int(np.count_nonzero(wback)),
    )
