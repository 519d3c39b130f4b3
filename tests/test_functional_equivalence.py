"""Differential harness: functional backend vs the scalar replay oracle.

The vectorized fast-functional backend (:mod:`repro.sim.functional`)
promises *bit-identical* cache counters to the scalar
:func:`repro.sim.replay.replay` driver — same hits, misses, bypasses,
insertions, evictions, writebacks, reuse histograms and victim-bit
contention counts, for every registered design, every warp scheduler and
every cache geometry.  This suite pins that contract:

* the full design registry (plus off-registry parameterizations:
  fast-shutdown G-Cache, small-epoch adaptive-M, small-epoch dynamic
  PDP) over Table-1 benchmarks,
* every warp scheduler the replay driver supports,
* a geometry sweep (sizes, ways, line size, partition count, core count),
* Hypothesis-generated adversarial kernels mixing phase changes,
  streaming bursts, inter-CTA sharing and set-conflict storms.

Any divergence is a silent-wrong-results bug in the fast path: the
functional backend exists so campaigns can run at lower cost *without*
changing what they measure.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import zip_longest
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.cache.policies.base import FillContext, NullManagementPolicy
from repro.cache.policies.pdp import DynamicPDPPolicy, StaticPDPPolicy
from repro.cache.replacement.belady import BeladyPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.rrip import SRRIPPolicy
from repro.core.gcache import GCacheConfig
from repro.sim.config import GPUConfig
from repro.sim.designs import DESIGN_KEYS, DesignSpec, make_design
from repro.sim.functional import (
    FunctionalEngine,
    FunctionalUnsupportedError,
    functional_replay,
)
from repro.sim.functional import engine as engine_mod
from repro.sim.functional import hints as hints_mod
from repro.sim.replay import SCHEDULERS, build_core_streams, replay
from repro.trace.suite import build_benchmark
from repro.trace.trace import CTATrace, KernelTrace, OP_ALU, OP_LOAD, OP_STORE

# ---------------------------------------------------------------------------
# Design matrix: every registry key, plus off-registry parameterizations
# that drive the config-sensitive corners of each policy through the
# engine's replay paths.
# ---------------------------------------------------------------------------


def _design(key: str) -> DesignSpec:
    if key == "spdp-b":
        return make_design("spdp-b", pd=8)
    if key == "gc-fast-shutdown":
        # Frequent periodic switch shutdowns: exercises the tick engine.
        return make_design("gc", gcache_config=GCacheConfig(shutdown_interval=64))
    if key == "gc-tick-only":
        # G-Cache's policy without victim bits: its hooks and periodic
        # tick put it on the walk, where no load carries a hint.
        return replace(
            _design("gc-fast-shutdown"), key="gc-tick-only",
            uses_victim_bits=False,
        )
    if key == "gc-m2-fixed":
        # A fixed M of 2: every other bypass of a set ages it.
        return make_design(
            "gc", gcache_config=GCacheConfig(initial_m=2, shutdown_interval=64)
        )
    if key == "gc-insert":
        # Off-default thresholds and both insertion RRPVs.
        return make_design(
            "gc",
            gcache_config=GCacheConfig(
                th_hot=6, th_hot_victim=3, hot_insert_rrpv=1,
                cold_insert_rrpv=5, shutdown_interval=128,
            ),
        )
    if key == "gc-m-small-epoch":
        # Tight adaptation epoch: exercises the M-counter state machine.
        return make_design(
            "gc-m",
            gcache_config=GCacheConfig(aging_epoch=32, initial_m=1, max_m=8),
        )
    if key == "pdp-small-epoch":
        # Frequent PD recomputation: exercises sampler/decay/re-PD paths.
        return DesignSpec(
            key="pdp-small-epoch",
            label="Dynamic PDP (3-bit, 128-access epochs)",
            make_l1_replacement=LRUPolicy,
            make_l1_mgmt=lambda: DynamicPDPPolicy(
                counter_bits=3, epoch_accesses=128
            ),
        )
    if key == "pdp-tiny-epoch":
        # A PD recompute every 16 observed accesses: epoch boundaries
        # land inside the short adversarial kernels.
        return DesignSpec(
            key="pdp-tiny-epoch",
            label="Dynamic PDP (3-bit, 16-access epochs)",
            make_l1_replacement=LRUPolicy,
            make_l1_mgmt=lambda: DynamicPDPPolicy(
                counter_bits=3, epoch_accesses=16
            ),
        )
    if key == "spdp-quantized":
        # PD 20 in 3-bit counters: one decrement every 3 set accesses.
        return DesignSpec(
            key="spdp-quantized",
            label="Static PDP (PD 20, 3-bit, step 3)",
            make_l1_replacement=LRUPolicy,
            make_l1_mgmt=lambda: StaticPDPPolicy(pd=20, counter_bits=3),
        )
    if key == "spdp-no-bypass":
        # A fully protected set evicts its smallest PDC instead.
        return DesignSpec(
            key="spdp-no-bypass",
            label="Static PDP without bypass (PD 8)",
            make_l1_replacement=LRUPolicy,
            make_l1_mgmt=lambda: StaticPDPPolicy(pd=8, bypass=False),
        )
    return make_design(key)


ALL_DESIGNS = tuple(DESIGN_KEYS) + (
    "gc-fast-shutdown",
    "gc-tick-only",
    "gc-m2-fixed",
    "gc-insert",
    "gc-m-small-epoch",
    "pdp-small-epoch",
    "pdp-tiny-epoch",
    "spdp-quantized",
    "spdp-no-bypass",
)

#: The designs on the PDP burst route.
PDP_DESIGNS = (
    "pdp-3", "pdp-8", "spdp-b", "spdp-quantized", "spdp-no-bypass",
    "pdp-small-epoch", "pdp-tiny-epoch",
)

#: The designs on the G-Cache burst route: G-Cache with a fixed M.
GCACHE_BURST_DESIGNS = (
    "gc", "gc-fast-shutdown", "gc-tick-only", "gc-m2-fixed", "gc-insert",
)

#: One design per policy family, for the expensive sweeps.
FAMILY_DESIGNS = ("bs", "bs-s", "pdp-3", "spdp-b", "gc", "dbp")


def assert_equivalent(
    trace, config, design, scheduler="lrr", victim_share_factor=1
):
    """Replay both backends and assert every observable counter matches."""
    oracle = replay(
        trace, config, design, scheduler=scheduler,
        victim_share_factor=victim_share_factor,
    )
    fast = functional_replay(
        trace, config.with_scheduler(scheduler), design,
        victim_share_factor=victim_share_factor,
    )
    assert fast.l1.snapshot() == oracle.l1.snapshot()
    assert fast.l2.snapshot() == oracle.l2.snapshot()
    assert fast.l1.reuse.as_dict() == oracle.l1.reuse.as_dict()
    assert fast.l2.reuse.as_dict() == oracle.l2.reuse.as_dict()
    assert fast.extras == oracle.extras
    assert fast.benchmark == oracle.benchmark
    assert fast.design == oracle.design


# ---------------------------------------------------------------------------
# Shared fixtures: traces are the expensive part, build each once.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def config():
    return GPUConfig()


@pytest.fixture(scope="module")
def spmv_trace():
    return build_benchmark("SPMV", scale=0.03, seed=7)


@pytest.fixture(scope="module")
def bfs_trace():
    return build_benchmark("BFS", scale=0.03, seed=11)


@pytest.fixture(scope="module")
def kmn_trace():
    return build_benchmark("KMN", scale=0.05, seed=3)


# ---------------------------------------------------------------------------
# Full design registry x benchmarks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", ALL_DESIGNS)
def test_design_matches_oracle_spmv(key, spmv_trace, config):
    assert_equivalent(spmv_trace, config, _design(key))


@pytest.mark.parametrize("key", ALL_DESIGNS)
def test_design_matches_oracle_bfs(key, bfs_trace, config):
    assert_equivalent(bfs_trace, config, _design(key))


#: Victim-bit share factors ``S_v`` > 1: a sibling core's first load of a
#: line sets the group's bit, so the next core's first load can carry a
#: hint.
SHARE_FACTORS = (2, 4)


@pytest.mark.parametrize("share", SHARE_FACTORS)
@pytest.mark.parametrize("key", ("gc", "gc-m"))
def test_share_factor_matches_oracle_spmv(key, share, spmv_trace, config):
    assert_equivalent(
        spmv_trace, config, _design(key), victim_share_factor=share
    )


@pytest.mark.parametrize("share", SHARE_FACTORS)
@pytest.mark.parametrize("key", ("gc", "gc-m"))
def test_share_factor_matches_oracle_bfs(key, share, bfs_trace, config):
    assert_equivalent(
        bfs_trace, config, _design(key), victim_share_factor=share
    )


@pytest.mark.parametrize("key", DESIGN_KEYS)
def test_engine_drives_the_designs_own_policies(key, config):
    """The functional backend keeps no policy copies: each core runs a
    fresh instance of exactly the class the design builds for an L1."""
    design = _design(key)
    engine = FunctionalEngine(config, design)
    expected = type(design.make_l1_mgmt())
    assert [type(p) for p in engine.mgmt] == [expected] * config.num_cores
    assert len({id(p) for p in engine.mgmt}) == config.num_cores
    assert all(p.store is l1 for p, l1 in zip(engine.mgmt, engine.l1))


# ---------------------------------------------------------------------------
# Routing: a design with no management hooks, no tick and no victim bits
# replays as L1 and L2 bursts; PDP without victim bits as PDP and L2
# bursts; every other design takes the one scalar walk, whose heap
# stops at every L2 event of a victim-bit design.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", ("pdp-8", "spdp-b"))
def test_hint_free_managed_designs_burst_l2(
    key, spmv_trace, config, monkeypatch
):
    """PDP without victim bits takes the PDP burst, never the walk."""

    def no_walk(*_):
        raise AssertionError("the PDP burst route entered the walk")

    monkeypatch.setattr(FunctionalEngine, "_walk", no_walk)
    engine = FunctionalEngine(config, _design(key), profile=True)
    engine.run(spmv_trace)
    assert engine.phase_seconds["burst"] > 0
    assert engine.phase_seconds["scalar_event"] == 0


@pytest.mark.parametrize("key", ("dbp", "gc-m"))
def test_profile_splits_burst_and_scalar_only(key, config):
    """The walk's designs run one scalar loop per core: ``probe`` stays
    in the phase split (profilers index it by name) and always reads 0.
    SSC has long hit runs on both."""
    engine = FunctionalEngine(config, _design(key), profile=True)
    engine.run(build_benchmark("SSC", scale=0.1, seed=0))
    assert set(engine.phase_seconds) == {"burst", "probe", "scalar_event"}
    assert engine.phase_seconds["probe"] == 0.0
    assert engine.phase_seconds["scalar_event"] > 0


def test_hint_free_gc_bursts_its_l2(config):
    """FFT raises no victim hint, so every G-Cache hint window settles
    on its first burst round."""
    trace = build_benchmark("FFT", scale=0.15, seed=0)
    engine = FunctionalEngine(config, _design("gc"), profile=True)
    engine.run(trace)
    assert engine.phase_seconds["burst"] > 0
    assert engine.contentions_detected == 0
    fast = engine.result(benchmark=trace.name)
    oracle = replay(trace, config, _design("gc"))
    assert fast.l1.snapshot() == oracle.l1.snapshot()
    assert fast.l2.snapshot() == oracle.l2.snapshot()
    assert fast.l2.reuse.as_dict() == oracle.l2.reuse.as_dict()
    assert fast.extras == oracle.extras == {"contentions_detected": 0}


def test_warm_gc_sequence_rehints_resident_lines(config):
    """A second run of the same SPMV kernel on one engine re-misses
    lines the first left in L2 with their victim bits set, so its first
    loads of those lines carry hints.  Counters pinned from the engine
    that sent every load miss through the heap."""
    trace = build_benchmark("SPMV", scale=0.03, seed=7)
    engine = FunctionalEngine(config, _design("gc"))
    engine.run(trace)
    assert engine.contentions_detected == 428
    engine.run(trace)
    assert engine.contentions_detected == 4150
    result = engine.result()
    fields = ("loads", "stores", "hits", "fills", "bypasses", "evictions",
              "writebacks")
    assert {f: result.l1.snapshot()[f] for f in fields} == {
        "loads": 16170, "stores": 2048, "hits": 7277, "fills": 6064,
        "bypasses": 2829, "evictions": 4016, "writebacks": 0,
    }
    assert {f: result.l2.snapshot()[f] for f in fields} == {
        "loads": 8893, "stores": 2048, "hits": 7236, "fills": 3705,
        "bypasses": 0, "evictions": 0, "writebacks": 0,
    }
    assert (result.l2.load_hits, result.l2.store_hits) == (6212, 1024)


class _TickingPDP(DynamicPDPPolicy):
    tick_interval = 64


def test_tick_with_a_hit_hook_is_refused(config):
    """The walk fires a due tick just before the next fill hook, after
    hits a hit hook would already have seen; the engine refuses up
    front."""
    design = DesignSpec(
        key="pdp-tick",
        label="Dynamic PDP with a periodic tick",
        make_l1_replacement=LRUPolicy,
        make_l1_mgmt=_TickingPDP,
    )
    with pytest.raises(FunctionalUnsupportedError, match="tick"):
        FunctionalEngine(config, design)


def test_unmodelled_replacement_policy_is_refused(config):
    """The walk and burst kernels inline LRU and SRRIP only; an OPT L1
    (the Section 3.1 oracle, which ``replay(oracle=True)`` covers) is
    refused at construction."""
    design = DesignSpec(
        key="opt",
        label="Belady OPT L1",
        make_l1_replacement=BeladyPolicy,
        make_l1_mgmt=NullManagementPolicy,
    )
    with pytest.raises(FunctionalUnsupportedError, match="BeladyPolicy"):
        FunctionalEngine(config, design)


@pytest.mark.parametrize(
    "make_mgmt",
    [
        lambda: DynamicPDPPolicy(counter_bits=3, epoch_accesses=16),
        lambda: StaticPDPPolicy(pd=8, bypass=True),
    ],
    ids=["dynamic-pdp", "static-pdp"],
)
def test_victim_bit_pdp_matches_oracle(make_mgmt, spmv_trace, config):
    """PDP's hit and miss hooks run in the walk between heap misses, so
    a PDP design with victim bits replays exactly too."""
    design = DesignSpec(
        key="pdp-victim-bits",
        label="PDP with victim bits",
        make_l1_replacement=LRUPolicy,
        make_l1_mgmt=make_mgmt,
        uses_victim_bits=True,
    )
    assert_equivalent(spmv_trace, config, design)


@pytest.mark.parametrize(
    "make_repl", [LRUPolicy, SRRIPPolicy], ids=["lru", "srrip"]
)
def test_null_management_with_victim_bits_matches_oracle(
    make_repl, spmv_trace, config
):
    """Victim bits alone keep a null-management design off the burst
    route, which would leave ``contentions_detected`` at 0."""
    design = replace(
        make_design("bs"), key="bs-victim-bits",
        make_l1_replacement=make_repl, uses_victim_bits=True,
    )
    oracle = replay(spmv_trace, config, design)
    assert oracle.extras["contentions_detected"] > 0
    assert_equivalent(spmv_trace, config, design)


# ---------------------------------------------------------------------------
# Warp schedulers (the interleave changes every stream, so scheduler bugs
# show up as counter drift even when per-access semantics are right).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("key", ("gc", "pdp-3", "dbp"))
def test_scheduler_matches_oracle(scheduler, key, kmn_trace, config):
    assert_equivalent(kmn_trace, config, _design(key), scheduler=scheduler)


# ---------------------------------------------------------------------------
# Geometry sweep: set-count, associativity, line-size, partition and core
# changes all reshape the address -> (set, bank) mapping.
# ---------------------------------------------------------------------------

GEOMETRIES = {
    "small-l1": dict(l1_size=8 * 1024),
    "high-assoc": dict(l1_ways=8),
    "wide-lines": dict(line_size=256),
    "narrow-lines": dict(line_size=64),
    "few-partitions": dict(num_partitions=2, mc_interleave_lines=4),
    "few-cores": dict(num_cores=4),
    # 64 victim-bit groups: the top bit no longer fits a signed int64.
    "many-cores": dict(num_cores=64),
    "small-l2": dict(l2_bank_size=64 * 1024),
}


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
@pytest.mark.parametrize("key", ("gc", "pdp-3"))
def test_geometry_matches_oracle(name, key, spmv_trace, config):
    cfg = replace(config, **GEOMETRIES[name])
    assert_equivalent(spmv_trace, cfg, _design(key))


# ---------------------------------------------------------------------------
# Hypothesis adversarial kernels
# ---------------------------------------------------------------------------

#: Small geometry so short random kernels still generate real conflict
#: pressure: 4 cores, 16-set/4-way L1, 2 L2 banks.
ADV_CONFIG = GPUConfig(
    num_cores=4,
    l1_size=2 * 1024,
    l1_ways=4,
    line_size=32,
    num_partitions=2,
    l2_bank_size=8 * 1024,
    mc_interleave_lines=2,
)
_LINE = ADV_CONFIG.line_size
_NUM_SETS = ADV_CONFIG.l1_size // (ADV_CONFIG.l1_ways * _LINE)


def _mem_op(addr_lines, write):
    op = OP_STORE if write else OP_LOAD
    return (op, tuple(line * _LINE for line in addr_lines))


@st.composite
def adversarial_kernels(draw):
    """A small kernel mixing the paper's hard access patterns.

    Each warp program is a few segments, each one of:

    * ``phase``  — a small working set looped (then abandoned at the next
      segment: a phase change),
    * ``burst``  — a streaming run of never-reused lines,
    * ``shared`` — reads of a kernel-wide shared line pool (inter-CTA
      sharing; lights up the victim-bit directory),
    * ``conflict`` — a same-set stride storm (every access maps to one
      L1 set).
    """
    shared_pool = draw(
        st.lists(
            st.integers(0, 63), min_size=2, max_size=6, unique=True
        )
    )
    burst_base = draw(st.integers(64, 512))
    num_ctas = draw(st.integers(1, 3))
    ctas = []
    for _ in range(num_ctas):
        warps = []
        for _ in range(draw(st.integers(1, 3))):
            prog = []
            for _ in range(draw(st.integers(1, 4))):
                kind = draw(
                    st.sampled_from(("phase", "burst", "shared", "conflict"))
                )
                if kind == "phase":
                    ws = draw(
                        st.lists(
                            st.integers(0, 127),
                            min_size=1,
                            max_size=6,
                            unique=True,
                        )
                    )
                    loops = draw(st.integers(1, 4))
                    for _ in range(loops):
                        for line in ws:
                            prog.append(
                                _mem_op([line], draw(st.booleans()))
                            )
                elif kind == "burst":
                    start = burst_base + draw(st.integers(0, 256))
                    length = draw(st.integers(4, 24))
                    for i in range(length):
                        prog.append(_mem_op([start + i], False))
                elif kind == "shared":
                    for _ in range(draw(st.integers(2, 8))):
                        prog.append(
                            _mem_op([draw(st.sampled_from(shared_pool))], False)
                        )
                else:  # conflict: constant set index, distinct tags
                    set_index = draw(st.integers(0, _NUM_SETS - 1))
                    for i in range(draw(st.integers(4, 16))):
                        prog.append(
                            _mem_op(
                                [set_index + i * _NUM_SETS],
                                draw(st.booleans()),
                            )
                        )
                if draw(st.booleans()):
                    prog.append((OP_ALU, draw(st.integers(1, 4))))
            if not any(op in (OP_LOAD, OP_STORE) for op, _ in prog):
                prog.append(_mem_op([0], False))
            warps.append(prog)
        ctas.append(CTATrace(warps=warps))
    return KernelTrace(name="ADV", ctas=ctas)


@pytest.mark.parametrize("key", FAMILY_DESIGNS)
@settings(max_examples=20, deadline=None)
@given(trace=adversarial_kernels())
def test_adversarial_kernels_match_oracle(key, trace):
    assert_equivalent(trace, ADV_CONFIG, _design(key))


@settings(max_examples=10, deadline=None)
@given(trace=adversarial_kernels(), scheduler=st.sampled_from(SCHEDULERS))
def test_adversarial_schedulers_match_oracle(trace, scheduler):
    assert_equivalent(trace, ADV_CONFIG, _design("gc"), scheduler=scheduler)


# ---------------------------------------------------------------------------
# Burst-path adversarial kernels
#
# The batched per-set burst path reorders work aggressively: L2 events
# replay grouped by (bank, set) instead of globally interleaved, a walk
# without victim bits records its store traffic for one L2 burst at its
# end, and set-conflict storms fall off the vectorized round loop into a
# scalar tail.  These strategies aim squarely at the seams where
# that reordering could diverge from the oracle.
# ---------------------------------------------------------------------------

_L2_SETS = ADV_CONFIG.l2_bank_sets


def _same_l2_set_pool(max_lines: int = 24):
    """Line addresses that all land in one (bank, set) of the L2."""
    from repro.sim.addressing import AddressMap

    amap = AddressMap(ADV_CONFIG.num_partitions, ADV_CONFIG.mc_interleave_lines)
    pool = []
    for line in range(8192):
        if amap.partition(line) == 0 and amap.local(line) & (_L2_SETS - 1) == 0:
            pool.append(line)
            if len(pool) >= max_lines:
                break
    return tuple(pool)


_L2_CONFLICT_POOL = _same_l2_set_pool()


@st.composite
def burst_adversarial_kernels(draw):
    """Kernels targeting the burst path's reordering seams.

    Segments (bases drawn kernel-wide, so CTAs on different cores race
    on the *same* sets — L1 state is core-private, so only cross-core
    L2 interleaving can expose ordering bugs):

    * ``l1-storm``   — long same-L1-set runs with distinct tags: one
      (core, set) CSR group dominates, forcing the round loop into its
      scalar tail mid-kernel.
    * ``l2-storm``   — every access maps to one L2 (bank, set): the
      deferred store buffers flush against same-set load misses in the
      densest possible interleaving.
    * ``store-flood`` — store-dominated runs with occasional reloads:
      store misses must touch no L1 state, store hits must restamp, and
      L2 dirty/writeback accounting rides entirely on the folded path.
    * ``race``       — tight load/store alternation on one line and its
      set neighbours, the per-set order most sensitive to batch order.
    """
    storm_set = draw(st.integers(0, _NUM_SETS - 1))
    flood_base = draw(st.integers(0, 256))
    num_ctas = draw(st.integers(2, 4))
    ctas = []
    for _ in range(num_ctas):
        warps = []
        for _ in range(draw(st.integers(1, 2))):
            prog = []
            for _ in range(draw(st.integers(1, 3))):
                kind = draw(
                    st.sampled_from(
                        ("l1-storm", "l2-storm", "store-flood", "race")
                    )
                )
                if kind == "l1-storm":
                    for i in range(draw(st.integers(8, 32))):
                        prog.append(
                            _mem_op(
                                [storm_set + i * _NUM_SETS],
                                draw(st.booleans()),
                            )
                        )
                elif kind == "l2-storm":
                    for _ in range(draw(st.integers(6, 20))):
                        prog.append(
                            _mem_op(
                                [draw(st.sampled_from(_L2_CONFLICT_POOL))],
                                draw(st.booleans()),
                            )
                        )
                elif kind == "store-flood":
                    span = draw(st.integers(2, 8))
                    for _ in range(draw(st.integers(6, 24))):
                        line = flood_base + draw(st.integers(0, span))
                        write = draw(
                            st.sampled_from((True, True, True, False))
                        )
                        prog.append(_mem_op([line], write))
                else:  # race: load/store ping-pong within one set
                    line = storm_set + draw(st.integers(0, 7)) * _NUM_SETS
                    for i in range(draw(st.integers(4, 12))):
                        prog.append(_mem_op([line], i % 2 == 0))
                if draw(st.booleans()):
                    prog.append((OP_ALU, draw(st.integers(1, 4))))
            warps.append(prog)
        ctas.append(CTATrace(warps=warps))
    return KernelTrace(name="BURST-ADV", ctas=ctas)


#: The designs that exercise each replay route: the L1 + L2 bursts
#: (bs, bs-s); the PDP burst, static (spdp-b, with quantized decrements
#: and without bypass) and dynamic (pdp-3, pdp-8), with PD recomputes
#: at epoch boundaries (pdp-tiny-epoch); the G-Cache burst's hint
#: windows (gc), with switch shutdowns inside them (gc-fast-shutdown),
#: a fixed M of 2 (gc-m2-fixed) and off-default thresholds and
#: insertions (gc-insert); and the walk.  On the walk: fill hooks only
#: (dbp), and every store and load miss a heap stop (gc-m).
BURST_PATH_DESIGNS = (
    "bs", "bs-s", "dbp", "pdp-3", "pdp-8", "spdp-b", "spdp-quantized",
    "spdp-no-bypass", "pdp-tiny-epoch", "gc", "gc-m", "gc-fast-shutdown",
    "gc-m2-fixed", "gc-insert",
)

#: The walk's seed walks at their edges: core 1's stream is stores only
#: (no load miss: a walk with victim bits stops at every access, one
#: without runs off the end with every store recorded for the L2
#: burst), and cores 2 and 3 receive no CTA (empty streams).
SEED_WALK_EDGES = KernelTrace(
    name="SEED-WALK-EDGES",
    ctas=[
        CTATrace(warps=[[
            _mem_op([line], write)
            for line, write in (
                (0, False), (1, False), (0, False), (_NUM_SETS, False),
                (1, True), (0, False),
            )
        ]]),
        CTATrace(warps=[[
            _mem_op([line], True) for line in (0, 1, 2, 0, _NUM_SETS)
        ]]),
    ],
)


@pytest.mark.parametrize("key", BURST_PATH_DESIGNS)
@settings(max_examples=15, deadline=None)
@given(trace=burst_adversarial_kernels())
@example(trace=SEED_WALK_EDGES)
def test_burst_adversarial_match_oracle(key, trace):
    assert_equivalent(trace, ADV_CONFIG, _design(key))


@pytest.mark.parametrize("share", SHARE_FACTORS)
@pytest.mark.parametrize("key", ("gc", "gc-m"))
@settings(max_examples=10, deadline=None)
@given(trace=burst_adversarial_kernels())
def test_burst_adversarial_share_factor_match_oracle(key, share, trace):
    assert_equivalent(
        trace, ADV_CONFIG, _design(key), victim_share_factor=share
    )


@settings(max_examples=8, deadline=None)
@given(trace=burst_adversarial_kernels(), scheduler=st.sampled_from(SCHEDULERS))
def test_burst_adversarial_schedulers_match_oracle(trace, scheduler):
    assert_equivalent(trace, ADV_CONFIG, _design("bs"), scheduler=scheduler)


# ---------------------------------------------------------------------------
# The G-Cache burst's hint windows
#
# A victim hint is the one way L2 state reaches an L1.  The G-Cache
# burst settles hints one window of the transaction clock at a time, as
# a fixpoint of an L1 and an L2 burst, re-running only the groups whose
# inputs changed; a window past the round cap is split in half.
# ---------------------------------------------------------------------------


@st.composite
def hint_feedback_storms(draw):
    """Repeat-miss lines from several cores that share one L2 set.

    Each CTA (one per core) loops over its own draw from lines that all
    land in one L2 (bank, set), and in two L1 sets, so its loops
    overflow an L1 set and re-miss.  A re-miss is the core's second L2
    request for the line: a hint, which turns the L1 set's switch on,
    which bypasses the fill, which misses again.  The other cores' lines
    evict the shared L2 set's lines in between, so hints come and go.
    """
    ctas = []
    for _ in range(draw(st.integers(2, 4))):
        lines = draw(st.lists(
            st.sampled_from(_L2_CONFLICT_POOL), min_size=3, max_size=10,
            unique=True,
        ))
        prog = []
        for _ in range(draw(st.integers(2, 6))):
            for line in lines:
                prog.append(_mem_op([line], draw(st.integers(0, 3)) == 0))
        ctas.append(CTATrace(warps=[prog]))
    return KernelTrace(name="HINT-STORM", ctas=ctas)


#: Core 0 loads two lines, then only hits them, long after core 1's one
#: load: its last windows hold one core and no L2 event.  Cores 2 and 3
#: get no CTA (empty streams).
LONE_HIT_TAIL = KernelTrace(
    name="LONE-HIT-TAIL",
    ctas=[
        CTATrace(warps=[[_mem_op([line % 2], False) for line in range(24)]]),
        CTATrace(warps=[[_mem_op([_NUM_SETS], False)]]),
    ],
)


@pytest.mark.parametrize("key", ("gc", "gc-fast-shutdown", "gc-m2-fixed"))
@settings(max_examples=15, deadline=None)
@given(trace=hint_feedback_storms())
def test_hint_feedback_storms_match_oracle(key, trace):
    assert_equivalent(trace, ADV_CONFIG, _design(key))
    assert_equivalent(trace, ADV_CONFIG, _design(key), victim_share_factor=2)


@pytest.mark.parametrize("key", [k for k in BURST_PATH_DESIGNS
                                 if k in GCACHE_BURST_DESIGNS])
@settings(max_examples=8, deadline=None)
@given(trace=burst_adversarial_kernels() | hint_feedback_storms())
def test_gcache_designs_never_walk(key, trace):
    """Every G-Cache design with a fixed M settles on bursts alone."""
    engine = FunctionalEngine(ADV_CONFIG, _design(key), profile=True)
    with mock.patch.object(
        FunctionalEngine, "_walk",
        side_effect=AssertionError("the G-Cache burst entered the walk"),
    ):
        engine.run(trace)
    assert engine.phase_seconds["scalar_event"] == 0
    assert sum(engine.window_rounds.values()) >= 1


@pytest.mark.parametrize("window", (1, 2, 3, 7))
@settings(max_examples=10, deadline=None)
@given(trace=hint_feedback_storms() | burst_adversarial_kernels())
@example(trace=LONE_HIT_TAIL)
@example(trace=SEED_WALK_EDGES)
def test_hint_window_edges_match_oracle(window, trace):
    """Tiny windows: some hold one core, some no L2 event, and some
    start or end inside another's hint chain."""
    with mock.patch.object(hints_mod, "HINT_WINDOW", window):
        assert_equivalent(trace, ADV_CONFIG, _design("gc"))
        assert_equivalent(trace, ADV_CONFIG, _design("gc-fast-shutdown"))


def test_window_without_l2_events_in_a_scenario(config):
    """A generated scenario (seed 5) with windows holding no L2 event."""
    from repro.scenarios import build_scenario
    from repro.scenarios.sweep import generate_space

    spec = next(
        s for s in generate_space() if s["name"] == "ws64-cta-st0-l8-k1"
    )
    trace = build_scenario(spec, scale=0.15, seed=5)
    assert_equivalent(trace, config, _design("gc"))


#: A chain inside one window (one core, lines A-E of L1 set 0): E
#: evicts A, hits make every line hot, and A's re-miss carries a hint
#: that no window-start guess sees (A's first load is in the window).
#: With the hint A bypasses, so A's next load misses too, and its own
#: hint takes a third round.
_A, _B, _C, _D, _E = (i * _NUM_SETS for i in range(5))
HINT_CHAIN = KernelTrace(
    name="HINT-CHAIN",
    ctas=[CTATrace(warps=[[
        _mem_op([line], False)
        for line in (_A, _B, _C, _D, _A, _B, _C, _D, _E, _B, _C, _D, _E,
                     _A, _A)
    ]])],
)


#: Cores 0 and 1 (one victim-bit group at share factor 2) load the same
#: lines in lockstep: each line's second load, one transaction after
#: its first, carries a hint that the window-start L2 state does not.
SHARED_FIRST_LOADS = KernelTrace(
    name="SHARED-FIRST-LOADS",
    ctas=[
        CTATrace(warps=[[_mem_op([line], False) for line in range(8)]])
        for _ in range(2)
    ],
)


@pytest.mark.parametrize(
    "cap, trace, share",
    [(2, HINT_CHAIN, 1), (1, SHARED_FIRST_LOADS, 2)],
    ids=["chain-cap-2", "shared-cap-1"],
)
def test_round_cap_splits_windows_exactly(cap, trace, share):
    """Windows past the round cap are rolled back and halved until they
    settle, with the oracle's counters.  The first transaction's hint
    guess reads the very L2 state it meets, so a one-transaction window
    settles in one round: at a cap of 1, windows split down to single
    transactions."""
    engine = FunctionalEngine(ADV_CONFIG, _design("gc"), share)
    engine.run(trace)
    assert max(engine.window_rounds) == cap + 1
    settled = []
    window = hints_mod.GCacheRun.window

    def counted(run, lo, hi):
        if window(run, lo, hi):
            settled.append(hi - lo)
            return True
        return False

    with mock.patch.object(hints_mod, "HINT_ROUNDS", cap), \
            mock.patch.object(hints_mod.GCacheRun, "window", counted):
        engine = FunctionalEngine(ADV_CONFIG, _design("gc"), share)
        engine.run(trace)
        assert_equivalent(
            trace, ADV_CONFIG, _design("gc"), victim_share_factor=share
        )
    assert engine.window_splits > 0
    assert max(engine.window_rounds) <= cap
    if cap == 1:
        assert min(settled) == 1


def _gcache_state(policy):
    """Every piece of G-Cache policy state a later access can read, and
    its diagnostics."""
    switches = policy.switches
    return dict(
        bits=bytes(switches.bits),
        activations=switches.activations,
        shutdowns=switches.shutdowns,
        hint_fills=policy.hint_fills,
        agings=policy.agings,
        bypass_counters=list(policy._bypass_counters),
    )


@pytest.mark.parametrize("share", (1, 2))
@pytest.mark.parametrize("key", ("gc", "gc-fast-shutdown", "gc-m2-fixed"))
def test_gcache_burst_leaves_the_walks_state(key, share, config):
    """On a warm two-kernel sequence the G-Cache burst leaves every L1
    plane, policy, shutdown countdown and L2 line as the walk does."""
    traces = [
        build_benchmark("SPMV", scale=0.03, seed=7),
        build_benchmark("KMN", scale=0.05, seed=3),
    ]

    def replay_all(burst):
        engine = FunctionalEngine(config, _design(key), share)
        engine._gcache = burst
        for trace in traces:
            engine.run(trace)
        return engine

    burst = replay_all(True)
    walk = replay_all(False)
    assert burst.window_rounds and not walk.window_rounds
    assert burst._tick_left == walk._tick_left
    for a, b in zip(burst.l1, walk.l1):
        for plane in ("tag", "rrpv", "use_count", "fill_time", "valid_count"):
            assert getattr(a, plane) == getattr(b, plane), plane
    for a, b in zip(burst.mgmt, walk.mgmt):
        assert _gcache_state(a) == _gcache_state(b)
    for a, b in zip(burst.l2, walk.l2):
        for plane in ("tag", "vb", "use"):
            assert getattr(a, plane) == getattr(b, plane), plane
        assert bytes(a.dirty) == bytes(b.dirty)
    fast, slow = burst.result(), walk.result()
    assert fast.l1.snapshot() == slow.l1.snapshot()
    assert fast.l2.snapshot() == slow.l2.snapshot()
    assert fast.extras == slow.extras


# ---------------------------------------------------------------------------
# The PDP burst's PD schedule
#
# A dynamic PDP policy observes every load and every store *hit*, and
# recomputes its PD each ``epoch_accesses`` observations.  The burst
# plans the epochs from the loads alone, then re-plans from the store
# hits it found, until the plan stops changing.  A store hit before an
# epoch end moves that end, so these kernels need a second round.
# ---------------------------------------------------------------------------


def _count_rounds():
    """Patch the engine's PDP burst with a counting wrapper."""
    return mock.patch.object(
        engine_mod, "pdp_burst", wraps=engine_mod.pdp_burst
    )


#: The load, then store, of one line at the start of core 0's stream:
#: the load fills a cold way (PD 4 protects it), so the store hits, and
#: the loads after it reach the first 16-observation epoch end.
MOVED_EPOCH_END = KernelTrace(
    name="MOVED-EPOCH-END",
    ctas=[CTATrace(warps=[
        [_mem_op([0], False), _mem_op([0], True)]
        + [_mem_op([line], False) for line in range(1, 24)]
    ])],
)


@st.composite
def store_hit_epoch_kernels(draw):
    """Store-hit-heavy kernels in which a store hit moves an epoch end.

    CTA 0 (core 0) opens as :data:`MOVED_EPOCH_END` does; then every
    warp loops over small working sets, storing to the lines it has
    loaded.  At most two other warps run between the load and the store
    of CTA 0's first line, and the line stays protected meanwhile.
    """
    ctas = []
    for c in range(draw(st.integers(1, 4))):
        warps = []
        for w in range(draw(st.integers(1, 3))):
            prog = []
            if c == w == 0:
                prog += [_mem_op([0], False), _mem_op([0], True)]
                prog += [_mem_op([line], False) for line in range(1, 17)]
            for _ in range(draw(st.integers(1, 3))):
                ws = draw(st.lists(
                    st.integers(0, 4 * _NUM_SETS), min_size=1, max_size=6,
                    unique=True,
                ))
                for _ in range(draw(st.integers(1, 4))):
                    for line in ws:
                        prog.append(_mem_op([line], False))
                        if draw(st.booleans()):
                            prog.append(_mem_op([line], True))
            warps.append(prog)
        ctas.append(CTATrace(warps=warps))
    return KernelTrace(name="STORE-HIT-EPOCH", ctas=ctas)


@settings(max_examples=25, deadline=None)
@given(trace=store_hit_epoch_kernels())
@example(trace=MOVED_EPOCH_END)
def test_store_hits_moving_an_epoch_end_match_oracle(trace):
    with _count_rounds() as burst:
        assert_equivalent(trace, ADV_CONFIG, _design("pdp-tiny-epoch"))
    assert burst.call_count >= 2


def test_round_cap_falls_back_to_the_walk_exactly(monkeypatch):
    """Past the round cap the trial rounds are dropped and the run
    takes the walk, with the oracle's counters."""
    design = _design("pdp-tiny-epoch")
    with _count_rounds() as burst:
        functional_replay(MOVED_EPOCH_END, ADV_CONFIG, design)
    assert burst.call_count == 2
    monkeypatch.setattr(engine_mod, "_SCHEDULE_ROUNDS", 1)
    with mock.patch.object(
        FunctionalEngine, "_run_walk", autospec=True,
        side_effect=FunctionalEngine._run_walk,
    ) as walk:
        assert_equivalent(MOVED_EPOCH_END, ADV_CONFIG, design)
    assert walk.call_count == 1


def _oracle_l1s(traces, config, design):
    """The oracle's L1 caches after a warm kernel sequence: ``replay``'s
    round-robin walk over each kernel's streams, on one set of caches,
    with one clock.  PDP takes no victim hint, so L2 plays no part."""
    l1s = [
        Cache(
            f"L1[{i}]", config.l1_size, config.l1_ways, config.line_size,
            replacement=design.make_l1_replacement(),
            mgmt=design.make_l1_mgmt(),
        )
        for i in range(config.num_cores)
    ]
    now = 0
    for trace in traces:
        for row in zip_longest(*build_core_streams(trace, config)):
            for core, txn in enumerate(row):
                if txn is None:
                    continue
                now += 1
                line, write = txn
                l1 = l1s[core]
                if write:
                    l1.lookup(line, now, is_write=True)
                elif not l1.lookup(line, now).hit:
                    l1.fill(line, now, FillContext(line_addr=line, src_id=core))
    return l1s


def _pdp_state(policy):
    """Every piece of PDP state a later access can read."""
    state = {"ticks": list(policy._set_ticks), "pd": policy.pd}
    if isinstance(policy, DynamicPDPPolicy):
        sampler = policy._sampler
        state.update(
            pd_history=list(policy.pd_history),
            since_epoch=policy._since_epoch,
            fifos={s: list(f) for s, f in sampler._fifos.items()},
            rdd=list(sampler.rdd),
            total=sampler.total,
        )
    return state


@pytest.mark.parametrize(
    "key", ("pdp-tiny-epoch", "pdp-small-epoch", "spdp-quantized",
            "spdp-no-bypass")
)
def test_warm_pdp_sequence_matches_oracle_state(key, config):
    """A warm two-kernel sequence leaves every core's PDP state, PDCs,
    tags and fill times as the oracle's policy objects and caches do,
    and the same L1 counters."""
    traces = [
        build_benchmark("SPMV", scale=0.03, seed=7),
        build_benchmark("KMN", scale=0.05, seed=3),
    ]
    design = _design(key)
    engine = FunctionalEngine(config, design)
    for trace in traces:
        engine.run(trace)
    oracle = _oracle_l1s(traces, config, design)
    for l1, state, cache in zip(engine.l1, engine.mgmt, oracle):
        assert _pdp_state(state) == _pdp_state(cache.mgmt)
        for plane in ("tag", "pd_counter", "fill_time", "use_count"):
            assert getattr(l1, plane) == getattr(cache.store, plane), plane
    if key.startswith("pdp"):
        assert max(len(p.pd_history) for p in engine.mgmt) > 2
    merged = oracle[0].stats
    for cache in oracle[1:]:
        merged.merge(cache.stats)
    fast = engine.result().l1
    for cache in oracle:
        cache.finalize()
    assert fast.snapshot() == merged.snapshot()


_L1_PLANES = (
    "tag", "stamp", "rrpv", "use_count", "fill_time", "pd_counter",
    "valid_count",
)


@pytest.mark.parametrize("key", ("pdp-tiny-epoch", "spdp-no-bypass"))
def test_pdp_burst_leaves_the_walks_state(key, config, monkeypatch):
    """On a warm sequence the burst leaves each L1 exactly as the walk
    does, replacement stamps and per-core LRU clocks included."""
    traces = [
        build_benchmark("SPMV", scale=0.03, seed=7),
        build_benchmark("KMN", scale=0.05, seed=3),
    ]

    def replay_all():
        engine = FunctionalEngine(config, _design(key))
        for trace in traces:
            engine.run(trace)
        return engine

    burst = replay_all()
    monkeypatch.setattr(engine_mod, "_SCHEDULE_ROUNDS", 0)
    walk = replay_all()
    assert burst._repl_st == walk._repl_st
    for a, b in zip(burst.l1, walk.l1):
        for plane in _L1_PLANES:
            assert getattr(a, plane) == getattr(b, plane), plane
    for a, b in zip(burst.mgmt, walk.mgmt):
        assert _pdp_state(a) == _pdp_state(b)
    assert burst.result().l1.snapshot() == walk.result().l1.snapshot()
