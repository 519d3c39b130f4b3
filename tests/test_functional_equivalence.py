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

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.policies.base import NullManagementPolicy
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
from repro.sim.replay import SCHEDULERS, replay
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
    return make_design(key)


ALL_DESIGNS = tuple(DESIGN_KEYS) + (
    "gc-fast-shutdown",
    "gc-tick-only",
    "gc-m-small-epoch",
    "pdp-small-epoch",
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
        trace, config, design, scheduler=scheduler,
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
# replays as L1 and L2 bursts; every other design takes the one scalar
# walk, whose heap carries only hint-capable load misses.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", ("pdp-8", "spdp-b"))
def test_hint_free_managed_designs_burst_l2(key, spmv_trace, config):
    engine = FunctionalEngine(config, _design(key), profile=True)
    engine.run(spmv_trace)
    assert engine.phase_seconds["burst"] > 0


@pytest.mark.parametrize("key", ("dbp", "gc"))
def test_profile_splits_burst_and_scalar_only(key, config):
    """Both walk routes are one scalar loop per core: ``probe`` stays in
    the phase split (profilers index it by name) and always reads 0.
    SSC has long hit runs on both routes."""
    engine = FunctionalEngine(config, _design(key), profile=True)
    engine.run(build_benchmark("SSC", scale=0.1, seed=0))
    assert set(engine.phase_seconds) == {"burst", "probe", "scalar_event"}
    assert engine.phase_seconds["probe"] == 0.0
    assert engine.phase_seconds["scalar_event"] > 0


def test_hint_free_gc_bursts_its_l2(config):
    """FFT raises no victim hint, so every G-Cache load miss is its
    core's first load of the line: all of them fill inline and their L2
    loads replay in the drain-end burst."""
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
# replay grouped by (bank, set) instead of globally interleaved, store
# traffic is folded into walks and parked in per-set buffers that flush
# lazily, and set-conflict storms fall off the vectorized round loop
# into a scalar tail.  These strategies aim squarely at the seams where
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
#: (bs, bs-s) and the walk.  On the walk: fill hooks only (dbp); hit and
#: miss hooks on every access (pdp-3, spdp-b), with PD recomputes at
#: epoch boundaries (pdp-tiny-epoch); hint-capable misses on the heap
#: beside parked stores and first-load misses (gc, gc-m); and periodic
#: ticks between inline first-load fills (gc-fast-shutdown).
BURST_PATH_DESIGNS = (
    "bs", "bs-s", "dbp", "pdp-3", "spdp-b", "pdp-tiny-epoch", "gc", "gc-m",
    "gc-fast-shutdown",
)

#: The miss heap's seed walks at their edges: core 1's stream is stores
#: only (no load miss, so its first walk runs off the end with stores
#: still parked), and cores 2 and 3 receive no CTA (empty streams).
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
