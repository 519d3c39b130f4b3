"""Model behaviour on five single-pattern synthetic workloads.

Each pattern is a scenario spec built from the registered primitives
(:mod:`repro.scenarios.primitives`): pure streaming, a shared cyclic scan
below and past the L1 capacity, per-warp hot lines under stream
pressure, a pointer chase and skewed gathers.
"""

from repro.scenarios import build_scenario
from repro.sim.designs import make_design
from repro.sim.replay import replay

#: 64 base CTAs at this scale build 16 CTAs of 8 warps.
SCALE = 0.25


def spec(name, regions, phases, base_ctas=64):
    return {
        "format": "repro-scenario",
        "version": 1,
        "name": name,
        "scale": SCALE,
        "base_ctas": base_ctas,
        "regions": regions,
        "phases": phases,
    }


def stream_phase(elements, iters=0, offset=0, alu=2):
    """Coalesced loads of stream elements ``offset .. offset+elements-1``."""
    return {
        "primitive": "stream",
        "params": {
            "elements_per_warp": elements,
            "iters_per_warp": iters,
            "body": [
                {"kind": "load", "region": "stream", "index_offset": offset},
                {"kind": "alu", "count": alu},
            ],
        },
    }


def scan_spec(footprint_lines):
    """Every warp scans one shared array cyclically from its own phase."""
    return build_scenario(spec(f"syn-scan-{footprint_lines}", ["scan", "stream"], [
        stream_phase(12),
        {"primitive": "working_set", "params": {
            "region": "scan", "tile_lines": footprint_lines, "reads": 48,
            "scope": "global"}},
    ]))


def private_hot_spec():
    """Each warp loads and stores its 2 private hot lines after every 2
    stream loads, 16 times over."""
    phases = []
    for i in range(16):
        phases.append(stream_phase(2, iters=32, offset=2 * i))
        phases.append({"primitive": "working_set", "params": {
            "region": "hot", "tile_lines": 2, "reads": 2, "scope": "warp",
            "store_every": 1}})
    return build_scenario(spec("syn-hot", ["stream", "hot"], phases))


def l1_only(trace, config, design="bs"):
    return replay(trace, config, make_design(design), include_l2=False)


class TestPatternProperties:
    def test_streaming_has_zero_reuse(self, tiny_config):
        trace = build_scenario(spec("syn-stream", ["stream"], [stream_phase(16, alu=4)]))
        assert l1_only(trace, tiny_config).l1.load_hits == 0

    def test_scan_below_capacity_hits(self, tiny_config):
        trace = scan_spec(8)  # far below even the tiny L1
        assert l1_only(trace, tiny_config).l1.miss_rate < 0.6

    def test_scan_cliff_kills_lru(self, tiny_config):
        # tiny_config L1 = 2KB = 16 lines; a 24-line scan is past its cliff.
        trace = scan_spec(24)
        lru = l1_only(trace, tiny_config)
        gc = replay(trace, tiny_config, make_design("gc"), include_l2=True)
        assert lru.l1.miss_rate > 0.6
        assert gc.l1.miss_rate < lru.l1.miss_rate

    def test_private_hot_protected_by_gcache(self, tiny_config):
        trace = private_hot_spec()
        lru = replay(trace, tiny_config, make_design("bs"))
        gc = replay(trace, tiny_config, make_design("gc"))
        assert gc.l1.miss_rate <= lru.l1.miss_rate + 0.02

    def test_chase_is_all_misses(self, tiny_config):
        trace = build_scenario(spec("syn-chase", ["pool"], [
            {"primitive": "pointer_chase", "params": {"region": "pool"}},
        ], base_ctas=32))
        assert l1_only(trace, tiny_config).l1.miss_rate > 0.95

    def test_zipf_head_is_cacheable(self, tiny_config):
        trace = build_scenario(spec("syn-zipf", ["table"], [
            {"primitive": "hot_table", "params": {
                "region": "table", "table_lines": 1024, "skew": 3.0,
                "accesses_per_warp": 48, "lanes": 4, "alu_per_access": 3}},
        ]))
        assert 0.0 < l1_only(trace, tiny_config).l1.miss_rate < 1.0
