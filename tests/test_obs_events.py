"""Tests for the event bus: ordering, filtering, disabled-mode no-op."""

import pytest

from repro.obs import Observability, RingBufferSink, wire
from repro.obs.events import (
    EV_FILL,
    EV_HIT,
    EV_MISS,
    EV_SWITCH_ON,
    EV_VICTIM_SET,
    EVENT_KINDS,
    Event,
    EventBus,
)
from repro.sim.designs import make_design
from repro.sim.simulator import GPU
from repro.trace.trace import OP_ATOM

from conftest import addr, alu, bar, ld, make_kernel, st


class TestEvent:
    def test_as_dict_flattens_args(self):
        ev = Event(EV_HIT, 42, "L1[0]", 7, {"line": 3, "set": 1})
        d = ev.as_dict()
        assert d == {
            "kind": EV_HIT, "cycle": 42, "src": "L1[0]", "seq": 7,
            "line": 3, "set": 1,
        }

    def test_taxonomy_is_unique(self):
        assert len(EVENT_KINDS) == len(set(EVENT_KINDS))


class TestEventBus:
    def test_seq_is_monotonic_in_emission_order(self):
        ring = RingBufferSink()
        bus = EventBus([ring])
        bus.emit(EV_HIT, 10, "L1[0]")
        bus.emit(EV_MISS, 5, "L1[0]")  # causal order, earlier cycle
        bus.emit(EV_FILL, 5, "L1[1]")
        seqs = [e.seq for e in ring.events()]
        assert seqs == [0, 1, 2]
        assert bus.events_emitted == 3

    def test_kinds_whitelist_drops_others(self):
        ring = RingBufferSink()
        bus = EventBus([ring], kinds=[EV_VICTIM_SET, EV_SWITCH_ON])
        bus.emit(EV_HIT, 1, "L1[0]")
        bus.emit(EV_VICTIM_SET, 2, "L2[0]", hint=True)
        bus.emit(EV_SWITCH_ON, 3, "L1[0]", set=4)
        assert [e.kind for e in ring.events()] == [EV_VICTIM_SET, EV_SWITCH_ON]
        assert bus.events_dropped == 1
        assert bus.events_emitted == 2

    def test_multiple_sinks_see_every_event(self):
        a, b = RingBufferSink(), RingBufferSink()
        bus = EventBus([a])
        bus.add_sink(b)
        bus.emit(EV_HIT, 1, "L1[0]")
        assert len(a) == len(b) == 1


class TestDisabledMode:
    def test_components_default_to_no_bus(self, tiny_config):
        gpu = GPU(tiny_config, make_design("gc"))
        assert gpu.obs is None
        assert gpu.memory.obs is None
        assert all(l1.obs is None for l1 in gpu.memory.l1s)
        assert all(l1.mgmt.obs is None for l1 in gpu.memory.l1s)
        assert gpu.memory.noc.obs is None
        assert all(mc.obs is None for mc in gpu.memory.mcs)
        assert all(core.obs is None for core in gpu.cores)

    @pytest.mark.parametrize("design", ["bs", "gc", "pdp-8", "dbp"])
    @pytest.mark.parametrize("kernel", ["loads", "mixed"])
    def test_untraced_run_matches_traced_run(self, tiny_config, kernel, design):
        """Tracing must be observation-only: identical results either way.

        ``mixed`` adds single- and multi-line loads, stores, atomics and
        barriers over enough lines to evict dirty L2 lines, so every NoC
        packet kind and both fill sites (L1 and L2) run traced.
        """
        trace = _parity_kernel(kernel)
        plain = GPU(tiny_config, make_design(design)).run(trace)
        obs = Observability.in_memory()
        traced = GPU(tiny_config, make_design(design), obs=obs).run(trace)
        assert _observed(traced) == _observed(plain)
        assert obs.bus.events_emitted > 0
        if kernel == "mixed":
            assert plain.l2.writebacks > 0


def _parity_kernel(kind: str):
    if kind == "loads":
        return make_kernel(
            [[op for i in range(8) for op in (ld(i * 4), alu(2))]] * 2, ctas=4
        )
    programs = []
    for w in range(2):
        program = []
        for i in range(40):
            line = w * 4096 + i * 67
            program += [
                ld(line), st(line + 2048), alu(1),
                ld(line, line + 1, line + 2),
                ld((i % 8) * 4 + w),  # 8 lines thrashing one 4-way set
                (OP_ATOM, (addr(line % 64),)),
            ]
            if i % 4 == 3:
                program.append(bar())
        programs.append(program)
    return make_kernel(programs, ctas=4)


def _observed(result):
    """Everything a run reports, reuse histograms included."""
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "l1": result.l1.snapshot(),
        "l2": result.l2.snapshot(),
        "l1_reuse": dict(result.l1.reuse._counts),
        "l2_reuse": dict(result.l2.reuse._counts),
        "dram_requests": result.dram_requests,
        "avg_load_latency": result.avg_load_latency,
        "extras": result.extras,
    }


class TestWire:
    def test_wire_installs_bus_everywhere(self, tiny_config):
        obs = Observability.in_memory()
        gpu = GPU(tiny_config, make_design("gc"), obs=obs)
        bus = obs.bus
        assert gpu.memory.obs is bus
        assert all(l1.obs is bus for l1 in gpu.memory.l1s)
        assert all(l1.mgmt.obs is bus for l1 in gpu.memory.l1s)
        assert all(bank.obs is bus for bank in gpu.memory.l2_banks)
        assert gpu.memory.noc.obs is bus
        assert all(mc.obs is bus for mc in gpu.memory.mcs)
        assert all(core.obs is bus for core in gpu.cores)

    def test_traced_run_emits_cache_events(self, tiny_config):
        kernel = make_kernel([[ld(i) for i in range(12)]] * 2, ctas=2)
        obs = Observability.in_memory()
        GPU(tiny_config, make_design("bs"), obs=obs).run(kernel)
        counts = obs.ring().counts_by_kind()
        assert counts.get(EV_MISS, 0) > 0
        assert counts.get(EV_FILL, 0) > 0

    def test_diagnostics_requires_ring(self, tmp_path):
        obs = Observability.to_jsonl(tmp_path / "t.jsonl")
        with pytest.raises(ValueError):
            obs.diagnostics()
        obs.close()
