"""Fidelity plumbing: ``fidelity="functional"`` end to end.

The functional backend is only useful if every orchestration layer can
select it *and* keep its results segregated from timing results:

* :func:`simulate` / :func:`simulate_sequence` dispatch and validate,
* :class:`repro.runner.Task` carries fidelity into the cache key, the
  manifest label and the worker dispatch,
* the campaign engine records fidelity per task in timings, journal and
  manifest,
* :class:`EvalSuite` and the CLI expose the knob.

A timing result served from the cache for a functional request (or vice
versa) would silently mix estimated and measured cycles — the cache-key
tests here are the guard.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.runner import CampaignEngine, ResultCache, Task
from repro.runner.task import run_task
from repro.sim.config import GPUConfig
from repro.sim.designs import make_design
from repro.sim.replay import replay
from repro.sim.functional.engine import FunctionalEngine, build_run_arrays
from repro.sim.simulator import FIDELITIES, simulate, simulate_sequence
from repro.experiments.common import EvalSuite
from repro.stats.timeline import Timeline
from repro.trace.suite import build_benchmark

SCALE = 0.05
SEED = 3


@pytest.fixture(scope="module")
def trace():
    return build_benchmark("SPMV", scale=SCALE, seed=SEED)


@pytest.fixture(scope="module")
def config():
    return GPUConfig()


class TestSimulateDispatch:
    def test_functional_result_is_tagged(self, trace, config):
        r = simulate(trace, config, make_design("gc"), fidelity="functional")
        assert r.extras["fidelity"] == "functional"
        assert r.extras["estimated_cycles"] is True
        assert r.cycles >= 1 and r.ipc > 0

    def test_timing_result_is_untagged(self, trace, config):
        r = simulate(trace, config, make_design("bs"))
        assert "estimated_cycles" not in r.extras

    def test_functional_counters_match_replay(self, trace, config):
        design = make_design("gc")
        fast = simulate(trace, config, design, fidelity="functional")
        oracle = replay(trace, config, design)
        assert fast.l1.snapshot() == oracle.l1.snapshot()
        assert fast.l2.snapshot() == oracle.l2.snapshot()

    def test_engine_replays_the_configs_scheduler(self):
        """A directly built engine takes its interleave from the config,
        as ``simulate`` does (SPMV: 2679 L1 hits under ``gto``, 2696
        under ``lrr``)."""
        config = GPUConfig(warp_scheduler="gto")
        spmv = build_benchmark("SPMV", scale=0.05, seed=0)
        design = make_design("bs")
        engine = FunctionalEngine(config, design)
        engine.run(spmv)
        direct = engine.result()
        via = simulate(spmv, config, design, fidelity="functional")
        assert direct.l1.snapshot() == via.l1.snapshot()
        assert direct.l2.snapshot() == via.l2.snapshot()
        assert direct.l1.hits == 2679

    def test_sequence_dispatch(self, trace, config):
        r = simulate_sequence(
            [trace, trace], config, make_design("bs"), fidelity="functional"
        )
        assert r.extras["fidelity"] == "functional"
        single = simulate(trace, config, make_design("bs"), fidelity="functional")
        assert r.instructions == 2 * single.instructions

    def test_unknown_fidelity_rejected(self, trace, config):
        with pytest.raises(ValueError, match="fidelity"):
            simulate(trace, config, make_design("bs"), fidelity="exact")
        with pytest.raises(ValueError, match="fidelity"):
            simulate_sequence([trace], config, make_design("bs"), fidelity="x")

    def test_functional_rejects_cycle_level_observers(self, trace, config):
        with pytest.raises(ValueError):
            simulate(
                trace, config, make_design("bs"),
                timeline=Timeline(), fidelity="functional",
            )


def _columns(arrays):
    """Every materialized column of prebuilt arrays, as plain lists."""
    return [
        {
            name: getattr(a, name).tolist() if hasattr(getattr(a, name), "tolist")
            else getattr(a, name)
            for name in type(a).__slots__
            if not name.startswith("_")
        }
        for a in arrays
    ]


def _outcome(result):
    return (result.cycles, result.instructions, result.l1.snapshot(),
            result.l2.snapshot(), result.avg_load_latency,
            result.dram_requests, result.extras)


def functional_arrays(trace, config):
    return build_run_arrays(trace, config)


class TestPrebuiltArrays:
    """``simulate(..., arrays=...)``: one build replayed by every design."""

    DESIGNS = ("bs", "bs-s", "gc", "gc-m", "dbp", "pdp-3", "pdp-8")

    def test_shared_arrays_equal_unshared_runs(self, trace, config):
        arrays = functional_arrays(trace, config)
        for a in arrays:  # materialize every lazy column up front
            a.ensure_scalar()
        before = _columns(arrays)
        for key in self.DESIGNS:
            shared = simulate(trace, config, make_design(key),
                              fidelity="functional", arrays=arrays)
            alone = simulate(trace, config, make_design(key),
                             fidelity="functional")
            assert _outcome(shared) == _outcome(alone), key
        # No replay wrote into the arrays it was handed.
        assert _columns(arrays) == before

    def test_timing_fidelity_rejects_arrays(self, trace, config):
        with pytest.raises(ValueError, match="functional"):
            simulate(trace, config, make_design("bs"),
                     arrays=functional_arrays(trace, config))


class TestTaskPlumbing:
    def _task(self, **kw):
        base = dict(
            kind="simulate", benchmark="SPMV", design="gc",
            scale=SCALE, seed=SEED,
        )
        base.update(kw)
        return Task(**base)

    def test_cache_keys_differ_per_fidelity(self):
        timing = self._task()
        functional = self._task(fidelity="functional")
        assert timing.key("salt") != functional.key("salt")
        assert timing.fingerprint()["fidelity"] == "timing"
        assert functional.fingerprint()["fidelity"] == "functional"

    def test_label_renders_fidelity(self):
        assert self._task().label == "simulate:SPMV/gc"
        assert (
            self._task(fidelity="functional").label
            == "simulate[functional]:SPMV/gc"
        )

    def test_run_task_dispatches_fidelity(self):
        r = run_task(self._task(fidelity="functional"))
        assert r.extras["fidelity"] == "functional"

    def test_invalid_fidelity_rejected(self):
        with pytest.raises(ValueError, match="fidelity"):
            self._task(fidelity="nope")
        with pytest.raises(ValueError, match="simulate"):
            Task(kind="pd-sweep", benchmark="SPMV", fidelity="functional")

    def test_fidelities_constant_covers_both(self):
        assert set(FIDELITIES) == {"timing", "functional"}


class TestCampaignRecords:
    def test_manifest_and_journal_record_fidelity(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        engine = CampaignEngine(
            jobs=1, cache=cache, journal=tmp_path / "journal.jsonl"
        )
        tasks = [
            Task(kind="simulate", benchmark="SD1", design="bs", scale=SCALE,
                 fidelity=fid)
            for fid in ("timing", "functional")
        ]
        engine.run(tasks)
        by_label = {t["label"]: t for t in engine.manifest()["tasks"]}
        assert by_label["simulate:SD1/bs"]["fidelity"] == "timing"
        assert by_label["simulate[functional]:SD1/bs"]["fidelity"] == "functional"

        journal = [
            json.loads(line)
            for line in (tmp_path / "journal.jsonl").read_text().splitlines()
        ]
        assert {j["fidelity"] for j in journal} == {"timing", "functional"}

    def test_fidelities_do_not_alias_in_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        engine = CampaignEngine(jobs=1, cache=cache)
        timing_task = Task(
            kind="simulate", benchmark="SD1", design="bs", scale=SCALE
        )
        functional_task = Task(
            kind="simulate", benchmark="SD1", design="bs", scale=SCALE,
            fidelity="functional",
        )
        timing = engine.run_one(timing_task)
        functional = engine.run_one(functional_task)
        assert engine.counters.cache_hits == 0  # distinct keys, both ran
        assert "estimated_cycles" not in timing.extras
        assert functional.extras["estimated_cycles"] is True
        # Warm pass: each fidelity hits its own entry.
        engine2 = CampaignEngine(jobs=1, cache=ResultCache(tmp_path / "cache"))
        warm = engine2.run_one(functional_task)
        assert engine2.counters.cache_hits == 1
        assert warm.extras["fidelity"] == "functional"


class TestSuiteAndSweep:
    def test_evalsuite_forwards_fidelity(self):
        suite = EvalSuite(
            benchmarks=["SD1"], scale=SCALE, seed=SEED, fidelity="functional"
        )
        r = suite.run("SD1", "bs")
        assert r.extras["fidelity"] == "functional"
        label = suite.engine.manifest()["tasks"][0]["label"]
        assert label.startswith("simulate[functional]:")


class TestCLI:
    def test_run_functional(self, capsys):
        rc = main([
            "run", "--benchmark", "sd1", "--design", "bs",
            "--scale", "0.05", "--fidelity", "functional",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[fidelity] functional" in out
        assert "IPC" in out

    def test_run_functional_rejects_timeline(self, tmp_path, capsys):
        rc = main([
            "run", "--benchmark", "sd1", "--design", "bs", "--scale", "0.05",
            "--fidelity", "functional",
            "--timeline-csv", str(tmp_path / "t.csv"),
        ])
        assert rc == 2
        assert "functional" in capsys.readouterr().err

    def test_compare_functional(self, capsys):
        rc = main([
            "compare", "--benchmark", "sd1", "--designs", "bs,gc",
            "--scale", "0.05", "--fidelity", "functional", "--no-cache",
        ])
        assert rc == 0
        assert "design comparison" in capsys.readouterr().out

    def test_trace_has_no_fidelity_flag(self):
        with pytest.raises(SystemExit):
            main([
                "trace", "--benchmark", "sd1", "--fidelity", "functional",
                "-o", "x.json",
            ])
