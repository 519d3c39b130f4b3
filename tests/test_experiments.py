"""Smoke tests for the experiment harnesses at tiny scale.

These verify plumbing (runs complete, tables render, derived views are
consistent), not paper-shape numbers — the shape checks live in
benchmarks/, which run at experiment scale.
"""

import json
import re

import pytest

from repro.experiments.ablations import (
    adaptive_aging_ablation,
    scheduler_ablation,
    victim_bit_sharing_ablation,
)
from repro.experiments.common import EvalSuite, sweep_optimal_pd
from repro.experiments.fig2_reuse import fig2_reuse_distribution, render_fig2
from repro.experiments.fig34_size_sensitivity import (
    render_fig3,
    render_fig4,
    size_sensitivity,
)
from repro.experiments.fig8_speedup import fig8_speedups, render_fig8
from repro.experiments.fig9_missrate import fig9_miss_rates, render_fig9
from repro.experiments.fig10_64kb import make_64kb_suite
from repro.experiments.table3_bypass import render_table3, table3_rows
from repro.runner import Task
from repro.runner.task import PD_SWEEP
from repro.sim.config import GPUConfig
from repro.sim.designs import make_design
from repro.sim.replay import replay
from repro.trace.suite import build_benchmark

TINY = dict(scale=0.05, seed=0)
SUBSET = ["SPMV", "SD1"]


@pytest.fixture(scope="module")
def suite():
    return EvalSuite(benchmarks=SUBSET, **TINY)


class TestEvalSuite:
    def test_runs_memoized(self, suite):
        a = suite.run("SPMV", "bs")
        b = suite.run("SPMV", "bs")
        assert a is b

    def test_speedup_one_for_baseline(self, suite):
        assert suite.speedup("SPMV", "bs") == pytest.approx(1.0)

    def test_traces_released_once_their_tasks_are_done(self, monkeypatch):
        """A campaign without ``bs`` runs the Fig. 8 baseline one
        benchmark at a time: the suite holds no trace afterwards.  An
        spdp-b run builds one trace for its PD sweep and its run."""
        from repro.experiments import common

        built = []

        def build(name, **kwargs):
            built.append(name)
            return build_benchmark(name, **kwargs)

        monkeypatch.setattr(common, "build_benchmark", build)
        suite = EvalSuite(benchmarks=SUBSET, fidelity="functional", **TINY)
        suite.run_matrix(["gc"])
        render_fig8(suite, designs=["gc"])
        assert suite._traces == {}
        assert sorted(built) == sorted(SUBSET)
        suite.run("SD1", "spdp-b")
        assert suite._traces == {}
        assert built.count("SD1") == 2

    def test_optimal_pd_cached_and_in_sweep(self, suite):
        pd = suite.optimal_pd("SPMV")
        from repro.experiments.common import PD_SWEEP

        assert pd in PD_SWEEP
        assert suite.optimal_pd("SPMV") == pd

    def test_gmean_over_group(self, suite):
        g = suite.speedup_gmean(SUBSET, "gc")
        assert g > 0


class TestSweep:
    def test_sweep_respects_candidates(self):
        trace = build_benchmark("SPMV", **TINY)
        from repro.sim.config import GPUConfig

        pd = sweep_optimal_pd(trace, GPUConfig(), candidates=(4, 8))
        assert pd in (4, 8)


#: The PD each Table-1 benchmark's sweep picks at seed 0: at scale 0.2,
#: and at the golden fixture's scale (0.05).
SWEEP_PDS = {
    0.2: {
        "BFS": 8, "KMN": 12, "PVC": 8, "SSC": 68, "SD2": 8, "SPMV": 12,
        "SYRK": 48, "IIX": 4, "FFT": 4, "CFD": 8, "PVR": 8, "NW": 6,
        "SD1": 4, "BP": 4, "STL": 4, "WP": 4, "FWT": 4,
    },
    0.05: {
        "BFS": 8, "KMN": 10, "PVC": 6, "SSC": 40, "SD2": 8, "SPMV": 8,
        "SYRK": 24, "IIX": 4, "FFT": 4, "CFD": 8, "PVR": 10, "NW": 6,
        "SD1": 4, "BP": 4, "STL": 4, "WP": 4, "FWT": 4,
    },
}


@pytest.mark.parametrize("scale", sorted(SWEEP_PDS))
def test_sweep_pins_every_benchmarks_pd(scale):
    """The sweep reads only L1 miss rates, so its candidates run no L2
    burst; every Table-1 benchmark keeps its PD."""
    from unittest import mock

    from repro.sim.functional import FunctionalEngine

    config = GPUConfig()
    with mock.patch.object(
        FunctionalEngine, "_l2_burst",
        side_effect=AssertionError("a PD candidate ran an L2 burst"),
    ):
        pds = {
            name: sweep_optimal_pd(
                build_benchmark(name, scale=scale, seed=0), config
            )
            for name in SWEEP_PDS[scale]
        }
    assert pds == SWEEP_PDS[scale]


#: Benchmarks on which the functional PD sweep and Fig. 2 are pinned to
#: the scalar replay() oracle.
ORACLE_BENCHMARKS = ("SPMV", "KMN", "NW", "SD1", "SYRK")


class TestOracleAgreement:
    """PD sweeps and Fig. 2 run on the functional backend; both must
    give exactly what the L1-only replay() oracle gives."""

    @pytest.mark.parametrize("bench", ORACLE_BENCHMARKS)
    def test_sweep_picks_oracle_pd(self, bench):
        trace = build_benchmark(bench, **TINY)
        config = GPUConfig()
        best_pd, best_miss = PD_SWEEP[0], float("inf")
        for pd in PD_SWEEP:
            miss = replay(
                trace, config, make_design("spdp-b", pd=pd), include_l2=False
            ).l1.miss_rate
            if miss < best_miss - 1e-9:
                best_pd, best_miss = pd, miss
        assert sweep_optimal_pd(trace, config) == best_pd

    @pytest.mark.parametrize("bench", ORACLE_BENCHMARKS)
    def test_fig2_matches_oracle(self, bench):
        trace = build_benchmark(bench, **TINY)
        oracle = replay(trace, GPUConfig(), make_design("bs"), include_l2=False)
        data = fig2_reuse_distribution([bench], **TINY)
        assert data == {bench: oracle.l1.reuse.buckets()}

    def test_replay_task_kind_is_gone(self):
        known = re.escape("known: ('simulate', 'pd-sweep')")
        with pytest.raises(ValueError, match=known):
            Task(kind="replay", benchmark="SD1", design="bs")


class TestFigureHarnesses:
    def test_fig2(self):
        data = fig2_reuse_distribution(SUBSET, **TINY)
        assert set(data) == set(SUBSET)
        text = render_fig2(data)
        assert "Figure 2" in text and "SPMV" in text

    def test_fig34(self):
        data = size_sensitivity(["SPMV"], sizes=(16 * 1024, 32 * 1024), **TINY)
        assert render_fig3(data, sizes=(16 * 1024, 32 * 1024))
        assert "Figure 4" in render_fig4(data, sizes=(16 * 1024, 32 * 1024))

    def test_fig8_includes_gmeans(self, suite):
        data = fig8_speedups(suite, designs=("bs", "gc"))
        assert "GM-all" in data
        assert "Figure 8" in render_fig8(suite, designs=("bs", "gc"))

    def test_fig9_consistent_with_runs(self, suite):
        data = fig9_miss_rates(suite, designs=("bs",))
        assert data["SPMV"]["bs"] == suite.run("SPMV", "bs").l1.miss_rate
        assert "Figure 9" in render_fig9(suite, designs=("bs",))

    def test_table3(self, suite):
        rows = table3_rows(suite)
        assert {r.benchmark for r in rows} == set(SUBSET)
        assert "Table 3" in render_table3(suite)

    def test_fig10_suite_has_big_l1(self):
        suite64 = make_64kb_suite(SUBSET, **TINY)
        assert suite64.config.l1_size == 64 * 1024


class TestAblationHarnesses:
    def test_victim_bit_sharing(self):
        data = victim_bit_sharing_ablation(["SPMV"], share_factors=(1, 16), **TINY)
        assert set(data["SPMV"]) == {1, 16}

    def test_adaptive_aging(self):
        data = adaptive_aging_ablation(["SPMV"], **TINY)
        assert set(data["SPMV"]) == {"bs", "gc", "gc-m"}

    def test_scheduler(self):
        data = scheduler_ablation(["SPMV"], schedulers=("lrr", "gto"), **TINY)
        assert set(data["SPMV"]) == {"lrr", "gto"}


class TestCLI:
    def test_main_tiny(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        rc = main(["--scale", "0.05", "--only", "fig8", "--benchmarks", "SD1",
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out

    def test_size_figures_honour_benchmarks(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        path = tmp_path / "fig3.json"
        rc = main(["--scale", "0.02", "--only", "fig3", "--benchmarks", "SPMV",
                   "--no-cache", "--jobs", "1", "--manifest", str(path)])
        assert rc == 0
        tasks = json.loads(path.read_text())["tasks"]
        assert len(tasks) == 4  # one per swept L1 size
        assert {t["benchmark"] for t in tasks} == {"SPMV"}
        assert "Figure 3" in capsys.readouterr().out

    def test_size_figures_skip_without_cache_sensitive_benchmarks(
            self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        path = tmp_path / "fig4.json"
        rc = main(["--scale", "0.02", "--only", "fig4", "--benchmarks", "SD1",
                   "--no-cache", "--jobs", "1", "--manifest", str(path)])
        assert rc == 0
        assert json.loads(path.read_text())["tasks"] == []
        assert "[skip] fig3/fig4" in capsys.readouterr().out

    def test_no_cache_computes_each_shared_key_once(self, tmp_path, capsys):
        """Fig. 3's 32 KB ``bs`` run is Fig. 8's baseline: without a
        persistent cache the engine serves the second figure's repeat
        from the payload it computed for the first, and renders the same
        tables as a cached run."""
        from repro.experiments.__main__ import main

        def tables(extra, name):
            path = tmp_path / name
            rc = main(["--scale", "0.02", "--only", "fig3,fig8",
                       "--benchmarks", "SPMV", "--jobs", "1",
                       "--manifest", str(path)] + extra)
            assert rc == 0
            out = capsys.readouterr().out
            return out[: out.index("Campaign summary")], json.loads(
                path.read_text())["tasks"]

        fresh, tasks = tables(["--no-cache"], "no-cache.json")
        computed = [t["key"] for t in tasks if not t["cached"]]
        assert len(computed) == len(set(computed))
        assert {t["key"] for t in tasks if t["cached"]} <= set(computed)
        assert len(tasks) > len(computed)
        cached, _ = tables(
            ["--cache-dir", str(tmp_path / "cache")], "cached.json"
        )
        assert fresh == cached

    def test_main_rejects_unknown_experiment(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["--only", "fig99"])


class TestEnergyExperiment:
    def test_ratios_and_render(self, suite):
        from repro.experiments.energy_table import energy_ratios, render_energy_table

        data = energy_ratios(suite)
        assert data["SPMV"]["bs"] == pytest.approx(1.0)
        assert "GM-sensitive" in data or "GM-insensitive" in data
        text = render_energy_table(suite)
        assert "energy" in text
