"""Golden-number regression test for the paper campaign.

A checked-in fixture (``tests/data/golden_paper_numbers.json``) pins the
headline values of the reduced-scale reproduction — Fig. 8 speedups,
Fig. 9 L1 miss rates, and Table 3 bypass ratios / optimal PDs — for a
six-benchmark slice covering all three sensitivity groups.  Any code
change that drifts a reproduced number by more than ``1e-9`` fails here,
so refactors (like the campaign engine itself) cannot silently change
the science.

If a drift is *intentional* (a modelling fix), regenerate the fixture::

    PYTHONPATH=src python tests/regen_golden.py

and include the diff in review.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.common import PAPER_DESIGNS, EvalSuite
from repro.experiments.fig8_speedup import fig8_speedups
from repro.experiments.fig9_missrate import fig9_miss_rates
from repro.experiments.table3_bypass import table3_rows

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_paper_numbers.json"

#: Reduced-scale campaign the fixture pins.  One benchmark per paper
#: behaviour: SPMV (GC's best case), KMN/NW (long-PD cases where SPDP-B
#: wins), SSC (sensitive), SD1/FWT (insensitive, must stay untouched).
SCALE = 0.05
SEED = 0
BENCHMARKS = ("SPMV", "KMN", "SSC", "NW", "SD1", "FWT")
DESIGNS = PAPER_DESIGNS

#: Functional-fidelity slice pinned alongside the timing campaign: the
#: backend's cache counters are exact (bit-identical to the replay
#: oracle) and its cycles are a deterministic function of them, so these
#: numbers are just as pinnable as the timing ones.
FUNCTIONAL_DESIGNS = ("bs", "gc", "dbp", "pdp-8")

TOLERANCE = 1e-9


def build_suite() -> EvalSuite:
    return EvalSuite(benchmarks=BENCHMARKS, scale=SCALE, seed=SEED, jobs=1)


def compute_functional_golden() -> dict:
    """The pinned functional-fidelity numbers (exact counters +
    estimator-derived IPC) for the fixture's benchmark slice."""
    suite = EvalSuite(
        benchmarks=BENCHMARKS, scale=SCALE, seed=SEED, jobs=1,
        fidelity="functional",
    )
    matrix = suite.run_matrix(FUNCTIONAL_DESIGNS)
    return {
        bench: {
            design: {
                "l1_miss_rate": matrix[(bench, design)].l1.miss_rate,
                "l1_bypass_ratio": matrix[(bench, design)].l1.bypass_ratio,
                "l2_miss_rate": matrix[(bench, design)].l2.miss_rate,
                "estimated_ipc": matrix[(bench, design)].ipc,
            }
            for design in FUNCTIONAL_DESIGNS
        }
        for bench in BENCHMARKS
    }


def compute_golden(suite: EvalSuite | None = None) -> dict:
    """Recompute every pinned value from scratch (no cache)."""
    suite = suite or build_suite()
    suite.run_matrix(DESIGNS)
    return {
        "meta": {
            "scale": SCALE,
            "seed": SEED,
            "benchmarks": list(BENCHMARKS),
            "designs": list(DESIGNS),
        },
        "fig8_speedups": fig8_speedups(suite, DESIGNS),
        "fig9_miss_rates": fig9_miss_rates(suite, DESIGNS),
        "table3": {
            row.benchmark: {
                "gcache_bypass_ratio": row.gcache_bypass_ratio,
                "spdpb_bypass_ratio": row.spdpb_bypass_ratio,
                "optimal_pd": row.optimal_pd,
            }
            for row in table3_rows(suite)
        },
        "functional": compute_functional_golden(),
    }


def iter_drift(expected, actual, path=""):
    """Yield '<path>: expected E, got A' strings for every mismatch."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            yield f"{path}: key sets differ ({sorted(expected)} vs {sorted(actual) if isinstance(actual, dict) else actual})"
            return
        for key in expected:
            yield from iter_drift(expected[key], actual[key], f"{path}/{key}")
    elif isinstance(expected, float) or isinstance(actual, float):
        if abs(float(expected) - float(actual)) > TOLERANCE:
            yield f"{path}: expected {expected!r}, got {actual!r}"
    elif expected != actual:
        yield f"{path}: expected {expected!r}, got {actual!r}"


@pytest.fixture(scope="module")
def golden() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"missing fixture {GOLDEN_PATH}; generate it with "
            "`PYTHONPATH=src python tests/regen_golden.py`"
        )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def actual() -> dict:
    return compute_golden()


def test_fixture_pins_this_campaign(golden):
    assert golden["meta"] == {
        "scale": SCALE,
        "seed": SEED,
        "benchmarks": list(BENCHMARKS),
        "designs": list(DESIGNS),
    }


@pytest.mark.parametrize(
    "section", ["fig8_speedups", "fig9_miss_rates", "table3", "functional"]
)
def test_no_drift(golden, actual, section):
    drift = list(iter_drift(golden[section], actual[section], section))
    assert not drift, (
        "reproduced numbers drifted from the golden fixture "
        "(if intentional, regenerate with "
        "`PYTHONPATH=src python tests/regen_golden.py`):\n"
        + "\n".join(drift)
    )


def test_paper_shape_survives(golden):
    """Coarse sanity on the fixture itself: the paper's qualitative
    claims must hold in the pinned numbers, so a bad regeneration cannot
    be committed unnoticed."""
    fig8 = golden["fig8_speedups"]
    table3 = golden["table3"]
    # GC helps the sensitive gmean and never tanks insensitive codes.
    assert fig8["GM-sensitive"]["gc"] > 1.0
    assert fig8["GM-insensitive"]["gc"] > 0.97
    # BS is the speedup baseline by definition.
    for bench in BENCHMARKS:
        assert fig8[bench]["bs"] == 1.0
    # FWT (insensitive) bypasses essentially nothing under either design.
    assert table3["FWT"]["gcache_bypass_ratio"] < 0.05
    assert table3["FWT"]["spdpb_bypass_ratio"] < 0.05
    # Functional fidelity: the baseline never bypasses, G-Cache does on
    # the cache-sensitive kernel, and every miss rate is a valid ratio.
    functional = golden["functional"]
    assert functional["SPMV"]["bs"]["l1_bypass_ratio"] == 0.0
    assert functional["SPMV"]["gc"]["l1_bypass_ratio"] > 0.0
    for bench, designs in functional.items():
        for design, row in designs.items():
            assert 0.0 <= row["l1_miss_rate"] <= 1.0, (bench, design)
            assert row["estimated_ipc"] > 0.0, (bench, design)
