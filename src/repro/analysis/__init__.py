"""Cross-campaign analysis: manifest diffing and the ledger.

This package consumes the artifacts the rest of the repository produces
— campaign manifests from :mod:`repro.runner.engine`, ``BENCH_*.json``
blobs from ``benchmarks/perf_suite.py`` — and turns them into regression
intelligence:

* :func:`load_manifest` / :class:`Manifest` — schema-tolerant manifest
  loading (v1 label-parsing fallback, v2 structured fields), one task
  per label.
* :func:`compare_manifests` / :class:`ManifestComparison` — per-label,
  per-counter deltas with exact-delta verdicts.
* :func:`render_markdown` / :func:`render_html` — byte-stable reports.
* :class:`Ledger` — the append-only fsync'd JSONL perf/accuracy history
  with rolling-baseline drift gating.

The package is deliberately read-only with respect to simulation: it
never imports :mod:`repro.sim` and cannot perturb golden numbers.
"""

from repro.analysis.compare import (
    VERDICTS,
    CounterDelta,
    DesignSummary,
    LabelComparison,
    ManifestComparison,
    compare_manifests,
    counter_polarity,
)
from repro.analysis.ledger import (
    LEDGER_SCHEMA_VERSION,
    Ledger,
    LedgerCheck,
    host_fingerprint,
    make_record,
    record_from_bench,
    record_from_manifest,
)
from repro.analysis.loader import (
    AnalysisError,
    Manifest,
    TaskRecord,
    flatten_metrics,
    load_manifest,
    parse_label,
    parse_manifest,
)
from repro.analysis.report import render_html, render_markdown

__all__ = [
    "AnalysisError",
    "CounterDelta",
    "DesignSummary",
    "LabelComparison",
    "LEDGER_SCHEMA_VERSION",
    "Ledger",
    "LedgerCheck",
    "Manifest",
    "ManifestComparison",
    "TaskRecord",
    "VERDICTS",
    "compare_manifests",
    "counter_polarity",
    "flatten_metrics",
    "host_fingerprint",
    "load_manifest",
    "make_record",
    "parse_label",
    "parse_manifest",
    "record_from_bench",
    "record_from_manifest",
    "render_html",
    "render_markdown",
]
