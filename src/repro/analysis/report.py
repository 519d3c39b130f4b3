"""Render a :class:`ManifestComparison` as markdown or standalone HTML.

Reports are **deterministic**: rendering never consults the clock, the
environment or dict iteration order, so the same pair of manifests
produces byte-identical output — CI can diff report artifacts across
runs, and the acceptance tests pin exactly that property.  All
tabulation goes through :class:`repro.stats.report.Table`, the same
builder behind the paper-figure harnesses, so comparison reports read
like the rest of the repository's outputs.
"""

from __future__ import annotations

from html import escape
from typing import List, Optional

from repro.analysis.compare import ManifestComparison
from repro.analysis.loader import Manifest
from repro.stats.report import Table

__all__ = ["render_html", "render_markdown"]


def _fmt(value: Optional[float]) -> str:
    """Stable scalar formatting: counts as ints, rates to 6 sig figs."""
    if value is None:
        return "-"
    if float(value).is_integer() and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:.6g}"


def _fmt_rel(rel: Optional[float]) -> str:
    return f"{100.0 * rel:+.2f}%" if rel is not None else "-"


def _meta_table(a: Manifest, b: Manifest) -> Table:
    table = Table(["", "A (baseline)", "B (candidate)"], title="Inputs")
    rows = [
        ("manifest", a.name, b.name),
        ("schema", str(a.schema_version), str(b.schema_version)),
        ("commit", a.git_commit or "-", b.git_commit or "-"),
        ("salt", a.salt or "-", b.salt or "-"),
        ("generated", a.generated_at or "-", b.generated_at or "-"),
        ("tasks", str(len(a.tasks)), str(len(b.tasks))),
        ("interrupted", str(a.interrupted).lower(), str(b.interrupted).lower()),
    ]
    for row in rows:
        table.row(list(row))
    return table


def _summary_table(cmp: ManifestComparison) -> Table:
    counts = cmp.verdict_counts()
    table = Table(["verdict", "counters"], title="Verdict summary")
    for verdict in ("improved", "regressed", "changed", "unchanged"):
        table.row([verdict, str(counts[verdict])])
    table.row(["new labels", str(counts["new"])])
    table.row(["missing labels", str(counts["missing"])])
    return table


def _design_table(cmp: ManifestComparison) -> Optional[Table]:
    summaries = cmp.design_summaries()
    if not summaries:
        return None
    table = Table(
        ["design", "benchmarks", "geomean IPC ratio (B/A)", "mean dL1 miss (pp)"],
        title="Per-design summary",
    )
    for s in summaries:
        table.row([
            s.design,
            str(s.benchmarks),
            f"{s.ipc_ratio:.4f}" if s.ipc_ratio is not None else "-",
            f"{s.miss_delta_pp:+.2f}" if s.miss_delta_pp is not None else "-",
        ])
    return table


def _regressions_table(cmp: ManifestComparison, top: int) -> Optional[Table]:
    regressions = cmp.top_regressions(top)
    if not regressions:
        return None
    table = Table(
        ["#", "experiment", "counter", "A", "B", "delta"],
        title=f"Top regressions (worst {len(regressions)})",
    )
    for rank, (label, delta) in enumerate(regressions, 1):
        table.row([
            str(rank), label, delta.name, _fmt(delta.a), _fmt(delta.b),
            _fmt_rel(delta.rel_delta),
        ])
    return table


def _label_tables(cmp: ManifestComparison, include_unchanged: bool):
    """Yield ``(heading, note, table_or_None)`` per matched label."""
    for label in cmp.labels:
        if label.status != "matched":
            continue
        shown = [
            d for d in label.deltas
            if include_unchanged or d.verdict != "unchanged"
        ]
        omitted = len(label.deltas) - len(shown)
        note = f"{omitted} unchanged counters omitted" if omitted else ""
        if not shown:
            yield label.label, note or "all counters unchanged", None
            continue
        table = Table(["counter", "A", "B", "delta", "verdict"])
        for d in shown:
            table.row([
                d.name, _fmt(d.a), _fmt(d.b), _fmt_rel(d.rel_delta), d.verdict,
            ])
        yield label.label, note, table


def _unmatched_lines(cmp: ManifestComparison) -> List[str]:
    lines = []
    for label in cmp.labels:
        if label.status == "new":
            lines.append(f"new in B: `{label.label}`")
        elif label.status == "missing":
            lines.append(f"missing from B: `{label.label}`")
    for label in cmp.failed_a:
        lines.append(f"failed in A (excluded): `{label}`")
    for label in cmp.failed_b:
        lines.append(f"failed in B (excluded): `{label}`")
    return lines


def render_markdown(
    cmp: ManifestComparison,
    top: int = 10,
    include_unchanged: bool = False,
) -> str:
    """The comparison as a GitHub-flavored markdown document."""
    parts: List[str] = [
        f"# Campaign comparison: {cmp.a.name} vs {cmp.b.name}",
        "",
        _meta_table(cmp.a, cmp.b).to_markdown(),
        "",
        "## Summary",
        "",
        _summary_table(cmp).to_markdown(),
    ]
    design = _design_table(cmp)
    if design is not None:
        parts += ["", design.to_markdown()]
    regressions = _regressions_table(cmp, top)
    if regressions is not None:
        parts += ["", regressions.to_markdown()]
    unmatched = _unmatched_lines(cmp)
    if unmatched:
        parts += ["", "## Unmatched / failed", ""]
        parts += [f"- {line}" for line in unmatched]
    parts += ["", "## Per-benchmark counter deltas"]
    for heading, note, table in _label_tables(cmp, include_unchanged):
        parts += ["", f"### {heading}", ""]
        if table is not None:
            parts.append(table.to_markdown())
        if note:
            parts.append(f"_{note}_" if table is None else f"\n_{note}_")
    return "\n".join(parts) + "\n"


_CSS = """\
body { font: 14px/1.5 -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; padding: 0 1rem; color: #1a1a2e; }
h1, h2, h3 { line-height: 1.25; }
table { border-collapse: collapse; margin: 1rem 0; }
caption { font-weight: 600; text-align: left; padding-bottom: .4rem; }
th, td { border: 1px solid #d7d7e0; padding: .3rem .6rem; text-align: left;
         font-variant-numeric: tabular-nums; }
th { background: #f2f2f7; }
tr.rule td { border-left: none; border-right: none; background: #f2f2f7;
             height: 2px; padding: 0; }
td.v-improved { color: #0a6640; font-weight: 600; }
td.v-regressed { color: #a82a2a; font-weight: 600; }
td.v-changed { color: #8a5200; }
td.v-unchanged { color: #5c7080; }
.note { color: #5c7080; font-style: italic; }
"""


def _html_table(table: Table) -> str:
    html = table.to_html()
    # Tag verdict cells so the stylesheet can color them; the verdict is
    # always the last cell when the column is present.
    for verdict in ("improved", "regressed", "changed", "unchanged"):
        html = html.replace(
            f"<td>{verdict}</td></tr>", f'<td class="v-{verdict}">{verdict}</td></tr>'
        )
    return html


def render_html(
    cmp: ManifestComparison,
    top: int = 10,
    include_unchanged: bool = False,
) -> str:
    """The comparison as one self-contained HTML document.

    No external assets, no scripts — safe to attach as a CI artifact
    and open anywhere.  Deterministic byte-for-byte, like the markdown.
    """
    title = f"Campaign comparison: {cmp.a.name} vs {cmp.b.name}"
    body: List[str] = [
        f"<h1>{escape(title)}</h1>",
        _html_table(_meta_table(cmp.a, cmp.b)),
        "<h2>Summary</h2>",
        _html_table(_summary_table(cmp)),
    ]
    design = _design_table(cmp)
    if design is not None:
        body.append(_html_table(design))
    regressions = _regressions_table(cmp, top)
    if regressions is not None:
        body.append(_html_table(regressions))
    unmatched = _unmatched_lines(cmp)
    if unmatched:
        body.append("<h2>Unmatched / failed</h2><ul>")
        body += [f"<li>{escape(line)}</li>" for line in unmatched]
        body.append("</ul>")
    body.append("<h2>Per-benchmark counter deltas</h2>")
    for heading, note, table in _label_tables(cmp, include_unchanged):
        body.append(f"<h3>{escape(heading)}</h3>")
        if table is not None:
            body.append(_html_table(table))
        if note:
            body.append(f'<p class="note">{escape(note)}</p>')
    return (
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
        f"<title>{escape(title)}</title>\n<style>\n{_CSS}</style>\n</head>\n<body>\n"
        + "\n".join(body)
        + "\n</body>\n</html>\n"
    )
