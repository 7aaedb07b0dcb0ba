"""CLI: render a bench artifact (+ optional trace) as one HTML file.

Usage::

    python -m repro.tools.report BENCH_pr10.json [--trace run.trace]
        [--baseline BENCH_pr9.json] [--out report.html] [--top 10]

The output is a **single self-contained HTML file** — no external
assets, scripts, stylesheets or network references — so it can be
attached to a PR, archived next to the bench artifact, or opened from
a mail attachment years later and still render.  Sections:

* run header (rev, host, workload) and per-section wall time;
* encode/solve **time-split bars** and the solve-phase breakdown;
* an **inline SVG flamegraph** of where the time went — from the
  stitched trace's span records when ``--trace`` is given (covering
  worker processes too), otherwise from the artifact's own ``timers``
  (the same hierarchy, minus cross-process detail);
* **latency histograms** (the artifact's log-bucket ``metrics``
  section: solve latency plus the per-engine step distributions) with
  p50/p90/p99 markers;
* the **top-N slowest queries** from the per-query ledger;
* a **regress table** against ``--baseline`` (same comparison as
  ``repro-trace regress``; a baseline of a different workload is
  refused with exit code 2).

Everything here is presentation: the numbers come verbatim from the
artifact produced by :mod:`repro.tools.bench` and the trace written
under ``REPRO_TRACE`` (see :mod:`repro.obs.trace`).
"""

from __future__ import annotations

import argparse
import html as _html
import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .trace import _self_times, _span_totals, check_same_workload, \
    compare_artifacts

#: Flamegraph geometry (SVG user units == px).
_FRAME_H = 18
_MIN_W = 0.5
_WIDTH = 960

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 1000px; color: #1a1a2e;
       background: #fafafa; }
h1 { font-size: 1.5em; border-bottom: 2px solid #16213e; }
h2 { font-size: 1.15em; margin-top: 1.8em; color: #16213e; }
table { border-collapse: collapse; margin: 0.6em 0; font-size: 0.9em; }
th, td { border: 1px solid #ccc; padding: 0.25em 0.6em; }
th { background: #eef; text-align: left; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.ok { color: #1a7f37; }
.bad { color: #b3261e; font-weight: bold; }
.bar { margin: 2px 0; }
svg text { font-family: inherit; }
.muted { color: #666; font-size: 0.85em; }
"""


def _esc(value: Any) -> str:
    return _html.escape(str(value), quote=True)


def _color(name: str) -> str:
    """A deterministic warm fill per span name (flamegraph style)."""
    h = 0
    for ch in name:
        h = (h * 31 + ord(ch)) & 0xFFFFFF
    r = 205 + (h % 50)
    g = 90 + ((h >> 8) % 110)
    b = 40 + ((h >> 16) % 40)
    return f"rgb({r},{g},{b})"


# ----------------------------------------------------------------------
# Flamegraph
# ----------------------------------------------------------------------
def _flame_tree(totals: Dict[str, float]
                ) -> Tuple[Dict[str, list], List[str], float]:
    """(children-by-path, root paths, total root seconds)."""
    children: Dict[str, list] = {path: [] for path in totals}
    roots: List[str] = []
    for path in sorted(totals):
        head, _, _ = path.rpartition("/")
        if head and head in children:
            children[head].append(path)
        else:
            roots.append(path)
    total = sum(totals[path] for path in roots)
    return children, roots, total


def flame_svg(totals: Dict[str, float], title: str = "") -> str:
    """An inline SVG flamegraph of hierarchical span totals.

    Width is proportional to total seconds; each nesting level is one
    row; every frame carries a ``<title>`` tooltip with the exact
    path, seconds and share.  Pure SVG — no scripts, no links.
    """
    children, roots, total = _flame_tree(totals)
    if total <= 0.0:
        return "<p class='muted'>(no span data)</p>"

    depth_of: Dict[str, int] = {}

    def depth(path: str) -> int:
        if path not in depth_of:
            head, _, _ = path.rpartition("/")
            depth_of[path] = depth(head) + 1 \
                if head and head in children else 0
        return depth_of[path]

    max_depth = max(depth(path) for path in totals)
    height = (max_depth + 1) * _FRAME_H + 4
    scale = _WIDTH / total
    rects: List[str] = []

    def emit(path: str, x: float) -> None:
        seconds = totals[path]
        w = seconds * scale
        if w < _MIN_W:
            return
        y = depth(path) * _FRAME_H + 2
        name = path.rpartition("/")[2]
        share = 100.0 * seconds / total
        label = (f"<text x='{x + 3:.1f}' y='{y + 13}' "
                 f"font-size='11'>{_esc(name)}</text>"
                 if w > 8 * len(name) * 0.8 else "")
        rects.append(
            f"<g><rect x='{x:.2f}' y='{y}' width='{w:.2f}' "
            f"height='{_FRAME_H - 1}' fill='{_color(name)}' "
            f"rx='2'><title>{_esc(path)}: {seconds:.4f} s "
            f"({share:.1f}%)</title></rect>{label}</g>")
        cx = x
        for child in children[path]:
            emit(child, cx)
            cx += totals[child] * scale

    x = 0.0
    for root in roots:
        emit(root, x)
        x += totals[root] * scale
    caption = f"<p class='muted'>{_esc(title)}</p>" if title else ""
    return (f"{caption}<svg width='{_WIDTH}' height='{height}' "
            f"viewBox='0 0 {_WIDTH} {height}' role='img'>"
            + "".join(rects) + "</svg>")


# ----------------------------------------------------------------------
# Bars and histograms
# ----------------------------------------------------------------------
def _split_bar(parts: List[Tuple[str, float]], width: int = _WIDTH
               ) -> str:
    """One horizontal stacked bar with a legend."""
    total = sum(seconds for _, seconds in parts)
    if total <= 0:
        return "<p class='muted'>(no time-split data)</p>"
    x = 0.0
    rects = []
    legend = []
    for name, seconds in parts:
        w = width * seconds / total
        rects.append(
            f"<rect x='{x:.2f}' y='0' width='{w:.2f}' height='22' "
            f"fill='{_color(name)}'><title>{_esc(name)}: "
            f"{seconds:.3f} s ({100 * seconds / total:.1f}%)</title>"
            f"</rect>")
        legend.append(
            f"<span style='color:{_color(name)}'>&#9632;</span> "
            f"{_esc(name)} {seconds:.3f}&nbsp;s")
        x += w
    return (f"<div class='bar'><svg width='{width}' height='22'>"
            + "".join(rects) + "</svg><br/>"
            + " &nbsp; ".join(legend) + "</div>")


def _histogram_svg(name: str, snap: Dict[str, Any]) -> str:
    """Log-bucket bars for one histogram snapshot, with quantiles."""
    hist = _metrics.Histogram.from_snapshot(snap)
    if not hist.count:
        return ""
    buckets = sorted(hist.buckets)
    if not buckets:
        return ""
    lo, hi = buckets[0], buckets[-1]
    span = hi - lo + 1
    bar_w = max(3.0, min(28.0, (_WIDTH - 120) / span))
    peak = max(hist.buckets.values())
    height = 70
    bars = []
    for i, idx in enumerate(range(lo, hi + 1)):
        n = hist.buckets.get(idx, 0)
        if not n:
            continue
        h = max(2.0, (height - 16) * n / peak)
        x = i * bar_w
        blo, bhi = _metrics.bucket_bounds(idx)
        bars.append(
            f"<rect x='{x:.1f}' y='{height - h:.1f}' "
            f"width='{bar_w - 1:.1f}' height='{h:.1f}' "
            f"fill='{_color(name)}'><title>[{blo:.2e}, {bhi:.2e}) s: "
            f"{n}</title></rect>")
    qs = hist.quantiles()
    stats = (f"n={hist.count} &nbsp; p50={qs['p50'] * 1e3:.3f} ms "
             f"&nbsp; p90={qs['p90'] * 1e3:.3f} ms "
             f"&nbsp; p99={qs['p99'] * 1e3:.3f} ms "
             f"&nbsp; max={(hist.max or 0) * 1e3:.3f} ms")
    return (f"<h3>{_esc(name)}</h3><p class='muted'>{stats}</p>"
            f"<svg width='{max(60, span * bar_w):.0f}' "
            f"height='{height}'>" + "".join(bars) + "</svg>")


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def _sections_table(artifact: Dict[str, Any]) -> str:
    rows = []
    for name, section in artifact.get("sections", {}).items():
        seconds = section.get("seconds")
        if isinstance(seconds, (int, float)):
            rows.append(f"<tr><td>{_esc(name)}</td>"
                        f"<td class='num'>{seconds:.3f}</td></tr>")
    if not rows:
        return ""
    return ("<table><tr><th>section</th><th>seconds</th></tr>"
            + "".join(rows) + "</table>")


def _ledger_table(artifact: Dict[str, Any], top: int) -> str:
    records = artifact.get("metrics", {}).get("ledger_top", [])[:top]
    if not records:
        return "<p class='muted'>(no ledger records)</p>"
    keys = ["engine", "frame", "k", "verdict", "conflicts", "seconds",
            "source"]
    used = [key for key in keys
            if any(rec.get(key) is not None for rec in records)]
    head = "".join(f"<th>{_esc(key)}</th>" for key in used)
    body = []
    for rec in records:
        cells = []
        for key in used:
            value = rec.get(key)
            if key == "seconds" and isinstance(value, (int, float)):
                cells.append(f"<td class='num'>{value * 1e3:.3f} ms"
                             f"</td>")
            elif isinstance(value, (int, float)):
                cells.append(f"<td class='num'>{_esc(value)}</td>")
            else:
                cells.append(f"<td>{_esc(value) if value is not None else ''}</td>")
        body.append("<tr>" + "".join(cells) + "</tr>")
    dropped = artifact.get("metrics", {}).get("ledger_dropped", 0)
    note = (f"<p class='muted'>(+{dropped} older records evicted from "
            f"the ring)</p>" if dropped else "")
    return (f"<table><tr>{head}</tr>" + "".join(body) + "</table>"
            + note)


def _regress_table(baseline: Dict[str, Any],
                   artifact: Dict[str, Any]) -> str:
    rows = compare_artifacts(baseline, artifact)
    if not rows:
        return "<p class='muted'>(no comparable metrics)</p>"
    body = []
    for r in rows:
        mark = ("<span class='bad'>REGRESSED</span>" if r["regressed"]
                else "<span class='ok'>ok</span>")
        ratio = f"{r['ratio']:.2f}x" if r["ratio"] is not None else "-"
        body.append(
            f"<tr><td>{_esc(r['metric'])}</td>"
            f"<td class='num'>{r['baseline']:.4g}</td>"
            f"<td class='num'>{r['candidate']:.4g}</td>"
            f"<td class='num'>{ratio}</td><td>{mark}</td></tr>")
    regressions = sum(1 for r in rows if r["regressed"])
    verdict = (f"<p class='bad'>{regressions} regression(s)</p>"
               if regressions
               else "<p class='ok'>0 regressions</p>")
    return ("<table><tr><th>metric</th><th>baseline</th>"
            "<th>candidate</th><th>ratio</th><th></th></tr>"
            + "".join(body) + "</table>" + verdict)


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------
def build_report(artifact: Dict[str, Any],
                 trace_base: Optional[str] = None,
                 baseline: Optional[Dict[str, Any]] = None,
                 top: int = 10) -> str:
    """The full self-contained HTML document as a string."""
    rev = artifact.get("rev", "?")
    host = artifact.get("host", {})
    workload = artifact.get("workload", {})
    parts: List[str] = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'/>",
        f"<title>bench report — {_esc(rev)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>Bench report — <code>{_esc(rev)}</code></h1>",
        f"<p class='muted'>{_esc(host.get('implementation', '?'))} "
        f"{_esc(host.get('python', '?'))} on "
        f"{_esc(host.get('system', '?'))}/"
        f"{_esc(host.get('machine', '?'))} &nbsp;&middot;&nbsp; "
        f"profile {_esc(workload.get('profile', '?'))}, designs "
        f"{_esc(', '.join(workload.get('designs', [])))}</p>",
        "<h2>Section wall time</h2>",
        _sections_table(artifact),
    ]

    split = artifact.get("time_split", {})
    encode = split.get("encode_seconds")
    solve = split.get("solve_seconds")
    if isinstance(encode, (int, float)) and \
            isinstance(solve, (int, float)):
        parts += ["<h2>Time split</h2>",
                  _split_bar([("encode", encode), ("solve", solve)])]
        phases = [(key[len("solve_"):-len("_seconds")],
                   split.get(key))
                  for key in ("solve_propagate_seconds",
                              "solve_decide_seconds",
                              "solve_analyze_seconds",
                              "solve_other_seconds")]
        phases = [(name, value) for name, value in phases
                  if isinstance(value, (int, float))]
        if phases:
            parts.append(_split_bar(phases))

    # Flame: stitched trace when given (covers workers), else the
    # artifact's own timer hierarchy.
    parts.append("<h2>Flamegraph</h2>")
    totals: Dict[str, float] = {}
    source = ""
    if trace_base:
        paths = _trace.discover_trace_files(trace_base)
        if paths:
            records = _trace.stitch_files(paths)
            totals, _ = _span_totals(records)
            source = (f"from trace {trace_base} "
                      f"({len(paths)} file(s))")
    if not totals:
        totals = {path: stat.get("total_s", 0.0)
                  for path, stat in artifact.get("timers", {}).items()}
        source = "from artifact timers"
    parts.append(flame_svg(totals, title=source))

    histograms = artifact.get("metrics", {}).get("histograms", {})
    if histograms:
        parts.append("<h2>Latency distributions</h2>")
        for name in sorted(histograms):
            parts.append(_histogram_svg(name, histograms[name]))

    parts.append(f"<h2>Top {top} slowest queries (ledger)</h2>")
    parts.append(_ledger_table(artifact, top))

    if baseline is not None:
        parts.append(
            f"<h2>Regressions vs {_esc(baseline.get('rev', '?'))}"
            f"</h2>")
        parts.append(_regress_table(baseline, artifact))

    parts.append("</body></html>")
    return "\n".join(parts)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(prog="repro.tools.report",
                                     description=__doc__)
    parser.add_argument("artifact",
                        help="bench artifact (BENCH_<rev>.json)")
    parser.add_argument("--trace", default=None,
                        help="trace base path (workers at "
                             "<trace>.<pid> auto-included)")
    parser.add_argument("--baseline", default=None,
                        help="baseline artifact for the regress table")
    parser.add_argument("--out", default=None,
                        help="output path (default: "
                             "report_<rev>.html)")
    parser.add_argument("--top", type=int, default=10,
                        help="ledger rows to show (default 10)")
    args = parser.parse_args(argv)
    with open(args.artifact) as handle:
        artifact = json.load(handle)
    baseline = None
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        try:
            check_same_workload(baseline, artifact)
        except ValueError as exc:
            print(f"repro-report: refusing the baseline: {exc}",
                  file=sys.stderr)
            return 2
    document = build_report(artifact, trace_base=args.trace,
                            baseline=baseline, top=args.top)
    out = args.out or f"report_{artifact.get('rev', 'run')}.html"
    with open(out, "w") as handle:
        handle.write(document)
    print(f"wrote {out} ({len(document)} bytes, self-contained)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
