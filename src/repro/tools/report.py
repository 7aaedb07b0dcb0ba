"""CLI: render a benchmark results file (+ optional trace) as one HTML file.

Usage::

    python -m repro.tools.report perf/results/seed-a.json
        [--trace perf/out/table1.trace.jsonl] [--out report.html]

The input is the ``perf-bench-v1`` document that ``perf/run.py --out``
writes; a file of any other schema is refused with exit code 2.  The
output is a **single self-contained HTML file** — no external assets,
scripts, stylesheets or network references — so it can be attached to
a PR, archived next to the results file, or opened years later and
still render.  Sections:

* run header (host, seed, settings);
* per workload: failed operations of attempted, and every end-to-end
  metric as ``median [q1, q3]`` with its n;
* per workload with a traced pass: the **per-layer self time** as one
  stacked bar, and the per-layer metrics;
* with ``--trace``: an **inline SVG flamegraph** of the stitched
  trace's span records (worker files ``<trace>.<pid>`` included).

Everything here is presentation: the numbers come verbatim from the
results file and the trace (see :mod:`repro.obs.trace`).  Comparing
two results files is ``perf/compare.py``'s job.
"""

from __future__ import annotations

import argparse
import html as _html
import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs import trace as _trace
from .trace import _span_totals, span_parent

#: The results-file schema ``perf/run.py --out`` writes.
SCHEMA = "perf-bench-v1"

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
        head = span_parent(path, totals)
        if head is not None:
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

    scale = _WIDTH / total
    rects: List[str] = []
    max_depth = 0

    def emit(path: str, name: str, x: float, depth: int) -> None:
        nonlocal max_depth
        seconds = totals[path]
        w = seconds * scale
        if w < _MIN_W:
            return
        max_depth = max(max_depth, depth)
        y = depth * _FRAME_H + 2
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
            # The frame name is the child's path past its parent's.
            emit(child, child[len(path) + 1:], cx, depth + 1)
            cx += totals[child] * scale

    x = 0.0
    for root in roots:
        emit(root, root, x, 0)
        x += totals[root] * scale
    height = (max_depth + 1) * _FRAME_H + 4
    caption = f"<p class='muted'>{_esc(title)}</p>" if title else ""
    return (f"{caption}<svg width='{_WIDTH}' height='{height}' "
            f"viewBox='0 0 {_WIDTH} {height}' role='img'>"
            + "".join(rects) + "</svg>")


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def _split_bar(parts: List[Tuple[str, float]], width: int = _WIDTH
               ) -> str:
    """One horizontal stacked bar with a legend."""
    total = sum(seconds for _, seconds in parts)
    if total <= 0:
        return "<p class='muted'>(no self-time data)</p>"
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


def _number(value: Any) -> str:
    """Counts exactly, measurements to six significant digits."""
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def _end_to_end_table(summary: Dict[str, Any]) -> str:
    """Each end-to-end metric as ``median [q1, q3]`` with its n."""
    rows = "".join(
        f"<tr><td>{_esc(name)}</td>"
        f"<td class='num'>{m['median']:.4g} "
        f"[{m['q1']:.4g}, {m['q3']:.4g}]</td>"
        f"<td>{_esc(m['unit'])}</td><td class='num'>{m['n']}</td></tr>"
        for name, m in summary["end_to_end"].items())
    return ("<table><tr><th>metric</th><th>median [q1, q3]</th>"
            "<th>unit</th><th>n</th></tr>" + rows + "</table>")


def _layers_section(summary: Dict[str, Any]) -> str:
    """The traced pass: self time per layer, then the nonzero layer
    metrics.

    The ``*.self_s`` values and ``unattributed_s`` add up to the
    traced wall time, so they stack into one bar.
    """
    per_layer = summary["per_layer"]
    parts = [(name[:-len(".self_s")], m["value"])
             for name, m in per_layer.items()
             if name.endswith(".self_s") and m["value"] > 0]
    parts.append(("unattributed", per_layer["unattributed_s"]["value"]))
    parts.sort(key=lambda part: -part[1])
    # Layers the workload never entered read 0; list only the rest.
    shown = {name: m for name, m in per_layer.items() if m["value"]}
    rows = "".join(
        f"<tr><td>{_esc(name)}</td>"
        f"<td class='num'>{_esc(_number(m['value']))}</td>"
        f"<td>{_esc(m['unit'])}</td></tr>"
        for name, m in shown.items())
    return (f"<p class='muted'>traced pass: "
            f"{summary['traced_wall_s']:.3f} s wall, trace "
            f"{_esc(summary['trace'])}</p>"
            + _split_bar(parts)
            + "<table><tr><th>layer metric</th><th>value</th>"
              "<th>unit</th></tr>" + rows + "</table>"
            + f"<p class='muted'>({len(per_layer) - len(shown)} "
              f"metrics read 0)</p>")


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------
def build_report(results: Dict[str, Any],
                 trace_base: Optional[str] = None) -> str:
    """The full self-contained HTML document as a string."""
    rev = results["rev"]
    host = results["host"]
    settings = ", ".join(f"{key} {value}" for key, value
                         in results["settings"].items()
                         if value is not None)
    parts: List[str] = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'/>",
        f"<title>benchmark report — {_esc(rev)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>Benchmark report — <code>{_esc(rev)}</code></h1>",
        f"<p class='muted'>{_esc(host['implementation'])} "
        f"{_esc(host['python'])} on {_esc(host['system'])}/"
        f"{_esc(host['machine'])}, {_esc(host['cpu'])}, "
        f"{_esc(host['nproc'])} CPUs &nbsp;&middot;&nbsp; "
        f"seed {_esc(results['seed'])} &nbsp;&middot;&nbsp; "
        f"{_esc(settings)}</p>",
    ]
    for name, summary in results["workloads"].items():
        failed = summary["failed"]
        parts += [
            f"<h2>{_esc(name)}</h2>",
            f"<p class='{'bad' if failed else 'ok'}'>{_esc(failed)} of "
            f"{_esc(summary['attempted'])} operations failed</p>",
        ]
        if summary["failures"]:
            parts.append("<ul>" + "".join(f"<li>{_esc(f)}</li>"
                                          for f in summary["failures"])
                         + "</ul>")
        parts.append(_end_to_end_table(summary))
        if "per_layer" in summary:
            parts += ["<h3>Per-layer self time (traced pass)</h3>",
                      _layers_section(summary)]

    if trace_base:
        parts.append("<h2>Flamegraph</h2>")
        paths = _trace.discover_trace_files(trace_base)
        totals: Dict[str, float] = {}
        if paths:
            totals, _ = _span_totals(_trace.stitch_files(paths))
        parts.append(flame_svg(
            totals, title=f"from trace {trace_base} "
                          f"({len(paths)} file(s))"))

    parts.append("</body></html>")
    return "\n".join(parts)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(prog="repro.tools.report",
                                     description=__doc__)
    parser.add_argument("results",
                        help="results file of perf/run.py --out")
    parser.add_argument("--trace", default=None,
                        help="trace base path (workers at "
                             "<trace>.<pid> auto-included)")
    parser.add_argument("--out", default=None,
                        help="output path (default: "
                             "report_<rev>.html)")
    args = parser.parse_args(argv)
    with open(args.results) as handle:
        results = json.load(handle)
    schema = results.get("schema") if isinstance(results, dict) else None
    if schema != SCHEMA:
        print(f"repro-report: {args.results} has schema {schema!r}; "
              f"expected {SCHEMA!r} (a perf/run.py --out file)",
              file=sys.stderr)
        return 2
    document = build_report(results, trace_base=args.trace)
    out = args.out or f"report_{results['rev']}.html"
    with open(out, "w") as handle:
        handle.write(document)
    print(f"wrote {out} ({len(document)} bytes, self-contained)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
