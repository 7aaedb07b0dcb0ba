"""CLI: inspect streamed traces.

Usage::

    python -m repro.tools.trace summary  <trace[.pid]> [--top 15]
    python -m repro.tools.trace export   <trace> --format chrome
                                         [--out timeline.json]
    python -m repro.tools.trace flame    <trace> [--out stacks.txt]
    python -m repro.tools.trace diff     <trace_a> <trace_b> [--top 20]

``summary`` and ``export`` operate on the JSONL files written under
``REPRO_TRACE=<path>`` (see :mod:`repro.obs.trace`): given the parent
path they automatically pick up the per-worker siblings
``<path>.<pid>`` and stitch everything into one wall-clock-aligned
timeline.  ``export --format chrome`` writes Chrome trace-event JSON
loadable in ``chrome://tracing`` or https://ui.perfetto.dev.

``flame`` folds a stitched trace's span records into collapsed-stack
lines (``outer;inner self_microseconds``) — the input format of every
flamegraph renderer (Brendan Gregg's ``flamegraph.pl``, speedscope,
the inline SVG in ``repro-report``).  ``diff`` compares two traces by
span self-time and counter totals, largest absolute change first —
"where did the time move" between two runs.

Span names may themselves contain ``/`` (``obs.span("engine/phase")``
is the documented idiom), so a recorded path does not split into its
frames at every ``/``.  A path's parent is the longest proper
``/``-prefix that is itself a recorded path (:func:`span_parent`).
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Collection, Dict, List, Optional, Sequence, Tuple

from ..obs import trace as _trace


# ----------------------------------------------------------------------
# summary
# ----------------------------------------------------------------------
def _span_totals(records: List[Dict[str, Any]]
                 ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Total seconds and hit counts per hierarchical span path."""
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for record in records:
        if record.get("ty") != "E":
            continue
        path = record.get("path", "?")
        totals[path] = totals.get(path, 0.0) + record.get("dur", 0.0)
        counts[path] = counts.get(path, 0) + 1
    return totals, counts


def span_parent(path: str, paths: Collection[str]) -> Optional[str]:
    """The longest proper ``/``-prefix of ``path`` in ``paths``.

    None for a root.  ``span("ret/lp")`` opened inside ``span("ret")``
    records ``ret/ret/lp``, whose parent is ``ret``: the prefix
    ``ret/ret`` was never recorded.
    """
    head = path
    while "/" in head:
        head = head.rpartition("/")[0]
        if head in paths:
            return head
    return None


def _self_times(totals: Dict[str, float]) -> Dict[str, float]:
    """Self time per path: its total minus its direct children's."""
    self_times = dict(totals)
    for path, seconds in totals.items():
        head = span_parent(path, totals)
        if head is not None:
            self_times[head] -= seconds
    return self_times


def _counter_totals(records: List[Dict[str, Any]]) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for record in records:
        if record.get("ty") == "C":
            name = record.get("name", "?")
            totals[name] = totals.get(name, 0) + record.get("delta", 0)
    return totals


def _cmd_summary(args: argparse.Namespace) -> int:
    paths = _trace.discover_trace_files(args.trace)
    if not paths:
        print(f"no trace files at {args.trace}")
        return 2
    records = _trace.stitch_files(paths)
    by_type: Dict[str, int] = {}
    pids = set()
    for record in records:
        by_type[record.get("ty", "?")] = \
            by_type.get(record.get("ty", "?"), 0) + 1
        pids.add(record.get("pid"))
    stamped = [r["t"] for r in records if "t" in r]
    wall = (max(stamped) - min(stamped)) if stamped else 0.0
    print(f"{len(paths)} file(s), {len(records)} records, "
          f"{len(pids)} process(es), {wall:.3f} s wall")
    print("  " + "  ".join(f"{ty}:{n}"
                           for ty, n in sorted(by_type.items())))
    totals, counts = _span_totals(records)
    self_times = _self_times(totals)
    if totals:
        print(f"\ntop spans by self time (of {len(totals)} paths):")
        ranked = sorted(self_times.items(), key=lambda kv: -kv[1])
        for path, self_s in ranked[:args.top]:
            print(f"  {self_s:9.3f} s self  {totals[path]:9.3f} s "
                  f"total  x{counts[path]:<7} {path}")
    counters = _counter_totals(records)
    if counters:
        print(f"\ntop counters (of {len(counters)}):")
        ranked_counts = sorted(counters.items(), key=lambda kv: -kv[1])
        for name, value in ranked_counts[:args.top]:
            print(f"  {value:>12}  {name}")
    progress = [r for r in records if r.get("ty") == "P"]
    if progress:
        sources: Dict[str, int] = {}
        for record in progress:
            source = record.get("source", "?")
            sources[source] = sources.get(source, 0) + 1
        print("\nprogress heartbeats: "
              + "  ".join(f"{src}:{n}"
                          for src, n in sorted(sources.items())))
    return 0


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
def _cmd_export(args: argparse.Namespace) -> int:
    paths = _trace.discover_trace_files(args.trace)
    if not paths:
        print(f"no trace files at {args.trace}")
        return 2
    records = _trace.stitch_files(paths)
    if args.format == "chrome":
        document = _trace.to_chrome(records)
    else:  # "jsonl": the stitched record stream itself
        document = records
    out = args.out or (args.trace + ".chrome.json"
                       if args.format == "chrome"
                       else args.trace + ".stitched.jsonl")
    with open(out, "w") as handle:
        if args.format == "chrome":
            json.dump(document, handle)
            handle.write("\n")
        else:
            for record in records:
                handle.write(json.dumps(record) + "\n")
    print(f"wrote {out} ({len(records)} records from "
          f"{len(paths)} file(s))")
    return 0


# ----------------------------------------------------------------------
# flame
# ----------------------------------------------------------------------
def collapsed_stacks(records: List[Dict[str, Any]]) -> List[str]:
    """Collapsed-stack lines (``a;b;c <self_us>``) from span records.

    Self time per hierarchical path (total minus direct children,
    clamped at zero — cross-process aggregation can push a parent's
    residual slightly negative), in integer microseconds as the
    "sample count" every flamegraph renderer expects.  The frames
    follow :func:`span_parent`, so a span named ``ret/lp`` inside
    ``ret`` reads ``ret;ret/lp``.  Lines are sorted by path so the
    output is deterministic.
    """
    totals, _ = _span_totals(records)
    self_times = _self_times(totals)
    lines = []
    for path in sorted(self_times):
        us = int(max(0.0, self_times[path]) * 1e6)
        if not us:
            continue
        frames = []
        node: Optional[str] = path
        while node is not None:
            head = span_parent(node, totals)
            frames.append(node if head is None else node[len(head) + 1:])
            node = head
        lines.append(f"{';'.join(reversed(frames))} {us}")
    return lines


def _cmd_flame(args: argparse.Namespace) -> int:
    paths = _trace.discover_trace_files(args.trace)
    if not paths:
        print(f"no trace files at {args.trace}")
        return 2
    records = _trace.stitch_files(paths)
    lines = collapsed_stacks(records)
    if not lines:
        print("no span records in trace")
        return 2
    if args.out:
        with open(args.out, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"wrote {args.out} ({len(lines)} stacks from "
              f"{len(paths)} file(s))")
    else:
        try:
            print("\n".join(lines))
        except BrokenPipeError:  # `flame ... | head` is normal usage
            return 0
    return 0


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------
def _cmd_diff(args: argparse.Namespace) -> int:
    sides = []
    for base in (args.trace_a, args.trace_b):
        paths = _trace.discover_trace_files(base)
        if not paths:
            print(f"no trace files at {base}")
            return 2
        records = _trace.stitch_files(paths)
        totals, counts = _span_totals(records)
        sides.append((_self_times(totals), counts,
                      _counter_totals(records)))
    (self_a, counts_a, counters_a) = sides[0]
    (self_b, counts_b, counters_b) = sides[1]

    span_rows = []
    for path in sorted(set(self_a) | set(self_b)):
        a, b = self_a.get(path, 0.0), self_b.get(path, 0.0)
        if abs(b - a) > 1e-9:
            span_rows.append((abs(b - a), path, a, b))
    span_rows.sort(key=lambda row: (-row[0], row[1]))
    print(f"span self-time deltas ({args.trace_a} -> {args.trace_b}):")
    for _, path, a, b in span_rows[:args.top]:
        sign = "+" if b >= a else "-"
        print(f"  {a:9.3f} s -> {b:9.3f} s  ({sign}{abs(b - a):.3f} s)"
              f"  x{counts_a.get(path, 0)}->x{counts_b.get(path, 0)}"
              f"  {path}")
    if not span_rows:
        print("  (no span differences)")

    counter_rows = []
    for name in sorted(set(counters_a) | set(counters_b)):
        a, b = counters_a.get(name, 0), counters_b.get(name, 0)
        if a != b:
            counter_rows.append((abs(b - a), name, a, b))
    counter_rows.sort(key=lambda row: (-row[0], row[1]))
    print("\ncounter deltas:")
    for _, name, a, b in counter_rows[:args.top]:
        sign = "+" if b >= a else ""
        print(f"  {a:>12} -> {b:>12}  ({sign}{b - a})  {name}")
    if not counter_rows:
        print("  (no counter differences)")
    return 0


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(prog="repro.tools.trace",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_summary = sub.add_parser(
        "summary", help="top spans/counters of a stitched trace")
    p_summary.add_argument("trace", help="trace file (workers at "
                                         "<trace>.<pid> auto-included)")
    p_summary.add_argument("--top", type=int, default=15)
    p_summary.set_defaults(fn=_cmd_summary)

    p_export = sub.add_parser(
        "export", help="export a stitched trace for visualization")
    p_export.add_argument("trace")
    p_export.add_argument("--format", choices=["chrome", "jsonl"],
                          default="chrome")
    p_export.add_argument("--out", default=None)
    p_export.set_defaults(fn=_cmd_export)

    p_flame = sub.add_parser(
        "flame", help="collapsed-stack flamegraph input from a trace")
    p_flame.add_argument("trace", help="trace file (workers at "
                                       "<trace>.<pid> auto-included)")
    p_flame.add_argument("--out", default=None,
                         help="write stacks here instead of stdout")
    p_flame.set_defaults(fn=_cmd_flame)

    p_diff = sub.add_parser(
        "diff", help="span self-time and counter deltas of two traces")
    p_diff.add_argument("trace_a")
    p_diff.add_argument("trace_b")
    p_diff.add_argument("--top", type=int, default=20)
    p_diff.set_defaults(fn=_cmd_diff)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
