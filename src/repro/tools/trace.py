"""CLI: inspect streamed traces and gate bench-artifact regressions.

Usage::

    python -m repro.tools.trace summary  <trace[.pid]> [--top 15]
    python -m repro.tools.trace export   <trace> --format chrome
                                         [--out timeline.json]
    python -m repro.tools.trace flame    <trace> [--out stacks.txt]
    python -m repro.tools.trace diff     <trace_a> <trace_b> [--top 20]
    python -m repro.tools.trace trajectory [--dir benchmarks]
    python -m repro.tools.trace regress  <baseline.json> <candidate.json>
                                         [--threshold 1.3]
                                         [--min-seconds 0.05]
                                         [--report-only]

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
"where did the time move" between two runs.  ``trajectory`` renders
the encode/solve seconds and verdict trend across every committed
``benchmarks/BENCH_*.json`` as one markdown table.

``regress`` compares two committed bench artifacts
(``benchmarks/BENCH_<rev>.json``) metric by metric — per-section
seconds, the encode/solve time split and solver effort counters — and
exits 1 when any metric regressed beyond the threshold, making the
perf trajectory CI-gateable:

    python -m repro.tools.trace regress benchmarks/BENCH_pr3.json \
        benchmarks/BENCH_pr4.json --report-only

Only artifacts of the same workload compare: when both name their
``workload`` and the designs, the scale or the profile differ,
``regress`` prints why and exits 2, even under ``--report-only``.
"""

from __future__ import annotations

import argparse
import glob as _glob
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs import trace as _trace

#: Solver-effort counters compared by ``regress`` (deterministic
#: workload => deterministic counts; a jump means the encoding or the
#: search changed, not noise).
_SOLVER_KEYS = ("sat.conflicts", "sat.decisions", "sat.propagations",
                "sat.solve_calls")
#: Minimum absolute counter delta before a ratio counts as a
#: regression (tiny denominators otherwise explode the ratio).
_MIN_COUNT = 1000


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


def _self_times(totals: Dict[str, float]) -> Dict[str, float]:
    """Self time per path: its total minus its direct children's."""
    self_times = dict(totals)
    for path, seconds in totals.items():
        head, _, _ = path.rpartition("/")
        if head in self_times:
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
    "sample count" every flamegraph renderer expects.  Lines are
    sorted by path so the output is deterministic.
    """
    totals, _ = _span_totals(records)
    self_times = _self_times(totals)
    lines = []
    for path in sorted(self_times):
        us = int(max(0.0, self_times[path]) * 1e6)
        if us:
            lines.append(f"{path.replace('/', ';')} {us}")
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
# trajectory
# ----------------------------------------------------------------------
def _artifact_order(path: str) -> Tuple[int, int, str]:
    """Sort key: seed first, then prN by number, then the rest."""
    stem = os.path.basename(path)
    rev = stem[len("BENCH_"):-len(".json")]
    if rev == "seed":
        return (0, 0, rev)
    if rev.startswith("pr") and rev[2:].isdigit():
        return (1, int(rev[2:]), rev)
    return (2, 0, rev)


def trajectory_table(paths: List[str]) -> str:
    """The bench trend across ``paths`` as a markdown table."""
    lines = [
        "| rev | encode (s) | solve (s) | bmc | prove | "
        "solve p50 (ms) | p99 (ms) |",
        "|---|---:|---:|---|---|---:|---:|",
    ]
    for path in paths:
        with open(path) as handle:
            artifact = json.load(handle)
        rev = artifact.get("rev", os.path.basename(path))
        split = artifact.get("time_split", {})
        encode = split.get("encode_seconds")
        solve = split.get("solve_seconds")
        sections = artifact.get("sections", {})
        bmc = sections.get("bmc", {})
        bmc_cell = bmc.get("status", "-")
        if "depth_checked" in bmc:
            bmc_cell += f"@{bmc['depth_checked']}"
        prove = sections.get("prove", {})
        prove_cell = prove.get("status", "-")
        if prove.get("method"):
            prove_cell += f" ({prove['method']})"
        quant = artifact.get("metrics", {}).get("solve_latency", {})

        def sec(value: Any) -> str:
            return f"{value:.3f}" if isinstance(value, (int, float)) \
                else "-"

        def ms(value: Any) -> str:
            return f"{value * 1e3:.3f}" \
                if isinstance(value, (int, float)) else "-"

        lines.append(f"| {rev} | {sec(encode)} | {sec(solve)} "
                     f"| {bmc_cell} | {prove_cell} "
                     f"| {ms(quant.get('p50'))} "
                     f"| {ms(quant.get('p99'))} |")
    return "\n".join(lines)


def _cmd_trajectory(args: argparse.Namespace) -> int:
    pattern = os.path.join(args.dir, "BENCH_*.json")
    paths = sorted(_glob.glob(pattern), key=_artifact_order)
    if not paths:
        print(f"no artifacts matching {pattern}")
        return 2
    table = trajectory_table(paths)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(table + "\n")
        print(f"wrote {args.out} ({len(paths)} artifacts)")
    else:
        print(table)
    return 0


# ----------------------------------------------------------------------
# regress
# ----------------------------------------------------------------------
def _seconds_metrics(artifact: Dict[str, Any]) -> Dict[str, float]:
    """The wall-time metrics of a bench artifact, flattened."""
    metrics: Dict[str, float] = {}
    for name, section in artifact.get("sections", {}).items():
        seconds = section.get("seconds")
        if isinstance(seconds, (int, float)):
            metrics[f"sections.{name}.seconds"] = float(seconds)
    split = artifact.get("time_split", {})
    # The solve_* breakdown keys exist only in artifacts produced
    # since the flat-solver work; compare_artifacts skips metrics
    # missing from either side, so older baselines stay comparable.
    for key in ("encode_seconds", "solve_seconds",
                "solve_propagate_seconds", "solve_decide_seconds",
                "solve_analyze_seconds", "solve_other_seconds"):
        value = split.get(key)
        if isinstance(value, (int, float)):
            metrics[f"time_split.{key}"] = float(value)
    # Solve-latency quantiles (artifacts since the metrics layer);
    # per-solve latencies sit well under the min_seconds noise floor
    # on the smoke workload, so only real tail blowups can trip them.
    quant = artifact.get("metrics", {}).get("solve_latency", {})
    for key in ("p50", "p90", "p99"):
        value = quant.get(key)
        if isinstance(value, (int, float)):
            metrics[f"metrics.solve_latency.{key}"] = float(value)
    return metrics


def check_same_workload(baseline: Dict[str, Any],
                        candidate: Dict[str, Any]) -> None:
    """Raise :class:`ValueError` when two artifacts ran different work.

    Applies when both carry a ``workload`` block.  Designs and scale
    must match; the profile must match too when both name one
    (``BENCH_seed.json`` and ``BENCH_pr3.json`` predate the field).
    """
    base = baseline.get("workload")
    cand = candidate.get("workload")
    if not isinstance(base, dict) or not isinstance(cand, dict):
        return
    differs = (base.get("designs") != cand.get("designs")
               or base.get("scale") != cand.get("scale"))
    if "profile" in base and "profile" in cand:
        differs = differs or base["profile"] != cand["profile"]
    if differs:
        raise ValueError(
            f"different workloads: {baseline.get('rev', '?')} ran "
            f"{base}, {candidate.get('rev', '?')} ran {cand}")


def compare_artifacts(baseline: Dict[str, Any],
                      candidate: Dict[str, Any],
                      threshold: float = 1.3,
                      min_seconds: float = 0.05
                      ) -> List[Dict[str, Any]]:
    """Metric-by-metric comparison of two bench artifacts.

    Returns one row per compared metric with ``regressed`` set when
    the candidate is worse than ``threshold`` times the baseline AND
    the absolute change clears the noise floor (``min_seconds`` for
    wall times, :data:`_MIN_COUNT` for solver counters).

    Raises :class:`ValueError` when the two artifacts ran different
    workloads (see :func:`check_same_workload`): every row would then
    compare different work.
    """
    check_same_workload(baseline, candidate)
    rows: List[Dict[str, Any]] = []

    def row(metric: str, base: float, cand: float,
            regressed: bool) -> None:
        ratio = (cand / base) if base else None
        rows.append({"metric": metric, "baseline": base,
                     "candidate": cand, "ratio": ratio,
                     "regressed": regressed})

    base_seconds = _seconds_metrics(baseline)
    cand_seconds = _seconds_metrics(candidate)
    for metric in sorted(base_seconds):
        if metric not in cand_seconds:
            continue
        base, cand = base_seconds[metric], cand_seconds[metric]
        regressed = (cand > base * threshold
                     and cand - base > min_seconds)
        row(metric, base, cand, regressed)

    base_solver = baseline.get("solver", {})
    cand_solver = candidate.get("solver", {})
    for key in _SOLVER_KEYS:
        base, cand = base_solver.get(key), cand_solver.get(key)
        if not isinstance(base, (int, float)) or \
                not isinstance(cand, (int, float)):
            continue
        regressed = (base > 0 and cand > base * threshold
                     and cand - base > _MIN_COUNT)
        row(f"solver.{key}", float(base), float(cand), regressed)
    return rows


def _cmd_regress(args: argparse.Namespace) -> int:
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.candidate) as handle:
        candidate = json.load(handle)
    try:
        rows = compare_artifacts(baseline, candidate,
                                 threshold=args.threshold,
                                 min_seconds=args.min_seconds)
    except ValueError as exc:
        print(f"bench regress: refusing to compare: {exc}",
              file=sys.stderr)
        return 2
    base_rev = baseline.get("rev", args.baseline)
    cand_rev = candidate.get("rev", args.candidate)
    print(f"bench regress: {base_rev} -> {cand_rev} "
          f"(threshold {args.threshold:g}x, "
          f"noise floor {args.min_seconds:g} s / {_MIN_COUNT} counts)")
    regressions = [r for r in rows if r["regressed"]]
    for r in rows:
        mark = "REGRESSED" if r["regressed"] else "ok"
        ratio = f"{r['ratio']:.2f}x" if r["ratio"] is not None \
            else "  n/a"
        print(f"  {mark:<9} {ratio:>7}  "
              f"{r['baseline']:>12.3f} -> {r['candidate']:>12.3f}  "
              f"{r['metric']}")
    print(f"{len(regressions)} regression(s) over {len(rows)} metrics")
    if regressions and not args.report_only:
        return 1
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

    p_traj = sub.add_parser(
        "trajectory",
        help="markdown bench trend across committed BENCH_*.json")
    p_traj.add_argument("--dir", default="benchmarks")
    p_traj.add_argument("--out", default=None)
    p_traj.set_defaults(fn=_cmd_trajectory)

    p_regress = sub.add_parser(
        "regress", help="compare two BENCH_*.json artifacts")
    p_regress.add_argument("baseline")
    p_regress.add_argument("candidate")
    p_regress.add_argument("--threshold", type=float, default=1.3,
                           help="worse-than ratio that fails a metric "
                                "(default 1.3)")
    p_regress.add_argument("--min-seconds", type=float, default=0.05,
                           help="absolute wall-time noise floor "
                                "(default 0.05 s)")
    p_regress.add_argument("--report-only", action="store_true",
                           help="exit 0 even when metrics regressed "
                                "(informational runs)")
    p_regress.set_defaults(fn=_cmd_regress)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
