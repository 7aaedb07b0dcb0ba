"""CLI: regenerate the full experimental report as a markdown artifact.

Usage::

    python -m repro.experiments.report [--out results.md] [--scale 0.35]
        [--max-registers 300] [--designs-t1 ...] [--designs-t2 ...]

Runs both tables, renders the rows, the Σ lines, and the paper
comparisons into one self-contained markdown document — the mechanism
by which ``EXPERIMENTS.md`` numbers are refreshed.
"""

from __future__ import annotations

import argparse
import platform
from typing import List, Optional, Sequence

from .. import obs
from ..gen import gp, iscas89
from ..resilience import Budget
from ..tools.io import above, at_least, check_writable, write_or_exit
from .compare import compare_useful_fractions, format_comparison
from .runner import RowResult, cumulative, format_table, parse_designs, \
    select_profiles
from .table1 import run as run_table1
from .table2 import run as run_table2


def _scaled_profiles(profiles, scale, cap, designs):
    return [profile.scaled(effective_scale)
            for profile, effective_scale in select_profiles(
                profiles, scale, designs, cap)]


def generate_report(scale: float = 0.35,
                    max_registers: Optional[int] = 300,
                    designs_t1: Optional[Sequence[str]] = None,
                    designs_t2: Optional[Sequence[str]] = None,
                    budget: Optional[Budget] = None,
                    jobs: int = 1) -> str:
    """Run both tables and render a markdown report.

    ``budget`` is split evenly between the tables (Table 1 runs on a
    half slice, Table 2 on the remainder); exhausted designs render as
    error rows, so the report always completes.  ``jobs`` fans each
    table's designs across a process pool; rendered rows are in design
    order either way, so the document is identical at any jobs value.
    """
    # Monotonic timing (obs.Stopwatch wraps perf_counter): time.time()
    # is subject to NTP steps and can yield negative durations.
    watch = obs.stopwatch()
    lines: List[str] = [
        "# Experimental report (generated)",
        "",
        f"* scale: {scale}; per-design register cap: {max_registers}",
        f"* host: Python {platform.python_version()} on "
        f"{platform.system()} {platform.machine()}",
        "",
    ]
    with obs.span("report/table1"):
        rows1 = run_table1(scale=scale, designs=designs_t1,
                           max_registers=max_registers,
                           budget=budget.slice(0.5, name="report/t1")
                           if budget else None, jobs=jobs)
    lines.append("```")
    lines.append(format_table(rows1, "Table 1: ISCAS89 "
                                     "(profile-synthesized)"))
    lines.append("```")
    profiles1 = _scaled_profiles(iscas89.profiles(), scale,
                                 max_registers, designs_t1)
    lines.append("```")
    lines.append(format_comparison(
        compare_useful_fractions(rows1, profiles1),
        "Paper-vs-measured |T'| fractions (Table 1)"))
    lines.append("```")
    lines.append("")

    with obs.span("report/table2"):
        rows2 = run_table2(scale=scale, designs=designs_t2,
                           max_registers=max_registers, budget=budget,
                           jobs=jobs)
    lines.append("```")
    lines.append(format_table(rows2, "Table 2: GP (profile-synthesized,"
                                     " phase-abstracted)"))
    lines.append("```")
    profiles2 = _scaled_profiles(gp.profiles(), scale, max_registers,
                                 designs_t2)
    lines.append("```")
    lines.append(format_comparison(
        compare_useful_fractions(rows2, profiles2),
        "Paper-vs-measured |T'| fractions (Table 2)"))
    lines.append("```")
    lines.append("")
    sigma1 = cumulative(rows1)
    sigma2 = cumulative(rows2)
    lines.append("## Headline shape")
    lines.append("")
    for label, sigma, paper in (
            ("ISCAS89", sigma1, iscas89.TABLE1_SIGMA),
            ("GP", sigma2, gp.TABLE2_SIGMA)):
        frac = [sigma.columns[p].useful / max(1, sigma.columns[p].targets)
                for p in ("original", "com", "crc")]
        paper_frac = [paper[k]["useful"] / paper[k]["targets"]
                      for k in ("original", "com", "crc")]
        lines.append(
            f"* {label}: measured "
            f"{' → '.join(f'{x:.1%}' for x in frac)} "
            f"(paper full-scale: "
            f"{' → '.join(f'{x:.1%}' for x in paper_frac)})")
    lines.append("")
    lines.append(f"_Generated in {watch.elapsed:.1f} s._")
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="output file (default: stdout)")
    parser.add_argument("--scale", type=above(float, 0), default=0.35)
    parser.add_argument("--max-registers", type=at_least(int, 0),
                        default=300)
    parser.add_argument("--designs-t1", type=str, default=None)
    parser.add_argument("--designs-t2", type=str, default=None)
    parser.add_argument("--timeout", type=at_least(float, 0), default=0,
                        help="wall-clock budget in seconds for the "
                             "whole report (0 = unlimited)")
    parser.add_argument("--jobs", type=at_least(int, 1), default=1,
                        help="worker processes for per-design fan-out "
                             "(default 1 = sequential)")
    parser.add_argument("--progress", action="store_true",
                        help="report live engine progress on stderr")
    args = parser.parse_args(argv)
    obs.trace.setup_cli(parser, progress_flag=args.progress)
    designs_t1 = parse_designs(parser, args.designs_t1, iscas89.profiles())
    designs_t2 = parse_designs(parser, args.designs_t2, gp.profiles())
    if args.out:
        check_writable(parser, args.out)
    report = generate_report(
        scale=args.scale,
        max_registers=args.max_registers or None,
        designs_t1=designs_t1,
        designs_t2=designs_t2,
        budget=Budget(wall_seconds=args.timeout, name="report")
        if args.timeout else None,
        jobs=args.jobs,
    )
    if args.out:
        write_or_exit(parser, args.out, report)
        print(f"wrote {args.out}")
    else:
        print(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
