"""Reproduce Table 1: diameter bounding experiments, ISCAS89 profiles.

Run as a module::

    python -m repro.experiments.table1 [--scale 0.25] [--designs S953,S641]
        [--max-registers 400]

``--scale`` shrinks every profile's register/target counts (the paper's
largest designs take minutes under the pure-Python COM engine at full
scale); ``--max-registers`` caps individual designs instead.  The shape
comparison against the paper's Σ row is printed either way.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from .. import obs
from ..gen import iscas89
from ..resilience import Budget
from ..tools.io import above, at_least
from ..transform import SweepConfig
from .compare import compare_useful_fractions, format_comparison
from .runner import EXPERIMENT_SWEEP, RowResult, format_table, \
    parse_designs, run_table


def run(scale: float = 1.0,
        designs: Optional[Sequence[str]] = None,
        max_registers: Optional[int] = None,
        sweep_config: Optional[SweepConfig] = None,
        budget: Optional[Budget] = None,
        jobs: int = 1) -> List[RowResult]:
    """Evaluate the Table 1 designs; returns the per-design rows.

    ``budget`` bounds the whole table cooperatively; designs that do
    not fit the remaining budget become error rows (the table always
    completes).  ``jobs > 1`` fans the designs across a process pool;
    rows come back in design order, so the printed table is identical
    at any jobs value.
    """
    return run_table(iscas89.generate, iscas89.profiles(), scale=scale,
                     designs=designs, max_registers=max_registers,
                     sweep_config=sweep_config or EXPERIMENT_SWEEP,
                     budget=budget, jobs=jobs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=above(float, 0), default=0.25,
                        help="profile scale factor (default 0.25)")
    parser.add_argument("--designs", type=str, default=None,
                        help="comma-separated design subset")
    parser.add_argument("--max-registers", type=at_least(int, 0),
                        default=400,
                        help="per-design register cap (0 = none)")
    parser.add_argument("--timeout", type=at_least(float, 0), default=0,
                        help="wall-clock budget in seconds for the "
                             "whole table (0 = unlimited); exhausted "
                             "designs become error rows")
    parser.add_argument("--jobs", type=at_least(int, 1), default=1,
                        help="worker processes for per-design fan-out "
                             "(default 1 = sequential)")
    parser.add_argument("--progress", action="store_true",
                        help="report live engine progress on stderr")
    args = parser.parse_args(argv)
    obs.trace.setup_cli(progress_flag=args.progress)
    designs = parse_designs(parser, args.designs, iscas89.profiles())
    budget = Budget(wall_seconds=args.timeout, name="table1") \
        if args.timeout else None
    rows = run(scale=args.scale, designs=designs,
               max_registers=args.max_registers or None, budget=budget,
               jobs=args.jobs)
    print(format_table(rows, "Table 1: ISCAS89 (profile-synthesized)"))
    print()
    profiles = [p.scaled(min(args.scale,
                             (args.max_registers / p.registers)
                             if args.max_registers and p.registers else 1))
                for p in iscas89.profiles()
                if designs is None or p.name in {d.upper()
                                                 for d in designs}]
    comparisons = compare_useful_fractions(rows, profiles)
    print(format_comparison(comparisons,
                            "Paper-vs-measured |T'| fractions (Table 1)"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
