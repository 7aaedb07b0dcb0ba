"""Reproduce Table 2: diameter bounding experiments, GP profiles.

Run as a module::

    python -m repro.experiments.table2 [--scale 0.25] [--designs L_LRU]
        [--max-registers 400]

The profiles are the paper's *phase-abstracted* GP netlists; latch-based
pre-abstraction variants (for exercising the PHASE engine itself) are
covered by ``repro.gen.gp.generate_latched`` and the phase-abstraction
benchmarks.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from .. import obs
from ..gen import gp
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
    """Evaluate the Table 2 designs; returns the per-design rows.

    ``budget`` bounds the whole table cooperatively; designs that do
    not fit the remaining budget become error rows (the table always
    completes).  ``jobs > 1`` fans the designs across a process pool;
    rows come back in design order, so the printed table is identical
    at any jobs value.
    """
    return run_table(gp.generate, gp.profiles(), scale=scale,
                     designs=designs, max_registers=max_registers,
                     sweep_config=sweep_config or EXPERIMENT_SWEEP,
                     budget=budget, jobs=jobs)


def run_latched(scale: float = 0.05,
                designs: Optional[Sequence[str]] = None,
                sweep_config: Optional[SweepConfig] = None
                ) -> List[RowResult]:
    """The full GP flow on *latch-based* designs.

    Each profile is wrapped into a two-phase master/slave latch netlist
    (``gp.generate_latched``) and run through ``PHASE`` + the Table 2
    pipelines; Theorem 3's factor-2 appears in every back-translated
    bound.  Small default scale: the latch wrapper doubles the state
    count before PHASE folds it back.
    """
    from .runner import LATCHED_STRATEGY, evaluate_design

    names = [d.upper() for d in designs] if designs else \
        ["L_SLB", "L_FLUSHN", "CLB_CNTL"]
    rows = []
    for name in names:
        net = gp.generate_latched(name, scale=scale)
        rows.append(evaluate_design(net, sweep_config=sweep_config,
                                    strategy_map=LATCHED_STRATEGY))
    return rows


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
    designs = parse_designs(parser, args.designs, gp.profiles())
    budget = Budget(wall_seconds=args.timeout, name="table2") \
        if args.timeout else None
    rows = run(scale=args.scale, designs=designs,
               max_registers=args.max_registers or None, budget=budget,
               jobs=args.jobs)
    print(format_table(rows, "Table 2: GP (profile-synthesized, "
                             "phase-abstracted)"))
    print()
    profiles = [p.scaled(min(args.scale,
                             (args.max_registers / p.registers)
                             if args.max_registers and p.registers else 1))
                for p in gp.profiles()
                if designs is None or p.name in {d.upper()
                                                 for d in designs}]
    comparisons = compare_useful_fractions(rows, profiles)
    print(format_comparison(comparisons,
                            "Paper-vs-measured |T'| fractions (Table 2)"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
