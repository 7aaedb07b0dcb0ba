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

from typing import List, Optional, Sequence

from ..gen import gp
from ..resilience import Budget
from ..transform import SweepConfig
from .runner import EXPERIMENT_SWEEP, RowResult, run_table, table_main


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
    return table_main(argv, __doc__, gp, "table2",
                      "Table 2: GP (profile-synthesized, "
                      "phase-abstracted)")


if __name__ == "__main__":
    raise SystemExit(main())
