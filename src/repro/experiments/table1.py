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

from typing import List, Optional, Sequence

from ..gen import iscas89
from ..resilience import Budget
from ..transform import SweepConfig
from .runner import EXPERIMENT_SWEEP, RowResult, run_table, table_main


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
    return table_main(argv, __doc__, iscas89, "table1",
                      "Table 1: ISCAS89 (profile-synthesized)")


if __name__ == "__main__":
    raise SystemExit(main())
