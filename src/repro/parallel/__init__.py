"""Parallel strategy/experiment execution (Layer 0.7).

Fans the library's embarrassingly-parallel workloads — portfolio
strategies, per-design experiment rows, and ``prove()``'s independent
engine probes — across a ``concurrent.futures.ProcessPoolExecutor``
while keeping every output **byte-identical** to the sequential run:
outcomes merge in input order, budgets are pre-split via
:meth:`~repro.resilience.Budget.slice` and shipped as picklable
:class:`BudgetSpec` values (wall deadline as an absolute epoch
instant), typed errors return as values, worker crashes degrade
through the existing :class:`~repro.resilience.EngineFailure` path,
and each worker's obs snapshot folds into the parent registry under a
``parallel/`` prefix.

Two engines share that contract.  The original pool ships one future
and one pre-split budget slice per task; the work-stealing engine
(:mod:`repro.parallel.stealing`, ``stealing=True``) has workers steal
task indices from a shared deque under one shared cross-process budget
pool — used by the experiment grid.

Entry points: ``--jobs N`` on the ``table1`` / ``table2`` / ``report``
/ ``bound`` / ``bench`` CLIs, or the ``jobs=`` keyword on
:func:`repro.core.portfolio.compare_strategies`,
:func:`repro.experiments.runner.run_table` and
:func:`repro.core.prove.prove`.  ``jobs=1`` (the default) is exactly
the pre-existing sequential code path.

Stdlib-only, like every substrate layer below it.
"""

from .executor import BudgetSpec, ParallelExecutor, WorkerOutcome
from .stealing import SharedBudget
from . import workers

__all__ = [
    "BudgetSpec",
    "ParallelExecutor",
    "SharedBudget",
    "WorkerOutcome",
    "workers",
]
