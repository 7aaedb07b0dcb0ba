"""Parallel strategy/experiment execution (Layer 0.7).

Fans the library's embarrassingly-parallel workloads — portfolio
strategies and per-design experiment rows — across one work-stealing
pool of worker processes (:mod:`repro.parallel.stealing`) while keeping
every output **byte-identical** to the sequential run: idle workers
steal the next task from a shared queue, outcomes merge in input
order, the tasks share one cross-process budget (wall deadline as an
absolute epoch instant in a picklable :class:`BudgetSpec`,
conflict/query pools as shared counters behind :class:`SharedBudget`),
typed errors return as values, a task that raises or a worker that
dies costs only its own task through the existing
:class:`~repro.resilience.EngineFailure` path, and each task's obs
snapshot folds into the parent registry under a ``parallel/`` prefix.

Entry points: ``--jobs N`` on the ``table1`` / ``table2`` / ``report``
/ ``bound`` CLIs, or the ``jobs=`` keyword on
:func:`repro.core.portfolio.compare_strategies` and
:func:`repro.experiments.runner.run_table`.  ``jobs=1`` (the default)
is exactly the pre-existing sequential code path.

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
