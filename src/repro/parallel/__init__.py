"""Parallel experiment execution (Layer 0.7).

Fans the per-design rows of the Table 1/2 sweeps across one
work-stealing pool of worker processes (:mod:`repro.parallel.stealing`)
while keeping every output **byte-identical** to the sequential run:
idle workers steal the next task from a shared queue, outcomes merge in
input order, the tasks share one deadline (an absolute epoch instant in
a picklable :class:`BudgetSpec`), typed errors return as values, a task
that raises or a worker that dies costs only its own task through the
existing :class:`~repro.resilience.EngineFailure` path, and each task's
obs snapshot folds into the parent registry under a ``parallel/``
prefix.

Entry points: ``--jobs N`` on the ``table1`` / ``table2`` / ``report``
CLIs, or the ``jobs=`` keyword on
:func:`repro.experiments.runner.run_table`.  The task it fans out is
one module-level function next to its sequential loop
(:func:`repro.experiments.runner.run_design`), and ``jobs=1`` (the
default) or a single design calls it in that loop.  Strategy
portfolios stay sequential: they share transform prefixes, which a
pool would have to recompute.

Stdlib-only, like every substrate layer below it.
"""

from .executor import BudgetSpec, ParallelExecutor, WorkerOutcome

__all__ = [
    "BudgetSpec",
    "ParallelExecutor",
    "WorkerOutcome",
]
